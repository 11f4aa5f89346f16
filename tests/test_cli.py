"""End-to-end runs of every subcommand through the argument parser."""

import json
from pathlib import Path

import pytest

from hyperblocks.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- blocks -----------------------------------------------------------------------


def test_blocks_text(capsys):
    code, out, _ = run(capsys, "blocks", "--group", "Z3")
    assert code == 0
    assert "A B C" in out.replace("  ", " ") or "A" in out
    assert "Z3" in out


def test_blocks_json(capsys):
    code, out, _ = run(capsys, "blocks", "--group", "Z7", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["b"] == 12
    assert d["coefficient_matrix"]["rows"][0] == [1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
    assert d["table"][1] == ["B", "G", "H", "I", "J", "K", "H"]


def test_blocks_csv(capsys):
    code, out, _ = run(capsys, "blocks", "--group", "Z3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[:3] == ["A,B,C", "B,C,D", "C,D,B"]


def test_blocks_requires_group(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "blocks")
    assert exc.value.code == 2


def test_blocks_ambiguous_minus_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "blocks", "--group", "Z2xZ2")
    assert exc.value.code == 2


def test_blocks_out_file(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    code, out, _ = run(
        capsys, "blocks", "--group", "Z3", "--format", "csv", "--out", str(target)
    )
    assert code == 0
    assert target.read_text().splitlines()[0] == "A,B,C"


# -- census -----------------------------------------------------------------------


def test_census_text(capsys):
    code, out, _ = run(capsys, "census", "--group", "Z3")
    assert code == 0
    assert "subsets=16 hyperfields=9 classes=7 ample=6" in out


def test_census_json_class_count(capsys):
    code, out, _ = run(capsys, "census", "--group", "Z3", "--format", "json")
    d = json.loads(out)
    assert d["hyperfield_count"] == 9
    assert len(d["classes"]) == 7


def test_census_all_minus_ones(capsys):
    code, out, _ = run(capsys, "census", "--group", "Z4")
    assert code == 0
    # one census per legal choice of -1
    assert out.count("subsets=32") == 2


def test_census_shards_sum_to_the_whole(capsys):
    _, out, _ = run(capsys, "census", "--group", "Z5", "--format", "json")
    whole = {c["canonical_pi"]: c["members"] for c in json.loads(out)["classes"]}
    summed = {}
    for i in range(3):
        code, out, _ = run(
            capsys, "census", "--group", "Z5", "--shard", f"{i}/3", "--format", "json"
        )
        assert code == 0
        for c in json.loads(out)["classes"]:
            summed[c["canonical_pi"]] = summed.get(c["canonical_pi"], 0) + c["members"]
    assert summed == whole


def test_census_shard_spans(capsys):
    codes = []
    examined = 0
    for i in range(3):
        code, out, _ = run(
            capsys, "census", "--group", "Z3", "--minus-one", "0",
            "--shard", f"{i}/3", "--format", "json",
        )
        codes.append(code)
        examined += json.loads(out)["subsets_examined"]
    assert codes == [0, 0, 0]
    assert examined == 16


def test_census_shard_resolves_minus_one(capsys):
    code, out, _ = run(capsys, "census", "--group", "Z5", "--shard", "0/2")
    assert code == 0
    assert "subsets=64 " in out  # half of Z5's 2^7 subsets
    with pytest.raises(SystemExit) as exc:
        run(capsys, "census", "--group", "Z4", "--shard", "0/2")
    assert exc.value.code == 2
    assert "--minus-one is ambiguous for Z4; candidates: 0, 2" in capsys.readouterr().err
    for argv in (["--shard", "2/2"], ["--shard", "1/x"], ["--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--group", "Z5", *argv])
        assert exc.value.code == 2


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize(
    "name, argv",
    [
        ("census_Z7_full", ["--group", "Z7", "--mode", "full"]),
        ("census_Z7_ample-only", ["--group", "Z7", "--mode", "ample-only"]),
        ("census_Z2xZ4_m2_full", ["--group", "Z2xZ4", "--minus-one", "2"]),
    ],
)
def test_census_output_is_byte_for_byte_golden(capsys, name, argv, fmt):
    code, out, _ = run(capsys, "census", *argv, "--format", fmt)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{fmt}").read_bytes()


def test_census_budget_exit_code(capsys):
    code, _, err = run(capsys, "census", "--group", "Z7", "--budget", "5")
    assert code == 3
    assert "capacity" in err.lower() or "budget" in err.lower() or "exceeds" in err.lower()


# -- verify -----------------------------------------------------------------------


def test_verify_good_candidate(capsys):
    code, out, _ = run(capsys, "verify", "--group", "Z3", "--blocks", "BD")
    assert code == 0
    assert "verified-hyperfield" in out


def test_verify_failed_candidate(capsys):
    code, out, _ = run(capsys, "verify", "--group", "Z3", "--blocks", "AD")
    assert code == 1
    assert "associativity" in out


def test_verify_pi_source(capsys):
    code, out, _ = run(
        capsys, "verify", "--group", "Z3", "--pi", "011111111", "--format", "json"
    )
    assert code == 0
    entry = json.loads(out)
    assert entry["ok"] is True
    assert entry["ample"] is True


def test_group_alone_is_the_full_relation(capsys):
    code, out, _ = run(capsys, "verify", "--group", "Z3")
    assert code == 0
    assert "blocks=ABCD: verified-hyperfield" in out
    code, out, _ = run(capsys, "fetvins", "--group", "Z3")
    assert code == 0
    assert out.strip() == "all 257 systems solvable up to 3 variables"


def test_verify_append_and_show(tmp_path, capsys):
    cat = tmp_path / "cat.jsonl"
    code, _, _ = run(
        capsys, "verify", "--group", "Z3", "--blocks", "BCD", "--append", str(cat)
    )
    assert code == 0
    code, _, _ = run(
        capsys, "verify", "--group", "Z3", "--blocks", "BD", "--append", str(cat)
    )
    assert code == 0
    code, out, _ = run(capsys, "show", "--in", str(cat))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "ample=True" in lines[0]
    assert "ample=False" in lines[1]

    code, out, _ = run(capsys, "show", "--in", str(cat), "--format", "json")
    recs = json.loads(out)
    assert recs[0]["candidate"]["pi"] == "011111111"
    assert recs[0]["provenance"]["tool"] == "hyperblocks"

    code, out, _ = run(capsys, "show", "--in", str(cat), "--format", "csv")
    assert out.splitlines()[0] == "group,minus_one,pi,status,flags,run_id"


def test_verify_from_catalog_file(tmp_path, capsys):
    cat = tmp_path / "cat.jsonl"
    run(capsys, "verify", "--group", "Z3", "--blocks", "ABCD", "--append", str(cat))
    code, out, _ = run(capsys, "verify", "--in", str(cat))
    assert code == 0
    assert "verified-hyperfield" in out


def test_show_requires_infile(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "show")
    assert exc.value.code == 2


# -- count ------------------------------------------------------------------------


def test_count_text(capsys):
    code, out, _ = run(capsys, "count", "--group", "Z5")
    assert code == 0
    assert "exact=28" in out
    assert "lower bound=16" in out


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--group", "Z3", "--format", "json")
    d = json.loads(out)
    assert d["exact_count"] == 6
    assert d["lower_bound"] == 4
    assert d["infinite_quotient_bound"] == 2
    assert d["b"] == 4


def test_count_z9_bound(capsys):
    code, out, _ = run(capsys, "count", "--group", "Z9", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert (d["exact_count"], d["lower_bound"], d["b_prime"]) == (55709, 16384, 42)


def test_count_z13_within_the_default_budget(capsys):
    # 35 columns; the DP peaks at 9,746 of the 2^20 live states allowed
    code, out, _ = run(capsys, "count", "--group", "Z13")
    assert code == 0
    assert "exact=1598203438 lower bound=268435456 (b'=85, 50 swaps)" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--group", "Z3", "--budget", "-1"],
        ["census", "--group", "Z3", "--budget", "-2"],
        ["fetvins", "--group", "Z3", "--blocks", "BD", "--nmax", "0"],
        ["fetvins", "--group", "Z3", "--blocks", "BD", "--nmax", "-1"],
        ["fetvins", "--group", "Z3", "--blocks", "BD", "--budget", "-1"],
        ["quotient", "--group", "Z3", "--blocks", "BD", "--bound", "-5"],
        ["count", "--group", "Z3", "--budget", "many"],
    ],
)
def test_out_of_range_values_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}" in capsys.readouterr().err


def test_count_budget_applies_to_odd_order(capsys):
    # --budget caps the live states of the counting DP; Z7 needs 35
    code, _, err = run(capsys, "count", "--group", "Z7", "--budget", "5")
    assert code == 3
    assert "capacity" in err.lower() and "live counting states exceed 5" in err
    code, out, _ = run(capsys, "count", "--group", "Z7", "--budget", "35")
    assert code == 0 and "exact=612" in out


def test_count_even_order_has_no_bound(capsys):
    code, out, _ = run(
        capsys, "count", "--group", "Z4", "--minus-one", "0", "--format", "json"
    )
    assert code == 0
    d = json.loads(out)
    assert d["lower_bound"] is None
    assert d["exact_count"] > 0


# -- quotient ---------------------------------------------------------------------


def test_quotient_build_mode(capsys):
    code, out, _ = run(capsys, "quotient", "--q", "7", "--r", "3")
    assert code == 0
    assert "CD" in out
    assert "verified: True" in out


def test_quotient_build_json(capsys):
    code, out, _ = run(capsys, "quotient", "--q", "16", "--r", "3", "--format", "json")
    d = json.loads(out)
    assert d["q"] == 16
    assert d["modulus"] == "x^4 + x + 1"
    assert d["ok"] is True


def test_quotient_status_mode(capsys):
    code, out, _ = run(capsys, "quotient", "--group", "Z3", "--blocks", "BD")
    assert code == 0
    assert "quotient" in out
    assert "q=7" in out or "GF(7)" in out

    code, out, _ = run(capsys, "quotient", "--group", "Z3", "--blocks", "ABC")
    assert code == 0
    assert "nonquotient" in out


def test_quotient_status_json(capsys):
    code, out, _ = run(
        capsys, "quotient", "--group", "Z3", "--blocks", "BCD", "--format", "json"
    )
    d = json.loads(out)
    assert d["status"] == "quotient"
    assert d["q"] == 13
    assert d["generator"] == 8
    assert d["q_bound"] == 81


def test_quotient_rejects_bad_r(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "quotient", "--q", "7", "--r", "4")
    assert exc.value.code == 2


# -- fetvins ----------------------------------------------------------------------


def test_fetvins_check(capsys):
    code, out, _ = run(capsys, "fetvins", "--group", "Z3", "--blocks", "BCD")
    assert code == 0
    assert "all 257 systems solvable" in out


def test_fetvins_check_json(capsys):
    code, out, _ = run(
        capsys, "fetvins", "--group", "Z3", "--blocks", "BC", "--format", "json"
    )
    d = json.loads(out)
    assert d["ok"] is True
    assert d["systems_checked"] == 257


def test_fetvins_solve_system(capsys):
    code, out, _ = run(
        capsys, "fetvins", "--group", "Z3", "--blocks", "BCD",
        "--system", "[[0, 0, 0], [0, 1, 2]]",
    )
    assert code == 0
    assert "solution:" in out


def test_fetvins_solve_system_json(capsys):
    code, out, _ = run(
        capsys, "fetvins", "--group", "Z3", "--blocks", "ABCD",
        "--system", "[[0, 0, 0, 0], [0, 1, -1, -1]]", "--format", "json",
    )
    assert code == 0
    d = json.loads(out)
    assert len(d["solution"]) == 4
    assert any(v != -1 for v in d["solution"])


def test_fetvins_rejects_unverifiable_candidate(capsys):
    code, out, _ = run(capsys, "fetvins", "--group", "Z3", "--blocks", "AD")
    assert code == 1


def test_fetvins_solver_requires_ample(capsys):
    code, _, err = run(
        capsys, "fetvins", "--group", "Z3", "--blocks", "BD",
        "--system", "[[0, 0, 0]]",
    )
    assert code == 1


# -- top level ----------------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys)
    assert exc.value.code == 2


def test_bad_group_spec(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "blocks", "--group", "K4")
    assert exc.value.code == 2


def test_bad_pi_length(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--group", "Z3", "--pi", "0101")
    assert exc.value.code == 2
