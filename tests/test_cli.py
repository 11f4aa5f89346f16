"""End-to-end runs of every subcommand through the argument parser."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hyperblocks import (
    AbelianGroup,
    build_candidate,
    canonical_form,
    census,
    compute_blocks,
    linear,
    quotients,
    verify_axioms,
)
from hyperblocks.cli import build_parser, main
from hyperblocks.quotients import FiniteField


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


def test_ambiguous_minus_one_names_the_orbits(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "blocks", "--group", "Z2xZ4")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "candidates: 0, 2, 4, 6; up to automorphism: 0 | 2 | 4, 6" in err


def test_blocks_out_file(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    code, out, _ = run(
        capsys, "blocks", "--group", "Z3", "--format", "csv", "--out", str(target)
    )
    assert code == 0
    assert target.read_text().splitlines()[0] == "A,B,C"


def test_blocks_output_matches_pinned_digests(capsys):
    # sha256 of the text and JSON output of every (group, -1) of order <= 16,
    # written by the tuple-based block layer that the array code replaced
    pinned = json.loads((Path(__file__).parent / "data" / "blocks_digests.json").read_text())
    assert len(pinned) == 77
    differing = []
    for partition, digests in sorted(pinned.items()):
        spec, m1 = partition.split("/")
        for fmt, digest in digests.items():
            code, out, _ = run(capsys, "blocks", "--group", spec, "--minus-one", m1, "--format", fmt)
            assert code == 0
            if hashlib.sha256(out.encode("utf-8")).hexdigest() != digest:
                differing.append((partition, fmt))
    assert differing == []


def test_blocks_past_the_coefficient_budget_ends_quickly(capsys):
    # Z1024 partitions into 175,275 blocks, so its counts would hold 179M entries
    start = time.perf_counter()
    code, out, err = run(capsys, "blocks", "--group", "Z1024", "--minus-one", "0")
    assert time.perf_counter() - start < 10.0
    assert code == 3
    assert out == ""
    assert "capacity exceeded" in err
    assert "33554432-entry budget" in err


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


def test_census_text_builds_no_pi_strings(capsys, monkeypatch):
    # the text format prints only columns: example blocks, members and ample flag
    def refuse(*args):
        raise AssertionError("pi strings built")

    monkeypatch.setattr(census, "_pi_strings", refuse)
    code, out, _ = run(capsys, "census", "--group", "Z7")
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / "census_Z7_full.text").read_bytes()


def test_census_labels_past_z_are_comma_separated(capsys):
    # the last of 2^16 shards of Z12's 2^31 subsets sets block 30, AE
    code, out, _ = run(
        capsys, "census", "--group", "Z12", "--minus-one", "0", "--budget", "31",
        "--shard", "65535/65536", "--format", "json",
    )
    assert code == 0
    classes = json.loads(out)["classes"]
    assert classes
    bp = compute_blocks(AbelianGroup.from_spec("Z12"), 0)
    for cl in classes:
        assert cl["example_blocks"].endswith(",AE")
        h = build_candidate(bp, bp.subset_from_labels(cl["example_blocks"]))
        assert verify_axioms(h).ok
        assert canonical_form(h) == cl["canonical_pi"]


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


def test_verify_names_blocks_past_z_by_comma_separated_labels(capsys):
    # Z12 has 31 blocks, A..Z then AA..AE: AB is one block, A,B two
    bp = compute_blocks(AbelianGroup.from_spec("Z12"), 0)
    for labels, mask in (("AB", 1 << 27), ("A,B", 0b11), ("ae,b", 1 << 30 | 0b10)):
        code, out, _ = run(
            capsys, "verify", "--group", "Z12", "--minus-one", "0", "--blocks", labels,
            "--format", "json",
        )
        entry = json.loads(out)
        assert entry["pi"] == build_candidate(bp, mask).pi_bits()
        assert entry["blocks"] == bp.mask_labels(mask)
        assert code == (0 if entry["ok"] else 1)
    for concatenated in ("BD", "ABC"):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--group", "Z12", "--minus-one", "0", "--blocks", concatenated)
        assert exc.value.code == 2
        assert "have A,B,C," in capsys.readouterr().err


def test_verify_pi_source(capsys):
    code, out, _ = run(
        capsys, "verify", "--group", "Z3", "--pi", "011111111", "--format", "json"
    )
    assert code == 0
    entry = json.loads(out)
    assert entry["ok"] is True
    assert entry["ample"] is True


def test_verify_names_no_blocks_for_a_relation_that_is_no_union(capsys):
    argv = ("verify", "--group", "Z3", "--minus-one", "0", "--pi", "010000000")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "blocks=-" in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    assert json.loads(out)["blocks"] is None


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


def usage_error(capsys, *argv) -> str:
    """The message of a run that must end in a usage error (exit 2)."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["blocks", "--group", "Z3", "--minus-one", "1"], "does not square to the identity"),
        (["quotient", "--q", "7"], "--q needs --r"),
        (["fetvins", "--group", "Z3", "--blocks", "BCD", "--system", "[[0,1"], "bad --system"),
        (["fetvins", "--group", "Z3", "--blocks", "BCD", "--system", "[[0,9,0]]"], "out of range"),
        # a coefficient that is not an integer is named, never truncated or read as 0 or 1
        (["fetvins", "--group", "Z3", "--blocks", "BC", "--system", "[[0, 1.5, -1]]"], "coefficient 1.5 is not an integer"),
        (["fetvins", "--group", "Z3", "--blocks", "BC", "--system", "[[0, true, -1]]"], "coefficient true is not an integer"),
        (["fetvins", "--group", "Z3", "--blocks", "BC", "--system", '[["2", 0, 1]]'], 'coefficient "2" is not an integer'),
        (["fetvins", "--group", "Z3", "--blocks", "BC", "--system", "[0, 1, 2]"], "expected a JSON list of equations"),
    ],
)
def test_bad_arguments_are_usage_errors(capsys, argv, message):
    assert message in usage_error(capsys, *argv)


def test_empty_catalog_is_a_usage_error_for_fetvins(tmp_path, capsys):
    cat = tmp_path / "empty.jsonl"
    cat.write_text("", encoding="utf-8")
    assert "no candidate given" in usage_error(capsys, "fetvins", "--in", str(cat))


@pytest.mark.parametrize("command", ["show", "verify", "quotient"])
def test_missing_catalog_is_a_usage_error(tmp_path, capsys, command):
    missing = tmp_path / "missing.jsonl"
    err = usage_error(capsys, command, "--in", str(missing))
    assert f"cannot read catalog {missing}: No such file or directory" in err


@pytest.mark.parametrize("command", ["show", "verify", "quotient"])
def test_malformed_catalog_line_is_a_usage_error(tmp_path, capsys, command):
    cat = tmp_path / "cat.jsonl"
    run(capsys, "verify", "--group", "Z3", "--blocks", "BCD", "--append", str(cat))
    with cat.open("a", encoding="utf-8") as fh:
        fh.write("not json\n")
    err = usage_error(capsys, command, "--in", str(cat))
    assert f"bad catalog {cat}: line 2: JSONDecodeError" in err


@pytest.mark.parametrize("command", ["show", "verify", "quotient"])
def test_invalid_catalog_record_is_a_usage_error(tmp_path, capsys, command):
    # a pi string one bit short for Z3, a -1 that is not an element of Z3, then
    # a factor below 2 whose square order would exceed the table budget
    cat = tmp_path / "cat.jsonl"
    short = {"candidate": {"group": {"factors": [3]}, "minus_one": 0, "pi": "01111111"}}
    cat.write_text(json.dumps(short) + "\n", encoding="utf-8")
    err = usage_error(capsys, command, "--in", str(cat))
    assert f"bad catalog {cat}: line 1: ValueError: pi bit string must be 9 chars" in err
    far = {"candidate": {"group": {"factors": [3]}, "minus_one": 3, "pi": "011111111"}}
    cat.write_text("\n" + json.dumps(far) + "\n", encoding="utf-8")
    err = usage_error(capsys, command, "--in", str(cat))
    assert f"bad catalog {cat}: line 2: ValueError: minus_one=3 is not an element of order <= 2" in err
    negative = {"candidate": {"group": {"factors": [-2000]}, "minus_one": 0, "pi": "0"}}
    cat.write_text(json.dumps(negative) + "\n", encoding="utf-8")
    err = usage_error(capsys, command, "--in", str(cat))
    assert f"bad catalog {cat}: line 1: ValueError: cyclic factor must be >= 2, got -2000" in err


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


def test_budget_defaults_are_the_library_constants():
    parser = build_parser()
    assert parser.parse_args(["census"]).budget == census.SUBSET_BUDGET_BITS
    assert parser.parse_args(["fetvins"]).budget == linear.BRUTE_BUDGET


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


def test_quotient_build_mode_builds_the_field_once(capsys, monkeypatch):
    quotients._quotient_data.cache_clear()
    built = []
    init = FiniteField.__init__
    monkeypatch.setattr(FiniteField, "__init__", lambda self, q: built.append(q) or init(self, q))
    assert main(["quotient", "--q", "16", "--r", "3"]) == 0
    assert built == [16]
    assert "modulus: x^4 + x + 1" in capsys.readouterr().out


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


def test_quotient_above_order_256(capsys):
    code, out, _ = run(capsys, "quotient", "--q", "263", "--r", "262")
    assert code == 0
    assert "-> Z262 " in out
    assert "verified: True" in out


@pytest.mark.parametrize(
    "argv",
    [("quotient", "--q", "4099", "--r", "4098"), ("blocks", "--group", "Z2000", "--minus-one", "0")],
)
def test_groups_past_the_table_budget_exit_3(capsys, argv):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "exceeds the 1048576-entry budget" in err


def test_huge_field_size_exits_3_at_once(capsys):
    # a prime near 10^18: the field size cap refuses it before any factoring
    start = time.perf_counter()
    code, _, err = run(capsys, "quotient", "--q", "1000000000000000003", "--r", "2")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "exceeds the field size cap" in err


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


def cli_process(*argv, stdout):
    """The CLI run in a process of its own, with stderr piped and stdout block-buffered."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "hyperblocks.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
    )


def assert_quiet_exit_1(proc):
    with proc:
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_stdout_closed_mid_output_exits_1_without_a_traceback():
    # Z128's grid is about 750 KB, more than a pipe holds
    proc = cli_process("blocks", "--group", "Z128", "--minus-one", "0", stdout=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"group Z128")
    proc.stdout.close()
    assert_quiet_exit_1(proc)


def test_stdout_closed_before_the_flush_exits_1_without_a_traceback():
    # count's few bytes wait in stdout's buffer, so the closed pipe fails only at the flush
    read, write = os.pipe()
    os.close(read)
    proc = cli_process("count", "--group", "Z3", stdout=write)
    os.close(write)
    assert_quiet_exit_1(proc)


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
