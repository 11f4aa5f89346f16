"""Catalog records: serialization, provenance, appending, dedup."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperblocks import (
    AbelianGroup,
    HyperfieldCandidate,
    append_records,
    build_candidate,
    canonical_form,
    compute_blocks,
    dedup_records,
    load_records,
    make_record,
    verify_axioms,
)
from hyperblocks.catalog import candidate_from_dict, candidate_to_dict, canonical_json
from hyperblocks.census import automorphisms_fixing
from hyperblocks.groups import _cayley_table


def test_candidate_dict_round_trip(z3_named):
    for h in z3_named.values():
        d = candidate_to_dict(h)
        assert d["group"] == {"factors": [3]}
        assert d["minus_one"] == 0
        assert len(d["pi"]) == 9
        again = candidate_from_dict(d)
        assert again == h
        assert again.status == h.status


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b
    assert " " not in a


def test_make_record_provenance(z3_named):
    h = z3_named["BCD"]
    rec1 = make_record(h, ample=True, verified=True)
    rec2 = make_record(h, ample=True, verified=True)
    assert rec1.provenance["tool"] == "hyperblocks"
    assert rec1.provenance["run_id"] == rec2.provenance["run_id"]
    assert len(rec1.provenance["run_id"]) == 16
    # different flags, different id
    rec3 = make_record(h, ample=False, verified=True)
    assert rec3.provenance["run_id"] != rec1.provenance["run_id"]
    # None flags are dropped
    rec4 = make_record(h, ample=True, verified=None)
    assert "verified" not in rec4.flags


def test_record_dict_round_trip(z3_named):
    rec = make_record(z3_named["BD"], ample=False)
    d = rec.to_dict()
    again = type(rec).from_dict(d)
    assert again == rec


def test_append_and_load(tmp_path, z3_named):
    path = tmp_path / "catalog.jsonl"
    recs = [make_record(z3_named["BD"], ample=False), make_record(z3_named["BCD"], ample=True)]
    assert append_records(path, recs) == 2
    assert append_records(path, [make_record(z3_named["ABCD"], ample=True)]) == 1
    loaded = load_records(path)
    assert loaded == recs + [make_record(z3_named["ABCD"], ample=True)]
    # the file is one JSON object per line
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert all(json.loads(line) for line in lines)


def test_dedup_collapses_isomorphic(z3_named):
    assert canonical_form(z3_named["BD"]) == canonical_form(z3_named["CD"])
    recs = [
        make_record(z3_named["BD"], ample=False),
        make_record(z3_named["CD"], ample=False),
        make_record(z3_named["BCD"], ample=True),
    ]
    kept = dedup_records(recs)
    assert len(kept) == 2
    assert kept[0].candidate == z3_named["BD"]


def test_status_travels_with_record(z3, z3_named):
    h = z3_named["ABC"]
    verify_axioms(h)
    rec = make_record(h, verified=True)
    assert rec.to_dict()["candidate"]["status"] == "verified-hyperfield"


def test_loading_records_builds_each_cayley_table_once(tmp_path, z7_blocks):
    path = tmp_path / "catalog.jsonl"
    append_records(path, [make_record(build_candidate(z7_blocks, m)) for m in range(100)])
    _cayley_table.cache_clear()
    loaded = load_records(path)
    assert len(loaded) == 100
    assert _cayley_table.cache_info().misses == 1  # every miss is one build
    assert len({id(rec.candidate.group._mul_rows) for rec in loaded}) == 1


GOLDEN = Path(__file__).parent / "data" / "catalog_golden.jsonl"


def golden_records():
    """A few records on Z3, Z7 and Z2xZ4 with -1 = 2: block unions, verified and not, and
    one relation that is no union of blocks."""
    records = []
    for spec, m1, masks in [
        ("Z3", 0, [0b1110, 0b1010]),
        ("Z7", 0, [0, 37, 932, 4095]),
        ("Z2xZ4", 2, [5, 77, 32767]),
    ]:
        bp = compute_blocks(AbelianGroup.from_spec(spec), m1)
        for i, mask in enumerate(masks):
            h = build_candidate(bp, mask)
            if i % 2:
                verify_axioms(h)
            records.append(make_record(h, census=f"{spec}/{m1}", members=i + 1, ample=bool(i % 3)))
    g = AbelianGroup.from_spec("Z2xZ4")
    rows = (0b10110101, 0, 0b11111111, 0b1, 0b10000000, 0b1010, 0b111, 0b11000)
    odd = HyperfieldCandidate(g, 2, rows)
    records.append(make_record(odd, copy=True))
    return records


def test_catalog_lines_and_run_ids_are_byte_for_byte_golden(tmp_path):
    path = tmp_path / "catalog.jsonl"
    records = golden_records()
    append_records(path, records)
    assert path.read_bytes() == GOLDEN.read_bytes()
    loaded = load_records(GOLDEN)
    assert loaded == records
    assert [rec.provenance["run_id"] for rec in loaded] == [
        json.loads(line)["provenance"]["run_id"] for line in GOLDEN.read_text().splitlines()
    ]
    assert [canonical_json(rec.to_dict()) for rec in loaded] == GOLDEN.read_text().splitlines()


def _moved(h, sigma):
    """h carried by the automorphism sigma: pi bit (x, y) moves to (sigma[x], sigma[y])."""
    rows = [0] * h.r
    for x, row in enumerate(h.rows):
        for y in range(h.r):
            if row >> y & 1:
                rows[sigma[x]] |= 1 << sigma[y]
    return HyperfieldCandidate(h.group, h.minus_one, tuple(rows))


@pytest.mark.parametrize("spec", ["Z4", "Z2xZ2", "Z6", "Z2xZ4", "Z8"])
@settings(max_examples=10)
@given(data=st.data())
def test_dedup_keeps_what_canonical_form_keeps(spec, data):
    g = AbelianGroup.from_spec(spec)
    minus_ones = g.involution_candidates()[:2]  # two values of -1 on one group
    candidates = []
    for m1 in minus_ones:
        bp = compute_blocks(g, m1)
        autos = automorphisms_fixing(g, m1)
        for mask in data.draw(st.lists(st.integers(0, (1 << bp.b) - 1), min_size=1, max_size=8)):
            h = build_candidate(bp, mask)
            candidates.append(h)
            candidates.append(_moved(h, data.draw(st.sampled_from(autos))))
        rows = st.tuples(*[st.integers(0, (1 << g.order) - 1)] * g.order)
        for pi in data.draw(st.lists(rows, max_size=6)):
            h = HyperfieldCandidate(g, m1, pi)
            candidates += [h, _moved(h, data.draw(st.sampled_from(autos)))]
    records = [make_record(h, n=i) for i, h in enumerate(data.draw(st.permutations(candidates)))]
    seen = set()
    expected = []
    for rec in records:
        h = rec.candidate
        key = (h.group.factors, h.minus_one, canonical_form(h))
        if key not in seen:
            seen.add(key)
            expected.append(rec)
    assert dedup_records(records) == expected
