"""Catalog records: serialization, provenance, appending, dedup."""

import json

from hyperblocks import (
    append_records,
    build_candidate,
    canonical_form,
    dedup_records,
    load_records,
    make_record,
    verify_axioms,
)
from hyperblocks.catalog import candidate_from_dict, candidate_to_dict, canonical_json
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
