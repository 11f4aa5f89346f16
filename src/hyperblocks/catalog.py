"""Serialization of candidates and census results to JSON lines.

A record carries the candidate itself, analysis flags, and enough
provenance to reproduce it: tool name, version, and a run id derived by
hashing the record content, so identical inputs serialize identically.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from .blocks import _shared_blocks
from .census import _union_keys, automorphisms_fixing, canonical_form
from .groups import AbelianGroup
from .hyperfields import HyperfieldCandidate

TOOL_NAME = "hyperblocks"
TOOL_VERSION = "0.1.0"
GROUP_CACHE_SIZE = 64  # groups the loader keeps, one per factors tuple


def candidate_to_dict(h: HyperfieldCandidate) -> dict:
    return {
        "group": {"factors": list(h.group.factors)},
        "minus_one": h.minus_one,
        "pi": h.pi_bits(),
        "status": h.status,
    }


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def _group(factors: tuple[int, ...]) -> AbelianGroup:
    return AbelianGroup(factors)


def candidate_from_dict(d: dict) -> HyperfieldCandidate:
    group = _group(tuple(d["group"]["factors"]))
    return HyperfieldCandidate.from_pi_bits(
        group, d["minus_one"], d["pi"], status=d.get("status", "unverified")
    )


def canonical_json(d: dict) -> str:
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CatalogRecord:
    candidate: HyperfieldCandidate
    flags: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "candidate": candidate_to_dict(self.candidate),
            "flags": dict(self.flags),
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_dict(cls, d: dict) -> CatalogRecord:
        return cls(
            candidate_from_dict(d["candidate"]),
            dict(d.get("flags", {})),
            dict(d.get("provenance", {})),
        )


def make_record(h: HyperfieldCandidate, **flags) -> CatalogRecord:
    """Record with provenance; the run id hashes candidate and flags, so
    re-running the same analysis reproduces the same id."""
    flags = {k: v for k, v in flags.items() if v is not None}
    payload = canonical_json({"candidate": candidate_to_dict(h), "flags": flags})
    run_id = hashlib.sha256(payload.encode()).hexdigest()[:16]
    return CatalogRecord(
        h, flags, {"tool": TOOL_NAME, "version": TOOL_VERSION, "run_id": run_id}
    )


def append_records(path: str | Path, records) -> int:
    path = Path(path)
    n = 0
    with path.open("a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(canonical_json(rec.to_dict()) + "\n")
            n += 1
    return n


def load_records(path: str | Path) -> list[CatalogRecord]:
    """Every record of a catalog file; ValueError names the first bad line."""
    out = []
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                if line.strip():
                    out.append(CatalogRecord.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"line {lineno}: {type(exc).__name__}: {exc}") from exc
    return out


def dedup_records(records) -> list[CatalogRecord]:
    """Keep the first record per isomorphism class, keyed in one batch per (group, -1).

    A union of blocks is keyed by its block-orbit key (_union_keys), any other
    relation by its canonical_form: automorphisms map unions to unions, so
    the two kinds never share a class.
    """
    records = list(records)
    batches: dict[tuple[AbelianGroup, int], list[int]] = {}
    for i, rec in enumerate(records):
        batches.setdefault((rec.candidate.group, rec.candidate.minus_one), []).append(i)
    keys: list[tuple] = [()] * len(records)
    for (group, minus_one), index in batches.items():
        candidates = [records[i].candidate for i in index]
        unions, union_keys = _union_keys(_shared_blocks(group, minus_one), candidates)
        forms = dict(zip(unions.tolist(), union_keys.tolist()))
        autos = automorphisms_fixing(group, minus_one)
        for j, (i, h) in enumerate(zip(index, candidates)):
            form = forms[j] if j in forms else canonical_form(h, autos)
            keys[i] = (group.factors, minus_one, form)
    seen = set()
    out = []
    for rec, key in zip(records, keys):
        if key not in seen:
            seen.add(key)
            out.append(rec)
    return out
