"""Regenerate reference.json, the per-partition tallies the checks compare with.

    PYTHONPATH=src python3 benchmark/reference.py

The sweep section holds verify_all_subsets' verdict tallies for each
(group, -1) of the sweep workload; the census section holds
[subsets, hyperfields, classes, ample] for each census of the census
workload.  They are the library's own figures, kept so that a faster path
that changes a verdict or a class count is caught; the checks that need no
table (own ample counts, own orbit counts) run alongside them.
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

import workloads


def main() -> None:
    ops = workloads.Ops()
    sweep = workloads.Sweep.run(workloads.Sweep.setup(0), ops, None)
    with tempfile.TemporaryDirectory() as tmp:
        census = workloads.Census.run(workloads.Census.setup(0), ops, Path(tmp))
    table = {
        "sweep": dict(sorted(workloads.Sweep.summary(sweep).items())),
        "census": workloads.census_reference_counts(census),
    }
    workloads.REFERENCE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
