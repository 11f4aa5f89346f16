"""One cold-started pass of a workload, run in a fresh interpreter by run.py.

    python3 benchmark/passes.py --workload W --seed N --pass I [--check] [--trace]

Prints one JSON line: the CLOCK_MONOTONIC time at which set-up finished
(the parent subtracts its own start time), the pass's wall time, item
count, peak RSS (read before any check), operation tallies and a digest of
the outputs.  --check adds the list of problems the
checks found; --trace installs the span recorder before set-up and adds the
per-layer figures, writing the spans to out/trace-<workload>.jsonl.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads  # imports hyperblocks, so the tracer finds its modules loaded

OUT = Path(__file__).resolve().parent / "out"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_id", type=int, default=0)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed)
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}

    ops = workloads.Ops()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        t0 = time.perf_counter()
        out = wl.run(state, ops, Path(tmp))
        wall = time.perf_counter() - t0
    result.update(
        wall_s=wall,
        items=wl.items(out),
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=ops.attempted,
        failed=ops.failed,
    )
    if args.trace:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        tracer.write(OUT / f"trace-{args.workload}.jsonl", args.pass_id)
    t_check = time.perf_counter()
    if args.check:
        result["problems"] = wl.check(state, out)
    result["digest"] = workloads.digest(wl.summary(out))
    result["check_s"] = time.perf_counter() - t_check
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
