"""Benchmark runner for hyperblocks.

    python3 benchmark/run.py --workload {sweep,census,analyze} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  Every pass starts a fresh interpreter, so no cache filled by one
pass can serve the next, and passes repeat, one at a time, until the next
would end further past S seconds of measuring than the last one ends short
of it.  The first pass also checks every output, outside the measured
time; the rest must reproduce its outputs exactly.  Before each pass one more
interpreter starts and only sets up, so set-up time is a median over twice
as many cold starts as there are passes, spread over the run.

With --trace 0 the last line of output is one JSON object holding the
end-to-end metrics, each a median over the run's passes.  With --trace 1
untraced and traced passes alternate; the traced ones give the per-layer
metrics (medians over the traced passes) and the tracing overhead is the
traced median wall time minus the untraced one.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170  # a run must end within 180 s, even when a pass hangs


class PassError(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def start(args, deadline: float, pass_id: int, *flags: str) -> dict:
    """Run one pass in a fresh interpreter and return its figures."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [
        sys.executable, str(HERE / "passes.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--pass", str(pass_id), *flags,
    ]
    t0 = _now()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(deadline - t0, 1.0)
    )
    t1 = _now()
    if proc.returncode != 0:
        raise PassError(f"pass {pass_id} {' '.join(flags)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t0
    result["measured_s"] = t1 - t0 - result.get("check_s", 0.0)
    return result


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["sweep", "census", "analyze"], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (SRC / "hyperblocks" / "__init__.py").is_file():
        print(f"no library source at {SRC}; run from a hyperblocks checkout", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    deadline = _now() + DEADLINE_S
    try:
        passes: list[dict] = []
        while True:
            i = len(passes)
            flags = (["--check"] if i == 0 else []) + (["--trace"] if traced and i % 2 else [])
            passes.append(start(args, deadline, i, *flags))
            print(
                f"pass {i}{' traced' if '--trace' in flags else ''}: wall_s={passes[-1]['wall_s']:.4f} "
                f"setup_s={passes[-1]['setup_s']:.4f}",
                file=sys.stderr,
            )
            # stop at the pass boundary nearest to --seconds of measuring
            measured = sum(p["measured_s"] for p in passes)
            typical = statistics.median(p["measured_s"] for p in passes)
            enough = len(passes) >= (2 if traced else 1)
            if enough and measured + typical / 2 > args.seconds:
                break
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1

    problems = list(passes[0]["problems"])
    if any(p["digest"] != passes[0]["digest"] for p in passes):
        problems.append("a pass produced different outputs from the first")
    if any((p["attempted"], p["failed"]) != (passes[0]["attempted"], passes[0]["failed"]) for p in passes):
        problems.append("passes attempted or failed different numbers of operations")
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    if traced:
        plain = [p for p in passes if "layers" not in p]
        layered = [p for p in passes if "layers" in p]
        metrics = {
            name: metric(statistics.median(p["layers"][name] for p in layered), unit)
            for name, unit in LAYER_UNITS.items()
        }
        overhead = statistics.median(p["wall_s"] for p in layered) - statistics.median(
            p["wall_s"] for p in plain
        )
        metrics["trace.overhead_s"] = metric(overhead, "s")
    else:
        metrics = {
            "setup_s": metric(statistics.median(p["setup_s"] for p in passes), "s"),
            "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
            "items_per_s": metric(statistics.median(p["items"] / p["wall_s"] for p in passes), "1/s"),
            "peak_rss_mib": metric(statistics.median(p["peak_rss_mib"] for p in passes), "MiB"),
        }
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(p["attempted"] for p in passes),
                "failed": sum(p["failed"] for p in passes),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
