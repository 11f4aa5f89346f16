"""Command line front end.

Subcommands:

* blocks    partition the nonzero pairs of a group and print the grid
* census    sweep block subsets, verifying or certifying each candidate
* verify    run the axiom checks on explicit candidates
* count     count ample subsets and prove the decomposition lower bound
* quotient  build finite field quotients or classify a candidate
* fetvins   solvability sweep, or solve one system constructively
* show      inspect catalog files written by the other commands

Exit codes: 0 success, 1 a verification-style claim failed or stdout
was closed early (a broken pipe, reported without a traceback), 2 usage
(an unreadable --in catalog included), 3 a budget was exceeded.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import sys
from pathlib import Path

from .blocks import _shared_blocks, block_label, compute_blocks, coefficient_matrix, pair_decode
from .catalog import (
    CatalogRecord,
    append_records,
    candidate_to_dict,
    load_records,
    make_record,
)
from .census import (
    MODE_AMPLE_ONLY,
    MODE_FULL,
    SUBSET_BUDGET_BITS,
    census_all_minus_ones,
    enumerate_subsets,
    shard_span,
)
from .counting import (
    ample_system,
    count_solutions,
    decompose_and_bound,
    infinite_quotient_upper_bound,
)
from .errors import CapacityError
from .groups import AbelianGroup
from .hyperfields import (
    HyperfieldCandidate,
    ample_params,
    build_candidate,
    is_ample,
    row_ints,
    union_block_bits,
    verify_axioms,
)
from .linear import (
    BRUTE_BUDGET,
    LinearSystem,
    SolverInvariantError,
    ample_solve,
    check_fetvins,
)
from .quotients import FiniteField, field_quotient_data, quotient_status

# -- shared plumbing -----------------------------------------------------------


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _emit_json(args, obj) -> None:
    """Write what _emit would of json.dumps(obj), 2^16 encoder chunks at a time:
    one write per chunk takes about half as long again as joining them all."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    out = getattr(args, "out", None)
    with Path(out).open("w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
        for batch in iter(lambda: "".join(itertools.islice(chunks, 1 << 16)), ""):
            fh.write(batch)
        fh.write("\n")


def _emit_csv(args, rows: list[list]) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _emit(args, buf.getvalue().rstrip("\n"))


def _group(args, parser) -> AbelianGroup:
    if not args.group:
        parser.error("--group is required")
    try:
        return AbelianGroup.from_spec(args.group)
    except ValueError as exc:
        parser.error(str(exc))


def _minus_one(args, parser, group: AbelianGroup) -> int:
    candidates = group.involution_candidates()
    if args.minus_one is None:
        if len(candidates) == 1:
            return candidates[0]
        parser.error(
            f"--minus-one is ambiguous for {group.spec_string()}; "
            f"candidates: {', '.join(map(str, candidates))}; up to automorphism: "
            + " | ".join(", ".join(map(str, o)) for o in group.minus_one_orbits())
        )
    if args.minus_one not in candidates:
        parser.error(
            f"minus_one={args.minus_one} does not square to the identity in "
            f"{group.spec_string()}"
        )
    return args.minus_one


def _records(args, parser) -> list[CatalogRecord]:
    """The --in catalog; an unreadable file or an invalid line is a usage error."""
    try:
        return load_records(args.infile)
    except OSError as exc:
        parser.error(f"cannot read catalog {args.infile}: {exc.strerror}")
    except ValueError as exc:
        parser.error(f"bad catalog {args.infile}: {exc}")


def _candidates(args, parser) -> list[HyperfieldCandidate]:
    """Candidates from --in, --pi, or --blocks, in that priority order;
    --group alone is the full relation."""
    if getattr(args, "infile", None):
        return [rec.candidate for rec in _records(args, parser)]
    group = _group(args, parser)
    minus_one = _minus_one(args, parser, group)
    if getattr(args, "pi", None):
        try:
            return [HyperfieldCandidate.from_pi_bits(group, minus_one, args.pi)]
        except ValueError as exc:
            parser.error(str(exc))
    if getattr(args, "blocks", None):
        bp = compute_blocks(group, minus_one)
        try:
            mask = bp.subset_from_labels(args.blocks.upper())
        except ValueError:
            parser.error(
                f"unknown block label in {args.blocks!r}; have {bp.mask_labels((1 << bp.b) - 1)}"
            )
        return [build_candidate(bp, mask)]
    full = (1 << group.order) - 1
    return [HyperfieldCandidate(group, minus_one, (full,) * group.order)]


def _candidate_summary(h: HyperfieldCandidate) -> dict:
    d = candidate_to_dict(h)
    d["group_spec"] = h.group.spec_string()
    d["minus_one_name"] = h.group.element_name(h.minus_one)
    bp = _shared_blocks(h.group, h.minus_one)
    union, bits = union_block_bits(bp, [h])
    d["blocks"] = bp.mask_labels(row_ints(bits)[0]) if union[0] else None
    return d


# -- blocks --------------------------------------------------------------------


def cmd_blocks(args, parser) -> int:
    group = _group(args, parser)
    minus_one = _minus_one(args, parser, group)
    bp = compute_blocks(group, minus_one)
    if args.format == "csv":
        _emit_csv(args, bp.table())
        return 0
    cm = coefficient_matrix(bp)
    name = [group.element_name(e) for e in group.elements()]
    blocks = {
        block_label(i): [(name[x], name[y]) for x, y in (pair_decode(c, bp.r) for c in block)]
        for i, block in enumerate(bp.blocks)
    }
    if args.format == "json":
        _emit_json(
            args,
            {
                "group": group.spec_string(),
                "minus_one": minus_one,
                "r": bp.r,
                "b": bp.b,
                "table": bp.table(),
                "blocks": blocks,
                "coefficient_matrix": {
                    "rows": cm.rows,
                    "row_elements": [name[g] for g in cm.row_labels],
                },
            },
        )
        return 0
    width = len(block_label(bp.b - 1))  # the last label is the longest
    lines = [f"group {group.spec_string()}  minus_one {name[minus_one]}  r={bp.r}  b={bp.b}", ""]
    lines += [" ".join(label.rjust(width) for label in row) for row in bp.table()]
    lines.append("")
    for label, pairs in blocks.items():
        lines.append(f"{label}: " + ", ".join(f"({x}, {y})" for x, y in pairs))
    lines += ["", f"coefficient matrix ({cm.row_count} distinct rows):"]
    for g, row in zip(cm.row_labels, cm.rows):
        lines.append(f"{name[g]:>6}  " + " ".join(map(str, row)))
    _emit(args, "\n".join(lines))
    return 0


# -- census --------------------------------------------------------------------


def _census_to_dict(c) -> dict:
    labels = _shared_blocks(c.group, c.minus_one).mask_labels
    return {
        "group": c.group.spec_string(),
        "minus_one": c.minus_one,
        "mode": c.mode,
        "subsets_examined": c.subsets_examined,
        "hyperfield_count": c.hyperfield_count,
        "ample_count": c.ample_count,
        "classes": [
            {
                "canonical_pi": cl.canonical_pi,
                "members": cl.members,
                "ample": cl.ample,
                "example_blocks": labels(cl.example_subset),
            }
            for cl in c.classes
        ],
    }


def _int_at_least(low: int):
    """An argparse type: an int no smaller than low, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _shard_span(text: str, parser, b: int) -> tuple[int, int]:
    try:
        i, n = text.split("/")
        i, n = int(i), int(n)
    except ValueError:
        parser.error(f"--shard wants I/N, got {text!r}")
    try:
        return shard_span(b, i, n)
    except ValueError as exc:
        parser.error(str(exc))


def cmd_census(args, parser) -> int:
    group = _group(args, parser)
    mode = MODE_AMPLE_ONLY if args.mode == "ample-only" else MODE_FULL
    if args.minus_one is None and not args.shard:
        censuses = census_all_minus_ones(group, mode, args.budget)
    else:
        bp = compute_blocks(group, _minus_one(args, parser, group))
        span = _shard_span(args.shard, parser, bp.b) if args.shard else None
        censuses = [enumerate_subsets(bp, mode, args.budget, span=span)]
    if args.format == "json":
        payload = [_census_to_dict(c) for c in censuses]
        _emit_json(args, payload[0] if len(payload) == 1 else payload)
    elif args.format == "csv":
        rows = [["group", "minus_one", "canonical_pi", "members", "ample", "example_blocks"]]
        for c in censuses:
            labels = _shared_blocks(c.group, c.minus_one).mask_labels
            for cl in c.classes:
                rows.append(
                    [
                        c.group.spec_string(),
                        c.minus_one,
                        cl.canonical_pi,
                        cl.members,
                        int(cl.ample),
                        labels(cl.example_subset),
                    ]
                )
        _emit_csv(args, rows)
    else:
        lines = []
        for c in censuses:
            labels = _shared_blocks(c.group, c.minus_one).mask_labels
            lines.append(
                f"{c.group.spec_string()} minus_one={c.group.element_name(c.minus_one)} "
                f"mode={c.mode} {c.summary()}"
            )
            for members, ample, example in c.class_rows():
                flag = " ample" if ample else ""
                lines.append(f"  {labels(example):<10} members={members}{flag}")
        _emit(args, "\n".join(lines))
    return 0


# -- verify --------------------------------------------------------------------


def cmd_verify(args, parser) -> int:
    failures = 0
    results = []
    candidates = _candidates(args, parser)
    for h in candidates:
        report = verify_axioms(h)
        params = ample_params(h)
        entry = _candidate_summary(h)
        entry.update(
            {
                "ok": report.ok,
                "status": h.status,
                "axiom": report.axiom,
                "witness": [h.element_name(e) for e in report.witness],
                "detail": report.detail,
                "m": params.m,
                "k": params.k,
                "ample": report.ok and is_ample(h),
            }
        )
        results.append(entry)
        if not report.ok:
            failures += 1
    if args.format == "json":
        _emit_json(args, results[0] if len(results) == 1 else results)
    else:
        lines = []
        for e in results:
            head = f"{e['group_spec']} -1={e['minus_one_name']} blocks={e['blocks'] or '-'}"
            if e["ok"]:
                ample = " ample" if e["ample"] else ""
                lines.append(f"{head}: {e['status']} (m={e['m']}, k={e['k']}){ample}")
            else:
                witness = ", ".join(e["witness"])
                lines.append(f"{head}: FAILED {e['axiom']} at ({witness}): {e['detail']}")
        _emit(args, "\n".join(lines))
    if args.append:
        append_records(
            args.append,
            [
                make_record(h, ample=e["ample"] if e["ok"] else None, verified=e["ok"])
                for h, e in zip(candidates, results)
            ],
        )
    return 1 if failures else 0


# -- count ---------------------------------------------------------------------


def cmd_count(args, parser) -> int:
    group = _group(args, parser)
    minus_one = _minus_one(args, parser, group)
    bp = compute_blocks(group, minus_one)
    cm = coefficient_matrix(bp)
    payload = {
        "group": group.spec_string(),
        "minus_one": minus_one,
        "b": bp.b,
        "distinct_rows": cm.row_count,
    }
    if bp.r % 2 == 1:
        rep = decompose_and_bound(bp, args.budget)
        payload.update(
            {
                "exact_count": rep.exact_count,
                "lower_bound": rep.lower_bound,
                "b_prime": rep.b_prime,
                "swaps": rep.swaps,
            }
        )
        iq = infinite_quotient_upper_bound(bp)
        payload["infinite_quotient_bound"] = iq.bound
    else:
        payload.update(
            {
                "exact_count": count_solutions(ample_system(bp), args.budget),
                "lower_bound": None,
            }
        )
    if args.format == "json":
        _emit_json(args, payload)
    else:
        lines = [
            f"{payload['group']} minus_one={group.element_name(minus_one)}: "
            f"b={payload['b']} distinct rows={payload['distinct_rows']}",
            f"ample subsets: exact={payload['exact_count']}"
            + (
                f" lower bound={payload['lower_bound']} (b'={payload['b_prime']}, "
                f"{payload['swaps']} swaps)"
                if payload["lower_bound"] is not None
                else ""
            ),
        ]
        if "infinite_quotient_bound" in payload:
            lines.append(
                f"subsets not excluded as infinite-field quotients: "
                f"at most {payload['infinite_quotient_bound']}"
            )
        _emit(args, "\n".join(lines))
    return 0


# -- quotient ------------------------------------------------------------------


def cmd_quotient(args, parser) -> int:
    if args.q is not None:
        if args.r is None:
            parser.error("--q needs --r (classes of r-th powers)")
        try:
            field = FiniteField(args.q)
            group, rows, minus_one, _ = field_quotient_data(field, args.r)
        except ValueError as exc:
            parser.error(str(exc))
        h = HyperfieldCandidate(group, minus_one, rows)
        report = verify_axioms(h)
        entry = _candidate_summary(h)
        entry.update(
            {
                "q": args.q,
                "p": field.p,
                "k": field.k,
                "modulus": field.modulus_string(),
                "ok": report.ok,
            }
        )
        if args.format == "json":
            _emit_json(args, entry)
        else:
            _emit(
                args,
                f"GF({args.q}) / (r-th powers, r={args.r}) -> "
                f"{entry['group_spec']} -1={entry['minus_one']} "
                f"blocks={entry['blocks'] or '-'} pi={entry['pi']}\n"
                f"modulus: {entry['modulus']}\nverified: {entry['ok']}",
            )
        return 0 if report.ok else 1

    results = []
    for h in _candidates(args, parser):
        rep = quotient_status(h, args.bound)
        entry = _candidate_summary(h)
        entry.update(
            {
                "status": rep.status,
                "q": rep.q,
                "generator": rep.generator,
                "q_bound": rep.q_bound,
                "definitive": rep.definitive,
                "excludes_infinite": rep.excludes_infinite,
            }
        )
        results.append(entry)
    if args.format == "json":
        _emit_json(args, results[0] if len(results) == 1 else results)
    else:
        lines = []
        for e in results:
            head = f"{e['group_spec']} -1={e['minus_one_name']} blocks={e['blocks'] or '-'}"
            if e["status"] == "quotient":
                lines.append(
                    f"{head}: quotient of GF({e['q']}) "
                    f"(subgroup generated by {e['generator']})"
                )
            else:
                extra = " (scan definitive)" if e["definitive"] else ""
                lines.append(f"{head}: {e['status']} up to q={e['q_bound']}{extra}")
        _emit(args, "\n".join(lines))
    return 0


# -- fetvins -------------------------------------------------------------------


def _parse_system(h: HyperfieldCandidate, text: str, parser) -> LinearSystem:
    """Equations as JSON lists of integers; -1 stands for the zero coefficient."""
    try:
        raw = json.loads(text)
        if type(raw) is not list or any(type(eq) is not list for eq in raw):
            raise ValueError("expected a JSON list of equations, each a list of coefficients")
        for eq in raw:
            for c in eq:
                # a float, string or bool is refused, never truncated or read as 0 or 1
                if type(c) is not int:
                    raise ValueError(f"coefficient {json.dumps(c)} is not an integer")
        eqs = [[h.zero if c == -1 else c for c in eq] for eq in raw]
        system = LinearSystem.make(eqs)
    except (ValueError, TypeError) as exc:
        parser.error(f"bad --system: {exc}")
    for eq in system.equations:
        for c in eq:
            if c > h.zero:
                parser.error(f"coefficient {c} out of range; use 0..{h.r - 1} or -1 for zero")
    return system


def cmd_fetvins(args, parser) -> int:
    candidates = _candidates(args, parser)
    if not candidates:
        parser.error("no candidate given")
    if len(candidates) > 1:
        parser.error(f"fetvins checks one candidate; the catalog holds {len(candidates)}")
    h = candidates[0]
    report = verify_axioms(h)
    if not report.ok:
        _emit(args, f"candidate fails {report.axiom}; nothing to solve")
        return 1
    if args.system:
        system = _parse_system(h, args.system, parser)
        try:
            solution = ample_solve(h, system)
        except (ValueError, SolverInvariantError) as exc:
            _emit(args, f"solver: {exc}")
            return 1
        if args.format == "json":
            _emit_json(
                args,
                {
                    "solution": [-1 if x == h.zero else x for x in solution],
                    "names": [h.element_name(x) for x in solution],
                },
            )
        else:
            names = ", ".join(h.element_name(x) for x in solution)
            _emit(args, f"solution: ({names})")
        return 0
    rep = check_fetvins(h, args.nmax, args.budget)
    entry = {
        "ok": rep.ok,
        "n_max": rep.n_max,
        "systems_checked": rep.systems_checked,
        "counterexample": None
        if rep.ok
        else [[-1 if c == h.zero else c for c in eq] for eq in rep.counterexample.equations],
    }
    if args.format == "json":
        _emit_json(args, entry)
    else:
        _emit(args, str(rep))
    return 0 if rep.ok else 1


# -- show ----------------------------------------------------------------------


def cmd_show(args, parser) -> int:
    records = _records(args, parser)
    if args.format == "json":
        _emit_json(args, [rec.to_dict() for rec in records])
    elif args.format == "csv":
        rows = [["group", "minus_one", "pi", "status", "flags", "run_id"]]
        for rec in records:
            h = rec.candidate
            rows.append(
                [
                    h.group.spec_string(),
                    h.minus_one,
                    h.pi_bits(),
                    h.status,
                    json.dumps(rec.flags, sort_keys=True),
                    rec.provenance.get("run_id", ""),
                ]
            )
        _emit_csv(args, rows)
    else:
        lines = []
        for rec in records:
            h = rec.candidate
            flags = " ".join(f"{k}={v}" for k, v in sorted(rec.flags.items()))
            lines.append(
                f"{h.group.spec_string()} -1={h.group.element_name(h.minus_one)} "
                f"pi={h.pi_bits()} "
                f"{h.status} {flags} run={rec.provenance.get('run_id', '-')}"
            )
        _emit(args, "\n".join(lines) if lines else "(empty catalog)")
    return 0


# -- parser --------------------------------------------------------------------


def _add_common(sp, fmt=("text", "json", "csv")) -> None:
    sp.add_argument("--format", choices=fmt, default="text", help="output format")
    sp.add_argument("--out", help="write output to this file instead of stdout")


def _add_candidate_source(sp) -> None:
    sp.add_argument("--group", help="group spec like Z3 or Z2xZ4")
    sp.add_argument("--minus-one", type=int, default=None, help="element index of -1")
    sp.add_argument(
        "--blocks",
        help="block labels like BD, comma-separated like B,AD past 26 blocks (with --group)",
    )
    sp.add_argument("--pi", help="row-major 0/1 string of length r^2 (with --group)")
    sp.add_argument("--in", dest="infile", help="read candidates from a catalog file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperblocks",
        description="Finite hyperfields assembled from blocks of pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("blocks", help="block partition and coefficient matrix")
    sp.add_argument("--group", help="group spec like Z7 or Z2xZ4")
    sp.add_argument("--minus-one", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_blocks)

    sp = sub.add_parser("census", help="sweep all block subsets")
    sp.add_argument("--group", help="group spec")
    sp.add_argument("--minus-one", type=int, default=None)
    sp.add_argument("--mode", choices=["full", "ample-only"], default="full")
    sp.add_argument(
        "--budget",
        type=_int_at_least(0),
        default=SUBSET_BUDGET_BITS,
        help="max block count, as bits",
    )
    sp.add_argument("--shard", help="I/N: run only the I-th of N contiguous spans")
    _add_common(sp)
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("verify", help="axiom checks on explicit candidates")
    _add_candidate_source(sp)
    sp.add_argument("--append", help="append verified candidates to this catalog file")
    _add_common(sp, fmt=("text", "json"))
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("count", help="ample subset counts and lower bound")
    sp.add_argument("--group", help="group spec")
    sp.add_argument("--minus-one", type=int, default=None)
    sp.add_argument(
        "--budget",
        type=_int_at_least(0),
        default=None,
        help="live states allowed in the counting DP (default 2^20)",
    )
    _add_common(sp, fmt=("text", "json"))
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("quotient", help="finite field quotients")
    sp.add_argument("--q", type=int, default=None, help="field size to quotient")
    sp.add_argument("--r", type=int, default=None, help="quotient by r-th powers")
    sp.add_argument(
        "--bound", type=_int_at_least(0), default=None, help="scan bound for status"
    )
    _add_candidate_source(sp)
    _add_common(sp, fmt=("text", "json"))
    sp.set_defaults(func=cmd_quotient)

    sp = sub.add_parser("fetvins", help="solvability of small linear systems")
    _add_candidate_source(sp)
    sp.add_argument("--nmax", type=_int_at_least(1), default=3, help="largest variable count")
    sp.add_argument("--budget", type=_int_at_least(0), default=BRUTE_BUDGET)
    sp.add_argument("--system", help="JSON equations of integer coefficients; -1 is the zero coefficient")
    _add_common(sp, fmt=("text", "json"))
    sp.set_defaults(func=cmd_fetvins)

    sp = sub.add_parser("show", help="inspect a catalog file")
    sp.add_argument("--in", dest="infile", required=True, help="catalog file")
    _add_common(sp)
    sp.set_defaults(func=cmd_show)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, parser)
        sys.stdout.flush()
        return code
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
