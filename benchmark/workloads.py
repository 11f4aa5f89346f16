"""The benchmark's three workloads.

Each workload has four parts:

* ``setup(seed)`` builds the block partitions and any seeded inputs;
* ``run(state, ops, tmp)`` is one timed pass of calls into the library;
* ``items(out)`` counts the pass's own unit of work (block subsets on
  ``sweep`` and ``census``, hyperfield classes on ``analyze``);
* ``check(state, out)`` returns a list of problems with the outputs.

``summary(out)`` reduces the outputs to plain data, which every pass of a
run must reproduce exactly, and which ``reference.py`` stores.

Library functions are always looked up on the package at the moment they
are called (``hb.enumerate_subsets(...)``), so the traced run sees them.
"""
from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

import hyperblocks as hb
import hyperblocks.cli  # noqa: F401  (the census workload calls hb.cli.main)

import oracle

REFERENCE = Path(__file__).with_name("reference.json")


class Ops:
    """Tally of one pass's calls into the library's public functions."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    def may_fail(self, error, fn, *args, **kwargs):
        """A call that fails today through a known fault: tallied, not raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except error:
            self.failed += 1
            return None


def _partition(spec: str, minus_one: int):
    return hb.compute_blocks(hb.AbelianGroup.from_spec(spec), minus_one)


def _key(bp) -> str:
    return f"{bp.group.spec_string()}/{bp.minus_one}"


def _reference(section: str) -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))[section]


def _autos_fixing(bp) -> tuple[list[tuple[int, ...]], list[str]]:
    """The library's automorphisms fixing -1, with what is wrong with them."""
    group = oracle.Group(bp.group.factors)
    every = bp.group.automorphisms()
    problems = []
    if bp.group.is_cyclic and len(every) != oracle.euler_phi(max(bp.r, 1)):
        problems.append(f"{_key(bp)}: {len(every)} automorphisms, expected phi(r)")
    autos = [tuple(a) for a in every if a[bp.minus_one] == bp.minus_one]
    problems += [f"{_key(bp)}: {p}" for p in oracle.automorphism_problems(group, bp.minus_one, autos)]
    return autos, problems


def _block_perms(bp) -> tuple[list[tuple[int, ...]], list[str]]:
    autos, problems = _autos_fixing(bp)
    perms, more = oracle.block_permutations(bp.blocks, bp.r, autos)
    return perms, problems + [f"{_key(bp)}: {p}" for p in more]


# -- sweep ----------------------------------------------------------------------


class Sweep:
    """verify_all_subsets on every (group, -1) of order 7 to 9 except Z3xZ3."""

    @staticmethod
    def setup(seed: int):
        parts = [
            hb.compute_blocks(g, m1)
            for g in hb.abelian_groups_up_to(9)
            if g.order >= 7 and g.spec_string() != "Z3xZ3"
            for m1 in g.involution_candidates()
        ]
        random.Random(seed).shuffle(parts)
        return parts

    @staticmethod
    def run(parts, ops: Ops, tmp: Path):
        return [(_key(bp), ops(hb.verify_all_subsets, bp)) for bp in parts]

    @staticmethod
    def items(out) -> int:
        return sum(rep.subsets_examined for _, rep in out)

    @staticmethod
    def summary(out) -> dict:
        return {
            key: {
                "verified": rep.verified_count,
                "certified": rep.certified_count,
                "certified_unverified": rep.certified_unverified,
                "failures": dict(sorted(rep.failure_counts.items())),
            }
            for key, rep in out
        }

    @staticmethod
    def check(parts, out) -> list[str]:
        problems = []
        ref = _reference("sweep")
        if sorted(k for k, _ in out) != sorted(ref):
            problems.append("sweep: partitions differ from the reference table")
        summary = Sweep.summary(out)
        for bp, (key, rep) in zip(parts, out):
            total = 1 << bp.b
            if rep.subsets_examined != total:
                problems.append(f"{key}: examined {rep.subsets_examined} of {total}")
            if rep.verified_count + sum(rep.failure_counts.values()) != total:
                problems.append(f"{key}: verified + failures != 2^b")
            if rep.certified_unverified or rep.reversibility_only:
                problems.append(f"{key}: certified_unverified or reversibility_only is not 0")
            own = oracle.ample_count(bp.blocks, bp.r)
            counted = hb.count_solutions(hb.ample_system(bp))
            if not rep.certified_count == own == counted:
                problems.append(f"{key}: certified {rep.certified_count}, own count {own}, count_solutions {counted}")
            if summary[key] != ref.get(key):
                problems.append(f"{key}: tallies {summary[key]} differ from the reference {ref.get(key)}")
        return problems


# -- census ---------------------------------------------------------------------

# (spec, -1, mode, span): the library censuses, run in seeded order
CENSUS_SERIAL = [("Z1", 0), ("Z2", 0), ("Z2", 1), ("Z3", 0), ("Z5", 0), ("Z6", 0)]
CENSUS_SPAN = ("Z8", 4, (0, 1 << 13))  # a quarter of an order-8 partition, in full mode
CENSUS_AMPLE = [("Z8", 0), ("Z8", 4), ("Z2xZ4", 0), ("Z2xZ4", 2), ("Z2xZ4", 4), ("Z2xZ4", 6), ("Z9", 0)]
CENSUS_SHARDED = ("Z7", 0)  # run by enumerate_sharded with 2 threads
CENSUS_CLI = [["--group", "Z4"], ["--group", "Z2xZ2"], ["--group", "Z6", "--minus-one", "3"]]


def _census_key(bp, mode: str, span) -> str:
    key = f"{_key(bp)}/{mode}"
    return key if span is None else f"{key}[{span[0]}:{span[1]}]"


def _labels(mask: int) -> str:
    return "".join(hb.block_label(i) for i in range(mask.bit_length()) if mask >> i & 1)


def _census_data(c) -> dict:
    """A census as the CLI prints it in JSON."""
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
                "example_blocks": _labels(cl.example_subset),
            }
            for cl in c.classes
        ],
    }


class Census:
    """enumerate_subsets in full and ample-only mode, sharding, the CLI and the catalog."""

    @staticmethod
    def setup(seed: int):
        jobs = [(_partition(s, m), hb.MODE_FULL, None) for s, m in CENSUS_SERIAL]
        jobs.append((_partition(*CENSUS_SPAN[:2]), hb.MODE_FULL, CENSUS_SPAN[2]))
        jobs += [(_partition(s, m), hb.MODE_AMPLE_ONLY, None) for s, m in CENSUS_AMPLE]
        rng = random.Random(seed)
        rng.shuffle(jobs)
        sharded = _partition(*CENSUS_SHARDED)
        # every full-mode library census here is on a cyclic group, so the
        # catalog's isomorphic copies can come from the units of Z_r
        catalog_perms = {
            _key(bp): oracle.block_permutations(
                bp.blocks, bp.r, oracle.cyclic_automorphisms(bp.r, bp.minus_one)
            )[0]
            for bp in [j[0] for j in jobs if j[1] == hb.MODE_FULL] + [sharded]
        }
        return {"jobs": jobs, "sharded": sharded, "catalog_perms": catalog_perms, "seed": seed}

    @staticmethod
    def run(state, ops: Ops, tmp: Path):
        censuses = {}
        partitions = {}
        for bp, mode, span in state["jobs"]:
            key = _census_key(bp, mode, span)
            censuses[key] = ops(hb.enumerate_subsets, bp, mode, span=span)
            partitions[key] = bp
        bp7 = state["sharded"]
        key = _census_key(bp7, hb.MODE_FULL, None) + "/sharded"
        censuses[key] = ops(hb.enumerate_sharded, bp7, hb.MODE_FULL, threads=2)
        partitions[key] = bp7

        cli = {}
        for i, args in enumerate(CENSUS_CLI):
            path = tmp / f"census-{i}.json"
            code = ops(hb.cli.main, ["census", *args, "--format", "json", "--out", str(path)])
            payload = json.loads(path.read_text(encoding="utf-8"))
            cli[" ".join(args)] = (code, payload if isinstance(payload, list) else [payload])

        # one record per full-mode class, plus one for an isomorphic copy of it
        rng = random.Random(state["seed"])
        records = []
        for key, c in censuses.items():
            if c.mode != hb.MODE_FULL:
                continue
            bp = partitions[key]
            perms = state["catalog_perms"][_key(bp)]
            for cl in c.classes:
                h = ops(hb.build_candidate, bp, cl.example_subset)
                records.append(ops(hb.make_record, h, census=key, members=cl.members))
                copy = int(oracle.permute_masks(np.array([cl.example_subset]), rng.choice(perms))[0])
                h = ops(hb.build_candidate, bp, copy)
                records.append(ops(hb.make_record, h, census=key, members=cl.members, copy=True))
        rng.shuffle(records)
        path = tmp / "catalog.jsonl"
        ops(hb.append_records, path, records)
        loaded = ops(hb.load_records, path)
        kept = ops(hb.dedup_records, loaded)
        return {
            "censuses": censuses,
            "partitions": partitions,
            "cli": cli,
            "records": records,
            "loaded": loaded,
            "kept": kept,
        }

    @staticmethod
    def items(out) -> int:
        library = sum(c.subsets_examined for c in out["censuses"].values())
        cli = sum(p["subsets_examined"] for _, payload in out["cli"].values() for p in payload)
        return library + cli

    @staticmethod
    def summary(out) -> dict:
        return {
            "censuses": {k: _census_data(c) for k, c in sorted(out["censuses"].items())},
            "cli": {k: v for k, v in sorted(out["cli"].items())},
            "records": [r.to_dict() for r in out["records"]],
            "kept": [r.to_dict() for r in out["kept"]],
        }

    @staticmethod
    def check(state, out) -> list[str]:
        problems = []
        ref = _reference("census")
        censuses, partitions = out["censuses"], out["partitions"]
        perms_of: dict[str, list] = {}

        def perms(bp):
            if _key(bp) not in perms_of:
                found, wrong = _block_perms(bp)
                problems.extend(wrong)
                perms_of[_key(bp)] = found
            return perms_of[_key(bp)]

        def accepted(bp, mode, span):
            # a span counts Gray-code positions t, which visit the masks t ^ (t >> 1)
            lo, hi = span if span is not None else (0, 1 << bp.b)
            masks = np.arange(lo, hi, dtype=np.int64)
            masks ^= masks >> 1
            if mode == hb.MODE_AMPLE_ONLY:
                return np.intersect1d(masks, oracle.ample_masks(bp.blocks, bp.r)).tolist()
            # full mode: the scalar verifier decides, the orbits are found here
            return [m for m in masks.tolist() if hb.verify_axioms(hb.build_candidate(bp, m)).ok]

        def check_census(key, bp, data, span=None):
            mode = data["mode"]
            members = sum(cl["members"] for cl in data["classes"])
            want = data["hyperfield_count"] if mode == hb.MODE_FULL else data["ample_count"]
            if members != want:
                problems.append(f"{key}: members sum to {members}, expected {want}")
            if mode == hb.MODE_AMPLE_ONLY and data["hyperfield_count"] != data["ample_count"]:
                problems.append(f"{key}: ample-only census counts non-ample hyperfields")
            acc = accepted(bp, mode, span)
            own = sorted(oracle.orbit_classes(acc, perms(bp)).values())
            got = sorted((cl["members"], bp.subset_from_labels(cl["example_blocks"])) for cl in data["classes"])
            if len(acc) != data["hyperfield_count"]:
                problems.append(f"{key}: {data['hyperfield_count']} hyperfields, own count {len(acc)}")
            if own != got:
                problems.append(f"{key}: {len(got)} classes, own orbit count {len(own)} (or members differ)")
            ample = set(oracle.ample_masks(bp.blocks, bp.r).tolist())
            for cl in data["classes"]:
                if cl["ample"] != (bp.subset_from_labels(cl["example_blocks"]) in ample):
                    problems.append(f"{key}: class {cl['example_blocks']} has the wrong ample flag")
            ref_key = key.split("/sharded")[0]
            counts = [data["subsets_examined"], data["hyperfield_count"], len(data["classes"]), data["ample_count"]]
            if ref.get(ref_key) != counts:
                problems.append(f"{key}: counts {counts} differ from the reference {ref.get(ref_key)}")

        for key, c in censuses.items():
            span = next((s for bp, m, s in state["jobs"] if _census_key(bp, m, s) == key), None)
            check_census(key, partitions[key], _census_data(c), span)

        z3 = censuses["Z3/0/full"]
        if (z3.subsets_examined, z3.hyperfield_count, z3.class_count, z3.ample_count) != (16, 9, 7, 6):
            problems.append(f"Z3 census reads {z3.summary()}, the paper has 16/9/7/6")

        bp7 = state["sharded"]
        serial = hb.enumerate_subsets(bp7, hb.MODE_FULL)
        if censuses[_census_key(bp7, hb.MODE_FULL, None) + "/sharded"] != serial:
            problems.append("sharded Z7 census differs from the serial one")

        for args, (code, payload) in out["cli"].items():
            if code != 0:
                problems.append(f"cli census {args} exited {code}")
            group = hb.AbelianGroup.from_spec(args.split()[1])
            m1s = [int(args.split()[3])] if "--minus-one" in args else group.involution_candidates()
            for m1, data in zip(m1s, payload):
                bp = hb.compute_blocks(group, m1)
                library = _census_data(hb.enumerate_subsets(bp, hb.MODE_FULL))
                if data != library:
                    problems.append(f"cli census {args} -1={m1} differs from the library census")
                check_census(f"{_key(bp)}/full", bp, data)
            if len(payload) != len(m1s):
                problems.append(f"cli census {args} printed {len(payload)} censuses, expected {len(m1s)}")

        problems += Census._check_catalog(out, perms)
        return problems

    @staticmethod
    def _check_catalog(out, perms) -> list[str]:
        problems = []
        if [r.to_dict() for r in out["loaded"]] != [r.to_dict() for r in out["records"]]:
            problems.append("catalog records do not read back as written")
        partitions = out["partitions"]
        labels = {}
        for key, c in out["censuses"].items():
            if c.mode == hb.MODE_FULL:
                bp = partitions[key]
                labels[key] = oracle.orbit_labels([cl.example_subset for cl in c.classes], perms(bp))

        def class_of(rec):
            key = rec.flags["census"]
            bp = partitions[key]
            mask = oracle.mask_of_rows(rec.candidate.rows, bp.blocks, bp.r)
            if mask not in labels[key]:
                problems.append(f"{key}: catalog candidate {mask} lies in no class of the census")
            return key, labels[key].get(mask, -1 - mask)

        first = {}
        for rec in out["loaded"]:
            first.setdefault(class_of(rec), rec.to_dict())
        kept = [rec.to_dict() for rec in out["kept"]]
        if len({class_of(rec) for rec in out["kept"]}) != len(kept):
            problems.append("dedup_records kept two records of one class")
        if sorted(kept, key=json.dumps) != sorted(first.values(), key=json.dumps):
            problems.append(
                f"dedup_records kept {len(kept)} records, expected the first of each of {len(first)} classes"
            )
        return problems


# -- analyze --------------------------------------------------------------------

# of the 117 ample classes of Z7, every 14th from the first, about 150 ms of
# quotient search each; the seed sets only their order, so not the work
Z7_SAMPLE = 8
DECOMPOSE_OK = ["Z3", "Z5", "Z7"]
# decompose_and_bound pads these systems to 42, 45 and 61 columns, over the
# 30-column budget of count_solutions; each call fails with CapacityError
DECOMPOSE_KEPT_FAILING = ["Z9", "Z3xZ3", "Z11"]
RANDOM_SYSTEMS = 24  # column counts cycle through 3..14, so every seed does the same work
PAPER_Z3 = {"BD": 7, "BCD": 13, "ABCD": 19, "BC": None, "ABD": None, "ACD": None, "ABC": None}


class Analyze:
    """Quotient search, counting, decomposition and the linear solver."""

    @staticmethod
    def setup(seed: int):
        parts = {
            _key(bp): bp
            for g in hb.abelian_groups_up_to(11)
            for bp in (hb.compute_blocks(g, m1) for m1 in g.involution_candidates())
        }
        rng = random.Random(seed)
        systems = []
        for i in range(RANDOM_SYSTEMS):
            ncols, nrows = 3 + i % 12, 1 + i % 3
            rows = [[rng.randrange(0, 4) for _ in range(ncols)] for _ in range(nrows)]
            doubled = [rng.randrange(1, 3 * ncols) for _ in range(nrows)]
            systems.append((rows, doubled, ncols))
        return {"parts": parts, "systems": systems, "seed": seed}

    @staticmethod
    def run(state, ops: Ops, tmp: Path):
        parts = state["parts"]
        c3 = ops(hb.enumerate_subsets, parts["Z3/0"])
        c5 = ops(hb.enumerate_subsets, parts["Z5/0"])
        c7 = ops(hb.enumerate_subsets, parts["Z7/0"], hb.MODE_AMPLE_ONLY)
        sample = list(range(0, c7.class_count, c7.class_count // Z7_SAMPLE))[:Z7_SAMPLE]
        random.Random(state["seed"]).shuffle(sample)
        targets = [("Z3/0", cl) for cl in c3.classes] + [("Z5/0", cl) for cl in c5.classes]
        targets += [("Z7/0", c7.classes[i]) for i in sample]
        quotients = []
        for key, cl in targets:
            h = ops(hb.build_candidate, parts[key], cl.example_subset)
            quotients.append((key, cl.example_subset, h, ops(hb.quotient_status, h)))

        counts = {key: ops(hb.count_solutions, ops(hb.ample_system, bp)) for key, bp in parts.items()}
        bounds = {s: ops(hb.decompose_and_bound, parts[f"{s}/0"]) for s in DECOMPOSE_OK}
        for s in DECOMPOSE_KEPT_FAILING:
            bounds[s] = ops.may_fail(hb.CapacityError, hb.decompose_and_bound, parts[f"{s}/0"])
        ceilings = {s: ops(hb.infinite_quotient_upper_bound, parts[f"{s}/0"]) for s in DECOMPOSE_OK}
        random_counts = [
            ops(hb.count_solutions, ops(hb.InequalitySystem.make, rows, [Fraction(t, 2) for t in doubled], ncols=n))
            for rows, doubled, n in state["systems"]
        ]

        ample = [
            h
            for key, bp in parts.items()
            if bp.r <= 5
            for _, h in ops(hb.certified_candidates, bp)
        ]
        fetvins = [ops(hb.check_fetvins, h, n_max=3) for h in ample]
        solutions = [
            [(system, ops(hb.ample_solve, h, system)) for system in ops(hb.iter_normalized_systems, h, 3)]
            for h in ample
        ]
        return {
            "quotients": quotients,
            "counts": counts,
            "bounds": bounds,
            "ceilings": ceilings,
            "random_counts": random_counts,
            "ample": ample,
            "fetvins": fetvins,
            "solutions": solutions,
        }

    @staticmethod
    def items(out) -> int:
        return len(out["quotients"]) + len(out["fetvins"])

    @staticmethod
    def summary(out) -> dict:
        return {
            "quotients": [(k, m, str(rep), rep.generator) for k, m, _, rep in out["quotients"]],
            "counts": out["counts"],
            "bounds": {k: None if b is None else list(vars(b).values()) for k, b in out["bounds"].items()},
            "ceilings": {k: [c.bound, list(c.one_row_blocks)] for k, c in out["ceilings"].items()},
            "random_counts": out["random_counts"],
            "fetvins": [(str(rep), rep.systems_checked) for rep in out["fetvins"]],
            "solutions": [[list(sol) for _, sol in per] for per in out["solutions"]],
        }

    @staticmethod
    def check(state, out) -> list[str]:
        parts = state["parts"]
        problems = Analyze._check_quotients(parts, out["quotients"])

        for key, n in out["counts"].items():
            bp = parts[key]
            if bp.b <= 22:
                own = oracle.ample_count(bp.blocks, bp.r)
                if n != own:
                    problems.append(f"{key}: count_solutions {n}, own enumeration {own}")
            elif not 2 ** (bp.b - (bp.r + 1) / 2) <= n <= 2**bp.b:
                problems.append(f"{key}: count {n} outside [2^(b-(r+1)/2), 2^b]")

        for spec, rep in out["bounds"].items():
            bp = parts[f"{spec}/0"]
            floor = 1 << (bp.b - (bp.r + 1) // 2)
            if rep is None:
                if spec not in DECOMPOSE_KEPT_FAILING:
                    problems.append(f"decompose_and_bound failed on {spec}")
                continue
            if not (rep.exact_count == out["counts"][f"{spec}/0"] and rep.exact_count >= floor == rep.lower_bound):
                problems.append(f"decompose_and_bound on {spec}: {rep}")
        for spec, ceiling in out["ceilings"].items():
            bp = parts[f"{spec}/0"]
            if ceiling.bound != 1 << (bp.b - bp.r) or set(ceiling.one_row_blocks) != oracle.one_row_blocks(bp.blocks, bp.r):
                problems.append(f"infinite_quotient_upper_bound on {spec}: {ceiling}")

        for (rows, doubled, n), got in zip(state["systems"], out["random_counts"]):
            own = oracle.brute_count(rows, doubled, n)
            if got != own:
                problems.append(f"count_solutions {got} on {rows} > {doubled}/2, brute force {own}")

        if len(out["ample"]) != 53:
            problems.append(f"{len(out['ample'])} ample hyperfields of order <= 5, expected 53")
        for h, rep, per in zip(out["ample"], out["fetvins"], out["solutions"]):
            expected = oracle.normalized_system_total(h.r, 3)
            if not rep.ok or rep.systems_checked != expected or len(per) != expected:
                problems.append(f"{h}: fetvins {rep}, {len(per)} systems solved, expected {expected}")
            sums = oracle.Sums(h.group.factors, h.minus_one, h.rows)
            for system, sol in per:
                if all(x == h.r for x in sol) or not all(sums.holds(eq, sol) for eq in system.equations):
                    problems.append(f"{h}: ample_solve answer {sol} fails {system.equations}")
                    break
        return problems

    @staticmethod
    def _check_quotients(parts, quotients) -> list[str]:
        problems = []
        atlases = {}
        found_z3 = {}
        z3 = parts["Z3/0"]
        for key, mask, h, rep in quotients:
            r = h.r
            if r not in atlases:
                atlases[r] = oracle.prime_quotient_atlas(r, r**4)
            own_q = atlases[r].get(oracle.cyclic_key(r, h.minus_one, h.rows))
            if rep.q_bound != r**4 or not rep.definitive:
                problems.append(f"{key} {mask}: scan bound {rep.q_bound}, definitive={rep.definitive}")
            if rep.status == hb.QUOTIENT:
                if (rep.q - 1) % r:
                    problems.append(f"{key} {mask}: witness GF({rep.q}) has no quotient on Z{r}")
                elif oracle.is_prime(rep.q):
                    g = oracle.least_primitive_root(rep.q)
                    if own_q != rep.q or rep.generator != pow(g, r, rep.q):
                        problems.append(f"{key} {mask}: witness GF({rep.q}) gen {rep.generator}, own q={own_q}")
                elif own_q is not None and own_q < rep.q:
                    problems.append(f"{key} {mask}: GF({own_q}) is a smaller witness than GF({rep.q})")
            elif rep.status == hb.NONQUOTIENT:
                if own_q is not None:
                    problems.append(f"{key} {mask}: called a nonquotient, but GF({own_q}) gives it")
            else:
                problems.append(f"{key} {mask}: status {rep.status} on odd r")
            if key == "Z3/0":
                found_z3[mask] = rep
        labels = oracle.orbit_labels(list(found_z3), oracle.block_permutations(
            z3.blocks, 3, oracle.cyclic_automorphisms(3, 0))[0])
        by_label = {labels[m]: rep for m, rep in found_z3.items()}
        for name, q in PAPER_Z3.items():
            rep = by_label.get(labels.get(z3.subset_from_labels(name)))
            want = hb.QUOTIENT if q else hb.NONQUOTIENT
            if rep is None or rep.status != want or rep.q != q:
                problems.append(f"Z3 {name}: {rep}, the paper has {'GF(%d)' % q if q else 'a nonquotient'}")
        return problems


WORKLOADS = {"sweep": Sweep, "census": Census, "analyze": Analyze}


def census_reference_counts(out) -> dict:
    """The census counts reference.json keeps, keyed as the checks look them up."""
    table = {}
    for key, c in out["censuses"].items():
        table[key.split("/sharded")[0]] = [c.subsets_examined, c.hyperfield_count, c.class_count, c.ample_count]
    for args, (_, payload) in out["cli"].items():
        for data in payload:
            key = f"{data['group']}/{data['minus_one']}/{data['mode']}"
            table[key] = [data["subsets_examined"], data["hyperfield_count"], len(data["classes"]), data["ample_count"]]
    return dict(sorted(table.items()))


def digest(summary) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True, default=str).encode()).hexdigest()

