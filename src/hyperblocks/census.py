"""Sweeps over all block subsets of a partition.

Subsets are visited in Gray-code order, a numpy chunk at a time.  For a
union of blocks the column weights mirror the row weights (column y
weighs what row -y weighs), so the ample screen is just
2 * min(row weight) > r.  Every batch verification (the full-mode census
and verify_all_subsets) runs one compiled, bit-sliced axiom circuit over
the block bits (AxiomCircuit); verify_axioms is left to single candidates.

A census sorts its survivors into isomorphism classes by block-orbit
keys: automorphisms fixing -1 permute the blocks, and blocks are numbered
by their least pair code, so the row-major pi string of a block union
orders exactly as its bit-reversed block mask.  The least reversed mask
over the orbit is therefore the canonical form, as an integer.  A census
keeps its classes as four numpy columns sorted by key (key, members,
least mask, ample): each chunk's survivors are reduced by one lexsort and
np.add.reduceat, the collected chunk columns are reduced the same way
whenever they pass max(COMPACT_ROWS, classes so far), and merging shard
censuses concatenates their columns and reduces once.  The pi strings
are built only when Census.classes is first read, one uint8 gather of
the key bits per 2^14 classes.  canonical_form stays the general oracle
for arbitrary relations; canonical_forms keys the block unions among a
batch of candidates (_union_keys, which the quotient atlas shares) and
leaves only the rest to it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .blocks import BlockPartition, compute_blocks
from .errors import CapacityError
from .groups import AbelianGroup
from .hyperfields import (
    AXIOM_ORDER,
    STATUS_CERTIFIED,
    HyperfieldCandidate,
    build_candidate,
)

MODE_FULL = "full"
MODE_AMPLE_ONLY = "ample-only"

SUBSET_BUDGET_BITS = 30
CHUNK_BITS = 14  # masks per numpy chunk, as bits; bounds the kernel's working memory
KEY_BITS = 53  # block-orbit keys are sums of distinct powers of two, exact in float64
COMPACT_ROWS = 1 << 20  # collected class rows that trigger a reduce; bounds a census's memory


@lru_cache(maxsize=64)
def automorphisms_fixing(group: AbelianGroup, minus_one: int) -> tuple[tuple[int, ...], ...]:
    """Group automorphisms that fix the chosen -1 element, enumerated once per (group, -1)."""
    return tuple(a for a in group.automorphisms() if a[minus_one] == minus_one)


def block_permutations(bp: BlockPartition) -> np.ndarray:
    """perms[k, i]: the block onto which the k-th automorphism fixing -1 maps block i.

    Raises RuntimeError if an automorphism maps some block onto no single
    block, which would make block masks unsound as isomorphism keys.
    """
    r = bp.r
    autos = np.array(automorphisms_fixing(bp.group, bp.minus_one), dtype=np.intp)
    block_of = np.array(bp.pair_to_block, dtype=np.intp)
    # block of the image of every pair code, one row per automorphism
    moved = block_of[(autos[:, :, None] * r + autos[:, None, :]).reshape(len(autos), -1)]
    perms = np.empty((len(autos), bp.b), dtype=np.intp)
    perms[:, block_of] = moved
    if not (perms[:, block_of] == moved).all():
        raise RuntimeError(f"an automorphism of {bp.group} splits a block")
    return perms


def canonical_form(
    h: HyperfieldCandidate, autos: Sequence[tuple[int, ...]] | None = None
) -> str:
    """Lexicographically least row-major pi bit string over the automorphism orbit.

    Only automorphisms fixing -1 are isomorphisms of candidates, so those
    are the ones ranged over; candidates on different groups or with a
    different -1 are never isomorphic here.
    """
    if autos is None:
        autos = automorphisms_fixing(h.group, h.minus_one)
    r = h.r
    best: str | None = None
    for sigma in autos:
        out = ["0"] * (r * r)
        for x in range(r):
            row = h.rows[x]
            sx = sigma[x] * r
            while row:
                low = row & -row
                out[sx + sigma[low.bit_length() - 1]] = "1"
                row ^= low
        s = "".join(out)
        if best is None or s < best:
            best = s
    assert best is not None
    return best


@dataclass(frozen=True)
class CensusClass:
    canonical_pi: str
    members: int
    ample: bool
    example_subset: int  # least block bitmask seen in the class


class _Columns(NamedTuple):
    """Census classes column-wise, one row per class."""

    keys: np.ndarray  # block-orbit keys, int32 or int64
    members: np.ndarray  # same int type
    least: np.ndarray  # least block mask seen, same int type
    ample: np.ndarray  # bool


def _reduce(parts: Sequence[_Columns]) -> _Columns:
    """One row per key, sorted by key: members summed, the least mask kept."""
    keys, members, least, ample = (np.concatenate(column) for column in zip(*parts))
    order = np.lexsort((least, keys))
    first = np.flatnonzero(np.diff(keys[order], prepend=-1))
    pick = order[first]
    return _Columns(keys[pick], np.add.reduceat(members[order], first), least[pick], ample[pick])


@dataclass(frozen=True, eq=False)
class Census:
    """One sweep's counts and classes.

    The classes are kept as columns sorted by block-orbit key; class_count,
    class_rows() and summary() read only those, and classes builds the
    CensusClass tuple, pi strings included, on first access and keeps it.
    """

    group: AbelianGroup
    minus_one: int
    mode: str
    subsets_examined: int
    hyperfield_count: int
    ample_count: int
    _partition: BlockPartition = field(repr=False)
    _columns: _Columns = field(repr=False)

    @cached_property
    def classes(self) -> tuple[CensusClass, ...]:
        keys, members, least, ample = self._columns
        strings = _pi_strings(self._partition, keys)
        return tuple(map(CensusClass, strings, members.tolist(), ample.tolist(), least.tolist()))

    @property
    def class_count(self) -> int:
        return len(self._columns.keys)

    def class_rows(self) -> Iterator[tuple[int, bool, int]]:
        """(members, ample, example_subset) of each class, in the order of
        classes, read from the columns without building a pi string."""
        _, members, least, ample = self._columns
        return zip(members.tolist(), ample.tolist(), least.tolist())

    def summary(self) -> str:
        return (
            f"subsets={self.subsets_examined} hyperfields={self.hyperfield_count} "
            f"classes={self.class_count} ample={self.ample_count}"
        )

    def _counts(self) -> tuple:
        return (
            self.group,
            self.minus_one,
            self.mode,
            self.subsets_examined,
            self.hyperfield_count,
            self.ample_count,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Census):
            return NotImplemented
        return self._counts() == other._counts() and all(
            map(np.array_equal, self._columns, other._columns)
        )

    def __hash__(self) -> int:
        return hash((self._counts(), self._columns.keys.tobytes()))


class AxiomCircuit:
    """The axioms of verify_axioms as one Boolean circuit, evaluated bit-sliced.

    Variable var_of[x * r + y] stands for the pi bit (x, y): the pair code
    for an arbitrary relation, the block index for a union of blocks.  A
    nonzero w is in x + y exactly when pi(y^-1 x, y^-1 w) holds; whether 0
    is in x + y, and every sum with a zero operand, are constants.  Each
    axiom compiles to implications L -> R between ORs of terms, a term
    being the AND of at most two variables.  Implications that hold as
    written (every term of L is in R, or R is constantly true) are dropped:
    distributivity and unique negatives for every relation, commutativity
    and reversibility for unions of blocks.  Evaluation is bit-sliced
    (Biham, FSE 1997): a uint64 word holds one variable of 64 candidates.
    """

    def __init__(self, group: AbelianGroup, minus_one: int, var_of: Sequence[int]):
        r = group.order
        zero = r
        elements = range(r + 1)
        mul, inv = group.mul, group.inv
        # registers: variables 0..t-1, constant true t, constant false t + 1, pair ANDs
        t = self.nvars = max(var_of, default=-1) + 1
        n = t + 1
        true = frozenset([t * n + t])  # a side is a set of terms u * n + v, u <= v

        # add[x][y]: (e, register) for each e that is in x + y when the register is true
        add = [[[(y if x == zero else x, t)] for y in elements] for x in elements]
        for x in range(r):
            for y in range(r):
                yi = inv(y)
                row = mul(yi, x) * r
                add[x][y] = [(e, var_of[row + mul(yi, e)]) for e in range(r)]
                if x == mul(minus_one, y):
                    add[x][y].append((zero, t))

        def union(parts) -> list[frozenset[int]]:
            """Per element, the side for its membership in a union of (condition, sum)."""
            out: list[set[int]] = [set() for _ in elements]
            for c, entries in parts:
                for e, v in entries:
                    out[e].add(c * n + v if c <= v else v * n + c)
            return [true if true <= terms else frozenset(terms) for terms in out]

        def eq(a, b):
            return [(a[e], b[e]) for e in elements] + [(b[e], a[e]) for e in elements]

        def every(check):
            """The clauses of check(x, z) over all nonzero x and z."""
            return [c for x in range(r) for z in range(r) for c in check(x, z)]

        sums = [[union([(t, add[x][y])]) for y in elements] for x in elements]
        axioms = [
            # nonempty sums: z + 1 has a member
            [(true, frozenset().union(*sums[z][0])) for z in range(r)],
            # commutativity: z + 1 = 1 + z
            [c for z in range(r) for c in eq(sums[z][0], sums[0][z])],
            # associativity: (x + 1) + z = x + (1 + z)
            every(
                lambda x, z: eq(
                    union((c, add[w][z]) for w, c in add[x][0]),
                    union((c, add[x][u]) for u, c in add[0][z]),
                )
            ),
            # distributivity: a(z + 1) = az + a
            every(
                lambda a, z: eq(
                    [sums[z][0][e if e == zero else mul(inv(a), e)] for e in elements],
                    sums[mul(a, z)][a],
                )
            ),
            # unique negatives: 0 in x + y is a constant, so this is decided here
            [(true, frozenset()) for x in elements if [s[zero] for s in sums[x]].count(true) != 1],
            # reversibility: x in 1 + z implies z in x + (-1)
            every(lambda x, z: [(sums[0][z][x], sums[x][minus_one][z])]),
        ]

        sides: dict[frozenset[int], int] = {}
        pairs: dict[int, int] = {}

        def register(term: int) -> int:
            u, v = divmod(term, n)
            return u if v == t else pairs.setdefault(term, t + 2 + len(pairs))

        self.clauses = []
        for clauses in axioms:
            kept = list({(a, b) for a, b in clauses if not (a <= b or true <= b)})
            ids = [[sides.setdefault(side, len(sides)) for side in c] for c in kept]
            self.clauses.append(np.array(ids, dtype=np.intp).reshape(-1, 2).T)
        terms = [[register(term) for term in sorted(side)] or [t + 1] for side in sides]
        self.side_terms = np.array([i for ts in terms for i in ts], dtype=np.intp)
        self.side_starts = np.cumsum([0] + [len(ts) for ts in terms], dtype=np.intp)[:-1]
        self.pair_regs = np.array([divmod(p, n) for p in pairs], dtype=np.intp).reshape(-1, 2).T

    def failures(self, bits: np.ndarray) -> np.ndarray:
        """First failing axiom of each candidate, bits[i] holding variable i of every candidate.

        Returns booleans of shape (len(AXIOM_ORDER), n); [i, k] is set when
        AXIOM_ORDER[i] is the first axiom candidate k fails.
        """
        n = bits.shape[1]
        words = np.packbits(np.pad(bits, ((0, 0), (0, -n % 64))), axis=1, bitorder="little")
        words = words.view("<u8")
        ones = np.full((1, words.shape[1]), ~np.uint64(0), dtype=words.dtype)
        pair_ands = words[self.pair_regs[0]] & words[self.pair_regs[1]]
        regs = np.concatenate([words, ones, ~ones, pair_ands])
        sides = np.bitwise_or.reduceat(regs[self.side_terms], self.side_starts, axis=0)
        first = np.zeros((len(self.clauses), words.shape[1]), dtype=words.dtype)
        seen = first[0].copy()
        for row, (lhs, rhs) in zip(first, self.clauses):
            row |= np.bitwise_or.reduce(sides[lhs] & ~sides[rhs], axis=0) & ~seen
            seen |= row
        bools = np.unpackbits(first.view(np.uint8), axis=1, bitorder="little")
        return bools[:, :n].astype(bool)


def _row_sums(bp: BlockPartition, bits: np.ndarray) -> np.ndarray:
    """Per pi row and subset: the row's weight."""
    r = bp.r
    out = np.zeros((r, bits.shape[1]), dtype=np.int16)
    for i, block in enumerate(bp.blocks):
        for code in block:
            out[code // r] += bits[i]
    return out


def shard_span(b: int, i: int, n: int) -> tuple[int, int]:
    """Half-open Gray-code positions of the i-th of n contiguous shards of 2^b subsets."""
    if not 0 <= i < n:
        raise ValueError(f"shard index {i} out of range for {n} shards")
    total = 1 << b
    return total * i // n, total * (i + 1) // n


def _chunks(
    bp: BlockPartition, span: tuple[int, int] | None
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(masks t ^ (t >> 1), block bits as 0/1 rows, ample screen) per chunk of positions t.

    span is a half-open range of positions, all of them by default;
    ValueError unless 0 <= lo <= hi <= 2^b.
    """
    lo, hi = span if span is not None else shard_span(bp.b, 0, 1)
    if not 0 <= lo <= hi <= 1 << bp.b:
        raise ValueError(f"span ({lo}, {hi}) is not within [0, 2^{bp.b}]")
    for start in range(lo, hi, 1 << CHUNK_BITS):
        t = np.arange(start, min(start + (1 << CHUNK_BITS), hi), dtype=np.uint64)
        masks = t ^ (t >> np.uint64(1))
        octets = masks.astype("<u8").view(np.uint8).reshape(-1, 8)[:, : -(-bp.b // 8)]
        bits = np.unpackbits(octets, axis=1, bitorder="little")[:, : bp.b].T.copy()
        yield masks, bits, 2 * _row_sums(bp, bits).min(axis=0) > bp.r


def _survivors(
    bp: BlockPartition, mode: str, span: tuple[int, int] | None
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(masks, block bits, ample flags) of the kept subsets, a chunk at a time in Gray-code order.

    Full mode keeps those passing the axiom kernel, ample-only mode those
    passing the ample screen.
    """
    if mode == MODE_FULL:
        circuit = AxiomCircuit(bp.group, bp.minus_one, bp.pair_to_block)
    for masks, bits, ample in _chunks(bp, span):
        keep = ~circuit.failures(bits).any(axis=0) if mode == MODE_FULL else ample
        yield masks[keep], bits[:, keep], ample[keep]


def certified_candidates(
    bp: BlockPartition, span: tuple[int, int] | None = None
) -> Iterator[tuple[int, HyperfieldCandidate]]:
    """Stream (subset mask, candidate) for every subset passing the ample screen."""
    for masks, _, _ in _survivors(bp, MODE_AMPLE_ONLY, span):
        for mask in masks.tolist():
            h = build_candidate(bp, mask)
            h.status = STATUS_CERTIFIED
            yield mask, h


def _pi_strings(bp: BlockPartition, keys: np.ndarray) -> list[str]:
    """The row-major pi string of each block-orbit key, one uint8 gather per chunk of keys.

    Key bit b-1-i stands for block i, so pi bit (x, y) is key bit
    b-1-pair_to_block[x*r + y]: the key bytes are unpacked little-endian
    and their bit columns gathered in pi order.  Chunks of 2^CHUNK_BITS
    keys bound the working memory.
    """
    columns = bp.b - 1 - np.array(bp.pair_to_block, dtype=np.intp)
    width = bp.r * bp.r
    out: list[str] = []
    for start in range(0, len(keys), 1 << CHUNK_BITS):
        octets = keys[start : start + (1 << CHUNK_BITS)].astype("<u8").view(np.uint8)
        bits = np.unpackbits(octets.reshape(-1, 8), axis=1, bitorder="little")
        chars = bits[:, columns] + np.uint8(ord("0"))
        text = chars.tobytes().decode("ascii")
        out += [text[i : i + width] for i in range(0, len(text), width)]
    return out


def _key_weights(bp: BlockPartition) -> np.ndarray:
    """weights[k, i] = 2^(b-1-s_k(i)) for the k-th automorphism s_k fixing -1.

    float64 for b <= KEY_BITS; past that, Python ints in an object array,
    which keep the keys exact at any b but are far slower.
    """
    shifts = bp.b - 1 - block_permutations(bp)
    if bp.b <= KEY_BITS:
        return np.ldexp(1.0, shifts)
    return np.array([[1 << s for s in row] for row in shifts.tolist()], dtype=object)


def _orbit_keys(weights: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Block-orbit key of each column of 0/1 block bits: min over k of weights[k] @ bits.

    The keys have the dtype of weights, and are exact (see _key_weights).
    """
    values = bits.astype(weights.dtype)
    keys = weights[0] @ values
    for w in weights[1:]:
        np.minimum(keys, w @ values, out=keys)
    return keys


def enumerate_subsets(
    bp: BlockPartition,
    mode: str = MODE_FULL,
    budget_bits: int = SUBSET_BUDGET_BITS,
    span: tuple[int, int] | None = None,
) -> Census:
    """Census of all 2^b block subsets for one (group, -1).

    mode "full" keeps the subsets that pass every axiom, judged a chunk at
    a time by the axiom kernel; mode "ample-only" keeps exactly the
    subsets whose pi satisfies the margin screen and certifies them
    without triple checks.  The kept subsets are classed by block-orbit
    key, min over automorphisms s fixing -1 of the sum of 2^(b-1-s(i))
    over the blocks i of the mask, a chunk at a time.  span selects a
    half-open range of Gray-code positions for sharding (see shard_span);
    ValueError unless 0 <= lo <= hi <= 2^b.
    """
    if mode not in (MODE_FULL, MODE_AMPLE_ONLY):
        raise ValueError(f"unknown census mode {mode!r}")
    cap = min(budget_bits, KEY_BITS)
    if bp.b > cap:
        raise CapacityError(f"2^{bp.b} subsets exceeds the 2^{cap} budget")
    weights = _key_weights(bp)
    if span is None:
        span = shard_span(bp.b, 0, 1)
    found = ample_found = 0
    # keys and masks are below 2^b, and a class has at most one member per automorphism
    dtype = np.int32 if bp.b < 32 else np.int64
    # collected[0] holds one row per class reduced so far
    collected = [_Columns(*[np.empty(0, dtype)] * 3, np.empty(0, bool))]
    pending = 0
    for masks, bits, ample in _survivors(bp, mode, span):
        found += len(masks)
        ample_found += int(ample.sum())
        keys = _orbit_keys(weights, bits).astype(dtype)
        members = np.ones(len(keys), dtype=dtype)
        collected.append(_reduce([_Columns(keys, members, masks.astype(dtype), ample)]))
        pending += len(collected[-1].keys)
        if pending > max(COMPACT_ROWS, len(collected[0].keys)):
            collected, pending = [_reduce(collected)], 0
    return Census(
        bp.group,
        bp.minus_one,
        mode,
        span[1] - span[0],
        found,
        ample_found,
        bp,
        _reduce(collected),
    )


def merge_censuses(parts: list[Census]) -> Census:
    """Combine shard censuses of the same sweep by their key columns; merging is associative."""
    if not parts:
        raise ValueError("nothing to merge")
    first = parts[0]
    for p in parts[1:]:
        if (p.group, p.minus_one, p.mode) != (first.group, first.minus_one, first.mode):
            raise ValueError("cannot merge censuses of different sweeps")
    return Census(
        first.group,
        first.minus_one,
        first.mode,
        sum(p.subsets_examined for p in parts),
        sum(p.hyperfield_count for p in parts),
        sum(p.ample_count for p in parts),
        first._partition,
        _reduce([p._columns for p in parts]),
    )


def _union_keys(
    bp: BlockPartition, candidates: Sequence[HyperfieldCandidate]
) -> tuple[np.ndarray, np.ndarray]:
    """(indices, block-orbit keys) of the candidates on bp whose pi is a union of blocks.

    A relation is a union when every pair carries the bit of its block's
    first pair; its key is the one enumerate_subsets gives its block mask.
    """
    text = "".join(h.pi_bits() for h in candidates).encode("ascii")
    bits = (np.frombuffer(text, dtype=np.uint8) - ord("0")).reshape(-1, bp.r * bp.r)
    block_bits = bits[:, [block[0] for block in bp.blocks]]
    unions = np.flatnonzero((bits == block_bits[:, bp.pair_to_block]).all(axis=1))
    return unions, _orbit_keys(_key_weights(bp), block_bits[unions].T)


def canonical_forms(
    group: AbelianGroup, minus_one: int, candidates: Sequence[HyperfieldCandidate]
) -> list[str]:
    """canonical_form of each candidate on this group and -1, computed in one batch.

    The block unions among them (all of them, when they come from a
    census) are keyed by _union_keys and the keys turned into pi strings
    by _pi_strings; only the other relations go through canonical_form.
    """
    bp = compute_blocks(group, minus_one)
    forms: list[str | None] = [None] * len(candidates)
    if bp.b <= KEY_BITS:
        unions, keys = _union_keys(bp, candidates)
        for i, form in zip(unions.tolist(), _pi_strings(bp, keys)):
            forms[i] = form
    autos = automorphisms_fixing(group, minus_one)
    return [canonical_form(h, autos) if f is None else f for h, f in zip(candidates, forms)]


def enumerate_sharded(
    bp: BlockPartition,
    mode: str = MODE_FULL,
    budget_bits: int = SUBSET_BUDGET_BITS,
    threads: int = 1,
) -> Census:
    """Full-range census run as contiguous shard_span shards, one after another, and merged.

    threads is the shard count, capped at 2^b; the census is the same for
    any count.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    n = min(threads, 1 << bp.b)
    return merge_censuses(
        [enumerate_subsets(bp, mode, budget_bits, shard_span(bp.b, i, n)) for i in range(n)]
    )


@dataclass(frozen=True)
class SweepReport:
    """Tally of verify_axioms verdicts over every block subset of one partition."""

    group: AbelianGroup
    minus_one: int
    subsets_examined: int
    verified_count: int
    certified_count: int
    certified_unverified: int  # subsets passing the ample screen but failing axioms
    failure_counts: dict[str, int]  # first failing axiom -> number of subsets

    @property
    def reversibility_only(self) -> int:
        """Subsets passing every other axiom yet failing reversibility."""
        return self.failure_counts.get("reversibility", 0)


def verify_all_subsets(
    bp: BlockPartition, budget_bits: int = SUBSET_BUDGET_BITS
) -> SweepReport:
    """Tally the axiom verdicts of all 2^b block subsets through the axiom kernel.

    Matches verify_axioms exactly: same checks, same first-failure order,
    reversibility last.  Only the verdict tallies are kept, which makes
    sweeps feasible at sizes where building one candidate at a time is not.
    """
    if bp.b > budget_bits:
        raise CapacityError(f"2^{bp.b} subsets exceeds the 2^{budget_bits} budget")
    circuit = AxiomCircuit(bp.group, bp.minus_one, bp.pair_to_block)
    failures = np.zeros(len(AXIOM_ORDER), dtype=np.int64)
    certified = certified_unverified = 0
    for _, bits, screen in _chunks(bp, None):
        first = circuit.failures(bits)
        failures += first.sum(axis=1)
        certified += int(screen.sum())
        certified_unverified += int((screen & first.any(axis=0)).sum())
    total = 1 << bp.b
    return SweepReport(
        bp.group,
        bp.minus_one,
        total,
        total - int(failures.sum()),
        certified,
        certified_unverified,
        {name: int(n) for name, n in zip(AXIOM_ORDER, failures) if n},
    )


def census_all_minus_ones(
    group: AbelianGroup, mode: str = MODE_FULL, budget_bits: int = SUBSET_BUDGET_BITS
) -> list[Census]:
    """One census per legal -1 choice; classes are never merged across -1 values."""
    return [
        enumerate_subsets(compute_blocks(group, m1), mode, budget_bits)
        for m1 in group.involution_candidates()
    ]
