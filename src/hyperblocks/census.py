"""Sweeps over all block subsets of a partition.

Subsets are visited in Gray-code order, 2^CHUNK_BITS positions a chunk,
and the whole sweep works on uint64 words, one word holding one block
bit of 64 consecutive positions.  Those words are written straight from
the positions (_chunks): in a 64-aligned run, block bits 0-5 follow
fixed patterns, flipped by the run's own Gray code, and higher bits are
constant.  For a union of blocks the column weights mirror the row
weights (column y weighs what row -y weighs), so the ample screen is
2 * min(row weight) > r, evaluated bit-sliced on the words: a ripple
counter per pi row, a comparison with r // 2 + 1, an AND over the rows
(_ample_screen).  Every batch verification (the full-mode census and
verify_all_subsets) runs one compiled, bit-sliced axiom circuit on the
same words (AxiomCircuit): on a union of blocks only nonempty sums and
associativity can fail, so it compiles just those, as pairs of sides
that must be equal; verify_axioms is left to single candidates.
verify_all_subsets sweeps each Aut(G)-orbit of -1 once per process.
Tallies are popcounts of words; only the kept positions of a chunk are
unpacked into masks and block bits.

A census sorts its survivors into isomorphism classes by block-orbit
keys: automorphisms fixing -1 permute the blocks, and blocks are numbered
by their least pair code, so the row-major pi string of a block union
orders exactly as its bit-reversed block mask.  The least reversed mask
over the orbit is therefore the canonical form, as an integer.  A census
keeps its classes as four numpy columns sorted by key (key, members,
least mask, ample).  The chunks' survivors are collected as raw columns,
since in Gray-code order an orbit's members fall in different chunks and
one chunk alone has little to merge; the collected columns are reduced
by one lexsort and np.add.reduceat whenever they pass max(COMPACT_ROWS,
classes so far) and once at the end.  Merging shard censuses
concatenates their columns and reduces once.  The pi strings are built
only when Census.classes is first read, one uint8 gather of the key bits
per 2^14 classes.  _union_keys gives the block unions among any
candidates the same keys, exactly at any b, for the quotient atlas and
catalog deduplication; canonical_form stays the general oracle for
arbitrary relations.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .blocks import COEFF_ENTRY_BOUND, BlockPartition, compute_blocks
from .errors import CapacityError
from .groups import AbelianGroup
from .hyperfields import (
    STATUS_CERTIFIED,
    HyperfieldCandidate,
    build_candidate,
    row_ints,
    union_block_bits,
)

MODE_FULL = "full"
MODE_AMPLE_ONLY = "ample-only"

SUBSET_BUDGET_BITS = 30
CHUNK_BITS = 14  # masks per numpy chunk, as bits; bounds the kernel's working memory
KEY_BITS = 53  # block-orbit keys are sums of distinct powers of two, exact in float64
COMPACT_ROWS = 1 << 20  # collected class rows that trigger a reduce; bounds a census's memory
_BYTE_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


@lru_cache(maxsize=64)
def automorphisms_fixing(group: AbelianGroup, minus_one: int) -> tuple[tuple[int, ...], ...]:
    """Group automorphisms that fix the chosen -1 element, enumerated once per (group, -1)."""
    return tuple(a for a in group.automorphisms() if a[minus_one] == minus_one)


def block_permutations(bp: BlockPartition) -> np.ndarray:
    """perms[k, i]: the block onto which the k-th automorphism fixing -1 maps block i.

    Worked out one automorphism at a time.  Raises RuntimeError if one
    maps some block onto no single block, which would make block masks
    unsound as isomorphism keys.
    """
    autos = np.array(automorphisms_fixing(bp.group, bp.minus_one), dtype=np.intp)
    block_of = bp.block_index.ravel()
    perms = np.empty((len(autos), bp.b), dtype=np.int32)
    for perm, sigma in zip(perms, autos):
        moved = bp.block_index[np.ix_(sigma, sigma)].ravel()  # block of each pair's image
        perm[block_of] = moved
        if not np.array_equal(perm[block_of], moved):
            raise RuntimeError(f"an automorphism of {bp.group} splits a block")
    return perms


# block_permutations tables by partition, least recently used first
_PERMUTATIONS: dict[BlockPartition, np.ndarray] = {}


def _shared_permutations(bp: BlockPartition) -> np.ndarray:
    """block_permutations(bp), built once and shared, so read-only.

    The tables are kept while they hold at most COEFF_ENTRY_BOUND entries
    in all, the bound on one partition's coefficient counts; the least
    recently used go first, and a table larger than the bound is not kept.
    """
    perms = _PERMUTATIONS.pop(bp, None)
    if perms is None:
        perms = block_permutations(bp)
        perms.flags.writeable = False
    _PERMUTATIONS[bp] = perms
    held = sum(table.size for table in _PERMUTATIONS.values())
    while held > COEFF_ENTRY_BOUND:
        held -= _PERMUTATIONS.pop(next(iter(_PERMUTATIONS))).size
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
    ordered = keys[order]
    # bool flags and a members sum in the columns' own type: np.diff's int64
    # and reduceat's default int64 would be the largest temporaries of a census
    new = np.ones(len(keys), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    first = np.flatnonzero(new)
    pick = order[first]
    members = np.add.reduceat(members[order], first, dtype=members.dtype)
    return _Columns(keys[pick], members, least[pick], ample[pick])


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


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct rows of a 2-d array in lexicographic order, each row's index among them)."""
    order = np.lexsort(a.T[::-1])
    ordered = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ids = np.empty(len(a), dtype=np.intp)
    ids[order] = np.cumsum(new) - 1
    return ordered[new], ids


class AxiomCircuit:
    """The axioms a union of blocks can fail, as one Boolean circuit over its block bits.

    Blocks are closed under both block moves, so commutativity and
    reversibility hold on every union of blocks; distributivity and unique
    negatives hold for every relation.  So only nonempty sums and
    associativity are compiled, as pairs of sides that must be equal: the
    constant true side against z + 1, and (x + 1) + z against x + (1 + z)
    for each e.  A side is an OR of terms, a term the AND of at most two
    registers of the table s[x, y, e], which holds exactly when e is in
    x + y: for nonzero x, y and e it is the block bit of
    pi(y^-1 x, y^-1 e); whether 0 is in x + y, and every sum with a zero
    operand, are the constants true and false.  The sides are built as
    numpy term arrays (associativity's (x + 1) + z, for instance, ORs
    s[x, 1, w] AND s[w, z, e] over w) and made canonical: a term with
    false is blanked, the terms are sorted, repeats blanked and sorted
    again, and a side with a true term is true.  A pair whose canonical
    sides are equal holds as written and is dropped.  Equal sides, and
    equal pairs as (min id, max id), are merged by one lexsort each.
    Evaluation is bit-sliced (Biham, FSE 1997): a uint64 word holds one
    block bit of 64 candidates, each side is the OR of a fixed number of
    register rows, its blanks reading false, and a pair fails where its
    sides differ.  The registers, sides and gathered operands are written
    into one workspace the circuit keeps across calls.
    """

    AXIOMS = ("nonempty-sums", "associativity")

    def __init__(self, bp: BlockPartition):
        group, minus_one, r = bp.group, bp.minus_one, bp.r
        zero = r  # elements are 0..r, r standing for 0
        # registers: block bits 0..b-1, constant true b, constant false b + 1, pair ANDs
        t = bp.b
        true, false = t, t + 1
        mul = np.array([group.mul_row(x) for x in range(r)], dtype=np.intp)
        quot = mul[[group.inv(y) for y in range(r)]]  # quot[y, x] = y^-1 x
        nonzero, elements = np.arange(r), np.arange(r + 1)

        s = np.full((r + 1, r + 1, r + 1), false, dtype=np.intp)
        s[:r, :r, :r] = bp.block_index[quot.T[:, :, None], quot[None, :, :]]
        s[nonzero, mul[minus_one], zero] = true
        s[zero, elements, elements] = true
        s[nonzero, zero, nonzero] = true

        # the term u AND v is the code u * k + v, u <= v, and u AND u is u AND true;
        # blank sorts after every term
        k = t + 2
        blank = k * k
        true_side = np.full(r + 1, blank)
        true_side[0] = true * k + true

        def side(u: np.ndarray, v: np.ndarray) -> np.ndarray:
            """One canonical side per row: the OR over the last axis of u AND v."""
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            codes = np.full(lo.shape[:-1] + (r + 1,), blank)
            codes[..., : lo.shape[-1]] = np.where(
                hi == false, blank, lo * k + np.where(lo == hi, true, hi)
            )
            codes.sort(axis=-1)
            codes[..., 1:][codes[..., 1:] == codes[..., :-1]] = blank
            codes.sort(axis=-1)
            codes[(codes == true_side[0]).any(axis=-1)] = true_side
            return codes.reshape(-1, r + 1)

        plus_one, one_plus = s[:r, 0], s[0, :r]  # [z, e]: e in z + 1, e in 1 + z
        # s[x, y, e] and s[y, x, e] are one register, so the (z, x) pair of
        # associativity is the (x, z) pair with its sides swapped: x <= z suffices
        xs, zs = np.triu_indices(r)
        equalities = [
            # nonempty sums: z + 1 has a member
            (np.tile(true_side, (r, 1)), side(plus_one, np.full_like(plus_one, true))),
            # associativity: (x + 1) + z = x + (1 + z), as [(x, z), e, w] term arrays
            (
                side(plus_one[xs, None, :], s[:, :r].transpose(1, 2, 0)[zs]),
                side(one_plus[zs, None, :], s[:r].transpose(0, 2, 1)[xs]),
            ),
        ]

        lhs, rhs = (np.concatenate(part) for part in zip(*equalities))
        axiom = np.repeat(np.arange(len(equalities)), [len(a) for a, _ in equalities])
        kept = (lhs != rhs).any(axis=1)
        sides, ids = _unique_rows(np.concatenate([lhs[kept], rhs[kept]]))
        a, b = ids.reshape(2, -1)
        rows, _ = _unique_rows(np.column_stack([axiom[kept], np.minimum(a, b), np.maximum(a, b)]))
        # the side ids of nonempty sums' pairs, then of associativity's, as two rows each
        self.equalities = [rows[rows[:, 0] == i, 1:].T for i in range(len(equalities))]

        u, v = np.divmod(sides, k)
        filled = sides != blank
        paired = filled & (v < t)
        pairs, pair_ids = _unique_rows(sides[paired][:, None])
        regs = np.where(filled & (v == true), u, false)
        regs[paired] = t + 2 + pair_ids
        # side_regs[c, i]: the register of the c-th term of side i; blanks sort last and read false
        self.side_regs = np.ascontiguousarray(
            regs[:, : max(int(filled.sum(axis=1).max(initial=0)), 1)].T
        )
        self.pair_regs = np.stack(np.divmod(pairs[:, 0], k))
        # failures gathers with mode="clip", so every index is range-checked here, once
        for index, bound in [
            (self.pair_regs, t),
            (self.side_regs, t + 2 + len(pairs)),
            *((pair, len(sides)) for pair in self.equalities),
        ]:
            if index.size and not 0 <= index.min() <= index.max() < bound:
                raise RuntimeError(f"an axiom circuit index of {bp.group} is out of range")
        # workspace rows: the registers, the sides, and two blocks of gathered operands
        operands = max(len(pairs), len(sides), *(pair.shape[1] for pair in self.equalities))
        self._blocks = t  # register rows of block bits; the constants true and false follow
        self._rows = (t + 2 + len(pairs), len(sides), operands, operands)
        self._space = np.empty(0, dtype=np.uint64)
        self._width = -1
        self._views: list[np.ndarray] = []

    def failures(self, words: np.ndarray) -> np.ndarray:
        """First failing axiom of 64 candidates a word, words[i] holding block bit i.

        Returns a fresh array of words of shape (2, words.shape[1]); bit j
        of [i, w] is set when AXIOMS[i] is the first axiom that the
        candidate at bit j of word w fails.  Every other axiom holds on
        each union of blocks.  The registers, sides and operands live in
        the circuit's own workspace, so a circuit is not reentrant: one
        call at a time.
        """
        t = self._blocks
        if words.ndim != 2 or len(words) != t:
            raise ValueError(f"expected {t} rows of block words, got shape {words.shape}")
        regs, sides, left, right = self._workspace(words.shape[1])
        blocks, pairs = regs[:t], regs[t + 2 :]
        blocks[...] = words
        np.take(blocks, self.pair_regs[0], axis=0, out=pairs, mode="clip")
        np.take(blocks, self.pair_regs[1], axis=0, out=left[: len(pairs)], mode="clip")
        pairs &= left[: len(pairs)]
        # each side ORs its term registers, gathered one column of side_regs at a time
        np.take(regs, self.side_regs[0], axis=0, out=sides, mode="clip")
        for column in self.side_regs[1:]:
            np.take(regs, column, axis=0, out=left[: len(sides)], mode="clip")
            sides |= left[: len(sides)]
        out = np.empty((2, words.shape[1]), dtype=np.uint64)
        for row, (a, b) in zip(out, self.equalities):
            differ, other = left[: len(a)], right[: len(b)]
            np.take(sides, a, axis=0, out=differ, mode="clip")
            np.take(sides, b, axis=0, out=other, mode="clip")
            differ ^= other
            np.bitwise_or.reduce(differ, axis=0, out=row)
        out[1] &= ~out[0]
        return out

    def _workspace(self, n: int) -> list[np.ndarray]:
        """The workspace as (rows, n) views of one buffer, grown to the widest call so far.

        np.take copies into a temporary when its out is not C-contiguous or
        its bounds overlap the input's, so each view is its own contiguous
        stretch of the buffer.  The constant registers are refilled
        whenever the width changes.
        """
        if n != self._width:
            if self._space.size < sum(self._rows) * n:
                self._space = np.empty(sum(self._rows) * n, dtype=np.uint64)
            ends = np.cumsum((0, *self._rows)) * n
            self._views = [
                self._space[lo:hi].reshape(rows, n)
                for lo, hi, rows in zip(ends[:-1], ends[1:], self._rows)
            ]
            self._views[0][self._blocks] = ~np.uint64(0)
            self._views[0][self._blocks + 1] = 0
            self._width = n
        return self._views


def _ample_screen(bp: BlockPartition, words: np.ndarray) -> np.ndarray:
    """Words of the ample screen, 2 * min(row weight) > r, bit-sliced over block words.

    Each pi row's weight is summed in a ripple counter of bit planes, the
    counter compared with r // 2 + 1 from its low plane up, and the
    comparisons ANDed over the rows.  The first y + 1 inputs count to at
    most y + 1, which needs (y + 1).bit_length() planes, so a plane is
    added as the carry out of the top one when the count first reaches a
    power of two.
    """
    r = bp.r
    columns = words[bp.block_index.T]  # [y, x, word]: pi column y is one contiguous block
    planes: list[np.ndarray] = []
    for y in range(r):
        carry = columns[y]
        for i, plane in enumerate(planes):
            planes[i], carry = plane ^ carry, plane & carry
        if (y + 1).bit_length() > len(planes):
            planes.append(carry)
    least = r // 2 + 1
    # at_least: the counter's planes below i read at least least's bits below i
    at_least = np.full_like(planes[0], ~np.uint64(0))
    for i, plane in enumerate(planes):
        at_least = plane & at_least if least >> i & 1 else plane | at_least
    return np.bitwise_and.reduce(at_least, axis=0)


def shard_span(b: int, i: int, n: int) -> tuple[int, int]:
    """Half-open Gray-code positions of the i-th of n contiguous shards of 2^b subsets."""
    if not 0 <= i < n:
        raise ValueError(f"shard index {i} out of range for {n} shards")
    total = 1 << b
    return total * i // n, total * (i + 1) // n


def _chunks(
    bp: BlockPartition, span: tuple[int, int] | None
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """(first position, block words, valid words, screen words) per chunk of positions t.

    A chunk is a run of 64-aligned words, first a multiple of 64: bit j of
    words[i, w] is block bit i of the mask gray(t) = t ^ (t >> 1) at
    position t = first + 64 w + j.  With G = gray(first + 64 w), that mask
    is G ^ gray(j), so the word is P_i ^ -(G >> i & 1), where P_i holds
    bit i of gray(j) for j < 64 and is zero for i >= 6 (Knuth, TAOCP 4A,
    7.2.1.1).  Valid words mark the positions inside the span, which only
    the span's first and last words can lack, and the ample screen's
    words are valid ones only.  span is a half-open range of positions,
    all of them by default; ValueError unless 0 <= lo <= hi <= 2^b.
    """
    lo, hi = span if span is not None else shard_span(bp.b, 0, 1)
    if not 0 <= lo <= hi <= 1 << bp.b:
        raise ValueError(f"span ({lo}, {hi}) is not within [0, 2^{bp.b}]")
    shifts = np.arange(bp.b, dtype=np.uint64)[:, None]
    j = np.arange(64, dtype=np.uint64)
    patterns = np.bitwise_or.reduce(((j ^ j >> 1) >> shifts & 1) << j, axis=1)[:, None]
    ones = (1 << 64) - 1
    start = lo - lo % 64
    stop = hi + -hi % 64 if hi > lo else start
    for first in range(start, stop, 1 << CHUNK_BITS):
        bases = np.arange(first, min(first + (1 << CHUNK_BITS), stop), 64, dtype=np.uint64)
        words = patterns ^ -((bases ^ bases >> 1) >> shifts & 1)
        valid = np.full(len(bases), ones, dtype=np.uint64)
        valid[0] &= np.uint64(ones << max(lo - first, 0) & ones)
        valid[-1] &= np.uint64(ones >> max(int(bases[-1]) + 64 - hi, 0))
        yield first, words, valid, _ample_screen(bp, words) & valid


def _survivors(
    bp: BlockPartition, mode: str, span: tuple[int, int] | None
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(masks, block bits, ample flags) of the kept subsets, a chunk at a time in Gray-code order.

    Full mode keeps those passing the axiom kernel, ample-only mode those
    passing the ample screen.  Only the kept positions are unpacked from
    the words; their block bits are 0/1 rows, one column per mask.
    """
    if mode == MODE_FULL:
        circuit = AxiomCircuit(bp)
    shifts = np.arange(bp.b, dtype=np.uint64)[:, None]
    for first, words, valid, screen in _chunks(bp, span):
        if mode == MODE_FULL:
            keep = valid & ~np.bitwise_or.reduce(circuit.failures(words), axis=0)
        else:
            keep = screen
        at = np.flatnonzero(np.unpackbits(keep.view(np.uint8), bitorder="little"))
        t = at.astype(np.uint64) + np.uint64(first)
        masks = t ^ t >> np.uint64(1)
        ample = np.unpackbits(screen.view(np.uint8), bitorder="little")[at].astype(bool)
        yield masks, (masks >> shifts & 1).astype(np.uint8), ample


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
    b-1-block_index[x, y]: the key bytes are unpacked little-endian
    and their bit columns gathered in pi order.  Chunks of 2^CHUNK_BITS
    keys bound the working memory.
    """
    columns = bp.b - 1 - bp.block_index.ravel()
    width = bp.r * bp.r
    out: list[str] = []
    for start in range(0, len(keys), 1 << CHUNK_BITS):
        octets = keys[start : start + (1 << CHUNK_BITS)].astype("<u8").view(np.uint8)
        bits = np.unpackbits(octets.reshape(-1, 8), axis=1, bitorder="little")
        chars = bits[:, columns] + np.uint8(ord("0"))
        text = chars.tobytes().decode("ascii")
        out += [text[i : i + width] for i in range(0, len(text), width)]
    return out


def _orbit_keys(bp: BlockPartition, bits: np.ndarray) -> np.ndarray:
    """Block-orbit key of each column of 0/1 block bits: min over k of weights[k] @ bits,
    where weights[k, i] = 2^(b-1-s_k(i)) for the k-th automorphism s_k fixing -1.

    The float64 keys are exact for b <= KEY_BITS, the only partitions it serves.
    """
    weights = np.ldexp(1.0, bp.b - 1 - _shared_permutations(bp))
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
        keys = _orbit_keys(bp, bits).astype(dtype)
        members = np.ones(len(keys), dtype=dtype)
        collected.append(_Columns(keys, members, masks.astype(dtype), ample))
        pending += len(keys)
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

    A key is the one enumerate_subsets gives the union's block mask, the
    least over automorphisms s fixing -1 of the sum of 2^(b-1-s(i)) over
    its blocks i.  Up to KEY_BITS blocks the keys are float64, from
    _orbit_keys; past it, for each automorphism s, block bit i is moved
    to column b-1-s(i) and the columns packed into one Python int, exact
    at any b.  Both read the partition's shared block permutations.
    """
    union, bits = union_block_bits(bp, candidates)
    unions = np.flatnonzero(union)
    bits = bits[unions]
    if bp.b <= KEY_BITS:
        return unions, _orbit_keys(bp, bits.T)
    keys: list[int] | None = None
    moved = np.empty_like(bits)
    for perm in _shared_permutations(bp):
        moved[:, bp.b - 1 - perm] = bits
        own = row_ints(moved)
        keys = own if keys is None else list(map(min, keys, own))
    return unions, np.array(keys, dtype=object)


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


def _sweep_tallies(bp: BlockPartition) -> SweepReport:
    """verify_all_subsets' sweep of one partition, with no budget check and no cache."""
    circuit = AxiomCircuit(bp)
    # per row: first failures of each axiom of the circuit, certified, certified but failing
    tallies = np.zeros(len(circuit.AXIOMS) + 2, dtype=np.int64)
    for _, words, valid, screen in _chunks(bp, None):
        first = circuit.failures(words) & valid
        rows = np.vstack([first, screen, screen & np.bitwise_or.reduce(first, axis=0)])
        # popcounts through bytes: np.bitwise_count needs numpy 2
        tallies += _BYTE_POPCOUNT[rows.view(np.uint8)].sum(axis=1, dtype=np.int64)
    *failures, certified, certified_unverified = tallies.tolist()
    total = 1 << bp.b
    return SweepReport(
        bp.group,
        bp.minus_one,
        total,
        total - sum(failures),
        certified,
        certified_unverified,
        {name: n for name, n in zip(circuit.AXIOMS, failures) if n},
    )


@lru_cache(maxsize=64)
def _orbit_sweep(group: AbelianGroup, least_minus_one: int) -> list[SweepReport]:
    """A one-slot holder for the sweep of one Aut(G)-orbit of -1, filled by its first caller."""
    return []


def verify_all_subsets(
    bp: BlockPartition, budget_bits: int = SUBSET_BUDGET_BITS
) -> SweepReport:
    """Tally the axiom verdicts of all 2^b block subsets through the axiom kernel.

    Matches verify_axioms exactly: same checks, same first-failure order,
    reversibility last.  Only the verdict tallies are kept, which makes
    sweeps feasible at sizes where building one candidate at a time is not.
    An automorphism of the group moving -1 to -1' carries the blocks and
    axioms of one partition onto the other's, so both have the same
    tallies: each Aut(G)-orbit of -1 (AbelianGroup.minus_one_orbits) is
    swept once per process, and every call returns its own report.
    """
    if bp.b > budget_bits:
        raise CapacityError(f"2^{bp.b} subsets exceeds the 2^{budget_bits} budget")
    least = next(o[0] for o in bp.group.minus_one_orbits() if bp.minus_one in o)
    held = _orbit_sweep(bp.group, least)
    if not held:
        held.append(_sweep_tallies(bp))
    return replace(
        held[0],
        group=bp.group,
        minus_one=bp.minus_one,
        failure_counts=dict(held[0].failure_counts),
    )


def census_all_minus_ones(
    group: AbelianGroup, mode: str = MODE_FULL, budget_bits: int = SUBSET_BUDGET_BITS
) -> list[Census]:
    """One census per legal -1 choice; classes are never merged across -1 values.

    Choices of -1 in one Aut(G)-orbit (AbelianGroup.minus_one_orbits) give
    isomorphic relabelings of one census, equal in every count, so totals
    per order take one -1 from each orbit.  The output stays one census
    per -1; moving classes across an orbit would need the automorphism.
    """
    return [
        enumerate_subsets(compute_blocks(group, m1), mode, budget_bits)
        for m1 in group.involution_candidates()
    ]
