"""Blocks: the orbits of nonzero pairs under two involutive moves.

A pair (x, y) of nonzero elements stands for the incidence "y is in x + 1".
Two moves preserve membership of that incidence relation in any hyperfield
with the given multiplicative group and -1:

* the consistency move  (x, y) -> (x^-1, x^-1 y)   (identity when x = 1),
* the reversal-negation move  (x, y) -> (-y, -x).

The orbit closure of a pair under both moves is its block.  Any candidate
relation built as a union of blocks automatically survives both moves,
which is what makes blocks the unit of enumeration.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .groups import AbelianGroup

Pair = tuple[int, int]


def pair_code(x: int, y: int, r: int) -> int:
    """Row-major code of a nonzero pair: x * r + y."""
    return x * r + y


def pair_decode(code: int, r: int) -> Pair:
    return divmod(code, r)


def consistency_step(group: AbelianGroup, pair: Pair) -> Pair:
    """(x, y) -> (x^-1, x^-1 y); fixes every pair with x = 1."""
    x, y = pair
    xi = group.inv(x)
    return (xi, group.mul(xi, y))


def reversal_negation_step(group: AbelianGroup, minus_one: int, pair: Pair) -> Pair:
    """(x, y) -> (-y, -x)."""
    x, y = pair
    return (group.mul(minus_one, y), group.mul(minus_one, x))


def block_label(i: int) -> str:
    """Spreadsheet-style labels: A..Z, AA, AB, ..."""
    out = ""
    i += 1
    while i:
        i, rem = divmod(i - 1, 26)
        out = chr(ord("A") + rem) + out
    return out


@dataclass(frozen=True)
class BlockPartition:
    """The full partition of nonzero pairs into blocks for one (group, -1)."""

    group: AbelianGroup
    minus_one: int
    blocks: tuple[tuple[int, ...], ...]  # pair codes, sorted within each block
    pair_to_block: tuple[int, ...]  # indexed by pair code

    @property
    def b(self) -> int:
        return len(self.blocks)

    @property
    def r(self) -> int:
        return self.group.order

    def block_of(self, x: int, y: int) -> int:
        return self.pair_to_block[pair_code(x, y, self.r)]

    def labels(self) -> list[str]:
        return [block_label(i) for i in range(self.b)]

    def subset_from_labels(self, labels: str) -> int:
        """Bitmask of blocks from a label string like "BD"."""
        own = self.labels()
        mask = 0
        for token in labels:
            mask |= 1 << own.index(token)
        return mask

    def table(self) -> list[list[str]]:
        """Label grid, rows indexed by x and columns by y."""
        r = self.r
        return [
            [block_label(self.pair_to_block[pair_code(x, y, r)]) for y in range(r)]
            for x in range(r)
        ]

    @cached_property
    def one_row_blocks(self) -> tuple[int, ...]:
        """Indices of blocks containing a pair (1, y), in first-occurrence order."""
        out: list[int] = []
        for y in range(self.r):
            i = self.pair_to_block[pair_code(0, y, self.r)]
            if i not in out:
                out.append(i)
        return tuple(out)

    @cached_property
    def block_row_counts(self) -> tuple[tuple[int, ...], ...]:
        """block_row_counts[i][g] = number of pairs (g, y) in block i."""
        r = self.r
        counts = [[0] * r for _ in range(self.b)]
        for code, i in enumerate(self.pair_to_block):
            counts[i][code // r] += 1
        return tuple(tuple(c) for c in counts)


def compute_blocks(group: AbelianGroup, minus_one: int) -> BlockPartition:
    """Partition all r^2 nonzero pairs into blocks.

    Blocks are numbered by first occurrence scanning pair codes in
    row-major order starting from (1, 1); this reproduces the canonical
    A, B, C, ... labelling on small cyclic groups.
    """
    if group.mul(minus_one, minus_one) != 0:
        raise ValueError(f"minus_one={minus_one} does not have order <= 2")
    r = group.order
    assigned = [-1] * (r * r)
    blocks: list[tuple[int, ...]] = []
    for code in range(r * r):
        if assigned[code] != -1:
            continue
        orbit = {pair_decode(code, r)}
        frontier = list(orbit)
        while frontier:
            p = frontier.pop()
            for q in (
                consistency_step(group, p),
                reversal_negation_step(group, minus_one, p),
            ):
                if q not in orbit:
                    orbit.add(q)
                    frontier.append(q)
        idx = len(blocks)
        codes = sorted(pair_code(x, y, r) for x, y in orbit)
        blocks.append(tuple(codes))
        for c in codes:
            assigned[c] = idx
    return BlockPartition(group, minus_one, tuple(blocks), tuple(assigned))


@lru_cache(maxsize=64)
def _shared_blocks(group: AbelianGroup, minus_one: int) -> BlockPartition:
    """compute_blocks once per (group, -1) for callers that only look a
    partition up; sharing is safe as a BlockPartition is frozen."""
    return compute_blocks(group, minus_one)


@dataclass(frozen=True)
class CoeffMatrix:
    """Distinct per-element block-incidence rows of a partition.

    Row for element g counts, block by block, the pairs (g, y) in that
    block.  Rows are deduplicated exactly (which subsumes the g ~ g^-1
    coincidence); row_labels keeps the first element producing each row.
    """

    rows: tuple[tuple[int, ...], ...]
    row_labels: tuple[int, ...]
    block_count: int

    @property
    def row_count(self) -> int:
        return len(self.rows)


def coefficient_matrix(bp: BlockPartition) -> CoeffMatrix:
    """Distinct rows of the pairs-per-block count matrix, first occurrence first."""
    rows: list[tuple[int, ...]] = []
    labels: list[int] = []
    per_block = bp.block_row_counts
    for g in range(bp.r):
        row = tuple(per_block[i][g] for i in range(bp.b))
        if row not in rows:
            rows.append(row)
            labels.append(g)
    return CoeffMatrix(tuple(rows), tuple(labels), bp.b)
