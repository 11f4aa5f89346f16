"""Blocks: the orbits of nonzero pairs under two involutive moves.

A pair (x, y) of nonzero elements stands for the incidence "y is in x + 1".
Two moves preserve membership of that incidence relation in any hyperfield
with the given multiplicative group and -1:

* the consistency move  (x, y) -> (x^-1, x^-1 y)   (identity when x = 1),
* the reversal-negation move  (x, y) -> (-y, -x).

The orbit closure of a pair under both moves is its block.  Any candidate
relation built as a union of blocks automatically survives both moves,
which is what makes blocks the unit of enumeration.

compute_blocks needs no hyperfield: it writes both moves as arrays of
pair codes read off the Cayley table, labels every pair with the least
code reachable through them, and numbers the blocks by that least code.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import CapacityError
from .groups import AbelianGroup

Pair = tuple[int, int]

# entries of the r x b count array coefficient_matrix builds: Z512 (b = 43,947
# with -1 = identity) fits; as b >= r^2 / 6, no group of order 586 or more does
COEFF_ENTRY_BOUND = 1 << 25


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
    """The full partition of nonzero pairs into blocks for one (group, -1).

    Its only per-pair data is block_index, a read-only int32 r x r array:
    block_index[x, y] is the block of (x, y), one of b.  Partitions
    compare and hash by (group, -1), which determine the rest.
    """

    group: AbelianGroup
    minus_one: int
    b: int = field(compare=False)
    block_index: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        index = np.array(self.block_index, dtype=np.int32).reshape(self.r, self.r)
        index.flags.writeable = False
        object.__setattr__(self, "block_index", index)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Pair codes of each block, ascending within a block; rebuilt on every read."""
        block = self.block_index.ravel()
        codes = np.argsort(block, kind="stable").tolist()
        ends = np.cumsum(np.bincount(block, minlength=self.b)).tolist()
        return tuple(tuple(codes[start:end]) for start, end in zip([0] + ends, ends))

    @property
    def r(self) -> int:
        return self.group.order

    def block_of(self, x: int, y: int) -> int:
        return int(self.block_index[x, y])

    def labels(self) -> list[str]:
        return [block_label(i) for i in range(self.b)]

    def mask_labels(self, mask: int) -> str:
        """Labels of the blocks in a bitmask: "BD", or "B,AD" past 26 blocks,
        where one letter no longer makes one label."""
        chosen = [block_label(i) for i in range(mask.bit_length()) if mask >> i & 1]
        return ("," if self.b > 26 else "").join(chosen)

    def subset_from_labels(self, labels: str) -> int:
        """Bitmask of blocks from a label string as mask_labels writes it."""
        own = {label: i for i, label in enumerate(self.labels())}
        mask = 0
        for token in labels.split(",") if self.b > 26 and labels else labels:
            if token not in own:
                raise ValueError(f"unknown block label {token!r}")
            mask |= 1 << own[token]
        return mask

    def table(self) -> list[list[str]]:
        """Label grid, rows indexed by x and columns by y."""
        labels = self.labels()
        return [[labels[i] for i in row] for row in self.block_index.tolist()]

    @cached_property
    def one_row_blocks(self) -> tuple[int, ...]:
        """Indices of blocks containing a pair (1, y), in first-occurrence order."""
        return tuple(dict.fromkeys(self.block_index[0].tolist()))


def compute_blocks(group: AbelianGroup, minus_one: int) -> BlockPartition:
    """Partition all r^2 nonzero pairs into blocks.

    Every pair's label, first its own code, becomes the least label over
    the pair and its images under both moves until none changes: a few
    rounds, as a block holds at most 6 pairs.  Blocks are numbered by
    that least code, i.e. by first occurrence scanning pair codes in
    row-major order from (1, 1); this reproduces the canonical A, B, C,
    ... labelling on small cyclic groups.
    """
    if group.mul(minus_one, minus_one) != 0:
        raise ValueError(f"minus_one={minus_one} does not have order <= 2")
    r = group.order
    mul = np.array([group.mul_row(x) for x in range(r)], dtype=np.intp)
    inv = np.array([group.inv(x) for x in range(r)], dtype=np.intp)
    neg = mul[minus_one]
    consistency = (inv[:, None] * r + mul[inv]).ravel()  # (x, y) -> (x^-1, x^-1 y)
    reversal = (neg[None, :] * r + neg[:, None]).ravel()  # (x, y) -> (-y, -x)
    least, last = np.arange(r * r), None
    while not np.array_equal(least, last):
        last, least = least, np.minimum.reduce([least, least[consistency], least[reversal]])
    labels, block = np.unique(least, return_inverse=True)
    return BlockPartition(group, minus_one, len(labels), block)


@lru_cache(maxsize=64)
def _shared_blocks(group: AbelianGroup, minus_one: int) -> BlockPartition:
    """compute_blocks once per (group, -1) for callers that only look a
    partition up; sharing is safe as a BlockPartition is frozen.  An entry
    holds 4 r^2 bytes, so the 64 entries hold at most 256 MiB."""
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
    """Distinct rows of the pairs-per-block count matrix, first occurrence first.

    The r x b counts are one uint8 array, refused with CapacityError
    before it is built when it would hold more than COEFF_ENTRY_BOUND
    entries.
    """
    r, b = bp.r, bp.b
    if r * b > COEFF_ENTRY_BOUND:
        raise CapacityError(
            f"the {r} x {b} coefficient counts exceed the {COEFF_ENTRY_BOUND}-entry budget"
        )
    counts = np.zeros((r, b), dtype=np.uint8)  # a block holds at most 6 pairs
    np.add.at(counts, (np.arange(r).repeat(r), bp.block_index.ravel()), 1)
    first: dict[bytes, int] = {}
    for g, row in enumerate(counts):
        first.setdefault(row.tobytes(), g)
    labels = tuple(first.values())
    return CoeffMatrix(tuple(tuple(counts[g].tolist()) for g in labels), labels, b)
