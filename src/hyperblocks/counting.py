"""Exact counting of 0/1 solutions to strict inequality systems, and the
lower bound of the column-swap decomposition, read off the rows of the
block coefficient matrix.

A system is C x > d componentwise with non-negative entries, x ranging
over {0,1}^b.  Solutions of the system built from a block partition
(rows = distinct coefficient rows, every threshold r/2) are exactly the
ample block subsets.  They are counted by one column-by-column dynamic
program whose per-row partial sums saturate at their thresholds (exact
counting in the style of Dyer, "Approximate counting by dynamic
programming", STOC 2003).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .blocks import BlockPartition, coefficient_matrix
from .errors import CapacityError

_STATE_LIMIT = 1 << 20  # default budget of live states in the counting DP

Number = int | Fraction


@dataclass(frozen=True)
class InequalitySystem:
    """C x > d componentwise over x in {0,1}^ncols; entries non-negative."""

    rows: tuple[tuple[Number, ...], ...]
    thresholds: tuple[Fraction, ...]
    ncols: int

    @classmethod
    def make(
        cls,
        rows: list[list[int | float | Fraction]] | tuple,
        thresholds: list[int | float | Fraction] | tuple,
        ncols: int | None = None,
    ) -> InequalitySystem:
        norm_rows = []
        for row in rows:
            out = []
            for e in row:
                e = e if isinstance(e, int) else Fraction(e)
                if e < 0:
                    raise ValueError(f"negative entry {e} in inequality system")
                out.append(e)
            norm_rows.append(tuple(out))
        if ncols is None:
            ncols = len(norm_rows[0]) if norm_rows else 0
        if any(len(row) != ncols for row in norm_rows):
            raise ValueError("ragged rows in inequality system")
        if len(thresholds) != len(norm_rows):
            raise ValueError("one threshold per row required")
        return cls(tuple(norm_rows), tuple(Fraction(d) for d in thresholds), ncols)

    def padded(self, extra: int) -> InequalitySystem:
        """Same system with `extra` all-zero columns appended."""
        return InequalitySystem(
            tuple(row + (0,) * extra for row in self.rows),
            self.thresholds,
            self.ncols + extra,
        )


def ample_system(bp: BlockPartition) -> InequalitySystem:
    """The system whose 0/1 solutions are exactly the ample block subsets."""
    cm = coefficient_matrix(bp)
    d = Fraction(bp.r, 2)
    return InequalitySystem.make(list(cm.rows), [d] * cm.row_count, bp.b)


def count_solutions(s: InequalitySystem, state_limit: int | None = None) -> int:
    """Exact number of x in {0,1}^ncols with C x > d componentwise.

    One dynamic program over the columns.  A state is the row of per-row
    partial sums of the integer-scaled rows, each capped at the least sum
    that satisfies its row, t_i = max(floor(d_i) + 1, 0); the answer is
    the number of assignments reaching the state t.  The live states are
    one 2-D array in the narrowest unsigned dtype that holds every t_i
    (object past uint64), and their counts are int64 while 2^ncols fits,
    exact Python ints past that.  Each column keeps the states that can
    still reach t with x_j = 0, adds the capped images for x_j = 1, and
    merges equal states by one lexsort.  More than state_limit live states
    (default _STATE_LIMIT, which no system of 20 columns or fewer can
    reach) raises CapacityError; the live states bound both time and
    memory.
    """
    limit = _STATE_LIMIT if state_limit is None else state_limit
    rows, ds = _scaled_integer_rows(s)
    targets = [max(math.floor(d) + 1, 0) for d in ds]
    left = [sum(row) for row in rows]  # row i's sum over the columns not yet processed
    if any(v < t for v, t in zip(left, targets)):
        return 0
    dtype = _state_dtype(max(targets, default=0))
    target = np.array(targets, dtype=dtype)
    states = np.zeros((1, len(rows)), dtype=dtype)
    counts = np.ones(1, dtype=np.int64 if s.ncols <= 62 else object)
    for j in range(s.ncols):
        touched = [i for i, row in enumerate(rows) if row[j]]
        if touched:
            # an entry past its target counts as the target, so the
            # capped image never leaves the dtype
            col = np.array([min(rows[i][j], targets[i]) for i in touched], dtype=dtype)
            for i in touched:
                left[i] -= rows[i][j]
            # invariant: every live state can still reach its targets,
            # state[i] + left[i] >= targets[i] for all i.  Setting x_j = 1
            # keeps it; x_j = 0 can break it only in the rows col touches.
            need = np.array([max(targets[i] - left[i], 0) for i in touched], dtype=dtype)
            keep = (states[:, touched] >= need).all(axis=1)
            up = states.copy()
            up[:, touched] = np.minimum(states[:, touched], target[touched] - col) + col
            states, counts = _merge(
                np.concatenate([states[keep], up]), np.concatenate([counts[keep], counts])
            )
        else:
            counts = counts * 2  # both values of x_j keep every state
        if len(states) > limit:
            raise CapacityError(f"{len(states)} live counting states exceed {limit}")
    return int(counts[(states == target).all(axis=1)].sum())


def _state_dtype(largest: int) -> np.dtype:
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if largest <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(object)


def _merge(states: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of states, each with the sum of its counts."""
    order = np.lexsort(states.T)
    states, counts = states[order], counts[order]
    starts = np.concatenate([[True], (states[1:] != states[:-1]).any(axis=1)]).nonzero()[0]
    return states[starts], np.add.reduceat(counts, starts)


def _scaled_integer_rows(s: InequalitySystem) -> tuple[list[list[int]], list[Fraction]]:
    # scaling any single row (and its threshold) by a positive factor
    # preserves the solution set
    rows, ds = [], []
    for row, d in zip(s.rows, s.thresholds):
        denom = 1
        for e in row:
            if isinstance(e, Fraction):
                denom = denom * e.denominator // math.gcd(denom, e.denominator)
        rows.append([int(e * denom) for e in row])
        ds.append(d * denom)
    return rows, ds


# -- swaps --------------------------------------------------------------------


class InvalidSwapError(Exception):
    def __init__(self, clause: int, message: str):
        super().__init__(f"clause {clause}: {message}")
        self.clause = clause


def valid_swap(s: InequalitySystem, g: int, u: int, v: int) -> InequalitySystem:
    """Move the positive entry at (g, u) to (g, v); v's column must be all zero.

    Indices are 0-based.  The four validity clauses are checked and the
    violated clause is named on failure.  The solution count of the result
    never exceeds that of the input.
    """
    k = len(s.rows)
    if not (0 <= g < k and 0 <= u < s.ncols and 0 <= v < s.ncols) or u == v:
        raise ValueError(f"swap indices out of range: g={g} u={u} v={v}")
    if any(e < 0 for row in s.rows for e in row):
        raise InvalidSwapError(1, "matrix entries must be non-negative")
    p = s.rows[g][u]
    if p <= 0:
        raise InvalidSwapError(3, f"entry at ({g}, {u}) must be positive, got {p}")
    for h in range(k):
        if s.rows[h][v] != 0:
            raise InvalidSwapError(4, f"column {v} must be all zeroes, found entry at row {h}")
    rows = [list(row) for row in s.rows]
    rows[g][u] = 0
    rows[g][v] = p
    return InequalitySystem(tuple(tuple(row) for row in rows), s.thresholds, s.ncols)


# -- decomposition ------------------------------------------------------------


def _count_disjoint(s: InequalitySystem, state_limit: int | None = None) -> int:
    """The count of s once its rows share no column: the product of the
    one-row counts of each row's nonzero entries, times 2 per all-zero column."""
    count = 1 << sum(1 for u in range(s.ncols) if all(row[u] == 0 for row in s.rows))
    for row, d in zip(s.rows, s.thresholds):
        entries = tuple(e for e in row if e != 0)
        count *= count_solutions(InequalitySystem((entries,), (d,), len(entries)), state_limit)
    return count


@dataclass(frozen=True)
class BoundReport:
    exact_count: int  # solutions of the original block system
    lower_bound: int  # 2^(b - (r+1)/2)
    final_count: int  # solutions of the decomposition's end state, one entry per column
    b: int
    b_prime: int
    swaps: int


def decompose_and_bound(bp: BlockPartition, state_limit: int | None = None) -> BoundReport:
    """Count ample subsets exactly and prove the 2^(b - (r+1)/2) lower bound.

    The proof pads the block coefficient system with zero columns up to
    b' columns, one per nonzero entry, and applies valid swaps until no
    two rows share a column.  Swaps never increase the solution count and
    each padding column exactly doubles it, so the count of the end state
    divided by 2^(b' - b) bounds the original count from below.  The end
    state and the number of swaps follow from the rows alone, so no swap
    is applied: final_count is the product of one-row counts, and
    state_limit applies to each count_solutions call.
    """
    r = bp.r
    if r % 2 == 0:
        raise ValueError("decomposition bound needs odd group order")
    base = ample_system(bp)
    exact = count_solutions(base, state_limit)
    b_prime = sum(1 for row in base.rows for e in row if e != 0)
    # All b columns start occupied, since every block has a pair (g, y), and a swap moves
    # an entry within its row into an empty column until each of the b' columns holds one:
    # b' - b swaps, ending with each row's nonzero entries on columns of their own.
    swaps = b_prime - bp.b
    final = _count_disjoint(base, state_limit)
    bound = 1 << (bp.b - (r + 1) // 2)
    if exact < bound:
        raise RuntimeError(
            f"count {exact} fell below the proven bound {bound}; this is a bug"
        )
    return BoundReport(exact, bound, final, bp.b, b_prime, swaps)


@dataclass(frozen=True)
class InfiniteQuotientBound:
    bound: int  # 2^(b - r)
    one_row_blocks: tuple[int, ...]  # the r blocks containing a pair (1, y)


def infinite_quotient_upper_bound(bp: BlockPartition) -> InfiniteQuotientBound:
    """Bound the hyperfields that can be quotients of infinite fields.

    In any such quotient 1 - 1 = H, so all blocks containing a pair (1, y)
    must be present; for odd r there are exactly r of them, leaving at
    most 2^(b - r) candidate subsets.
    """
    r = bp.r
    if r % 2 == 0:
        raise ValueError("this bound needs odd group order")
    one_row = bp.one_row_blocks
    if len(one_row) != r:
        raise RuntimeError(f"expected {r} one-row blocks, found {len(one_row)}")
    return InfiniteQuotientBound(1 << (bp.b - r), one_row)
