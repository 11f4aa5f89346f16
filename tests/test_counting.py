"""Exact 0-1 solution counting, valid swaps, and the decomposition bounds."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperblocks import (
    AbelianGroup,
    CapacityError,
    InequalitySystem,
    InvalidSwapError,
    ample_system,
    compute_blocks,
    count_solutions,
    decompose_and_bound,
    infinite_quotient_upper_bound,
    valid_swap,
)
from hyperblocks import counting
from hyperblocks.cli import main
from hyperblocks.counting import _count_disjoint


def brute_count(s):
    """Literal enumeration of {0,1}^ncols."""
    cnt = 0
    for m in range(1 << s.ncols):
        x = [(m >> i) & 1 for i in range(s.ncols)]
        if all(
            sum(c * xi for c, xi in zip(row, x)) > d
            for row, d in zip(s.rows, s.thresholds)
        ):
            cnt += 1
    return cnt


HALF3 = Fraction(3, 2)


# -- construction ---------------------------------------------------------------


def test_make_validates():
    s = InequalitySystem.make([[1, 1, 1]], [HALF3])
    assert s.ncols == 3
    with pytest.raises(ValueError):
        InequalitySystem.make([[1, -1]], [0])
    with pytest.raises(ValueError):
        InequalitySystem.make([[1, 1], [1]], [0, 0])
    with pytest.raises(ValueError):
        InequalitySystem.make([[1, 1]], [0, 0])
    with pytest.raises(ValueError):
        InequalitySystem.make([[1, 1]], [0], ncols=3)


def test_padded_adds_zero_columns():
    s = InequalitySystem.make([[1, 2]], [1])
    p = s.padded(3)
    assert p.ncols == 5
    assert p.rows == ((1, 2, 0, 0, 0),)
    assert p.thresholds == s.thresholds


def test_ample_system_matches_coefficient_matrix(z3_blocks):
    s = ample_system(z3_blocks)
    assert s.rows == ((1, 1, 1, 0), (0, 1, 1, 1))
    assert s.thresholds == (HALF3, HALF3)
    assert s.ncols == 4


# -- counting -------------------------------------------------------------------


def test_count_single_row():
    s = InequalitySystem.make([[1, 1, 1]], [HALF3])
    assert count_solutions(s) == 4
    assert brute_count(s) == 4


def test_count_empty_system():
    assert count_solutions(InequalitySystem.make([], [], ncols=0)) == 1
    assert count_solutions(InequalitySystem.make([], [], ncols=3)) == 8


def test_count_z3_system(z3_blocks):
    assert count_solutions(ample_system(z3_blocks)) == 6


def test_count_handles_fractional_entries():
    s = InequalitySystem.make(
        [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), 1]],
        [Fraction(1, 2), Fraction(1, 3)],
    )
    assert count_solutions(s) == brute_count(s)


def test_count_state_budget(z7_blocks):
    # columns are not limited: 31 empty columns keep one live state
    assert count_solutions(InequalitySystem.make([], [], ncols=31)) == 1 << 31
    # Z7's DP peaks at 35 live states
    s = ample_system(z7_blocks)
    with pytest.raises(CapacityError):
        count_solutions(s, state_limit=34)
    assert count_solutions(s, state_limit=35) == 612


def test_count_is_exact_past_int64():
    # 70 free columns: 2^70 assignments, counted as a Python int
    assert count_solutions(InequalitySystem.make([], [], ncols=70)) == 1 << 70
    s = InequalitySystem.make([[1, 1, 1] + [0] * 67], [HALF3])
    assert s.ncols == 70
    assert count_solutions(s) == 4 << 67


def test_many_rows_with_high_thresholds_match_brute_force():
    # 20 rows whose targets run from a few to tens of thousands: the
    # packed state space, the product of (target + 1) over the rows, is
    # far past 2^63, and the large targets need a 32-bit state dtype
    rng = random.Random(6363)
    rows, thr = [], []
    for i in range(20):
        scale = 1 if i < 14 else 5000
        row = [rng.randrange(0, 40) * scale for _ in range(12)]
        rows.append(row)
        thr.append(Fraction(rng.randrange(0, sum(row) + 1), 2))
    s = InequalitySystem.make(rows, thr)
    space = 1
    for t in thr:
        space *= math.floor(t) + 2
    assert space > 1 << 63
    assert max(thr) >= 1 << 16
    assert count_solutions(s) == brute_count(s) > 0


def test_targets_past_uint64_stay_exact():
    big = 1 << 70
    s = InequalitySystem.make(
        [[big, big, 1, 0, big], [1, big, 3, big << 2, 0], [2, 0, 1, 1, 1]],
        [Fraction(big), Fraction(3 * big, 2), 2],
    )
    assert count_solutions(s) == brute_count(s) > 0


@pytest.mark.parametrize(
    "spec,records",
    [
        ("Z5", [2, 4, 7]),
        ("Z7", [2, 4, 8, 15, 18, 19, 30, 35]),
        ("Z3xZ3", [2, 4, 6, 12, 23, 41, 49, 53, 73, 133, 213, 286]),
    ],
)
def test_live_state_records_are_unchanged(spec, records):
    # each record is the live-state count of the first column to exceed
    # every earlier one; a limit just below it fails at that column and
    # names that count, and the last record is the peak
    s = ample_system(compute_blocks(AbelianGroup.from_spec(spec), 0))
    for v in records:
        with pytest.raises(CapacityError, match=f"^{v} live counting states exceed {v - 1}$"):
            count_solutions(s, state_limit=v - 1)
    assert count_solutions(s, state_limit=records[-1]) == count_solutions(s)


def test_padding_doubles_per_zero_column(z3_blocks):
    # each all-zero column is free, so 14 of them scale the count by
    # exactly 2^14
    s = ample_system(z3_blocks).padded(14)
    assert s.ncols == 18
    assert count_solutions(s) == 6 << 14


def test_random_systems_match_brute_force():
    rng = random.Random(417)
    for _ in range(100):
        ncols = rng.randrange(1, 8)
        nrows = rng.randrange(0, 4)
        rows = [[rng.randrange(0, 4) for _ in range(ncols)] for _ in range(nrows)]
        thr = [Fraction(rng.randrange(0, 12), rng.choice([1, 2, 3])) for _ in range(nrows)]
        s = InequalitySystem.make(rows, thr, ncols=ncols)
        assert count_solutions(s) == brute_count(s)


ENTRIES = st.sampled_from([0, 0, 1, 2, 3, Fraction(1, 2), Fraction(2, 3)])
THRESHOLDS = st.fractions(min_value=-3, max_value=12, max_denominator=6)


@settings(max_examples=200)
@given(data=st.data())
def test_count_matches_brute_force_on_drawn_systems(data):
    # fractional entries and thresholds, negative thresholds, zero rows and
    # zero columns: the cases the integer-only random test never draws
    ncols = data.draw(st.integers(0, 9), label="ncols")
    nrows = data.draw(st.integers(0, 4), label="nrows")
    rows = data.draw(
        st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows),
        label="rows",
    )
    for i in data.draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=nrows), label="zero rows"):
        rows[i] = [0] * ncols
    for u in data.draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols), label="zero cols"):
        for row in rows:
            row[u] = 0
    thr = data.draw(st.lists(THRESHOLDS, min_size=nrows, max_size=nrows), label="thresholds")
    s = InequalitySystem.make(rows, thr, ncols=ncols)
    assert count_solutions(s) == brute_count(s)


def test_state_limit_raises_capacity_error(monkeypatch, z7_blocks):
    monkeypatch.setattr(counting, "_STATE_LIMIT", 8)
    with pytest.raises(CapacityError):
        count_solutions(ample_system(z7_blocks))
    assert main(["count", "--group", "Z7"]) == 3


def test_fourteen_columns_twelve_rows_counts():
    # 2^14 assignments, all below the state limit
    rng = random.Random(1414)
    rows = [[rng.randrange(0, 4) for _ in range(14)] for _ in range(12)]
    thr = [Fraction(rng.randrange(0, sum(row) + 1), 2) for row in rows]
    s = InequalitySystem.make(rows, thr)
    assert count_solutions(s) == brute_count(s) > 0


# -- swaps ----------------------------------------------------------------------


def test_swap_example():
    s = InequalitySystem.make([[2, 1, 0], [0, 3, 0]], [HALF3, HALF3])
    after = valid_swap(s, 0, 0, 2)
    assert after.rows == ((0, 1, 2), (0, 3, 0))
    before_n, after_n = count_solutions(s), count_solutions(after)
    assert (before_n, after_n) == (brute_count(s), brute_count(after))
    assert before_n >= after_n
    # row sums survive the move
    for old, new in zip(s.rows, after.rows):
        assert sum(old) == sum(new)


def test_swap_index_validation():
    s = InequalitySystem.make([[2, 1, 0]], [HALF3])
    with pytest.raises(ValueError):
        valid_swap(s, 1, 0, 2)
    with pytest.raises(ValueError):
        valid_swap(s, 0, 3, 2)
    with pytest.raises(ValueError):
        valid_swap(s, 0, 1, 1)


def test_swap_clause_errors():
    # clause 1: negative entry (bypassing make's validation)
    bad = InequalitySystem(((1, -1, 0),), (HALF3,), 3)
    with pytest.raises(InvalidSwapError) as exc:
        valid_swap(bad, 0, 0, 2)
    assert exc.value.clause == 1

    s = InequalitySystem.make([[2, 0, 0], [0, 3, 0]], [HALF3, HALF3])
    # clause 3: no positive entry at (g, u)
    with pytest.raises(InvalidSwapError) as exc:
        valid_swap(s, 0, 1, 2)
    assert exc.value.clause == 3
    # clause 4: target column not all zero
    with pytest.raises(InvalidSwapError) as exc:
        valid_swap(s, 0, 0, 1)
    assert exc.value.clause == 4


def test_swap_monotonicity_randomized():
    """200 random valid swaps never increase the exact solution count."""
    rng = random.Random(90121)
    done = 0
    while done < 200:
        ncols = rng.randrange(3, 7)
        nrows = rng.randrange(1, 4)
        rows = [[rng.randrange(0, 3) for _ in range(ncols)] for _ in range(nrows)]
        thr = [Fraction(rng.randrange(1, 2 * ncols), 2) for _ in range(nrows)]
        zero_cols = [v for v in range(ncols) if all(row[v] == 0 for row in rows)]
        starts = [
            (g, u)
            for g in range(nrows)
            for u in range(ncols)
            if rows[g][u] > 0
        ]
        if not zero_cols or not starts:
            continue
        g, u = rng.choice(starts)
        v = rng.choice(zero_cols)
        s = InequalitySystem.make(rows, thr, ncols=ncols)
        after = valid_swap(s, g, u, v)
        assert brute_count(s) >= brute_count(after)
        assert count_solutions(s) == brute_count(s)
        assert count_solutions(after) == brute_count(after)
        done += 1


# -- decomposition and bounds ------------------------------------------------------


@pytest.mark.parametrize(
    "spec,expect",
    [
        ("Z3", (6, 4, 16, 4, 6, 2)),
        ("Z5", (28, 16, 1024, 7, 13, 6)),
        ("Z7", (612, 256, 2097152, 12, 25, 13)),
    ],
)
def test_decompose_and_bound_frozen(spec, expect):
    bp = compute_blocks(AbelianGroup.from_spec(spec), 0)
    rep = decompose_and_bound(bp)
    got = (rep.exact_count, rep.lower_bound, rep.final_count, rep.b, rep.b_prime, rep.swaps)
    assert got == expect
    assert rep.exact_count >= rep.lower_bound


def test_decompose_final_count_formula(z5_blocks):
    # after full decomposition each row owns its own columns, so the count
    # is 2^(b' - rows): every row keeps exactly one forced column
    rep = decompose_and_bound(z5_blocks)
    nrows = len(ample_system(z5_blocks).rows)
    assert rep.final_count == 1 << (rep.b_prime - nrows)


@pytest.mark.parametrize("spec", ["Z3", "Z5", "Z7", "Z9", "Z3xZ3"])
def test_decomposition_end_state_matches_the_row_product(spec):
    # the end state of the swaps puts each row's nonzero entries on b'
    # columns of their own; its DP count is the report's product of one-row counts
    bp = compute_blocks(AbelianGroup.from_spec(spec), 0)
    base = ample_system(bp)
    entries = [[e for e in row if e] for row in base.rows]
    b_prime = sum(map(len, entries))
    rows, at = [], 0
    for own in entries:
        rows.append([0] * at + own + [0] * (b_prime - at - len(own)))
        at += len(own)
    end = InequalitySystem.make(rows, base.thresholds, b_prime)
    assert all(sum(1 for row in end.rows if row[u]) == 1 for u in range(b_prime))
    rep = decompose_and_bound(bp)
    assert count_solutions(end) == rep.final_count
    assert rep.swaps == rep.b_prime - rep.b


def test_disjoint_count_randomized():
    rng = random.Random(4211)
    for _ in range(100):
        ncols = rng.randrange(1, 10)
        nrows = rng.randrange(1, 4)
        rows = [[0] * ncols for _ in range(nrows)]
        for u in range(ncols):
            g = rng.randrange(nrows + 1)  # nrows leaves the column empty
            if g < nrows:
                rows[g][u] = rng.randrange(1, 4)
        thr = [Fraction(rng.randrange(0, 2 * ncols), 2) for _ in range(nrows)]
        s = InequalitySystem.make(rows, thr, ncols=ncols)
        assert _count_disjoint(s) == brute_count(s)


@pytest.mark.parametrize("spec", ["Z9", "Z3xZ3", "Z11"])
def test_decompose_beyond_the_padded_column_budget(spec):
    # the padded systems have 42, 45 and 61 columns, but every count made
    # is of the unpadded system or of one row
    bp = compute_blocks(AbelianGroup.from_spec(spec), 0)
    rep = decompose_and_bound(bp)
    assert rep.b_prime > 30
    assert rep.exact_count == count_solutions(ample_system(bp))
    assert rep.final_count == rep.lower_bound << (rep.b_prime - rep.b)


def test_decompose_state_budget():
    bp = compute_blocks(AbelianGroup.from_spec("Z7"), 0)
    with pytest.raises(CapacityError):
        decompose_and_bound(bp, state_limit=5)
    assert decompose_and_bound(bp, state_limit=35).exact_count == 612


def test_decompose_rejects_even_order():
    bp = compute_blocks(AbelianGroup.from_spec("Z4"), 0)
    with pytest.raises(ValueError):
        decompose_and_bound(bp)


def test_exact_count_matches_census_ample_count(z3_blocks, z5_blocks):
    from hyperblocks import enumerate_subsets

    for bp in (z3_blocks, z5_blocks):
        rep = decompose_and_bound(bp)
        assert rep.exact_count == enumerate_subsets(bp).ample_count


@pytest.mark.parametrize("spec,bound", [("Z3", 2), ("Z5", 4), ("Z7", 32)])
def test_infinite_quotient_upper_bound(spec, bound):
    bp = compute_blocks(AbelianGroup.from_spec(spec), 0)
    rep = infinite_quotient_upper_bound(bp)
    assert rep.bound == bound
    assert len(rep.one_row_blocks) == bp.r


def test_infinite_quotient_bound_rejects_even_order():
    bp = compute_blocks(AbelianGroup.from_spec("Z6"), 3)
    with pytest.raises(ValueError):
        infinite_quotient_upper_bound(bp)
