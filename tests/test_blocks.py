"""Block partitions of the nonzero pair grid and their coefficient matrices."""

import tracemalloc

import numpy as np
import pytest

from hyperblocks import (
    AbelianGroup,
    BlockPartition,
    CapacityError,
    abelian_groups_up_to,
    block_label,
    coefficient_matrix,
    compute_blocks,
)
from hyperblocks.blocks import (
    _shared_blocks,
    consistency_step,
    pair_code,
    pair_decode,
    reversal_negation_step,
)

Z7_TABLE = [
    ["A", "B", "C", "D", "E", "F", "G"],
    ["B", "G", "H", "I", "J", "K", "H"],
    ["C", "H", "F", "K", "L", "L", "I"],
    ["D", "I", "K", "E", "J", "L", "J"],
    ["E", "J", "L", "J", "D", "I", "K"],
    ["F", "K", "L", "L", "I", "C", "H"],
    ["G", "H", "I", "J", "K", "H", "B"],
]

Z7_COEFF_ROWS = (
    (1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 1, 2, 1, 1, 1, 0),
    (0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 2),
    (0, 0, 0, 1, 1, 0, 0, 0, 1, 2, 1, 1),
)


def test_pair_code_round_trip():
    r = 7
    seen = set()
    for x in range(r):
        for y in range(r):
            code = pair_code(x, y, r)
            assert pair_decode(code, r) == (x, y)
            seen.add(code)
    assert seen == set(range(r * r))


def test_block_label_spreadsheet_style():
    assert block_label(0) == "A"
    assert block_label(11) == "L"
    assert block_label(25) == "Z"
    assert block_label(26) == "AA"
    assert block_label(27) == "AB"
    assert block_label(51) == "AZ"
    assert block_label(52) == "BA"


def test_consistency_step_examples():
    z3 = AbelianGroup.from_spec("Z3")
    # (a, 1) -> (a^2, a^2)
    assert consistency_step(z3, (1, 0)) == (2, 2)
    # fixed on the first row
    assert consistency_step(z3, (0, 2)) == (0, 2)
    z7 = AbelianGroup.from_spec("Z7")
    # (a^2, a^5) -> (a^5, a^3)
    assert consistency_step(z7, (2, 5)) == (5, 3)


def test_reversal_negation_step_examples():
    z3 = AbelianGroup.from_spec("Z3")
    # -1 = 1: plain transpose
    assert reversal_negation_step(z3, 0, (0, 1)) == (1, 0)
    assert reversal_negation_step(z3, 0, (2, 2)) == (2, 2)
    z2 = AbelianGroup.from_spec("Z2")
    # -1 = a: (1, 1) -> (a, a)
    assert reversal_negation_step(z2, 1, (0, 0)) == (1, 1)


@pytest.mark.parametrize("spec,m1", [("Z5", 0), ("Z6", 3), ("Z2xZ2", 2)])
def test_steps_are_involutions(spec, m1):
    g = AbelianGroup.from_spec(spec)
    r = len(list(g.elements()))
    for x in range(r):
        for y in range(r):
            p = (x, y)
            assert consistency_step(g, consistency_step(g, p)) == p
            q = reversal_negation_step(g, m1, p)
            assert reversal_negation_step(g, m1, q) == p


def test_z3_blocks_frozen(z3_blocks):
    bp = z3_blocks
    assert bp.b == 4
    assert bp.labels() == ["A", "B", "C", "D"]
    contents = [sorted(pair_decode(p, 3) for p in blk) for blk in bp.blocks]
    assert contents[0] == [(0, 0)]
    assert contents[1] == [(0, 1), (1, 0), (2, 2)]
    assert contents[2] == [(0, 2), (1, 1), (2, 0)]
    assert contents[3] == [(1, 2), (2, 1)]
    assert bp.table() == [["A", "B", "C"], ["B", "C", "D"], ["C", "D", "B"]]


def test_z3_coefficient_matrix(z3_blocks):
    cm = coefficient_matrix(z3_blocks)
    assert cm.block_count == 4
    assert cm.rows == ((1, 1, 1, 0), (0, 1, 1, 1))
    assert cm.row_labels == (0, 1)


def test_z7_blocks_match_printed_table(z7_blocks):
    bp = z7_blocks
    assert bp.b == 12
    assert bp.table() == Z7_TABLE
    assert sorted(len(blk) for blk in bp.blocks) == [1, 3, 3, 3, 3, 3, 3, 6, 6, 6, 6, 6]


def test_z7_coefficient_matrix(z7_blocks):
    cm = coefficient_matrix(z7_blocks)
    assert cm.rows == Z7_COEFF_ROWS
    assert all(sum(row) == 7 for row in cm.rows)
    assert cm.row_labels == (0, 1, 2, 3)


def test_trivial_group_blocks():
    g = AbelianGroup([])
    bp = compute_blocks(g, 0)
    assert bp.b == 1
    assert bp.blocks == ((0,),)
    cm = coefficient_matrix(bp)
    assert cm.rows == ((1,),)


def test_minus_one_must_be_involution():
    g = AbelianGroup.from_spec("Z5")
    with pytest.raises(ValueError):
        compute_blocks(g, 2)
    for _ in range(2):  # every call raises: the partition cache keeps no errors
        with pytest.raises(ValueError):
            _shared_blocks(g, 2)


def test_equal_groups_share_one_partition():
    bp = _shared_blocks(AbelianGroup.from_spec("Z2xZ4"), 2)
    assert _shared_blocks(AbelianGroup([4, 2]), 2) is bp
    assert _shared_blocks(AbelianGroup([4, 2]), 0) is not bp
    # compute_blocks itself partitions on every call
    assert compute_blocks(AbelianGroup([4, 2]), 2) is not bp
    assert compute_blocks(AbelianGroup([4, 2]), 2) == bp


def closure_orbits(g, m1):
    """Oracle: BFS closure under both steps, partitioning all pairs."""
    r = len(list(g.elements()))
    todo = {(x, y) for x in range(r) for y in range(r)}
    orbits = []
    while todo:
        seed = min(todo)
        orbit = {seed}
        frontier = [seed]
        while frontier:
            p = frontier.pop()
            for q in (consistency_step(g, p), reversal_negation_step(g, m1, p)):
                if q not in orbit:
                    orbit.add(q)
                    frontier.append(q)
        orbits.append(frozenset(orbit))
        todo -= orbit
    return set(orbits)


@pytest.mark.parametrize("spec", [g.spec_string() for g in abelian_groups_up_to(24)])
def test_blocks_equal_closure_oracle(spec):
    g = AbelianGroup.from_spec(spec)
    r = len(list(g.elements()))
    for m1 in g.involution_candidates():
        bp = compute_blocks(g, m1)
        got = {frozenset(pair_decode(p, r) for p in blk) for blk in bp.blocks}
        assert got == closure_orbits(g, m1)
        # numbered by least pair code, each block sorted, and indexed back by block_index
        assert [blk[0] for blk in bp.blocks] == sorted(min(blk) for blk in bp.blocks)
        assert all(list(blk) == sorted(blk) for blk in bp.blocks)
        for i, blk in enumerate(bp.blocks):
            assert (bp.block_index.ravel()[list(blk)] == i).all()


def test_block_partition_invariants_small_sweep():
    for g in abelian_groups_up_to(12):
        r = len(list(g.elements()))
        for m1 in g.involution_candidates():
            bp = compute_blocks(g, m1)
            all_pairs = set()
            for blk in bp.blocks:
                assert len(blk) <= 6
                assert not (all_pairs & set(blk))
                all_pairs |= set(blk)
            assert len(all_pairs) == r * r
            assert r * r / 6 <= bp.b <= r * r
            # first-row blocks stay small
            for blk in bp.blocks:
                if any(p // r == 0 for p in blk):
                    assert len(blk) <= 3
            # block_index agrees with the block list
            for i, blk in enumerate(bp.blocks):
                for p in blk:
                    assert bp.block_of(p // r, p % r) == i


def test_a_partition_holds_one_int32_block_index():
    # Z1020 with -1 = identity has b = 173,911 blocks; its r x r int32 array is 4.0 MiB
    g = AbelianGroup.from_spec("Z1020")  # builds the Cayley table before tracing
    tracemalloc.start()
    try:
        bp = compute_blocks(g, 0)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 5 << 20
    assert bp.b == 173911
    assert bp.block_index.dtype == np.int32 and bp.block_index.shape == (1020, 1020)
    assert not bp.block_index.flags.writeable
    with pytest.raises(ValueError):
        bp.block_index[0, 0] = 1


def test_partitions_compare_and_hash_by_group_and_minus_one():
    g = AbelianGroup.from_spec("Z2xZ4")
    bp = compute_blocks(g, 2)
    again = compute_blocks(AbelianGroup.from_spec("Z2xZ4"), 2)
    assert again is not bp and again == bp and hash(again) == hash(bp)
    assert {bp: "found"}[BlockPartition(g, 2, bp.b, bp.block_index)] == "found"
    assert compute_blocks(g, 4) != bp
    assert compute_blocks(AbelianGroup.from_spec("Z8"), 4) != bp


def test_one_row_blocks_count_is_r_for_odd_order():
    for spec in ["Z3", "Z5", "Z7", "Z9", "Z3xZ3"]:
        g = AbelianGroup.from_spec(spec)
        r = len(list(g.elements()))
        bp = compute_blocks(g, 0)
        assert len(bp.one_row_blocks) == r


def test_automorphisms_permute_blocks():
    for spec in ["Z5", "Z7", "Z2xZ4", "Z8"]:
        g = AbelianGroup.from_spec(spec)
        r = len(list(g.elements()))
        for m1 in g.involution_candidates():
            bp = compute_blocks(g, m1)
            blocks = {frozenset(blk) for blk in bp.blocks}
            for sigma in g.automorphisms():
                if sigma[m1] != m1:
                    continue
                for blk in bp.blocks:
                    image = frozenset(
                        pair_code(sigma[p // r], sigma[p % r], r) for p in blk
                    )
                    assert image in blocks


def test_distinct_row_bound_and_row_sums_to_order_32():
    for g in abelian_groups_up_to(32):
        r = len(list(g.elements()))
        two_part = len(g.involution_candidates())  # 2^k where r = 2^k * odd
        for m1 in g.involution_candidates():
            cm = coefficient_matrix(compute_blocks(g, m1))
            assert 2 * len(cm.rows) <= r + two_part
            assert all(sum(row) == r for row in cm.rows)


def test_alternating_walk_returns_within_six_steps():
    for g in abelian_groups_up_to(16):
        r = len(list(g.elements()))
        for m1 in g.involution_candidates():
            for x in range(r):
                for y in range(r):
                    p = (x, y)
                    q = p
                    for step in range(1, 7):
                        q = consistency_step(g, reversal_negation_step(g, m1, q))
                        if q == p:
                            break
                    assert q == p


def test_subset_from_labels(z3_blocks):
    bp = z3_blocks
    assert bp.subset_from_labels("BD") == 0b1010
    assert bp.subset_from_labels("DB") == 0b1010
    assert bp.subset_from_labels("") == 0
    with pytest.raises(ValueError):
        bp.subset_from_labels("E")


def test_coefficient_matrix_is_refused_before_it_is_built(z7_blocks, monkeypatch):
    # Z7: r x b = 7 x 12 = 84 count entries
    monkeypatch.setattr("hyperblocks.blocks.COEFF_ENTRY_BOUND", 84)
    assert coefficient_matrix(z7_blocks).rows == Z7_COEFF_ROWS
    monkeypatch.setattr("hyperblocks.blocks.COEFF_ENTRY_BOUND", 83)

    def no_allocation(*args, **kwargs):
        raise AssertionError("the count array was allocated past the bound")

    monkeypatch.setattr(np, "zeros", no_allocation)
    with pytest.raises(CapacityError):
        coefficient_matrix(z7_blocks)


def test_block_index_is_read_only(z7_blocks):
    assert z7_blocks.block_index.shape == (7, 7)
    with pytest.raises(ValueError):
        z7_blocks.block_index[0, 0] = 1


def test_labels_past_z_are_comma_separated():
    bp = compute_blocks(AbelianGroup.from_spec("Z12"), 0)
    assert bp.b == 31
    assert bp.subset_from_labels("AB") == 1 << 27
    assert bp.subset_from_labels("A,B") == 0b11
    assert bp.subset_from_labels("AE,A") == 1 << 30 | 1
    assert bp.subset_from_labels("") == 0
    assert bp.mask_labels(1 << 30 | 1 << 27 | 0b11) == "A,B,AB,AE"
    for mask in (0, 1, 1 << 26, (1 << 31) - 1, 0x2AAAAAAA):
        assert bp.subset_from_labels(bp.mask_labels(mask)) == mask
    for concatenated in ("BD", "ABC", "A,BD"):
        with pytest.raises(ValueError):
            bp.subset_from_labels(concatenated)


def test_labels_up_to_z_stay_concatenated(z7_blocks):
    assert z7_blocks.mask_labels(0b101001) == "ADF"
    assert z7_blocks.subset_from_labels("ADF") == 0b101001
    with pytest.raises(ValueError):
        z7_blocks.subset_from_labels("A,D")
