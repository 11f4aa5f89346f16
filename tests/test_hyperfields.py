"""Set-valued arithmetic, the axiom verifier, and ample certification.

The verifier cuts its triple loops down using the scaling identity
u(x + y) = ux + uy, which holds for every pair relation.  The oracle here
re-derives addition straight from the relation bits and checks every axiom
over every triple, zeros included, so the two must agree everywhere.
"""

import itertools
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperblocks import (
    AbelianGroup,
    HyperfieldCandidate,
    STATUS_CERTIFIED,
    STATUS_UNVERIFIED,
    STATUS_VERIFIED,
    abelian_groups_up_to,
    ample_params,
    block_subset_of,
    build_candidate,
    certify_ample,
    compute_blocks,
    is_ample,
    is_union_of_blocks,
    krasner,
    sign_hyperfield,
    verify_axioms,
)
from hyperblocks.hyperfields import bit_rows, row_ints, union_block_bits
from conftest import from_labels


# -- fixtures from the literature ---------------------------------------------


def test_krasner_table():
    k = krasner()
    assert k.r == 1
    assert k.pi_bits() == "1"
    # 1 + 1 = {0, 1}
    assert k.add(0, 0) == 0b11
    assert k.set_name(k.add(0, 0)) == "{1, 0}"
    p = ample_params(k)
    assert (p.m, p.k) == (1, 1)
    assert is_ample(k)
    assert verify_axioms(k).ok


def test_sign_table():
    s = sign_hyperfield()
    assert s.r == 2
    assert s.minus_one == 1
    assert s.pi_bits() == "1011"
    # 1 + (-1) covers everything
    assert s.add(0, 1) == s.full_mask
    assert s.add(0, 0) == 0b001
    assert s.add(1, 1) == 0b010
    assert verify_axioms(s).ok
    p = ample_params(s)
    assert (p.m, p.k) == (1, 1)
    assert not is_ample(s)


def test_bd_addition(z3_named):
    h = z3_named["BD"]
    assert h.set_name(h.add(0, 0)) == "{a, 0}"
    assert h.set_name(h.add(1, 0)) == "{1, a²}"
    assert h.set_name(h.add(2, 0)) == "{a, a²}"
    # zero is the additive identity
    for x in range(h.r + 1):
        assert h.add(h.zero, x) == 1 << x
        assert h.add(x, h.zero) == 1 << x


def test_pi_bits_round_trip(z3, z3_named):
    for h in z3_named.values():
        again = HyperfieldCandidate.from_pi_bits(z3, 0, h.pi_bits())
        assert again == h
        assert hash(again) == hash(h)


def test_pi_bits_matches_the_formatted_rows_and_round_trips():
    rng = random.Random(2507)
    for r in range(1, 71):
        group = AbelianGroup.from_spec(f"Z{r}")
        for _ in range(3):
            rows = tuple(rng.getrandbits(r) for _ in range(r))
            h = HyperfieldCandidate(group, 0, rows)
            bits = h.pi_bits()
            assert bits == "".join(format(row, f"0{r}b")[::-1] for row in rows)
            assert HyperfieldCandidate.from_pi_bits(group, 0, bits).rows == rows


def test_equality_ignores_status(z3, z3_named):
    h = z3_named["BCD"]
    again = HyperfieldCandidate.from_pi_bits(z3, 0, h.pi_bits())
    verify_axioms(again)
    assert again.status != STATUS_UNVERIFIED
    assert again == h


def test_set_helpers(z3_named):
    h = z3_named["BCD"]
    assert h.zero == 3
    assert h.full_mask == 0b1111
    assert h.elements_of(0b1010) == (1, 3)
    assert h.set_name(0) == "{}"
    assert h.element_name(3) == "0"
    # translate multiplies every member, fixing zero
    assert h.translate(0b1011, 1) == h.translate(0b0011, 1) | 0b1000


# -- verification verdicts on the Z3 sequences --------------------------------


def test_verify_verdicts(z3_blocks, z3_named):
    for name, h in z3_named.items():
        rep = verify_axioms(h)
        assert rep.ok, (name, rep.detail)
        assert h.status == STATUS_VERIFIED
    for labels, axiom in [
        ("", "nonempty-sums"),
        ("A", "nonempty-sums"),
        ("B", "associativity"),
        ("C", "associativity"),
        ("AB", "associativity"),
        ("AC", "associativity"),
        ("AD", "associativity"),
    ]:
        h = from_labels(z3_blocks, labels)
        rep = verify_axioms(h)
        assert not rep.ok
        assert rep.axiom == axiom
        assert h.status == f"failed:{axiom}"
        assert rep.witness


def test_failure_report_carries_witness(z3_blocks):
    h = from_labels(z3_blocks, "A")
    rep = verify_axioms(h)
    assert rep.witness == (1, 0)
    assert "a + 1 is empty" in rep.detail


# -- ample parameters and certification ----------------------------------------


def test_ample_params_examples(z3_blocks, z3_named):
    p = ample_params(z3_named["BCD"])
    assert (p.m, p.k) == (2, 2)
    assert is_ample(z3_named["BCD"])
    # block D alone leaves the first row empty
    p = ample_params(z3_named["D"])
    assert (p.m, p.k) == (0, 0)
    assert not is_ample(z3_named["D"])
    p = ample_params(z3_named["ABCD"])
    assert (p.m, p.k) == (3, 3)
    assert is_ample(z3_named["ABCD"])


def test_certify_examples(z3_blocks, z3_named):
    assert certify_ample(z3_named["BC"], z3_blocks)
    assert z3_named["BC"].status == STATUS_CERTIFIED
    assert not certify_ample(z3_named["BD"], z3_blocks)
    assert verify_axioms(z3_named["BD"]).ok
    z7 = compute_blocks(AbelianGroup.from_spec("Z7"), 0)
    full = build_candidate(z7, (1 << z7.b) - 1)
    assert certify_ample(full, z7)


def test_certify_requires_union_of_blocks(z3):
    # row 1 has a but not the rest of its block
    h = HyperfieldCandidate.from_pi_bits(z3, 0, "110111111")
    assert not is_union_of_blocks(h)
    with pytest.raises(ValueError):
        certify_ample(h)


def test_block_subset_of(z3_blocks, z3_named):
    assert block_subset_of(z3_named["BD"], z3_blocks) == 0b1010
    assert block_subset_of(z3_named["ABCD"], z3_blocks) == 0b1111
    h = HyperfieldCandidate.from_pi_bits(z3_blocks.group, 0, "110111111")
    with pytest.raises(ValueError):
        block_subset_of(h, z3_blocks)


# -- the pi bit layout ------------------------------------------------------------


def _ints_of_width(width):
    return st.tuples(st.just(width), st.lists(st.integers(0, (1 << width) - 1), max_size=6))


def _bit_arrays_of_width(width):
    """1 to 6 rows of width 0/1 bits, the low bit of each drawn byte."""
    return st.integers(1, 6).flatmap(
        lambda n: st.binary(min_size=n * width, max_size=n * width).map(
            lambda data: np.frombuffer(data, dtype=np.uint8).reshape(n, width) & 1
        )
    )


@given(st.integers(1, 130).flatmap(_ints_of_width))
def test_bit_rows_inverts_row_ints_on_ints(case):
    width, values = case
    bits = bit_rows(values, width)
    assert bits.shape == (len(values), width) and bits.dtype == np.uint8
    assert bits.tolist() == [[v >> j & 1 for j in range(width)] for v in values]
    assert row_ints(bits) == values


@given(st.integers(1, 130).flatmap(_bit_arrays_of_width))
def test_row_ints_inverts_bit_rows_on_arrays(bits):
    assert np.array_equal(bit_rows(row_ints(bits), bits.shape[1]), bits)


@pytest.mark.parametrize("width", [1, 7, 8, 9, 64, 65, 130])
def test_bit_rows_of_no_values(width):
    assert bit_rows([], width).shape == (0, width)
    assert row_ints(bit_rows([], width)) == []


@lru_cache(maxsize=None)
def _partition(spec, minus_one):
    return compute_blocks(AbelianGroup.from_spec(spec), minus_one)


def union_block_bits_by_pairs(bp, h):
    """(is a union, mask of the blocks pi meets), one pair at a time."""
    pairs = [(x, y, int(bp.block_index[x, y])) for x in range(bp.r) for y in range(bp.r)]
    met = 0
    for x, y, i in pairs:
        if h.rows[x] >> y & 1:
            met |= 1 << i
    return all((h.rows[x] >> y & 1) == (met >> i & 1) for x, y, i in pairs), met


def _drawn_relations(case):
    """(case, [(block mask, pi bit codes to flip)]) on one partition."""
    bp = _partition(*case)
    draw = st.tuples(
        st.integers(0, (1 << bp.b) - 1), st.lists(st.integers(0, bp.r**2 - 1), max_size=3)
    )
    return st.tuples(st.just(case), st.lists(draw, max_size=5))


@given(st.sampled_from([("Z7", 0), ("Z2xZ4", 2), ("Z9", 0), ("Z20", 0)]).flatmap(_drawn_relations))
def test_union_block_bits_matches_a_per_pair_loop(drawn):
    """Drawn unions of blocks, and the same with a few pi bits flipped, which
    are mostly not unions; Z20 (-1 = 0) has 77 blocks, past one uint64 word."""
    (spec, minus_one), draws = drawn
    bp = _partition(spec, minus_one)
    candidates = []
    for mask, flips in draws:
        rows = list(build_candidate(bp, mask).rows)
        for code in flips:
            rows[code // bp.r] ^= 1 << code % bp.r
        candidates.append(HyperfieldCandidate(bp.group, minus_one, tuple(rows)))
    union, bits = union_block_bits(bp, candidates)
    assert union.shape == (len(candidates),) and bits.shape == (len(candidates), bp.b)
    expected = [union_block_bits_by_pairs(bp, h) for h in candidates]
    assert union.tolist() == [u for u, _ in expected]
    assert row_ints(bits) == [met for _, met in expected]


# -- full-triple oracle ---------------------------------------------------------


def oracle_add(group, minus_one, bits, r, x, y):
    zero = r
    if x == zero:
        return frozenset({y})
    if y == zero:
        return frozenset({x})
    w = group.mul(x, group.inv(y))
    out = {group.mul(y, z) for z in range(r) if bits[w * r + z] == "1"}
    if w == minus_one:
        out.add(zero)
    return frozenset(out)


def oracle_verdict(group, minus_one, bits):
    """First failing axiom over literal full loops, or None if all pass."""
    r = len(list(group.elements()))
    zero = r
    elems = range(r + 1)
    add = {
        (x, y): oracle_add(group, minus_one, bits, r, x, y)
        for x in elems
        for y in elems
    }

    def ext(members, c):
        out = set()
        for s in members:
            out |= add[s, c]
        return out

    for x in elems:
        for y in elems:
            if not add[x, y]:
                return "nonempty-sums"
    for x in elems:
        for y in elems:
            if add[x, y] != add[y, x]:
                return "commutativity"
    for x, y, z in itertools.product(elems, repeat=3):
        if ext(add[x, y], z) != ext(add[y, z], x):
            return "associativity"
    for a in range(r):
        for y, z in itertools.product(elems, repeat=2):
            scaled = {
                zero if s == zero else group.mul(a, s) for s in add[y, z]
            }
            ay = zero if y == zero else group.mul(a, y)
            az = zero if z == zero else group.mul(a, z)
            if scaled != add[ay, az]:
                return "distributivity"
    for x in elems:
        if sum(zero in add[x, y] for y in elems) != 1:
            return "unique-negatives"
    for x, y, z in itertools.product(elems, repeat=3):
        if x in add[y, z]:
            neg_y = zero if y == zero else group.mul(minus_one, y)
            if z not in add[x, neg_y]:
                return "reversibility"
    return None


def assert_matches_oracle(group, minus_one, bits):
    h = HyperfieldCandidate.from_pi_bits(group, minus_one, bits)
    rep = verify_axioms(h)
    expected = oracle_verdict(group, minus_one, bits)
    assert rep.ok == (expected is None), (group.spec_string(), minus_one, bits, rep, expected)
    return h, rep


def test_oracle_agrees_on_all_z3_block_subsets(z3_blocks):
    for mask in range(16):
        h = build_candidate(z3_blocks, mask)
        assert_matches_oracle(z3_blocks.group, 0, h.pi_bits())


def test_oracle_agrees_on_every_relation_up_to_order_3():
    for spec, m1s in [("Z1", [0]), ("Z2", [0, 1]), ("Z3", [0])]:
        g = AbelianGroup.from_spec(spec)
        r = len(list(g.elements()))
        for m1 in m1s:
            for mask in range(1 << (r * r)):
                bits = format(mask, f"0{r * r}b")
                h, rep = assert_matches_oracle(g, m1, bits)
                if rep.ok:
                    # every verified relation is a union of blocks
                    assert is_union_of_blocks(h)
                # reversibility is implied by the rest, so it never
                # shows up as the first violation
                assert rep.axiom != "reversibility"


def test_oracle_agrees_on_seeded_order_4_relations():
    rng = random.Random(20417)
    for spec in ["Z4", "Z2xZ2"]:
        g = AbelianGroup.from_spec(spec)
        for m1 in g.involution_candidates():
            bp = compute_blocks(g, m1)
            for _ in range(60):
                bits = "".join(rng.choice("01") for _ in range(16))
                h, rep = assert_matches_oracle(g, m1, bits)
                if rep.ok:
                    assert is_union_of_blocks(h, bp)
                assert rep.axiom != "reversibility"
            # unions of blocks with single bits flipped either way
            for _ in range(30):
                mask = rng.randrange(1 << bp.b)
                bits = list(build_candidate(bp, mask).pi_bits())
                flip = rng.randrange(16)
                bits[flip] = "1" if bits[flip] == "0" else "0"
                h, rep = assert_matches_oracle(g, m1, "".join(bits))
                assert rep.axiom != "reversibility"


# -- addition-level properties ---------------------------------------------------


def test_add_commutes_for_unions_of_blocks(z3_blocks):
    for g in abelian_groups_up_to(6):
        for m1 in g.involution_candidates():
            bp = compute_blocks(g, m1)
            for mask in range(1 << bp.b):
                h = build_candidate(bp, mask)
                for x in range(h.r + 1):
                    for y in range(x, h.r + 1):
                        assert h.add(x, y) == h.add(y, x)


def test_large_sums_cover_nonzero_elements(z3_blocks, z3_named):
    # ample + verified: any three-term sum of nonzero elements covers all of
    # the nonzero part
    nonzero = 0
    for name in ["BC", "BCD", "ABD", "ACD", "ABC", "ABCD"]:
        h = z3_named[name]
        nonzero = h.full_mask ^ (1 << h.zero)
        assert is_ample(h)
        for x, y, z in itertools.product(range(h.r), repeat=3):
            total = h.set_add(h.add(x, y), 1 << z)
            assert total & nonzero == nonzero, (name, x, y, z)


def test_add_table_is_cached(z3_named):
    h = z3_named["BCD"]
    assert h.add_table() is h.add_table()
