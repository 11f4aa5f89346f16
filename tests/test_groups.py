"""Finite abelian groups: normalization, arithmetic, automorphisms."""

import itertools
import math
import time

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from hyperblocks import AbelianGroup, CapacityError, abelian_groups_up_to, invariant_factors
from hyperblocks.groups import AUTOMORPHISM_ENTRY_BOUND, MUL_TABLE_ORDER_BOUND


def smith_diagonal(factors):
    """Invariant factors via sympy's Smith normal form, as an oracle."""
    n = len(factors)
    m = sympy.Matrix.diag(*factors)
    snf = smith_normal_form(m, domain=sympy.ZZ)
    diag = [int(snf[i, i]) for i in range(n)]
    return tuple(d for d in diag if d > 1)


@pytest.mark.parametrize(
    "factors",
    [
        [4, 2],
        [2, 4],
        [6, 4],
        [2, 2, 2],
        [12, 18],
        [3, 5],
        [10, 4, 6],
        [7],
        [9, 3, 3],
    ],
)
def test_invariant_factors_match_smith_normal_form(factors):
    assert invariant_factors(factors) == smith_diagonal(factors)


def test_invariant_factors_divisibility_chain():
    fac = invariant_factors([12, 18, 10])
    for a, b in zip(fac, fac[1:]):
        assert b % a == 0
    assert math.prod(fac) == 12 * 18 * 10


def test_from_spec_round_trip():
    g = AbelianGroup.from_spec("Z2xZ4")
    assert g.spec_string() == "Z2xZ4"
    assert len(g.elements()) == 8
    # [4,2] normalizes to the same group
    assert AbelianGroup([4, 2]).spec_string() == "Z2xZ4"


@pytest.mark.parametrize("bad", ["", "Z0", "Zx", "Q8", "Z2,Z2", "Z-3"])
def test_from_spec_rejects_malformed(bad):
    with pytest.raises(ValueError):
        AbelianGroup.from_spec(bad)


def test_trivial_group():
    g = AbelianGroup([])
    assert g.spec_string() == "Z1"
    assert list(g.elements()) == [0]
    assert g.involution_candidates() == [0]
    assert g.element_order(0) == 1


def test_identity_and_inverse_laws():
    g = AbelianGroup.from_spec("Z2xZ4")
    for x in g.elements():
        assert g.mul(x, 0) == x
        assert g.mul(x, g.inv(x)) == 0
        for y in g.elements():
            assert g.mul(x, y) == g.mul(y, x)


def test_equal_groups_share_one_cayley_table():
    a, b = AbelianGroup.from_spec("Z2xZ4"), AbelianGroup([4, 2])
    assert a._mul_rows is b._mul_rows
    assert a._inv_list is b._inv_list
    big = AbelianGroup([MUL_TABLE_ORDER_BOUND + 1])
    assert big._mul_rows is None
    assert big.mul(big.order - 1, 2) == 1


def test_cayley_table_matches_the_vector_formula():
    for g in abelian_groups_up_to(40):
        vecs = [g.element_vector(e) for e in g.elements()]
        table = [[g.element_index(tuple(x + y for x, y in zip(u, v))) for v in vecs] for u in vecs]
        assert [g.mul_row(a) for a in g.elements()] == table, g
        assert [g.inv(a) for a in g.elements()] == [row.index(0) for row in table], g


def test_element_order_brute_force():
    g = AbelianGroup([2, 4])
    assert g.element_order(g.element_index((1, 2))) == 2
    for x in g.elements():
        acc, n = x, 1
        while acc != 0:
            acc = g.mul(acc, x)
            n += 1
        assert g.element_order(x) == n


def test_involution_candidates():
    # Z2xZ2: every element squares to the identity
    g = AbelianGroup([2, 2])
    assert g.involution_candidates() == [0, 1, 2, 3]
    # odd order: only the identity
    assert AbelianGroup([7]).involution_candidates() == [0]
    # Z10: identity and the order-2 element
    z10 = AbelianGroup([10])
    assert z10.involution_candidates() == [0, 5]


def brute_automorphism_count(g):
    """Count bijections preserving multiplication. Exponential; keep orders tiny."""
    n = len(list(g.elements()))
    count = 0
    for perm in itertools.permutations(range(n)):
        if perm[0] != 0:
            continue
        if all(
            perm[g.mul(x, y)] == g.mul(perm[x], perm[y])
            for x in range(n)
            for y in range(x, n)
        ):
            count += 1
    return count


@pytest.mark.parametrize("spec", ["Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7"])
def test_automorphism_count_brute_force(spec):
    g = AbelianGroup.from_spec(spec)
    assert len(g.automorphisms()) == brute_automorphism_count(g)


def test_automorphism_count_cyclic_totient():
    # |Aut(Z_n)| = phi(n)
    for n in range(1, 16):
        g = AbelianGroup([n] if n > 1 else [])
        assert len(g.automorphisms()) == sympy.totient(n)


def test_automorphism_count_closed_form():
    # order <= 12 includes Z2xZ2xZ2; Z4xZ4 adds a repeated exponent above 1
    for g in list(abelian_groups_up_to(12)) + [AbelianGroup([4, 4])]:
        assert g.automorphism_count() == len(g.automorphisms()), g
    assert AbelianGroup([2, 2, 2, 2]).automorphism_count() == 20160  # |GL(4, 2)|
    assert AbelianGroup([2] * 5).automorphism_count() == 9999360  # |GL(5, 2)|


def test_automorphism_budget_counts_work():
    # Z2^4 fits the budget; Z2^5 has as many elements as Z32 but 9,999,360
    # automorphisms, and is refused before any enumeration
    z2_4, z2_5 = AbelianGroup([2] * 4), AbelianGroup([2] * 5)
    assert z2_4.automorphism_count() * 16 <= AUTOMORPHISM_ENTRY_BOUND
    assert z2_5.automorphism_count() * 32 > AUTOMORPHISM_ENTRY_BOUND
    assert len(AbelianGroup([32]).automorphisms()) == 16
    t0 = time.perf_counter()
    with pytest.raises(CapacityError):
        z2_5.automorphisms()
    assert time.perf_counter() - t0 < 1.0


def test_elementary_abelian_automorphisms():
    # Z2^4: all of GL(4, 2), each a distinct bijection that fixes the identity
    # and is additive on a basis
    g = AbelianGroup([2] * 4)
    autos = g.automorphisms()
    assert len(set(autos)) == 20160
    for a in autos:
        assert a[0] == 0 and len(set(a)) == 16
        assert all(a[g.mul(x, y)] == g.mul(a[x], a[y]) for x in (1, 2, 4, 8) for y in range(16))


def test_automorphisms_are_homomorphisms():
    g = AbelianGroup([2, 4])
    autos = g.automorphisms()
    assert len(autos) == len({a for a in autos})
    for a in autos:
        assert a[0] == 0
        for x in g.elements():
            for y in g.elements():
                assert a[g.mul(x, y)] == g.mul(a[x], a[y])


def test_abelian_groups_up_to_counts():
    # number of abelian groups of order n = prod of partition counts of
    # the prime exponents; up to 16 the totals are well known
    groups = list(abelian_groups_up_to(16))
    by_order = {}
    for g in groups:
        by_order.setdefault(len(list(g.elements())), []).append(g.spec_string())
    assert len(by_order[4]) == 2
    assert len(by_order[8]) == 3
    assert len(by_order[12]) == 2
    assert len(by_order[16]) == 5
    assert sorted(by_order[4]) == ["Z2xZ2", "Z4"]
    # no duplicates anywhere
    specs = [g.spec_string() for g in groups]
    assert len(specs) == len(set(specs))


def test_element_names_and_indexing():
    g = AbelianGroup([5])
    assert g.element_name(0) == "1"
    assert g.element_name(1) == "a"
    assert g.element_name(2) == "a²"
    h = AbelianGroup([2, 4])
    for x in h.elements():
        assert h.element_index(h.element_vector(x)) == x
