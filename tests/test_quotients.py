"""Finite fields, their coset hyperfields, and the quotient lookup."""

import hashlib
import json
import math
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperblocks import (
    AbelianGroup,
    CapacityError,
    FiniteField,
    HyperfieldCandidate,
    NONQUOTIENT,
    QUOTIENT,
    STATUS_UNVERIFIED,
    STATUS_VERIFIED,
    UNKNOWN,
    QuotientStatusReport,
    build_candidate,
    canonical_form,
    census_all_minus_ones,
    compute_blocks,
    excludes_infinite_quotient,
    find_finite_quotient,
    is_union_of_blocks,
    krasner,
    quotient_hyperfield,
    quotient_status,
    sign_hyperfield,
    verify_axioms,
)
from hyperblocks import census, quotients
from hyperblocks.cli import main
from hyperblocks.groups import _prime_factors
from hyperblocks.quotients import default_q_bound, subgroup_generator
from conftest import from_labels


@pytest.fixture(autouse=True)
def no_atlas_built():
    """Every test starts without a quotient atlas, so the fields and atlases
    a test counts are the ones it builds itself."""
    quotients._quotient_atlas.cache_clear()


# -- field construction ------------------------------------------------------------


def test_prime_field_arithmetic():
    f = FiniteField(7)
    assert (f.p, f.k, f.q) == (7, 1, 7)
    assert f.modulus is None
    assert f.add(3, 5) == 1
    assert f.mul(3, 5) == 1
    assert f.neg(2) == 5
    assert f.minus_one() == 6
    assert f.power(3, 6) == 1


def test_gf4_structure():
    f = FiniteField(4)
    assert f.modulus_string() == "x^2 + x + 1"
    # elements pack base-2 coefficient vectors: 2 = x, 3 = x + 1
    assert f.mul(2, 2) == 3  # x^2 = x + 1
    assert f.mul(2, 3) == 1  # x(x + 1) = x^2 + x = 1
    assert f.add(2, 3) == 1
    assert f.minus_one() == 1
    assert f.generator in (2, 3)


def test_gf16_and_gf25_moduli():
    assert FiniteField(16).modulus_string() == "x^4 + x + 1"
    assert FiniteField(25).modulus_string() == "x^2 + 2"


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 49])
def test_field_axioms_spot_checks(q):
    f = FiniteField(q)
    xs = range(q)
    for x in xs:
        assert f.mul(x, 1) == x
        assert f.add(x, f.neg(x)) == 0
        # Fermat: x^q = x
        assert f.power(x, q) == x
    # generator has full multiplicative order
    seen = set()
    acc = 1
    for _ in range(q - 1):
        acc = f.mul(acc, f.generator)
        seen.add(acc)
    assert len(seen) == q - 1
    # sampled associativity and distributivity
    sample = list(xs)[: min(q, 9)]
    for a in sample:
        for b in sample:
            for c in sample:
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", [1, 6, 12, 100])
def test_field_rejects_non_prime_powers(q):
    with pytest.raises(ValueError):
        FiniteField(q)


def test_field_capacity_cap():
    with pytest.raises(CapacityError):
        FiniteField(2 ** 17)


def test_field_tables_match_the_scalar_arithmetic():
    """For every prime power q <= 2,000: exp steps by one scalar mul of the
    least primitive element >= 2, log inverts it, and the quotient rows
    for the least prime r dividing q - 1 and for its largest divisor
    r <= 100, past one 64-bit word, equal a loop over the scalar add."""
    for q in range(2, 2001):
        if quotients._is_prime_power(q) is None:
            continue
        f = FiniteField(q)
        exp, log, g = f.exp.tolist(), f.log.tolist(), f.generator
        assert [f.mul(e, g) for e in exp] == exp[1:] + [1], q
        assert log[0] == -1 and [log[e] for e in exp] == list(range(q - 1)), q
        # w = g^log[w] is primitive exactly when log[w] is prime to q - 1
        assert log[g] == (1 if q > 2 else 0), q
        assert all(math.gcd(log[w], q - 1) > 1 for w in range(2, g)), q
        succ = [f.add(w, 1) for w in range(q)]
        divisors = [r for r in range(1, min(q - 1, 100) + 1) if (q - 1) % r == 0]
        for r in {divisors[-1], min(_prime_factors(q - 1), default=1)}:
            rows = [0] * r
            for w in range(1, q):
                if succ[w]:
                    rows[log[w] % r] |= 1 << (log[succ[w]] % r)
            _, got, minus_one, gen = quotients._quotient_data(q, r)
            assert got == tuple(rows), (q, r)
            assert minus_one == log[f.minus_one()] % r, (q, r)
            assert gen == f.power(g, r), (q, r)


def test_extension_field_tables_step_by_the_scalar_mul():
    """The exp table of every extension field with q <= 4,096, built by
    k x k digit-matrix products, steps by one scalar mul of the generator,
    and log inverts it."""
    built = 0
    for q in range(4, 4097):
        pk = quotients._is_prime_power(q)
        if pk is None or pk[1] == 1:
            continue
        f = FiniteField(q)
        exp, log, g = f.exp.tolist(), f.log.tolist(), f.generator
        assert exp[0] == 1 and all(f.mul(a, g) == b for a, b in zip(exp, exp[1:])), q
        assert f.mul(exp[-1], g) == 1 and sorted(exp) == list(range(1, q)), q
        assert log[0] == -1 and all(log[e] == i for i, e in enumerate(exp)), q
        built += 1
    assert built == 40


@pytest.mark.parametrize("q, generator", [(59049, 34), (78125, 9), (83521, 307)])
def test_generator_is_the_least_primitive_element_past_q_2000(q, generator):
    """The scalar search on extension fields of 3^10, 5^7 and 17^4 elements,
    checked against the log table: w is primitive exactly when log[w] is
    prime to q - 1."""
    f = FiniteField(q)
    log = f.log.tolist()
    assert f.generator == generator
    assert log[generator] == 1
    assert all(math.gcd(log[w], q - 1) > 1 for w in range(2, generator))


# -- quotient construction ----------------------------------------------------------


def test_quotient_of_gf7_is_cd(z3_blocks):
    h = quotient_hyperfield(7, 3)
    assert verify_axioms(h).ok
    assert h == from_labels(z3_blocks, "CD")
    # and it is isomorphic to BD
    assert canonical_form(h) == canonical_form(from_labels(z3_blocks, "BD"))


def test_quotient_identifications(z3_blocks):
    assert canonical_form(quotient_hyperfield(4, 3)) == canonical_form(
        from_labels(z3_blocks, "D")
    )
    assert canonical_form(quotient_hyperfield(13, 3)) == canonical_form(
        from_labels(z3_blocks, "BCD")
    )
    assert canonical_form(quotient_hyperfield(16, 3)) == canonical_form(
        from_labels(z3_blocks, "BCD")
    )
    assert canonical_form(quotient_hyperfield(19, 3)) == canonical_form(
        from_labels(z3_blocks, "ABCD")
    )


def test_quotient_by_full_group_is_krasner():
    for q in (3, 4, 5, 9):
        h = quotient_hyperfield(q, 1)
        assert h == krasner()


def test_quotient_trivial_cases():
    # F_2 has a trivial multiplicative group and 1 + 1 = {0}
    h = quotient_hyperfield(2, 1)
    assert h.r == 1
    assert h.pi_bits() == "0"
    assert verify_axioms(h).ok


def test_quotient_requires_divisibility():
    with pytest.raises(ValueError):
        quotient_hyperfield(7, 4)
    with pytest.raises(ValueError):
        quotient_hyperfield(7, 0)


def test_quotients_always_verify():
    for q, r in [(5, 2), (5, 4), (7, 2), (7, 6), (8, 7), (9, 2), (9, 4), (11, 5), (13, 4), (16, 5), (25, 3)]:
        h = quotient_hyperfield(q, r)
        assert verify_axioms(h).ok, (q, r)


def test_subgroup_generator_order():
    for q, r in [(7, 3), (13, 3), (16, 3), (19, 3), (25, 3)]:
        f = FiniteField(q)
        g = subgroup_generator(q, r)
        # g generates the index-r subgroup, so its order is (q-1)/r
        order = 1
        acc = g
        while acc != 1:
            acc = f.mul(acc, g)
            order += 1
        assert order == (q - 1) // r


# -- the quotient search ---------------------------------------------------------------


def test_default_q_bound():
    assert default_q_bound(3) == 81
    assert default_q_bound(1) == 4
    assert default_q_bound(20) == 100_000


def test_find_finite_quotient(z3_blocks):
    assert find_finite_quotient(from_labels(z3_blocks, "BD"), 81) == (7, 6)
    assert find_finite_quotient(from_labels(z3_blocks, "BC"), 81) is None


def test_quotient_status_all_z3_hyperfields(z3_named):
    expected = {
        "D": (QUOTIENT, 4),
        "BD": (QUOTIENT, 7),
        "CD": (QUOTIENT, 7),
        "BCD": (QUOTIENT, 13),
        "ABCD": (QUOTIENT, 19),
        "BC": (NONQUOTIENT, None),
        "ABD": (NONQUOTIENT, None),
        "ACD": (NONQUOTIENT, None),
        "ABC": (NONQUOTIENT, None),
    }
    for name, (status, q) in expected.items():
        rep = quotient_status(z3_named[name])
        assert rep.status == status, name
        assert rep.q == q, name
        assert rep.q_bound == 81
        assert rep.definitive


def test_quotient_status_generators(z3_named):
    assert quotient_status(z3_named["BD"]).generator == 6
    assert quotient_status(z3_named["BCD"]).generator == 8
    assert quotient_status(z3_named["ABCD"]).generator == 8


def test_excludes_infinite_quotient(z3_named):
    # 1 + (-1) falling short of the whole set rules out any quotient of an
    # infinite field
    assert excludes_infinite_quotient(z3_named["BC"])
    assert excludes_infinite_quotient(z3_named["BD"])
    assert not excludes_infinite_quotient(z3_named["ABC"])
    assert not excludes_infinite_quotient(z3_named["ABCD"])
    for name in ["BC", "ABD", "ACD", "ABC"]:
        rep = quotient_status(z3_named[name])
        assert rep.excludes_infinite == excludes_infinite_quotient(z3_named[name])


def test_quotient_status_krasner_found_at_three():
    rep = quotient_status(krasner())
    assert rep.status == QUOTIENT
    assert rep.q == 3
    assert rep.definitive


def test_quotient_status_sign_is_unknown():
    # even order never reaches a definitive no: the finite scan can stop,
    # but quotients of infinite fields stay on the table
    rep = quotient_status(sign_hyperfield())
    assert rep.status == UNKNOWN
    assert rep.q is None
    assert not rep.definitive
    assert not excludes_infinite_quotient(sign_hyperfield())


def test_quotient_status_non_cyclic_group():
    g = AbelianGroup.from_spec("Z2xZ2")
    h = HyperfieldCandidate.from_pi_bits(g, 1, "1" * 16)
    assert verify_axioms(h).ok
    rep = quotient_status(h)
    # no finite field has a non-cyclic unit group, so the scan finds nothing
    assert rep.status in (NONQUOTIENT, UNKNOWN)
    assert rep.q is None


def test_quotient_scan_builds_each_field_once(monkeypatch, z3_named):
    quotients._quotient_data.cache_clear()
    built = []
    field = quotients.FiniteField
    monkeypatch.setattr(quotients, "FiniteField", lambda q: built.append(q) or field(q))
    first = quotient_status(z3_named["BC"])
    # every q <= 81 with 3 | q - 1 that is a prime power, built once each
    assert built == [4, 7, 13, 16, 19, 25, 31, 37, 43, 49, 61, 64, 67, 73, 79]
    assert quotient_status(z3_named["BC"]) == first
    assert quotient_status(z3_named["BCD"]) == QuotientStatusReport(QUOTIENT, 13, 8, 81, True, True)
    assert len(built) == 15
    # the candidate is fresh on every call, so a status set on one stays there
    h, again = quotient_hyperfield(13, 3), quotient_hyperfield(13, 3)
    assert h == again and h is not again
    verify_axioms(h)
    assert h.status == STATUS_VERIFIED and again.status == STATUS_UNVERIFIED
    gf13 = field(13)
    assert subgroup_generator(13, 3) == gf13.power(gf13.generator, 3) == 8


def test_scan_bound_above_the_cap_builds_no_field(monkeypatch, capsys, z3_named):
    quotients._quotient_data.cache_clear()
    built = []
    field = quotients.FiniteField
    monkeypatch.setattr(quotients, "FiniteField", lambda q: built.append(q) or field(q))
    with pytest.raises(CapacityError):
        quotient_status(z3_named["BD"], q_bound=quotients.Q_BOUND_CAP + 1)
    assert built == []
    argv = ["quotient", "--group", "Z3", "--minus-one", "0", "--blocks", "BD", "--bound", "200000"]
    assert main(argv) == 3
    assert "capacity" in capsys.readouterr().err.lower()
    assert built == []


def test_quotient_status_makes_no_canonical_form_calls(monkeypatch, z3_blocks):
    def refuse(*args, **kwargs):
        raise AssertionError("canonical_form called")

    monkeypatch.setattr(census, "canonical_form", refuse)
    for mask in range(1 << z3_blocks.b):
        quotient_status(build_candidate(z3_blocks, mask))
    # one atlas for (r, bound) = (3, 81), built by the first call and read by the rest
    assert quotients._quotient_atlas.cache_info().misses == 1


def test_quotient_status_respects_small_bound(z3_named):
    rep = quotient_status(z3_named["BCD"], q_bound=10)
    # 13 lies beyond the bound and the scan is not definitive
    assert rep.status == UNKNOWN
    assert not rep.definitive


# -- the atlas against the scan it replaced -------------------------------------------


@lru_cache(maxsize=None)
def scanned_form(q, r):
    return canonical_form(quotient_hyperfield(q, r))


def scan_for_quotient(h, q_bound):
    """The reference: every prime power q <= q_bound in ascending order,
    comparing canonical forms where -1 matches."""
    if not h.group.is_cyclic:
        return None
    r, target = h.r, canonical_form(h)
    for q in range(2, q_bound + 1):
        if (q - 1) % r or quotients._is_prime_power(q) is None:
            continue
        if quotient_hyperfield(q, r).minus_one == h.minus_one and scanned_form(q, r) == target:
            return q, subgroup_generator(q, r)
    return None


@pytest.mark.parametrize("r", range(1, 8))
def test_atlas_matches_the_scan_on_every_census_class(r):
    group = AbelianGroup([r] if r > 1 else [])
    bound = default_q_bound(r)
    for c in census_all_minus_ones(group):
        bp = compute_blocks(group, c.minus_one)
        for cl in c.classes:
            h = build_candidate(bp, cl.example_subset)
            assert find_finite_quotient(h, bound) == scan_for_quotient(h, bound), cl


@pytest.mark.parametrize("spec", ["Z5", "Z7"])
@settings(max_examples=25)
@given(data=st.data())
def test_atlas_and_scan_agree_on_relations_that_are_not_unions(spec, data):
    group = AbelianGroup.from_spec(spec)
    r = group.order
    rows = data.draw(st.lists(st.integers(0, (1 << r) - 1), min_size=r, max_size=r))
    h = HyperfieldCandidate(group, 0, tuple(rows))
    assume(not is_union_of_blocks(h))
    assert find_finite_quotient(h, default_q_bound(r)) is None
    assert scan_for_quotient(h, default_q_bound(r)) is None


def test_every_quotient_is_a_union_of_blocks():
    # the fact behind find_finite_quotient's early None for other relations
    for r in range(1, 10):
        for q in range(r + 1, default_q_bound(r) + 1, r):
            if quotients._is_prime_power(q) is not None:
                assert is_union_of_blocks(quotient_hyperfield(q, r)), (q, r)


ATLAS_DIGESTS = Path(__file__).parent / "data" / "atlas_digests.json"


def atlas_digests():
    """For r = 2..8 at the default bound: the sha256 of the quotient atlas,
    and [q, field generator, -1, subgroup generator] of every quotient it
    keys, in ascending q."""
    out = {}
    for r in range(2, 9):
        bound = default_q_bound(r)
        atlas = quotients._quotient_atlas(r, bound)
        fields = [
            [q, FiniteField(q).generator, quotient_hyperfield(q, r).minus_one, subgroup_generator(q, r)]
            for q in range(r + 1, bound + 1, r)
            if quotients._is_prime_power(q) is not None
        ]
        digest = hashlib.sha256(repr(sorted(atlas.items())).encode()).hexdigest()
        out[str(r)] = {"atlas": digest, "fields": fields}
    return out


def test_atlases_match_the_golden_file():
    """The atlases and the quotients they key are exactly those pinned in
    atlas_digests.json.  The file was written by the field code as it
    stood before exp and log became arrays built by doubling, from the
    repository root, with

        PYTHONPATH=src:tests python -c "import json, test_quotients as t;
            print(json.dumps(t.atlas_digests(), indent=1, sort_keys=True))"

    redirected into tests/data/atlas_digests.json.  Changing a field's
    generator or an atlas means writing the file again, on purpose."""
    assert atlas_digests() == json.loads(ATLAS_DIGESTS.read_text())
