"""Linear systems over hyperfields: the brute-force and structured solvers."""

import functools
import gc
import hashlib
import itertools
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperblocks import (
    AbelianGroup,
    CapacityError,
    FetvinsReport,
    HyperfieldCandidate,
    LinearSystem,
    ample_solve,
    brute_force_solve,
    abelian_groups_up_to,
    build_candidate,
    certified_candidates,
    check,
    check_fetvins,
    compute_blocks,
    is_ample,
    krasner,
    set_sum,
    sign_hyperfield,
    verify_axioms,
)
from hyperblocks import linear
from hyperblocks.cli import main
from hyperblocks.linear import (
    is_trivial,
    iter_normalized_systems,
    normalized_equations,
)
from conftest import from_labels


# -- plumbing -----------------------------------------------------------------


def test_make_validation():
    s = LinearSystem.make([[0, 1, 3]])
    assert s.n_vars == 3
    with pytest.raises(ValueError):
        LinearSystem.make([], n_vars=None)
    with pytest.raises(ValueError):
        LinearSystem.make([[0, 1], [0]])
    with pytest.raises(ValueError):
        LinearSystem.make([[0, -1]])
    # coefficients are integers: nothing is truncated or read as 0 or 1
    for bad in (1.5, True, "2"):
        with pytest.raises(TypeError):
            LinearSystem.make([[0, bad, 1]])


def test_linear_system_contract():
    """Two fields, immutable, equal and hashed by value, and make's refusals."""
    s = LinearSystem.make([[0, 1, 3], (2, 3, 0)])
    assert (s.n_vars, s.equations) == (3, ((0, 1, 3), (2, 3, 0)))
    assert list(LinearSystem.__annotations__) == ["n_vars", "equations"]
    assert all(type(eq) is tuple for eq in s.equations)
    same = LinearSystem(3, ((0, 1, 3), (2, 3, 0)))
    assert s == same and hash(s) == hash(same) and len({s, same}) == 1
    assert s != LinearSystem(4, s.equations) and s != LinearSystem(3, s.equations[:1])
    for field in ("n_vars", "equations"):
        with pytest.raises(AttributeError):
            setattr(s, field, None)
    with pytest.raises((AttributeError, TypeError)):
        s.extra = 1
    assert LinearSystem.make([], n_vars=2) == LinearSystem(2, ())
    for bad, error in ((1.5, TypeError), (True, TypeError), ("2", TypeError), (-1, ValueError)):
        with pytest.raises(error):
            LinearSystem.make([[0, bad, 1]])
    with pytest.raises(ValueError, match="ragged"):
        LinearSystem.make([[0, 1], [0]])
    counterexample = FetvinsReport(False, 3, 10, LinearSystem.make([[0, 1, 1]]))
    assert counterexample == FetvinsReport(False, 3, 10, LinearSystem(3, ((0, 1, 1),)))
    assert counterexample != FetvinsReport(False, 3, 10, LinearSystem(3, ((0, 1, 2),)))


def test_coefficient_range_checked(z3_named):
    h = z3_named["BC"]
    with pytest.raises(ValueError):
        check(h, LinearSystem.make([[0, 7]]), (0, 0))
    # a negative index would read a table row from the end
    negative = LinearSystem(2, ((0, -1),))
    for call in (ample_solve, brute_force_solve, lambda h, s: check(h, s, (0, 0))):
        with pytest.raises(ValueError, match="must be >= 0"):
            call(h, negative)


def test_assignment_range_checked(z3_named):
    # -1 would read the product row from its end, the zero slot, and 7 past it
    h = z3_named["BC"]
    system = LinearSystem.make([[0, 0, 3]])
    assert check(h, system, brute_force_solve(h, system))
    for assignment in ((-1, -1, 0), (0, 7, 0), (0, 0, 4)):
        with pytest.raises(ValueError, match=r"element indices 0\.\.3"):
            check(h, system, assignment)


def test_equation_length_must_match_variable_count(z3_named):
    # a directly built system skips LinearSystem.make's check; every entry
    # point still refuses it, where zip would silently drop or miss terms
    h = z3_named["BC"]
    for system in (LinearSystem(2, ((0, 0, 0),)), LinearSystem(3, ((0, 0, 0), (0, 0)))):
        for call in (ample_solve, brute_force_solve, lambda h, s: check(h, s, (0,) * s.n_vars)):
            with pytest.raises(ValueError, match="ragged equation lengths"):
                call(h, system)


@settings(max_examples=150)
@given(data=st.data())
def test_check_matches_the_full_fold_on_drawn_relations(data):
    """check folds each equation over its nonzero coefficients only; on any
    relation, hyperfield or not, that equals the fold over every term."""
    spec = data.draw(st.sampled_from(["Z2", "Z3", "Z4", "Z2xZ2", "Z5"]), label="group")
    g = AbelianGroup.from_spec(spec)
    m1 = data.draw(st.sampled_from(g.involution_candidates()), label="minus_one")
    bits = data.draw(st.text("01", min_size=g.order**2, max_size=g.order**2), label="pi")
    h = HyperfieldCandidate.from_pi_bits(g, m1, bits)
    n = data.draw(st.integers(1, 4), label="n")
    element = st.integers(0, h.r)  # h.r is the zero slot
    eqs = data.draw(st.lists(st.lists(element, min_size=n, max_size=n), min_size=1, max_size=3))
    assignment = data.draw(st.lists(element, min_size=n, max_size=n), label="assignment")
    system = LinearSystem.make(eqs, n_vars=n)
    assert check(h, system, assignment) == all(zero_in_sum(h, eq, assignment) for eq in eqs)


def test_set_sum_krasner():
    k = krasner()
    one = 1 << 0
    assert set_sum(k, [one, one, one]) == 0b11
    # empty sum is {0}
    assert set_sum(k, []) == 1 << k.zero


def test_check_examples(z3_named):
    k = krasner()
    assert check(k, LinearSystem.make([[0, 0]]), (0, 0))
    s = sign_hyperfield()
    # x - y = 0 at x = y = 1
    assert check(s, LinearSystem.make([[0, 1]]), (0, 0))
    assert not check(s, LinearSystem.make([[0, 0]]), (0, 0))
    h = z3_named["BC"]
    assert check(h, LinearSystem.make([[0, 0, 0]]), (0, 0, 1))


def test_brute_force_solve_examples():
    k = krasner()
    assert brute_force_solve(k, LinearSystem.make([[0, 0]])) == (0, 0)
    s = sign_hyperfield()
    sol = brute_force_solve(s, LinearSystem.make([[0, 0]]))
    assert sol is not None and not is_trivial(s, sol)
    assert check(s, LinearSystem.make([[0, 0]]), sol)
    # forcing each variable to zero on its own leaves only the trivial
    # assignment
    z = s.zero
    assert brute_force_solve(s, LinearSystem.make([[0, z], [z, 0]])) is None


def test_brute_force_solve_validates_once(monkeypatch):
    # the equations are validated and their supports read once per call,
    # not once per assignment tried
    calls = 0
    planned = linear._planned

    def counted(*args):
        nonlocal calls
        calls += 1
        return planned(*args)

    monkeypatch.setattr(linear, "_planned", counted)
    s = sign_hyperfield()
    # every assignment is tried before the answer None
    assert brute_force_solve(s, LinearSystem.make([[0, s.zero], [s.zero, 0]])) is None
    assert calls == 1


def test_brute_force_budget(z3_named):
    h = z3_named["BCD"]
    with pytest.raises(CapacityError):
        brute_force_solve(h, LinearSystem.make([[0] * 12]), budget=1000)


# -- the structured solver ------------------------------------------------------


def test_ample_solve_requires_ample(z3_named):
    with pytest.raises(ValueError):
        ample_solve(z3_named["BD"], LinearSystem.make([[0, 0, 0]]))


def test_ample_solve_requires_fewer_equations(z3_named):
    with pytest.raises(ValueError):
        ample_solve(z3_named["BC"], LinearSystem.make([[0, 0], [0, 1]]))


def test_single_equation_three_vars(z3_named):
    h = z3_named["BC"]
    system = LinearSystem.make([[0, 0, 0]])
    sol = ample_solve(h, system)
    assert check(h, system, sol)
    assert not is_trivial(h, sol)


def test_four_term_equations_are_free(z3_named):
    h = z3_named["ABCD"]
    # a sum of four nonzero terms covers everything, so any all-nonzero
    # assignment satisfies the first equation
    eq = (0, 0, 0, 0)
    alone = LinearSystem.make([eq])
    for values in itertools.product(range(h.r), repeat=4):
        assert check(h, alone, values)
    system = LinearSystem.make([list(eq), [0, 1, h.zero, h.zero]])
    sol = ample_solve(h, system)
    assert check(h, system, sol)
    assert not is_trivial(h, sol)


def test_pile_fallback_case(z3_named):
    h = z3_named["BCD"]
    system = LinearSystem.make([[0, 0, 0, 3], [0, 1, 2, 3], [0, 2, 1, 3]], n_vars=4)
    sol = ample_solve(h, system)
    assert check(h, system, sol)
    assert not is_trivial(h, sol)


def ample_reps_order_up_to_3():
    out = [krasner()]
    z2 = AbelianGroup.from_spec("Z2")
    for m1 in (0, 1):
        bp = compute_blocks(z2, m1)
        out.append(build_candidate(bp, (1 << bp.b) - 1))
    z3bp = compute_blocks(AbelianGroup.from_spec("Z3"), 0)
    for labels in ["BC", "ABC", "ABD", "ACD", "BCD", "ABCD"]:
        out.append(build_candidate(z3bp, z3bp.subset_from_labels(labels)))
    return [h for h in out if is_ample(h) and verify_axioms(h).ok]


def test_ample_solve_exhaustive_small():
    """Every normalized system with up to 3 variables, every ample
    hyperfield of order <= 4."""
    reps = ample_reps_order_up_to_3()
    assert len(reps) == 9
    for h in reps:
        for system in iter_normalized_systems(h, 3):
            sol = ample_solve(h, system)
            assert check(h, system, sol)
            assert not is_trivial(h, sol)


def random_larger_systems():
    """(candidate, system) pairs: 150 seeded systems of 2-6 variables over
    each of five ample hyperfields of order 4 to 6."""
    rng = random.Random(57105)
    bases = []
    z3bp = compute_blocks(AbelianGroup.from_spec("Z3"), 0)
    bases.append(build_candidate(z3bp, z3bp.subset_from_labels("BC")))
    bases.append(build_candidate(z3bp, z3bp.subset_from_labels("ABCD")))
    z5bp = compute_blocks(AbelianGroup.from_spec("Z5"), 0)
    bases.append(build_candidate(z5bp, 0x2E))
    bases.append(build_candidate(z5bp, 0x7F))
    z4bp = compute_blocks(AbelianGroup.from_spec("Z4"), 0)
    bases.append(build_candidate(z4bp, 0x17))
    for h in bases:
        assert verify_axioms(h).ok and is_ample(h)
        for _ in range(150):
            n = rng.randrange(2, 7)
            k = rng.randrange(1, n)
            eqs = [
                [rng.randrange(0, h.r + 1) for _ in range(n)] for _ in range(k)
            ]
            yield h, LinearSystem.make(eqs, n_vars=n)


def test_ample_solve_random_larger_systems():
    for h, system in random_larger_systems():
        sol = ample_solve(h, system)
        assert check(h, system, sol)
        assert not is_trivial(h, sol)


def test_ample_solve_agrees_with_brute_force(z3_named):
    h = z3_named["BC"]
    for system in iter_normalized_systems(h, 3):
        structured = ample_solve(h, system)
        brute = brute_force_solve(h, system)
        assert brute is not None
        assert check(h, system, structured) and check(h, system, brute)


@functools.lru_cache(maxsize=None)
def ample_hyperfields_up_to_5():
    return tuple(
        h
        for g in abelian_groups_up_to(5)
        for m1 in g.involution_candidates()
        for _, h in certified_candidates(compute_blocks(g, m1))
    )


def zero_in_sum(h, eq, assignment):
    """Whether 0 lies in sum c_i x_i, folded left from {0} one h.add at a time."""
    zero = h.zero
    total = 1 << zero
    for c, x in zip(eq, assignment):
        term = zero if zero in (c, x) else h.group.mul(c, x)
        total = functools.reduce(int.__or__, (h.add(e, term) for e in h.elements_of(total)), 0)
    return bool(total >> zero & 1)


@settings(max_examples=150)
@given(data=st.data())
def test_ample_solve_against_brute_force_on_drawn_systems(data):
    hs = ample_hyperfields_up_to_5()
    h = hs[data.draw(st.integers(0, len(hs) - 1), label="hyperfield")]
    n = data.draw(st.integers(2, 4), label="n")
    k = data.draw(st.integers(1, n - 1), label="k")
    coeff = st.integers(0, h.r)  # h.r is the zero slot
    eqs = data.draw(st.lists(st.lists(coeff, min_size=n, max_size=n), min_size=k, max_size=k))
    system = LinearSystem.make(eqs, n_vars=n)
    assert brute_force_solve(h, system) is not None
    sol = ample_solve(h, system)
    assert len(sol) == n and any(x != h.zero for x in sol)
    assert all(zero_in_sum(h, eq, sol) for eq in system.equations)


def pile_system(rng, h):
    """A system whose three-term residue is a pile: v variables, each in
    exactly three of v three-term equations, plus 1-3 extra variables and
    fewer extra equations of 3-6 terms, all shuffled."""
    v = rng.randrange(3, 7)
    while True:
        slots = [x for x in range(v) for _ in range(3)]
        rng.shuffle(slots)
        triples = [slots[i : i + 3] for i in range(0, 3 * v, 3)]
        if all(len(set(tr)) == 3 for tr in triples):
            break
    n = v + rng.randrange(1, 4)
    rows = [{x: rng.randrange(h.r) for x in tr} for tr in triples]
    for _ in range(rng.randrange(n - v)):
        size = rng.randrange(3, min(6, n) + 1)
        rows.append({x: rng.randrange(h.r) for x in rng.sample(range(n), size)})
    perm = list(range(n))
    rng.shuffle(perm)
    rng.shuffle(rows)
    eqs = [[h.zero] * n for _ in rows]
    for eq, row in zip(eqs, rows):
        for x, c in row.items():
            eq[perm[x]] = c
    return LinearSystem.make(eqs, n_vars=n)


@functools.lru_cache(maxsize=None)
def ample_hyperfields_up_to_7():
    return tuple(
        h
        for g in abelian_groups_up_to(7)
        for m1 in g.involution_candidates()
        for _, h in certified_candidates(compute_blocks(g, m1))
    )


def pile_systems():
    """(candidate, system) pairs: 300 seeded pile systems, each over an
    ample block union of a group of order <= 7 drawn with the same seed."""
    hs = ample_hyperfields_up_to_7()
    assert len(hs) == 859
    rng = random.Random(8)
    for _ in range(300):
        h = rng.choice(hs)
        yield h, pile_system(rng, h)


def test_ample_solve_through_a_pile(monkeypatch):
    """Piles, and the anchors and pins with constants that follow them,
    over every ample block union of a group of order <= 7."""
    piles = 0
    solve_pile = linear._solve_pile

    def counted(*args):
        nonlocal piles
        piles += 1
        solve_pile(*args)

    monkeypatch.setattr(linear, "_solve_pile", counted)
    for i, (h, system) in enumerate(pile_systems()):
        sol = ample_solve(h, system)
        assert piles == i + 1
        assert any(x != h.zero for x in sol)
        assert all(zero_in_sum(h, eq, sol) for eq in system.equations)


# -- equation plans --------------------------------------------------------------


def test_a_warm_plan_still_validates(z3_named):
    h = z3_named["BC"]
    plans = linear._tables(h).plans
    planned = (0, 1, 2)
    ample_solve(h, LinearSystem(3, (planned,)))
    assert plans[planned] == (0, 1, 2)
    # the planned tuple inside a 2-variable system is still refused
    for call in (ample_solve, brute_force_solve, lambda h, s: check(h, s, (0, 0))):
        with pytest.raises(ValueError, match="ragged equation lengths"):
            call(h, LinearSystem(2, (planned,)))
    # a failing tuple raises on every call and is never planned
    for bad, message in (((0, -1, 1), "must be >= 0"), ((0, 4, 1), "out of range for r=3")):
        for _ in range(2):
            for call in (ample_solve, brute_force_solve, lambda h, s: check(h, s, (0, 0, 0))):
                with pytest.raises(ValueError, match=message):
                    call(h, LinearSystem(3, (planned, bad)))
        assert bad not in plans


def fresh(h):
    """A copy of h with no tables built yet."""
    return HyperfieldCandidate(h.group, h.minus_one, h.rows)


def test_plans_stay_under_their_cap():
    h = fresh(build_candidate(compute_blocks(AbelianGroup.from_spec("Z5"), 0), 0x7F))
    plans = linear._tables(h).plans
    rng = random.Random(24)
    sizes, solved = [], []
    while sum(len(s.equations) for s, _ in solved) <= 2 * linear.PLAN_CAP:
        n = rng.randrange(4, 8)
        eqs = [[rng.randrange(h.r + 1) for _ in range(n)] for _ in range(rng.randrange(1, n))]
        system = LinearSystem.make(eqs, n_vars=n)
        solved.append((system, ample_solve(h, system)))
        sizes.append(len(plans))
    assert max(sizes) <= linear.PLAN_CAP
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # the memo was emptied on the way
    for system, sol in solved:
        assert ample_solve(fresh(h), system) == sol


def test_plans_belong_to_their_candidate():
    """Candidates of different r, made, solved and dropped in turn, give
    the answers of fresh ones; the tuples mean different equations under
    each r, so plans handed from a dropped candidate would show."""
    by_r = {h.r: h for h in ample_hyperfields_up_to_5() if h.r >= 2}
    assert sorted(by_r) == [2, 3, 4, 5]
    rng = random.Random(7)
    systems = [
        LinearSystem.make([[rng.randrange(3) for _ in range(4)] for _ in range(rng.randrange(1, 4))])
        for _ in range(40)
    ]
    expected = {r: [ample_solve(fresh(h), s) for s in systems] for r, h in by_r.items()}
    for r, h in by_r.items():
        for system, sol in zip(systems, expected[r]):
            assert any(x != h.zero for x in sol)
            assert all(zero_in_sum(h, eq, sol) for eq in system.equations)
    for _ in range(3):
        for r, h in by_r.items():
            h = fresh(h)
            assert [ample_solve(h, s) for s in systems] == expected[r]
            del h
            gc.collect()


# over Z5; -1 is the zero coefficient
PILE_OF_EIGHT = [
    [-1, 0, -1, -1, 0, -1, 0, -1, -1],
    [-1, -1, 0, 0, 0, -1, -1, -1, -1],
    [-1, 0, -1, -1, -1, 0, -1, 0, -1],
    [0, -1, -1, 0, -1, -1, -1, 0, -1],
    [-1, -1, -1, -1, 0, 0, 0, -1, -1],
    [0, -1, 0, -1, -1, 0, -1, -1, -1],
    [-1, 0, -1, 0, -1, -1, -1, 0, -1],
    [0, -1, 0, -1, -1, -1, 0, -1, -1],
]


def test_pile_over_the_budget_is_refused(capsys, z5_blocks):
    # a pile of 8 variables has 6^8 > PILE_BUDGET assignments
    h = build_candidate(z5_blocks, (1 << z5_blocks.b) - 1)
    assert is_ample(h) and verify_axioms(h).ok
    system = LinearSystem.make([[h.zero if c == -1 else c for c in eq] for eq in PILE_OF_EIGHT])
    assert 6**8 > linear.PILE_BUDGET
    with pytest.raises(CapacityError, match="pile of 8 variables exceeds the search budget"):
        ample_solve(h, system)
    assert main(["fetvins", "--group", "Z5", "--system", json.dumps(PILE_OF_EIGHT)]) == 3
    assert "pile of 8 variables" in capsys.readouterr().err


SOLVE_ANSWERS = Path(__file__).parent / "data" / "solve_answers.json"


def solve_answer_digests():
    """For each family of systems, the sha256 of each candidate's
    ample_solve answers, in the order the family lists its systems."""
    families = {
        "normalized": ((h, s) for h in ample_hyperfields_up_to_5() for s in iter_normalized_systems(h, 3)),
        "random_larger": random_larger_systems(),
        "pile": pile_systems(),
    }
    out = {}
    for family, pairs in families.items():
        digests = {}
        for h, system in pairs:
            name = f"{h.group.spec_string()} -1={h.minus_one} pi={h.pi_bits()}"
            line = repr((system.n_vars, system.equations, ample_solve(h, system)))
            digests.setdefault(name, hashlib.sha256()).update(line.encode() + b"\n")
        out[family] = {name: d.hexdigest() for name, d in sorted(digests.items())}
    return out


def test_ample_solve_answers_match_the_golden_file():
    """The solver gives exactly the answers pinned in solve_answers.json:
    every normalized system of up to 3 variables over the 53 ample
    hyperfields of order <= 5, and the seeded systems of
    test_ample_solve_random_larger_systems and
    test_ample_solve_through_a_pile.  The file was written by the solver
    as it stood before its rules read the per-candidate -x/c rows and
    kept ties in a flat map, from the repository root, with

        PYTHONPATH=src:tests python -c "import json, test_linear as t;
            print(json.dumps(t.solve_answer_digests(), indent=1, sort_keys=True))"

    redirected into tests/data/solve_answers.json.  Changing an answer
    the solver gives means writing the file again, on purpose."""
    assert solve_answer_digests() == json.loads(SOLVE_ANSWERS.read_text())


# -- the FETVINS check ------------------------------------------------------------


def fetvins_reference(h, n_max):
    """check_fetvins as a loop over every assignment of every equation."""
    r, zero = h.r, h.zero
    checked = 0
    for n in range(2, n_max + 1):
        eqs = normalized_equations(h, n)
        assignments = list(itertools.product([zero] + list(range(r)), repeat=n))
        sat = [
            sum(1 << i for i, a in enumerate(assignments) if zero_in_sum(h, eq, a)) for eq in eqs
        ]
        for k in range(1, n):
            for combo in itertools.combinations_with_replacement(range(len(eqs)), k):
                checked += 1
                if not functools.reduce(int.__and__, (sat[i] for i in combo)) & ~1:
                    return FetvinsReport(False, n_max, checked, LinearSystem(n, tuple(eqs[i] for i in combo)))
    return FetvinsReport(True, n_max, checked, None)


def block_unions_up_to_3():
    for g in abelian_groups_up_to(3):
        for m1 in g.involution_candidates():
            bp = compute_blocks(g, m1)
            for mask in range(1 << bp.b):
                yield build_candidate(bp, mask)


def test_check_fetvins_matches_reference_on_small_block_unions():
    reports = [(check_fetvins(h, 3), fetvins_reference(h, 3)) for h in block_unions_up_to_3()]
    assert len(reports) == 26
    assert all(got == want for got, want in reports)
    assert sum(not got.ok for got, _ in reports) == 5


def test_check_fetvins_matches_reference_at_three_equations():
    """n_max = 4 carries the pairs' ANDs to three equations: every block
    union of order <= 2, and unions of Z3 where B and C fail only there."""
    z3 = compute_blocks(AbelianGroup.from_spec("Z3"), 0)
    cases = [h for h in block_unions_up_to_3() if h.r <= 2]
    cases += [from_labels(z3, labels) for labels in ("", "B", "C", "BC", "BD")]
    reports = [(check_fetvins(h, 4), fetvins_reference(h, 4)) for h in cases]
    assert all(got == want for got, want in reports)
    deepest = [got for got, _ in reports if not got.ok and len(got.counterexample.equations) == 3]
    assert len(deepest) == 2
    assert all(rep.systems_checked == 5467 and rep.counterexample.n_vars == 4 for rep in deepest)
    assert sum(got.ok for got, _ in reports) == 9


@settings(max_examples=20)
@given(data=st.data())
def test_check_fetvins_matches_reference_on_drawn_relations(data):
    spec = data.draw(st.sampled_from(["Z4", "Z2xZ2", "Z5"]), label="group")
    g = AbelianGroup.from_spec(spec)
    m1 = data.draw(st.sampled_from(g.involution_candidates()), label="minus_one")
    bits = data.draw(st.text("01", min_size=g.order**2, max_size=g.order**2), label="pi")
    h = HyperfieldCandidate.from_pi_bits(g, m1, bits)
    assert check_fetvins(h, 3) == fetvins_reference(h, 3)


def test_check_fetvins_budget_refuses_before_building_anything(monkeypatch, z3_named):
    # the budget is assignments times normalized equations, exact at the edge
    h = z3_named["BC"]
    edge = 4**2 * len(normalized_equations(h, 2))
    assert check_fetvins(h, 2, budget=edge).ok
    with pytest.raises(CapacityError):
        check_fetvins(h, 2, budget=edge - 1)

    def built(*args):
        raise AssertionError("work done before the budget check")

    monkeypatch.setattr(linear, "_tables", built)
    monkeypatch.setattr(linear, "normalized_equations", built)
    g = AbelianGroup.from_spec("Z1000")
    h = HyperfieldCandidate(g, 0, ((1 << 1000) - 1,) * 1000)
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        check_fetvins(h, 3, budget=100)
    assert time.perf_counter() - start < 1.0


def test_normalized_equations_match_the_filtered_product():
    for r in range(1, 8):
        h = HyperfieldCandidate(AbelianGroup.from_spec(f"Z{r}"), 0, (0,) * r)
        for n in range(1, 5):
            filtered = [
                coeffs
                for coeffs in itertools.product(range(r + 1), repeat=n)
                if next((c for c in coeffs if c != h.zero), None) == 0
            ]
            assert normalized_equations(h, n) == filtered


def test_normalized_system_counts(z3_named):
    assert sum(1 for _ in iter_normalized_systems(krasner(), 3)) == 38
    assert sum(1 for _ in iter_normalized_systems(z3_named["BC"], 3)) == 257


def test_check_fetvins_confirms(z3_named):
    for name in ["BC", "ABC", "ABD", "ACD", "BCD", "ABCD"]:
        rep = check_fetvins(z3_named[name], 3)
        assert rep.ok
        assert rep.systems_checked == 257
        assert rep.counterexample is None
    # fields have the property too, ample or not
    rep = check_fetvins(z3_named["D"], 3)
    assert rep.ok
    rep = check_fetvins(krasner(), 3)
    assert rep.ok and rep.systems_checked == 38


def test_check_fetvins_budget(z3_named):
    with pytest.raises(CapacityError):
        check_fetvins(z3_named["BC"], 3, budget=100)


def test_fetvins_report_str(z3_named):
    rep = check_fetvins(krasner(), 2)
    assert "solvable" in str(rep)
    bad = FetvinsReport(False, 3, 10, LinearSystem.make([[0, 1, 1]]))
    assert "counterexample with 3 variables" in str(bad)
