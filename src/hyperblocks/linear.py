"""Homogeneous linear systems over a hyperfield and a constructive solver
for ample ones.

An equation is a coefficient tuple (c_1, ..., c_n); an assignment
satisfies it when zero lies in the multivalued sum of the terms c_i x_i.
Over an ample hyperfield every system with fewer equations than variables
has a solution that is not identically zero, and ample_solve produces one
without exhaustive search over full assignments.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import NamedTuple

import numpy as np

from .errors import CapacityError
from .hyperfields import HyperfieldCandidate, is_ample

BRUTE_BUDGET = 10_000_000
PILE_BUDGET = 1_000_000


class SolverInvariantError(Exception):
    """The structured solver reached a state its own reasoning forbids."""


@dataclass(frozen=True)
class LinearSystem:
    """Equations given as dense coefficient tuples of element indices.

    Index r (the zero slot of the parent hyperfield) is a zero
    coefficient, so a plain field equation like x - y = 0 over a group of
    order r appears as (0, minus_one, r, ..., r).
    """

    n_vars: int
    equations: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, equations, n_vars: int | None = None) -> LinearSystem:
        eqs = tuple(tuple(int(c) for c in eq) for eq in equations)
        if n_vars is None:
            if not eqs:
                raise ValueError("n_vars required for an empty system")
            n_vars = len(eqs[0])
        for eq in eqs:
            if len(eq) != n_vars:
                raise ValueError("ragged equation lengths")
            if any(c < 0 for c in eq):
                raise ValueError("coefficients are element indices, must be >= 0")
        return cls(n_vars, eqs)


class _SumRows(dict):
    """sums[mask][e] is the set sum mask + e; a row is built on first use
    as the union of the add table's rows over the members of mask."""

    def __init__(self, add: list[list[int]]):
        super().__init__()
        self.add = add

    def __missing__(self, mask: int) -> list[int]:
        row = [0] * len(self.add)
        for x, add_x in enumerate(self.add):
            if mask >> x & 1:
                row = [a | b for a, b in zip(row, add_x)]
        self[mask] = row
        return row


class _Tables(NamedTuple):
    """What the linear layer reads of a candidate, built once per candidate."""

    zero: int
    prod: list[list[int]]  # (r+1) x (r+1): c * x, zero when either side is zero
    add: list[list[int]]  # the candidate's add_table
    ample: bool
    sums: _SumRows


def _tables(h: HyperfieldCandidate) -> _Tables:
    """The candidate's linear-layer tables, cached on it like add_table."""
    cached = getattr(h, "_linear_tables", None)
    if cached is None:
        zero = h.zero
        prod = [h.group.mul_row(c) + [zero] for c in range(zero)] + [[zero] * (zero + 1)]
        add = h.add_table()
        cached = _Tables(zero, prod, add, is_ample(h), _SumRows(add))
        h._linear_tables = cached
    return cached


def _validate(h: HyperfieldCandidate, system: LinearSystem) -> None:
    zero = h.zero
    for eq in system.equations:
        for c in eq:
            if c > zero:
                raise ValueError(f"coefficient index {c} out of range for r={h.r}")


def term_element(h: HyperfieldCandidate, coeff: int, value: int) -> int:
    """The element c * x; zero if either side is zero."""
    return _tables(h).prod[coeff][value]


def _element_sum(t: _Tables, elements) -> int:
    """Multivalued sum of single elements, folded left from {0}."""
    sums = t.sums
    total = 1 << t.zero
    for e in elements:
        total = sums[total][e]
    return total


def set_sum(h: HyperfieldCandidate, masks) -> int:
    """Multivalued sum of a sequence of element sets; empty sum is {0}."""
    t = _tables(h)
    total = 1 << t.zero
    for m in masks:
        total = h.set_add(total, m, t.add)
    return total


def _term_sum(t: _Tables, eq: tuple[int, ...], assignment) -> int:
    prod, sums = t.prod, t.sums
    total = 1 << t.zero
    for c, x in zip(eq, assignment):
        total = sums[total][prod[c][x]]
    return total


def equation_sum(h: HyperfieldCandidate, eq: tuple[int, ...], assignment) -> int:
    return _term_sum(_tables(h), eq, assignment)


def _holds(t: _Tables, system: LinearSystem, assignment) -> bool:
    zero_bit = 1 << t.zero
    for eq in system.equations:
        if not _term_sum(t, eq, assignment) & zero_bit:
            return False
    return True


def check(h: HyperfieldCandidate, system: LinearSystem, assignment) -> bool:
    """True when every equation's term sum contains zero."""
    if len(assignment) != system.n_vars:
        raise ValueError("assignment length does not match variable count")
    _validate(h, system)
    return _holds(_tables(h), system, assignment)


def is_trivial(h: HyperfieldCandidate, assignment) -> bool:
    zero = h.zero
    return all(x == zero for x in assignment)


def brute_force_solve(
    h: HyperfieldCandidate, system: LinearSystem, budget: int = BRUTE_BUDGET
) -> tuple[int, ...] | None:
    """First nontrivial solution in an order that tries zeroes first, so
    sparse solutions surface before dense ones; None if there is none."""
    _validate(h, system)
    n = system.n_vars
    domain = [h.zero] + list(range(h.r))
    total = (h.r + 1) ** n
    if total > budget:
        raise CapacityError(f"{total} assignments exceed the budget of {budget}")
    for idx in range(1, total):  # index 0 is the all-zero assignment
        digits = []
        t = idx
        for _ in range(n):
            digits.append(domain[t % (h.r + 1)])
            t //= h.r + 1
        assignment = tuple(digits)
        if check(h, system, assignment):
            return assignment
    return None


# -- structured solver ---------------------------------------------------------


# a working equation: the coefficient of each root variable, and the fixed
# elements contributed by variables assigned along the way
_Eq = tuple[dict[int, int], list[int]]


def _pick(mask: int, zero: int) -> int:
    """Least nonzero element of a set, falling back to zero."""
    nonzero = mask & ~(1 << zero)
    if nonzero:
        return (nonzero & -nonzero).bit_length() - 1
    if mask & (1 << zero):
        return zero
    raise SolverInvariantError("empty solution set")


def _solution_set(h: HyperfieldCandidate, t: _Tables, coeff: int, rest_mask: int) -> int:
    """Values v with zero in coeff * v + rest: v ranges over -(rest)/coeff."""
    row = t.prod[t.prod[h.minus_one][h.group.inv(coeff)]]
    out = 0
    while rest_mask:
        low = rest_mask & -rest_mask
        out |= 1 << row[low.bit_length() - 1]
        rest_mask ^= low
    return out


def ample_solve(h: HyperfieldCandidate, system: LinearSystem) -> tuple[int, ...]:
    """Nontrivial solution of a system with fewer equations than variables.

    Reduction rules shrink the system: one-term equations pin a variable,
    two-term equations tie one variable to another multiplicatively, and
    duplicate terms merge through the multivalued sum of their
    coefficients.  Any equation left with at least four terms holds for
    every assignment without zeroes, so only the three-term residue needs
    work: variables touching at most two such equations are deferred and
    solved backwards (two at once where needed, which is where ampleness
    enters), and a residue where every variable is pinned three ways is
    small enough to search outright.
    """
    t = _tables(h)
    if not t.ample:
        raise ValueError("solver requires an ample hyperfield")
    n, k = system.n_vars, len(system.equations)
    if k >= n:
        raise ValueError(f"need fewer equations than variables, got {k} >= {n}")
    _validate(h, system)
    prod, add = t.prod, t.add
    zero = t.zero
    zero_bit = 1 << zero

    parent: dict[int, tuple[int, int]] = {}  # var -> (ancestor, factor)
    assignment: dict[int, int] = {}  # root var -> element

    def find(x: int) -> tuple[int, int]:
        if x not in parent:
            return x, 0
        p, f = parent[x]
        root, f2 = find(p)
        resolved = (root, prod[f2][f])
        parent[x] = resolved
        return resolved

    def normalize(eq: _Eq) -> _Eq:
        terms: dict[int, int] = {}
        consts = list(eq[1])
        for var, coeff in eq[0].items():
            root, factor = find(var)
            coeff = prod[coeff][factor]
            if root in assignment:
                e = prod[coeff][assignment[root]]
                if e != zero:
                    consts.append(e)
                continue
            if root not in terms:
                terms[root] = coeff
                continue
            # duplicate variable: merge through the coefficient sum
            merged = add[terms[root]][coeff]
            if merged & zero_bit:
                del terms[root]  # cancellation is available, take it
            else:
                terms[root] = (merged & -merged).bit_length() - 1
        return terms, consts

    pending = [({v: c for v, c in enumerate(eq) if c != zero}, []) for eq in system.equations]
    deferred = []  # (variable, its residue equations), unwound in reverse

    # Every pass but the last drops an equation or settles the variables
    # of a pile, so at most n + k + 1 passes run.
    while True:
        kept = []
        for eq in pending:
            terms, consts = normalize(eq)
            if len(terms) == 2 and consts:
                # anchor the lower variable, which leaves a pin of the other
                assignment[min(terms)] = 0
                terms, consts = normalize((terms, consts))
            if not terms:
                if not _element_sum(t, consts) & zero_bit:
                    raise SolverInvariantError("constant equation misses zero")
            elif len(terms) == 1:
                (var, coeff), = terms.items()
                rest = _element_sum(t, consts)
                assignment[var] = _pick(_solution_set(h, t, coeff, rest), zero)
            elif len(terms) == 2 and not consts:
                (v1, c1), (v2, c2) = sorted(terms.items())
                # zero in c1 x1 + c2 x2 exactly when x2 = -c1/c2 * x1
                factor = prod[h.minus_one][prod[h.group.inv(c2)][c1]]
                parent[v2] = (v1, factor)
            else:
                kept.append((terms, consts))
        dropped = len(kept) < len(pending)
        pending = kept
        if dropped:
            continue

        # only equations of weight >= 3 remain, each normalized in this pass
        residue = [eq for eq in pending if len(eq[0]) == 3 and not eq[1]]
        if not residue:
            break
        occurrences = Counter(v for terms, _ in residue for v in terms)
        light = [v for v, cnt in occurrences.items() if cnt <= 2]
        if light:
            var = min(light)
            mine = [eq for eq in residue if var in eq[0]]
            deferred.append((var, mine))
            pending = [eq for eq in pending if eq not in mine]
        else:
            # the pile's equations turn constant and drop in the next pass
            _solve_pile(t, residue, assignment)

    # equations still present all have weight >= 4 and at least three
    # variable terms; nonzero defaults satisfy them
    free = [v for v in range(n) if v not in parent and v not in assignment]
    for var in free:
        assignment[var] = 0

    for var, eqs in reversed(deferred):
        mask = (zero_bit << 1) - 1  # every element
        for terms, _ in eqs:
            rest = _element_sum(t, (prod[c][assignment[v]] for v, c in terms.items() if v != var))
            mask &= _solution_set(h, t, terms[var], rest)
        if not mask:
            raise SolverInvariantError("deferred variable has no consistent value")
        assignment[var] = _pick(mask, zero)

    result = []
    for var in range(n):
        root, factor = find(var)
        result.append(prod[factor][assignment[root]])
    solution = tuple(result)
    # the solver's correctness gate; the system was validated on entry
    if is_trivial(h, solution) or not _holds(t, system, solution):
        raise SolverInvariantError(f"solver produced an invalid assignment {solution}")
    return solution


def _solve_pile(t: _Tables, pile: list[_Eq], assignment: dict[int, int]) -> None:
    """Exhaust a residue where every variable meets three or more
    equations; nonzero values are tried first, the all-zero assignment is
    the final resort and always works."""
    pile_vars = sorted({v for terms, _ in pile for v in terms})
    total = (t.zero + 1) ** len(pile_vars)
    if total > PILE_BUDGET:
        raise CapacityError(f"pile of {len(pile_vars)} variables exceeds the search budget")
    prod, zero_bit = t.prod, 1 << t.zero
    for values in product(range(t.zero + 1), repeat=len(pile_vars)):  # zero, index r, comes last
        trial = dict(zip(pile_vars, values))
        if all(
            _element_sum(t, (prod[c][trial[v]] for v, c in terms.items())) & zero_bit
            for terms, _ in pile
        ):
            assignment.update(trial)
            return
    raise SolverInvariantError("pile admits no assignment, not even zero")


# -- existence sweep -----------------------------------------------------------


def normalized_equations(h: HyperfieldCandidate, n: int) -> list[tuple[int, ...]]:
    """All coefficient tuples whose first nonzero coefficient is the
    identity; scaling makes every equation equivalent to one of these."""
    out = []
    for coeffs in product(range(h.r + 1), repeat=n):
        lead = next((c for c in coeffs if c != h.zero), None)
        if lead == 0:
            out.append(coeffs)
    return out


def iter_normalized_systems(h: HyperfieldCandidate, n_max: int):
    """Every system with fewer equations than variables, up to scaling of
    individual equations, for 2 <= n <= n_max variables."""
    for n in range(2, n_max + 1):
        eqs = normalized_equations(h, n)
        for k in range(1, n):
            for combo in combinations_with_replacement(eqs, k):
                yield LinearSystem(n, combo)


@dataclass(frozen=True)
class FetvinsReport:
    ok: bool
    n_max: int
    systems_checked: int
    counterexample: LinearSystem | None

    def __str__(self) -> str:
        if self.ok:
            return f"all {self.systems_checked} systems solvable up to {self.n_max} variables"
        return f"counterexample with {self.counterexample.n_vars} variables"


def check_fetvins(
    h: HyperfieldCandidate, n_max: int = 3, budget: int = BRUTE_BUDGET
) -> FetvinsReport:
    """Verify that every system with fewer equations than variables has a
    nontrivial solution, for all variable counts up to n_max.

    For each variable count n one zero-sum table, with an entry for every
    element tuple (t_1, ..., t_n) saying whether zero lies in
    t_1 + ... + t_n, is built from the add table by boolean matrix
    products, in the left-fold order of set_sum.  An equation's term
    elements c_i x_i come from the (r+1) x (r+1) product table, so the
    bitset of assignments satisfying it is one gather from the zero-sum
    table.  A system is solvable exactly when the intersection of its
    equations' bitsets contains more than the all-zero assignment.  The
    budget bounds assignments times equations and is checked before the
    equations are listed or any table is built.  No array holds more than
    (r+1)^(n+1) entries: the add table as bits has (r+1)^3, every other
    array at most (r+1)^n.
    """
    r = h.r
    checked = 0
    # sums[i, e]: whether e lies in t_1 + ... + t_{n-1}, rows i = (t_1, ..., t_{n-1}) row-major
    sums = None
    for n in range(2, n_max + 1):
        total = (r + 1) ** n
        n_eqs = sum((r + 1) ** j for j in range(n))  # len(normalized_equations(h, n))
        if total * n_eqs > budget:
            raise CapacityError(f"{total * n_eqs} equation evaluations exceed the budget")
        eqs = normalized_equations(h, n)
        if sums is None:
            t = _tables(h)
            # add_bits[e, x, f]: whether f lies in e + x
            add_bits = np.array(
                [[[m >> f & 1 for f in range(r + 1)] for m in row] for row in t.add], dtype=bool
            )
            # assignment digits run zero first, so assignment 0 is the all-zero one
            terms = np.array(t.prod)[:, [t.zero] + list(range(r))]
            sums = add_bits[t.zero]  # 0 + t_1
        else:
            sums = (sums @ add_bits.reshape(r + 1, -1)).reshape(-1, r + 1)
        zero_sum = (sums @ add_bits[:, :, t.zero]).reshape((r + 1,) * n)
        sat = []
        for eq in eqs:
            bits = zero_sum[np.ix_(*terms[list(eq)])].ravel()
            sat.append(int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little"))
        trivial_bit = 1  # assignment 0 is all-zero
        for k in range(1, n):
            for combo in combinations_with_replacement(range(len(eqs)), k):
                m = sat[combo[0]]
                for i in combo[1:]:
                    m &= sat[i]
                checked += 1
                if not m & ~trivial_bit:
                    system = LinearSystem(n, tuple(eqs[i] for i in combo))
                    return FetvinsReport(False, n_max, checked, system)
    return FetvinsReport(True, n_max, checked, None)
