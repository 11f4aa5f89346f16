"""Homogeneous linear systems over a hyperfield and a constructive solver
for ample ones.

An equation is a coefficient tuple (c_1, ..., c_n); an assignment
satisfies it when zero lies in the multivalued sum of the terms c_i x_i.
Over an ample hyperfield every system with fewer equations than variables
has a solution that is not identically zero, and ample_solve produces one
without exhaustive search over full assignments.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from itertools import combinations_with_replacement, product, repeat
from typing import NamedTuple

import numpy as np

from .errors import CapacityError
from .hyperfields import HyperfieldCandidate, bit_rows, is_ample

BRUTE_BUDGET = 10_000_000
PILE_BUDGET = 1_000_000
PLAN_CAP = 1024  # equation plans a candidate keeps before it drops them all


class SolverInvariantError(Exception):
    """The structured solver reached a state its own reasoning forbids."""


class LinearSystem(NamedTuple):
    """Equations given as dense coefficient tuples of element indices.

    Index r (the zero slot of the parent hyperfield) is a zero
    coefficient, so a plain field equation like x - y = 0 over a group of
    order r appears as (0, minus_one, r, ..., r).  A system built
    directly must hold tuples, since the solver keys its equation plans
    by them; make builds tuples from any integer sequences.  Being a
    named tuple, a system equals the plain tuple (n_vars, equations).
    """

    n_vars: int
    equations: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, equations, n_vars: int | None = None) -> LinearSystem:
        """Equations from integer coefficients; a float, a string or a bool
        is refused with TypeError, never truncated or read as 0 or 1."""
        eqs = tuple(tuple(_coefficient(c) for c in eq) for eq in equations)
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


def _coefficient(c) -> int:
    if isinstance(c, bool):
        raise TypeError(f"coefficient {c!r} is a bool, not an element index")
    return operator.index(c)


class _SolutionSets(dict):
    """solved[c, rest] is the set of values v with zero in c v + rest: the
    image of rest under x -> -x/c, read from negdiv[c].  An entry is built
    on first use, so the table holds only the pairs a solve asked for."""

    def __init__(self, negdiv: list[list[int]]):
        super().__init__()
        self.negdiv = negdiv

    def __missing__(self, key: tuple[int, int]) -> int:
        c, rest = key
        row, out = self.negdiv[c], 0
        while rest:
            low = rest & -rest
            out |= 1 << row[low.bit_length() - 1]
            rest ^= low
        self[key] = out
        return out


class _Tables(NamedTuple):
    """What the linear layer reads of a candidate, built once per candidate."""

    zero: int
    prod: list[list[int]]  # (r+1) x (r+1): c * x, zero when either side is zero
    add: list[list[int]]  # the candidate's add_table
    ample: bool
    sums: dict[int, list[int]]  # the candidate's sum table: sums[mask][e] = mask + e
    # r x (r+1): negdiv[c][x] = -x/c, zero when x is zero.  Row c solves the
    # pin c v + x = 0 for v, and negdiv[c2][c1] = -c1/c2 is the factor of
    # the tie c1 x1 + c2 x2 = 0, x2 = -c1/c2 x1.
    negdiv: list[list[int]]
    solved: _SolutionSets  # the pins' solution sets, read through negdiv
    # equation tuple -> its support, the positions of its nonzero
    # coefficients in variable order; only range-checked tuples are stored
    plans: dict[tuple[int, ...], tuple[int, ...]]


def _tables(h: HyperfieldCandidate) -> _Tables:
    """The candidate's linear-layer tables, cached on it beside its sum table."""
    cached = getattr(h, "_linear_tables", None)
    if cached is None:
        zero = h.zero
        prod = [h.group.mul_row(c) + [zero] for c in range(zero)] + [[zero] * (zero + 1)]
        negdiv = [prod[prod[h.minus_one][h.group.inv(c)]] for c in range(zero)]
        cached = _Tables(zero, prod, h.add_table(), is_ample(h), h.sums, negdiv, _SolutionSets(negdiv), {})
        h._linear_tables = cached
    return cached


def _plan(t: _Tables, eq: tuple[int, ...]) -> tuple[int, ...]:
    """Range-check an equation the candidate has not planned and store its
    support; the memo is emptied when it holds PLAN_CAP plans."""
    zero = t.zero
    for c in eq:
        if not 0 <= c <= zero:
            if c < 0:
                raise ValueError("coefficients are element indices, must be >= 0")
            raise ValueError(f"coefficient index {c} out of range for r={zero}")
    if len(t.plans) >= PLAN_CAP:
        t.plans.clear()
    support = t.plans[eq] = tuple([var for var, c in enumerate(eq) if c != zero])
    return support


def _planned(t: _Tables, system: LinearSystem) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each equation paired with its support, read from its plan.  Every
    call checks the lengths; coefficients are checked when an equation is
    first planned."""
    n, plans = system.n_vars, t.plans
    planned = []
    for eq in system.equations:
        if len(eq) != n:
            raise ValueError("ragged equation lengths")
        support = plans.get(eq)
        planned.append((eq, _plan(t, eq) if support is None else support))
    return planned


def set_sum(h: HyperfieldCandidate, masks) -> int:
    """Multivalued sum of a sequence of element sets, folded from the
    left; empty sum is {0}."""
    return reduce(h.set_add, masks, 1 << h.zero)


def _holds(t: _Tables, planned, assignment) -> bool:
    """Whether zero lies in the sum of the terms c_i x_i of every
    (equation, support) pair.  The sum is folded over the support only,
    which gives the same set: a zero coefficient's term is zero, and
    S + 0 = S for every set S."""
    prod, sums = t.prod, t.sums
    zero_bit = 1 << t.zero
    for eq, support in planned:
        total = zero_bit
        for var in support:
            total = sums[total][prod[eq[var]][assignment[var]]]
        if not total & zero_bit:
            return False
    return True


def check(h: HyperfieldCandidate, system: LinearSystem, assignment) -> bool:
    """True when every equation's term sum contains zero; the assignment's
    entries are element indices 0..r, r being zero."""
    if len(assignment) != system.n_vars:
        raise ValueError("assignment length does not match variable count")
    t = _tables(h)
    if not all(0 <= x <= t.zero for x in assignment):
        raise ValueError(f"assignment entries are element indices 0..{t.zero}, got {tuple(assignment)}")
    return _holds(t, _planned(t, system), assignment)


def is_trivial(h: HyperfieldCandidate, assignment) -> bool:
    zero = h.zero
    return all(x == zero for x in assignment)


def brute_force_solve(
    h: HyperfieldCandidate, system: LinearSystem, budget: int = BRUTE_BUDGET
) -> tuple[int, ...] | None:
    """First nontrivial solution in an order that tries zeroes first, so
    sparse solutions surface before dense ones; None if there is none."""
    t = _tables(h)
    planned = _planned(t, system)
    n = system.n_vars
    domain = [h.zero] + list(range(h.r))
    total = (h.r + 1) ** n
    if total > budget:
        raise CapacityError(f"{total} assignments exceed the budget of {budget}")
    for idx in range(1, total):  # index 0 is the all-zero assignment
        digits = []
        rem = idx
        for _ in range(n):
            digits.append(domain[rem % (h.r + 1)])
            rem //= h.r + 1
        assignment = tuple(digits)
        if _holds(t, planned, assignment):
            return assignment
    return None


# -- structured solver ---------------------------------------------------------


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

    A working equation is a dense coefficient row, zero where a variable
    is absent (the input tuple until something is pinned or tied), its
    support (the input tuple's plan, then the row's nonzero positions),
    and the sum of the constants that assigned variables contributed,
    None while there are none.  Every rule is one read from the candidate's
    tables: a pin reads its solution set -rest/c from the solved table, a
    tie reads its factor -c1/c2 from the -x/c rows.  Per-variable lists
    hold ties and values: x_var = factors[var] * x_roots[var] for a tied
    variable, roots[var] is None for a root, a tie relabels the variables
    that pointed at the one it ties, and values[root] is None until set.
    """
    zero, prod, add, ample, sums, negdiv, solved, plans = t = _tables(h)
    if not ample:
        raise ValueError("solver requires an ample hyperfield")
    n, equations = system
    if len(equations) >= n:
        raise ValueError(f"need fewer equations than variables, got {len(equations)} >= {n}")
    planned, pending = [], []
    for eq in equations:
        if len(eq) != n:
            raise ValueError("ragged equation lengths")
        support = plans.get(eq)
        if support is None:
            support = _plan(t, eq)
        planned.append((eq, support))
        pending.append((eq, support, None))
    zero_bit = 1 << zero

    roots, factors, values = [None] * n, [0] * n, [None] * n
    settled = False  # until something is pinned or tied, every equation is normal
    deferred = []  # (variable, its residue rows and their supports), unwound in reverse

    # Every pass but the last drops an equation or settles the variables
    # of a pile, so at most n + k + 1 passes run.
    while pending:
        kept, residue = [], []  # residue: the kept rows of three terms and no constant
        for row, terms, rest in pending:
            if settled:
                # normalize: variables become roots, assigned roots become
                # constants, and duplicate roots merge, in variable order,
                # through the sum of their coefficients
                old, row = row, [zero] * n
                for var in terms:
                    coeff, root = old[var], roots[var]
                    if root is not None:
                        coeff, var = prod[coeff][factors[var]], root
                    value = values[var]
                    if value is not None:
                        e = prod[coeff][value]
                        if e != zero:
                            rest = sums[zero_bit if rest is None else rest][e]
                    elif row[var] == zero:
                        row[var] = coeff
                    else:
                        merged = add[row[var]][coeff]
                        # cancellation is available, take it
                        row[var] = zero if merged & zero_bit else (merged & -merged).bit_length() - 1
                terms = []
                for var, coeff in enumerate(row):
                    if coeff != zero:
                        terms.append(var)
            weight = len(terms)
            if weight > 2:
                kept.append((row, terms, rest))
                if weight == 3 and rest is None:
                    residue.append((row, terms))
                continue
            if weight == 2 and rest is not None:
                # anchor the lower variable at 1, which leaves a pin of the other
                var, terms, weight = terms[0], terms[1:], 1
                values[var] = 0
                rest = sums[rest][row[var]]
            if weight == 0:
                if rest is not None and not rest & zero_bit:
                    raise SolverInvariantError("constant equation misses zero")
            elif weight == 1:
                var = terms[0]
                mask = solved[row[var], zero_bit if rest is None else rest]
                nonzero = mask & ~zero_bit
                if not mask:
                    raise SolverInvariantError("empty solution set")
                values[var] = (nonzero & -nonzero).bit_length() - 1 if nonzero else zero
                settled = True
            else:
                v1, v2 = terms
                # zero in c1 x1 + c2 x2 exactly when x2 = -c1/c2 * x1
                factor = negdiv[row[v2]][row[v1]]
                for var, root in enumerate(roots):
                    if root == v2:
                        roots[var], factors[var] = v1, prod[factors[var]][factor]
                roots[v2], factors[v2] = v1, factor
                settled = True
        dropped = len(kept) < len(pending)
        pending = kept
        if dropped:
            continue

        # only equations of weight >= 3 remain, each normalized in this pass
        if not residue:
            break
        occurrences = [0] * n
        for _, terms in residue:
            for var in terms:
                occurrences[var] += 1
        for var, count in enumerate(occurrences):
            if 0 < count <= 2:
                # the variable's residue rows leave with it, in their order
                rows, pending = [], []
                for entry in kept:
                    row, terms, rest = entry
                    if rest is None and len(terms) == 3 and row[var] != zero:
                        rows.append((row, terms))
                    else:
                        pending.append(entry)
                deferred.append((var, rows))
                break
        else:
            # the pile's equations turn constant and drop in the next pass
            _solve_pile(t, residue, values)
            settled = True

    # equations still present all have weight >= 4 and at least three
    # variable terms; nonzero defaults satisfy them
    for var, root in enumerate(roots):
        if root is None and values[var] is None:
            values[var] = 0

    for var, rows in reversed(deferred):
        mask = (zero_bit << 1) - 1  # every element
        for row, terms in rows:
            rest = zero_bit
            for v in terms:
                if v != var:
                    rest = sums[rest][prod[row[v]][values[v]]]
            mask &= solved[row[var], rest]
        if not mask:
            raise SolverInvariantError("deferred variable has no consistent value")
        nonzero = mask & ~zero_bit
        values[var] = (nonzero & -nonzero).bit_length() - 1 if nonzero else zero

    for var, root in enumerate(roots):
        if root is not None:
            values[var] = prod[factors[var]][values[root]]
    solution = tuple(values)
    # the solver's correctness gate: nontrivial, and zero in every
    # equation's sum; the system was validated on entry
    if solution.count(zero) == n or not _holds(t, planned, solution):
        raise SolverInvariantError(f"solver produced an invalid assignment {solution}")
    return solution


def _solve_pile(t: _Tables, pile: list, values: list) -> None:
    """Exhaust a residue, (row, support) pairs, where every variable meets
    three or more equations, into values: nonzero values are tried first,
    the all-zero assignment is the final resort and always works."""
    zero = t.zero
    pile_vars = sorted({v for _, support in pile for v in support})
    total = (zero + 1) ** len(pile_vars)
    if total > PILE_BUDGET:
        raise CapacityError(f"pile of {len(pile_vars)} variables exceeds the search budget")
    for trial in product(range(zero + 1), repeat=len(pile_vars)):  # zero, index r, comes last
        for v, x in zip(pile_vars, trial):
            values[v] = x
        if _holds(t, pile, values):
            return
    raise SolverInvariantError("pile admits no assignment, not even zero")


# -- existence sweep -----------------------------------------------------------


def normalized_equations(h: HyperfieldCandidate, n: int) -> list[tuple[int, ...]]:
    """All coefficient tuples whose first nonzero coefficient is the
    identity, in the order of product(range(r + 1), repeat=n) (zero, index
    r, last); scaling makes every equation equivalent to one of these."""
    zero = h.zero
    return [
        (zero,) * j + (0,) + rest
        for j in range(n)
        for rest in product(range(zero + 1), repeat=n - 1 - j)
    ]


def iter_normalized_systems(h: HyperfieldCandidate, n_max: int):
    """Every system with fewer equations than variables, up to scaling of
    individual equations, for 2 <= n <= n_max variables."""
    for n in range(2, n_max + 1):
        eqs = normalized_equations(h, n)
        for k in range(1, n):
            # tuple.__new__ is what LinearSystem(n, combo) calls, minus a Python frame per system
            combos = combinations_with_replacement(eqs, k)
            yield from map(tuple.__new__, repeat(LinearSystem), zip(repeat(n), combos))


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


def _extended(blocks, sat, cap: int):
    """Blocks of (partial ANDs, equation combos) in combinations_with_replacement
    order, each combo extended by every equation j >= its last, cut into blocks of
    at most cap rows; a prefix's AND is taken once for all its extensions."""
    m = len(sat)
    for ands, combos in blocks:
        ends = np.cumsum(m - combos[:, -1])  # row s's extensions end at ends[s]
        for lo in range(0, int(ends[-1]), cap):
            pos = np.arange(lo, min(lo + cap, int(ends[-1])))
            s = np.searchsorted(ends, pos, side="right")
            j = pos - ends[s] + m
            yield ands[s] & sat[j], np.column_stack([combos[s], j])


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
    equations' packed bitsets, the all-zero assignment's bit cleared, is
    not empty; the systems of k equations are array ANDs, each from its
    prefix's, in combinations_with_replacement order, so the first empty
    row is the first counterexample.  The budget bounds assignments times
    equations and is checked before the equations are listed or any table
    is built; it bounds every equation's bits, gathered at once by
    broadcasting each variable's column of term elements along its own
    axis, and each block of partial ANDs to budget / (r+1)^n rows.
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
            flat = [m for row in t.add for m in row]
            add_bits = bit_rows(flat, r + 1).reshape((r + 1,) * 3).astype(bool)
            # assignment digits run zero first, so assignment 0 is the all-zero one
            terms = np.array(t.prod)[:, [t.zero] + list(range(r))]
            sums = add_bits[t.zero]  # 0 + t_1
        else:
            sums = (sums @ add_bits.reshape(r + 1, -1)).reshape(-1, r + 1)
        zero_sum = (sums @ add_bits[:, :, t.zero]).reshape((r + 1,) * n)
        # sat[j, (a_1, ..., a_n)]: whether equation j holds at the assignment, row-major
        coeffs = np.array(eqs)
        index = tuple(
            terms[coeffs[:, i]].reshape((-1,) + (1,) * i + (r + 1,) + (1,) * (n - 1 - i))
            for i in range(n)
        )
        sat = zero_sum[index].reshape(len(eqs), -1)
        sat[:, 0] = False  # assignment 0 is the all-zero one
        sat = np.packbits(sat, axis=1)
        for k in range(1, n):
            blocks = [(sat, np.arange(len(eqs))[:, None])]
            for _ in range(k - 1):
                blocks = _extended(blocks, sat, max(1, budget // total))
            for ands, combos in blocks:
                solvable = ands.any(axis=1)
                if not solvable.all():
                    first = int(solvable.argmin())
                    system = LinearSystem(n, tuple(eqs[i] for i in combos[first].tolist()))
                    return FetvinsReport(False, n_max, checked + first + 1, system)
                checked += len(ands)
    return FetvinsReport(True, n_max, checked, None)
