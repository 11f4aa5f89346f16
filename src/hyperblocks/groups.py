"""Finite abelian groups in invariant-factor form.

Elements are plain ints in ``range(order)``, encoding vectors over the
invariant factors in mixed radix, row-major (the last factor varies
fastest).  Index 0 is the identity, written ``1`` because the group is
the multiplicative group of a hyperfield.  Every group multiplies by
one Cayley table, shared by equal groups, of at most TABLE_ENTRY_BOUND
entries: a group of order above 1024 raises CapacityError when built.
"""
from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Iterator

import numpy as np

from .errors import CapacityError

# entries any group table may hold: order^2 for the Cayley table (so order
# <= 1024), automorphisms times order for an automorphism enumeration
TABLE_ENTRY_BOUND = 1 << 20
CAYLEY_CACHE_SIZE = 64  # groups whose tables a process keeps, each at most 1024 x 1024

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _prime_factors(n: int) -> dict[int, int]:
    """Prime -> exponent for n >= 1, by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=CAYLEY_CACHE_SIZE)
def _cayley_table(factors: tuple[int, ...]) -> tuple[list[list[int]], list[int]]:
    """Multiplication rows and inverses of the group with these invariant
    factors, built once per process and shared by its instances, which
    never mutate them: mixed-radix vectors summed digit-wise, one factor
    at a time, so no temporary grows with the number of factors.  Entries
    are the shared ints of one list, so rows hold only pointers (8.7 MiB
    at order 1024, where an int object per entry would take 32 MiB)."""
    order = prod(factors)
    elements = np.arange(order)
    table = np.zeros((order, order), dtype=np.int64)
    weight = order
    for d in factors:
        weight //= d
        digit = elements // weight % d
        table += np.add.outer(digit, digit) % d * weight
    names = list(range(order))
    rows = [list(map(names.__getitem__, row.tolist())) for row in table]
    return rows, [row.index(0) for row in rows]


def invariant_factors(factors: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """Normalize any list of cyclic orders to invariant-factor form d_1 | d_2 | ... .

    The empty list is the trivial group.  Example: [4, 2] -> (2, 4).
    """
    for d in factors:
        if d < 2:
            raise ValueError(f"cyclic factor must be >= 2, got {d}")
    # Collect prime powers per prime, align the largest together.
    per_prime: dict[int, list[int]] = {}
    for d in factors:
        for p, e in _prime_factors(d).items():
            per_prime.setdefault(p, []).append(e)
    width = max((len(v) for v in per_prime.values()), default=0)
    out = [1] * width
    for p, exps in per_prime.items():
        exps = sorted(exps, reverse=True)
        for i, e in enumerate(exps):
            out[i] *= p**e
    out = [d for d in out if d > 1]
    out.reverse()  # ascending, so each divides the next
    return tuple(out)


class AbelianGroup:
    """A finite abelian group, normalized so equal groups compare equal."""

    def __init__(self, factors: list[int] | tuple[int, ...] = ()):
        order = prod(factors)
        # budget checked before normalizing, whose trial division stalls on a
        # huge prime; a factor below 2 is left for invariant_factors to refuse
        if min(factors, default=2) >= 2 and order * order > TABLE_ENTRY_BOUND:
            raise CapacityError(
                f"the Cayley table of an order-{order} group exceeds the "
                f"{TABLE_ENTRY_BOUND}-entry budget"
            )
        self.factors = invariant_factors(tuple(factors))
        self.order = order  # normalizing keeps the product
        # radix weights for the mixed-radix element encoding
        self._weights = tuple(prod(self.factors[i + 1 :]) for i in range(len(self.factors)))
        # equal groups share one Cayley table per process
        self._mul_rows, self._inv_list = _cayley_table(self.factors)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str) -> AbelianGroup:
        """Parse "Z6", "Z2xZ4" (case-insensitive); "Z1" is the trivial group."""
        parts = spec.strip().replace("X", "x").split("x")
        factors = []
        for part in parts:
            part = part.strip()
            if not part or part[0] not in "zZ" or not part[1:].isdigit():
                raise ValueError(f"bad group spec {spec!r}; expected e.g. Z3 or Z2xZ4")
            n = int(part[1:])
            if n < 1:
                raise ValueError(f"bad group spec {spec!r}: order must be >= 1")
            if n > 1:
                factors.append(n)
        return cls(factors)

    def spec_string(self) -> str:
        if not self.factors:
            return "Z1"
        return "x".join(f"Z{d}" for d in self.factors)

    # -- encoding ------------------------------------------------------------

    def element_vector(self, e: int) -> tuple[int, ...]:
        """Mixed-radix digits of an element index."""
        return tuple((e // w) % d for w, d in zip(self._weights, self.factors))

    def element_index(self, vec: tuple[int, ...]) -> int:
        return sum((v % d) * w for v, d, w in zip(vec, self.factors, self._weights))

    # -- operations ----------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self._mul_rows[a][b]

    def mul_row(self, a: int) -> list[int]:
        """The row [a*b for b in elements], for hot loops that index it directly."""
        return self._mul_rows[a]

    def inv(self, a: int) -> int:
        return self._inv_list[a]

    def power(self, a: int, n: int) -> int:
        return self.element_index(tuple(x * n for x in self.element_vector(a)))

    def element_order(self, a: int) -> int:
        n = 1
        x = a
        while x != 0:
            x = self.mul(x, a)
            n += 1
        return n

    @property
    def is_cyclic(self) -> bool:
        return len(self.factors) <= 1

    def elements(self) -> range:
        return range(self.order)

    def involution_candidates(self) -> list[int]:
        """Elements of multiplicative order <= 2 (legal values of -1), identity first."""
        return [g for g in range(self.order) if self.mul(g, g) == 0]

    def minus_one_orbits(self) -> list[tuple[int, ...]]:
        """The involution candidates grouped into Aut(G)-orbits, each sorted, by least member.

        The identity is an orbit of its own; any other candidate x goes by
        its 2-height h(x) = max{k : x in 2^k G}, found by squaring the
        element set until it stops shrinking.  No automorphism is
        enumerated.  Automorphisms keep heights, so different heights are
        different orbits.  Conversely, take y with 2^h y = x, h = h(x): y
        has order 2^(h+1) and its element of order 2 has height h, so <y>
        is a pure cyclic subgroup, hence a direct summand, G = <y> + C
        (Kaplansky, Infinite Abelian Groups, 1954).  By the cancellation
        law for finite abelian groups, C is fixed up to isomorphism by G
        and h, so for x' of the same height, with G = <y'> + C', an
        automorphism maps y onto y' and C onto C', and with them x onto x'.
        """
        heights = dict.fromkeys(self.involution_candidates()[1:], 0)
        level = set(self.elements())
        while True:
            squares = {self.mul(g, g) for g in level}
            if squares == level:
                break
            level = squares
            for x in heights:
                heights[x] += x in level
        orbits: dict[int, list[int]] = {}
        for x, h in heights.items():
            orbits.setdefault(h, []).append(x)
        return [(0,)] + sorted(map(tuple, orbits.values()))

    # -- automorphisms -------------------------------------------------------

    def automorphism_count(self) -> int:
        """|Aut(G)| in closed form from the invariant factors.

        Per prime p, with G_p = Z_{p^e_1} x ... x Z_{p^e_k} and e_1 <= ... <= e_k,
        d_j = max{l : e_l = e_j} and c_j = min{l : e_l = e_j}:
        |Aut(G_p)| = prod_j (p^d_j - p^(j-1)) * p^(e_j (k - d_j)) * p^((e_j - 1)(k - c_j + 1))
        (Hillar and Rhea, "Automorphisms of finite abelian groups", Amer. Math.
        Monthly 114, 2007); |Aut(G)| is the product over the primes.
        """
        per_prime: dict[int, list[int]] = {}
        for d in self.factors:
            for p, e in _prime_factors(d).items():
                per_prime.setdefault(p, []).append(e)
        count = 1
        for p, exps in per_prime.items():
            exps.sort()
            k = len(exps)
            for j, e in enumerate(exps, start=1):
                d = k - exps[::-1].index(e)
                c = exps.index(e) + 1
                count *= (p**d - p ** (j - 1)) * p ** (e * (k - d) + (e - 1) * (k - c + 1))
        return count

    def automorphisms(self) -> list[tuple[int, ...]]:
        """All multiplication-preserving bijections, each as an index permutation.

        Raises CapacityError before enumerating when the automorphisms times
        the group order exceed TABLE_ENTRY_BOUND.
        """
        count = self.automorphism_count()
        if count * self.order > TABLE_ENTRY_BOUND:
            raise CapacityError(
                f"{count} automorphisms of an order-{self.order} group "
                f"exceed the {TABLE_ENTRY_BOUND}-entry budget"
            )
        # image of generator i must have order dividing factors[i]
        choices = [
            [g for g in range(self.order) if self.power(g, d) == 0] for d in self.factors
        ]
        autos: list[tuple[int, ...]] = []

        def rec(i: int, span: list[int]) -> None:
            # span[e] is the image of the e-th element of <e_1..e_i> in mixed
            # radix order, so at i = s it is the whole permutation
            if i == len(self.factors):
                autos.append(tuple(span))
                return
            for g in choices[i]:
                powers = [0]
                for _ in range(self.factors[i] - 1):
                    powers.append(self.mul(powers[-1], g))
                extended = [self.mul(x, p) for x in span for p in powers]
                # prune: the partial map must stay injective on the partial span
                if len(set(extended)) == len(extended):
                    rec(i + 1, extended)

        rec(0, [0])
        return autos

    # -- display -------------------------------------------------------------

    def element_name(self, e: int) -> str:
        """Exponent notation for cyclic groups (1, a, a^2 as superscripts), vectors otherwise."""
        if self.is_cyclic:
            if e == 0:
                return "1"
            if e == 1:
                return "a"
            return "a" + str(e).translate(_SUPERSCRIPTS)
        return "(" + ",".join(str(v) for v in self.element_vector(e)) + ")"

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AbelianGroup) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"AbelianGroup({list(self.factors)!r})"


def abelian_groups_up_to(max_order: int) -> Iterator[AbelianGroup]:
    """Every abelian group of order 1..max_order, one per isomorphism class."""

    def partitions(n: int) -> Iterator[list[int]]:
        if n == 0:
            yield []
            return
        for first in range(n, 0, -1):
            for rest in partitions(n - first):
                if not rest or rest[0] <= first:
                    yield [first] + rest

    for n in range(1, max_order + 1):
        per_prime = _prime_factors(n)
        # choose a partition of each prime's exponent independently
        primes = sorted(per_prime)
        parts_per = [list(partitions(per_prime[p])) for p in primes]

        def combos(i: int, acc: list[int]) -> Iterator[list[int]]:
            if i == len(primes):
                yield acc
                return
            for part in parts_per[i]:
                yield from combos(i + 1, acc + [primes[i] ** e for e in part])

        for elementary in combos(0, []):
            yield AbelianGroup(elementary)
