"""Finite fields, their multiplicative quotients, and the lookup that
decides whether a candidate arises as such a quotient.

F_q modulo the subgroup of r-th powers (for r dividing q - 1) yields a
hyperfield on the cyclic group of order r; its addition rows come from
reading w + 1 classwise across each coset.  The quotients for one r and
scan bound are keyed once by block-orbit key, the key a census gives
their class, so classifying a candidate is one dict lookup.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blocks import _shared_blocks
from .census import _union_keys
from .errors import CapacityError
from .groups import AbelianGroup, _prime_factors
from .hyperfields import HyperfieldCandidate, row_ints

QUOTIENT = "quotient"
NONQUOTIENT = "nonquotient"
UNKNOWN = "unknown"

Q_BOUND_CAP = 100_000


def _is_prime_power(q: int) -> tuple[int, int] | None:
    if q < 2:
        return None
    factors = _prime_factors(q)
    if len(factors) != 1:
        return None
    (p, k), = factors.items()
    return p, k


class FiniteField:
    """GF(q) with elements packed as base-p integers 0..q-1.

    The packed value sum(c_i * p^i) encodes the polynomial sum(c_i * x^i)
    over the prime field.  Extension fields reduce modulo the least monic
    irreducible of degree k, comparing coefficient tuples from the highest
    degree down.  exp and log are read-only int64 arrays over the least
    packed primitive element >= 2: exp[i] = generator^i for i < q - 1,
    log[exp[i]] = i and log[0] = -1.
    """

    def __init__(self, q: int):
        # cap checked before factoring, whose trial division stalls on a huge prime
        if q > Q_BOUND_CAP:
            raise CapacityError(f"q={q} exceeds the field size cap {Q_BOUND_CAP}")
        pk = _is_prime_power(q)
        if pk is None:
            raise ValueError(f"{q} is not a prime power")
        self.q = q
        self.p, self.k = pk
        self.modulus = self._find_modulus() if self.k > 1 else None
        self._build_log_tables()

    # -- packed polynomial arithmetic --

    def _pack(self, digits: list[int]) -> int:
        v = 0
        for c in reversed(digits):
            v = v * self.p + c
        return v

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        da, db = self._digits_of(a, self.k), self._digits_of(b, self.k)
        return self._pack([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return self._pack([(-c) % self.p for c in self._digits_of(a, self.k)])

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        da, db = self._digits_of(a, self.k), self._digits_of(b, self.k)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        return self._pack(self._poly_rem(prod, list(self.modulus)))

    def power(self, a: int, n: int) -> int:
        if self.k == 1:
            return pow(a, n, self.p)
        result, base = 1, a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    # -- modulus selection --

    def _find_modulus(self) -> tuple[int, ...]:
        """Least monic irreducible of degree k; coefficients low to high."""
        p, k = self.p, self.k
        for packed in range(p**k):
            low = self._digits_of(packed, k)
            if self._irreducible(low):
                return tuple(low) + (1,)
        raise RuntimeError(f"no irreducible of degree {k} over GF({p})")

    def _digits_of(self, a: int, length: int) -> list[int]:
        # low-to-high coefficients; the packed integer weights high
        # coefficients more, so ascending order is lex from the top down
        out = []
        for _ in range(length):
            out.append(a % self.p)
            a //= self.p
        return out

    def _irreducible(self, low: list[int]) -> bool:
        # trial division by every monic polynomial of degree 1..k//2
        p, k = self.p, len(low)
        f = low + [1]
        if f[0] == 0:
            return False  # divisible by x
        for d in range(1, k // 2 + 1):
            for packed in range(p**d):
                g = self._digits_of(packed, d) + [1]
                if self._poly_rem(f, g):
                    continue
                return False
        return True

    def _poly_rem(self, f: list[int], g: list[int]) -> list[int]:
        """Remainder of f modulo the monic g, coefficients low to high,
        without trailing zeros."""
        p, f = self.p, list(f)
        dg = len(g) - 1
        for i in range(len(f) - 1, dg - 1, -1):
            c = f[i]
            if c:
                f[i] = 0
                for j in range(dg):
                    f[i - dg + j] = (f[i - dg + j] - c * g[j]) % p
        rem = f[:dg]
        while rem and rem[-1] == 0:
            rem.pop()
        return rem

    # -- discrete logs --

    def _build_log_tables(self) -> None:
        """The least packed primitive element >= 2, and exp / log arrays
        built from it by doubling: exp[L:2L] = g^L * exp[:L].  In an
        extension field times g^L is linear on digit vectors over GF(p), so
        a step is one product of the digits of exp[:L] with the k x k matrix
        whose row i holds the digits of g^L * x^i, mod p."""
        q = self.q
        n = q - 1
        cofactors = [n // ell for ell in _prime_factors(n)] if n > 1 else []
        # z is primitive when no z^(n/l) is 1; the prime subfield's
        # elements have order dividing p - 1 < n, so extensions start at p
        start = self.p if self.k > 1 else 2
        self.generator = zeta = next(
            (z for z in range(start, q) if all(self.power(z, e) != 1 for e in cofactors)), 1
        )
        p, k = self.p, self.k
        digits = np.zeros((n, k), dtype=np.int64)  # row i: the digits of g^i, low to high
        digits[0, 0] = 1
        length, step = 1, zeta  # step = g^length
        while length < n:
            m = min(length, n - length)
            if k == 1:
                digits[length : length + m] = digits[:m] * step % p
            else:
                matrix = np.array([self._digits_of(self.mul(step, p**i), k) for i in range(k)])
                digits[length : length + m] = digits[:m] @ matrix % p
            length *= 2
            step = self.mul(step, step)
        exp = digits[:, 0] if k == 1 else digits @ p ** np.arange(k, dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(n)
        exp.flags.writeable = log.flags.writeable = False
        self.exp, self.log = exp, log

    def minus_one(self) -> int:
        return self.p - 1

    def modulus_string(self) -> str:
        if self.modulus is None:
            return f"prime field GF({self.p})"
        terms = []
        for i in range(self.k, -1, -1):
            c = self.modulus[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                x = "x" if i == 1 else f"x^{i}"
                terms.append(x if c == 1 else f"{c}{x}")
        return " + ".join(terms)


@lru_cache(maxsize=4096)  # more fields than any atlas at the default bound holds
def _quotient_data(q: int, r: int) -> tuple[AbelianGroup, tuple[int, ...], int, int]:
    """(group, pi rows, -1, packed subgroup generator) of GF(q) modulo its
    r-th powers."""
    return field_quotient_data(FiniteField(q), r)


def field_quotient_data(field: FiniteField, r: int) -> tuple[AbelianGroup, tuple[int, ...], int, int]:
    """_quotient_data of a field already built, for callers that also read the field.

    The class of a nonzero w is its discrete log modulo r; the addition
    row of a class collects the classes of w + 1 as w runs over the coset.
    """
    q = field.q
    if r < 1 or (q - 1) % r:
        raise ValueError(f"need r dividing q - 1, got r={r}, q={q}")
    p, log = field.p, field.log
    w = np.arange(1, q)
    s = np.where(w % p == p - 1, w - (p - 1), w + 1)  # w + 1: add 1 to the lowest digit
    nonzero = s != 0
    grid = np.zeros((r, r), dtype=bool)
    grid[log[w[nonzero]] % r, log[s[nonzero]] % r] = True
    rows = tuple(row_ints(grid))
    minus_one = int(log[field.minus_one()]) % r
    group = AbelianGroup([r] if r > 1 else [])
    return group, rows, minus_one, int(field.exp[r % (q - 1)])


def quotient_hyperfield(q: int, r: int) -> HyperfieldCandidate:
    """GF(q) modulo its subgroup of r-th powers, for r dividing q - 1; a
    fresh candidate on every call, since its status can change."""
    group, rows, minus_one, _ = _quotient_data(q, r)
    return HyperfieldCandidate(group, minus_one, rows)


def subgroup_generator(q: int, r: int) -> int:
    """Packed generator of the r-th power subgroup used by the quotient."""
    return _quotient_data(q, r)[3]


@lru_cache(maxsize=64)
def _quotient_atlas(r: int, q_bound: int) -> dict[tuple[int, int], int]:
    """(-1, block-orbit key) -> least prime power q <= q_bound whose
    GF(q)/(r-th powers) has that -1 and key.

    Every quotient is a hyperfield, so its pi is a union of blocks of its
    (Z_r, -1) partition; RuntimeError if one is not, since the lookup in
    find_finite_quotient would then miss it.  A bound above Q_BOUND_CAP
    raises CapacityError before any field is built.
    """
    if q_bound > Q_BOUND_CAP:
        raise CapacityError(f"scan bound {q_bound} exceeds the field size cap {Q_BOUND_CAP}")
    by_minus_one: dict[int, list[tuple[int, HyperfieldCandidate]]] = {}
    for q in range(r + 1, q_bound + 1, r):
        if _is_prime_power(q) is not None:
            h = quotient_hyperfield(q, r)
            by_minus_one.setdefault(h.minus_one, []).append((q, h))
    atlas: dict[tuple[int, int], int] = {}
    for minus_one, found in by_minus_one.items():
        bp = _shared_blocks(found[0][1].group, minus_one)
        unions, keys = _union_keys(bp, [h for _, h in found])
        if len(unions) < len(found):
            raise RuntimeError(f"a quotient on Z{r} is not a union of blocks")
        for (q, _), key in zip(found, keys.tolist()):
            atlas.setdefault((minus_one, int(key)), q)
    return atlas


def find_finite_quotient(h: HyperfieldCandidate, q_bound: int) -> tuple[int, int] | None:
    """Least prime power q <= q_bound with GF(q)/(r-th powers) isomorphic
    to h, as (q, subgroup generator); None if there is none.

    Only cyclic groups occur, and every quotient is a union of blocks;
    automorphisms fixing -1 permute the blocks, so a relation that is not
    a union is isomorphic to no quotient.  Anything else is one lookup.
    """
    if not h.group.is_cyclic:
        return None
    unions, keys = _union_keys(_shared_blocks(h.group, h.minus_one), [h])
    if not len(unions):
        return None
    q = _quotient_atlas(h.r, q_bound).get((h.minus_one, int(keys[0])))
    return None if q is None else (q, subgroup_generator(q, h.r))


def excludes_infinite_quotient(h: HyperfieldCandidate) -> bool:
    """True when 1 + (-1) falls short of the whole set, which no quotient
    of an infinite field allows."""
    return h.add(0, h.minus_one) != h.full_mask


def default_q_bound(r: int) -> int:
    return min(max(r**4, 4), Q_BOUND_CAP)


@dataclass(frozen=True)
class QuotientStatusReport:
    status: str  # quotient | nonquotient | unknown
    q: int | None  # witness field size when status == quotient
    generator: int | None  # packed generator of the quotient subgroup
    q_bound: int
    definitive: bool  # scan bound suffices to settle nonexistence
    excludes_infinite: bool

    def __str__(self) -> str:
        if self.status == QUOTIENT:
            return f"quotient of GF({self.q})"
        return self.status


def quotient_status(h: HyperfieldCandidate, q_bound: int | None = None) -> QuotientStatusReport:
    """Decide whether h is a quotient of a field.

    A hit inside the scan bound settles it positively.  For odd r a clean
    scan up to r^4 settles it negatively.  Everything else stays unknown.
    """
    r = h.r
    if q_bound is None:
        q_bound = default_q_bound(r)
    excludes = excludes_infinite_quotient(h)
    definitive = r % 2 == 1 and q_bound >= r**4
    hit = find_finite_quotient(h, q_bound)
    if hit is not None:
        q, gen = hit
        return QuotientStatusReport(QUOTIENT, q, gen, q_bound, definitive, excludes)
    if definitive:
        return QuotientStatusReport(NONQUOTIENT, None, None, q_bound, definitive, excludes)
    return QuotientStatusReport(UNKNOWN, None, None, q_bound, definitive, excludes)
