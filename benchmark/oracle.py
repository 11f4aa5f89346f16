"""Computations the checks make apart from the library.

Everything here works from plain data the library hands over (invariant
factors, -1, pi rows, the pair codes of each block, inequality rows) and
re-derives what the library should have found: group products, the ample
screen, orbits of block masks, quotients of prime fields, sums in a
hyperfield and 0/1 solution counts.  None of it calls into hyperblocks.
"""
from __future__ import annotations

import math

import numpy as np

# -- groups -------------------------------------------------------------------


class Group:
    """Z_{d1} x ... x Z_{dk}, elements indexed in mixed radix with the last
    factor varying fastest (the library's documented encoding)."""

    def __init__(self, factors: tuple[int, ...]):
        self.factors = tuple(factors)
        self.order = math.prod(self.factors)
        self._vecs = [self._vector(e) for e in range(self.order)]
        self._index = {v: e for e, v in enumerate(self._vecs)}

    def _vector(self, e: int) -> tuple[int, ...]:
        out = []
        for d in reversed(self.factors):
            out.append(e % d)
            e //= d
        return tuple(reversed(out))

    def mul(self, a: int, b: int) -> int:
        va, vb = self._vecs[a], self._vecs[b]
        return self._index[tuple((x + y) % d for x, y, d in zip(va, vb, self.factors))]

    def inv(self, a: int) -> int:
        return self._index[tuple(-x % d for x, d in zip(self._vecs[a], self.factors))]


def automorphism_problems(group: Group, minus_one: int, autos) -> list[str]:
    """Each map must be a bijection preserving products and fixing -1, and
    together they must be closed under composition."""
    r = group.order
    out = []
    seen = set()
    for a in autos:
        a = tuple(a)
        if sorted(a) != list(range(r)):
            out.append(f"{a} is not a bijection")
        elif a[minus_one] != minus_one:
            out.append(f"{a} moves -1")
        elif any(a[group.mul(x, y)] != group.mul(a[x], a[y]) for x in range(r) for y in range(r)):
            out.append(f"{a} does not preserve products")
        seen.add(a)
    if len(seen) != len(autos):
        out.append("automorphisms repeat")
    for a in seen:
        for c in seen:
            if tuple(a[c[x]] for x in range(r)) not in seen:
                out.append("automorphisms fixing -1 are not closed under composition")
                return out
    return out


def cyclic_automorphisms(r: int, minus_one: int) -> list[tuple[int, ...]]:
    """x -> u x for the units u of Z_r that fix -1."""
    units = [u for u in range(r) if math.gcd(u, r) == 1]
    return [tuple(u * x % r for x in range(r)) for u in units if u * minus_one % r == minus_one]


def euler_phi(n: int) -> int:
    return sum(1 for u in range(1, n + 1) if math.gcd(u, n) == 1)


# -- blocks and subsets -------------------------------------------------------


def block_weights(blocks, r: int) -> np.ndarray:
    """w[i, x] = number of pairs (x, y) in block i."""
    w = np.zeros((len(blocks), r), dtype=np.int64)
    for i, block in enumerate(blocks):
        for code in block:
            w[i, code // r] += 1
    return w


def _subset_sums(w: np.ndarray) -> np.ndarray:
    """Row weights of every subset of the given blocks, indexed by mask."""
    table = np.zeros((1, w.shape[1]), dtype=np.int64)
    for row in w:
        table = np.concatenate([table, table + row])
    return table


def ample_masks(blocks, r: int) -> np.ndarray:
    """Masks whose pi has 2 * (least row weight) > r, ascending."""
    w = block_weights(blocks, r)
    b = len(blocks)
    low_bits = min(b, 11)
    low = _subset_sums(w[:low_bits])
    high = _subset_sums(w[low_bits:])
    found = []
    for h in range(1 << (b - low_bits)):
        ok = np.flatnonzero(2 * (low + high[h]).min(axis=1) > r)
        found.append((h << low_bits) | ok)
    return np.concatenate(found)


def ample_count(blocks, r: int) -> int:
    return int(len(ample_masks(blocks, r)))


def one_row_blocks(blocks, r: int) -> set[int]:
    """Blocks holding a pair (1, y)."""
    return {i for i, block in enumerate(blocks) for code in block if code < r}


def block_permutations(blocks, r: int, autos) -> tuple[list[tuple[int, ...]], list[str]]:
    """The permutation of blocks each automorphism induces, with problems
    found on the way (an automorphism splitting a block)."""
    block_of = {}
    for i, block in enumerate(blocks):
        for code in block:
            block_of[code] = i
    perms, problems = [], []
    for a in autos:
        perm = []
        for block in blocks:
            images = {block_of[a[code // r] * r + a[code % r]] for code in block}
            if len(images) != 1:
                problems.append(f"automorphism {tuple(a)} splits a block")
            perm.append(min(images))
        if sorted(perm) != list(range(len(blocks))):
            problems.append(f"automorphism {tuple(a)} does not permute the blocks")
        perms.append(tuple(perm))
    return perms, problems


def permute_masks(masks: np.ndarray, perm) -> np.ndarray:
    out = np.zeros_like(masks)
    for i, j in enumerate(perm):
        out |= ((masks >> i) & 1) << j
    return out


def orbit_labels(accepted, perms) -> dict[int, int]:
    """Join each accepted block mask to its images under the block
    permutations and label every mask met by the least mask of its
    component.  Images outside the accepted set join too, so a partial
    sweep still meets whole orbits."""
    acc = np.unique(np.asarray(accepted, dtype=np.int64))
    if len(acc) == 0:
        return {}
    images = [permute_masks(acc, p) for p in perms]
    nodes = np.unique(np.concatenate([acc] + images))
    label = nodes.copy()
    src = np.searchsorted(nodes, acc)
    edges = [(src, np.searchsorted(nodes, img)) for img in images]
    while True:
        before = label.copy()
        for a, b in edges:
            low = np.minimum(label[a], label[b])
            np.minimum.at(label, a, low)
            np.minimum.at(label, b, low)
        label = label[np.searchsorted(nodes, label)]  # jump to the label's label
        if np.array_equal(label, before):
            return dict(zip(nodes.tolist(), label.tolist()))


def orbit_classes(accepted, perms) -> dict[int, tuple[int, int]]:
    """Component label -> (accepted members, least accepted member)."""
    labels = orbit_labels(accepted, perms)
    out: dict[int, tuple[int, int]] = {}
    for mask in sorted(set(int(m) for m in accepted)):
        members, least = out.get(labels[mask], (0, mask))
        out[labels[mask]] = (members + 1, least)
    return out


def mask_of_rows(rows, blocks, r: int) -> int:
    """Block mask of a pi given as rows; every block must be all in or all out."""
    mask = 0
    for i, block in enumerate(blocks):
        bits = {rows[code // r] >> (code % r) & 1 for code in block}
        if len(bits) != 1:
            raise ValueError("pi is not a union of blocks")
        if bits.pop():
            mask |= 1 << i
    return mask


# -- hyperfield sums ----------------------------------------------------------


class Sums:
    """x + y = y * P(y^-1 x) on nonzero x, y, with P(z) = row z of pi plus the
    zero element when z = -1; elements 0..r-1 are the group, r is zero."""

    def __init__(self, factors, minus_one: int, rows):
        self.g = Group(tuple(factors))
        self.r = r = self.g.order
        self.zero = r
        p = [rows[z] | ((1 << r) if z == minus_one else 0) for z in range(r)]
        table = [[0] * (r + 1) for _ in range(r + 1)]
        for x in range(r + 1):
            for y in range(r + 1):
                if x == r:
                    table[x][y] = 1 << y
                elif y == r:
                    table[x][y] = 1 << x
                else:
                    z = self.g.mul(self.g.inv(y), x)
                    table[x][y] = self._scale(p[z], y)
        self.table = table

    def _scale(self, mask: int, y: int) -> int:
        out = mask & (1 << self.r)
        for e in range(self.r):
            if mask >> e & 1:
                out |= 1 << self.g.mul(e, y)
        return out

    def term(self, c: int, x: int) -> int:
        return self.zero if c == self.zero or x == self.zero else self.g.mul(c, x)

    def holds(self, equation, values) -> bool:
        """Zero lies in the multivalued sum of the terms c_i x_i."""
        total = 1 << self.zero
        for c, x in zip(equation, values):
            t = self.term(c, x)
            nxt = 0
            for e in range(self.r + 1):
                if total >> e & 1:
                    nxt |= self.table[e][t]
            total = nxt
        return bool(total >> self.zero & 1)


# -- quotients of prime fields -------------------------------------------------


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def least_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    primes = [d for d in range(2, p) if (p - 1) % d == 0 and is_prime(d)]
    return next(z for z in range(2, p) if all(pow(z, (p - 1) // d, p) != 1 for d in primes))


def prime_field_quotient(p: int, r: int) -> tuple[int, tuple[int, ...]]:
    """GF(p) modulo the r-th powers: (-1 class, pi rows) on Z_r."""
    g = least_primitive_root(p)
    log = [0] * p
    v = 1
    for i in range(p - 1):
        log[v] = i
        v = v * g % p
    rows = [0] * r
    for w in range(1, p):
        s = (w + 1) % p
        if s:
            rows[log[w] % r] |= 1 << (log[s] % r)
    return log[p - 1] % r, tuple(rows)


def cyclic_key(r: int, minus_one: int, rows) -> tuple:
    """Isomorphism key of a pi on Z_r: least image under the units fixing -1."""
    best = None
    for a in cyclic_automorphisms(r, minus_one):
        image = [0] * r
        for x in range(r):
            for y in range(r):
                if rows[x] >> y & 1:
                    image[a[x]] |= 1 << a[y]
        key = tuple(image)
        if best is None or key < best:
            best = key
    return (minus_one, best)


def prime_quotient_atlas(r: int, q_bound: int) -> dict[tuple, int]:
    """Isomorphism key -> least prime q <= q_bound whose quotient has it."""
    atlas: dict[tuple, int] = {}
    for q in range(2, q_bound + 1):
        if (q - 1) % r == 0 and is_prime(q):
            m1, rows = prime_field_quotient(q, r)
            atlas.setdefault(cyclic_key(r, m1, rows), q)
    return atlas


# -- inequality systems ---------------------------------------------------------


def brute_count(rows, doubled_thresholds, ncols: int) -> int:
    """0/1 vectors x with 2 (C x)_i > t_i for every row, t given doubled."""
    masks = np.arange(1 << ncols, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(ncols)) & 1
    ok = np.ones(len(masks), dtype=bool)
    for row, t in zip(rows, doubled_thresholds):
        ok &= 2 * (bits @ np.asarray(row, dtype=np.int64)) > t
    return int(ok.sum())


def normalized_system_total(r: int, n_max: int) -> int:
    """Systems with fewer equations than variables, up to scaling, n <= n_max."""
    total = 0
    for n in range(2, n_max + 1):
        e = ((r + 1) ** n - 1) // r
        total += sum(math.comb(e + k - 1, k) for k in range(1, n))
    return total
