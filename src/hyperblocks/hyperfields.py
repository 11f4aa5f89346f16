"""Hyperfield candidates over a finite abelian group and their verification.

A candidate is (group, -1, pi) where pi is a relation on nonzero elements:
(x, y) in pi means "y is in x + 1".  Addition is reconstructed from pi
multiplicatively:

    x + 0 = 0 + x = {x}
    x + y = y * P(y^-1 x)   for nonzero x, y

where P(z) is row z of pi, with the zero element adjoined exactly when
z = -1.  Element sets are bitmasks over r + 1 positions: bits 0..r-1 are
the group elements, bit r is the zero element.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .blocks import BlockPartition, _shared_blocks
from .groups import AbelianGroup

STATUS_UNVERIFIED = "unverified"
STATUS_VERIFIED = "verified-hyperfield"
STATUS_CERTIFIED = "certified-ample"

# the order verify_axioms checks in; reversibility is deliberately last
AXIOM_ORDER = (
    "nonempty-sums",
    "commutativity",
    "associativity",
    "distributivity",
    "unique-negatives",
    "reversibility",
)


@dataclass(eq=False)
class HyperfieldCandidate:
    group: AbelianGroup
    minus_one: int
    rows: tuple[int, ...]  # rows[x] = bitmask of {y : (x, y) in pi}
    status: str = STATUS_UNVERIFIED

    def __post_init__(self) -> None:
        r = self.group.order
        if len(self.rows) != r:
            raise ValueError(f"expected {r} pi rows, got {len(self.rows)}")
        if not 0 <= self.minus_one < r or self.group.mul(self.minus_one, self.minus_one) != 0:
            raise ValueError(f"minus_one={self.minus_one} is not an element of order <= 2")
        if any(row >> r for row in self.rows):
            raise ValueError("pi row mask has bits outside the nonzero elements")

    # -- basic geometry --------------------------------------------------

    @property
    def r(self) -> int:
        return self.group.order

    @property
    def zero(self) -> int:
        """Index of the zero element (one past the group elements)."""
        return self.r

    @property
    def full_mask(self) -> int:
        return (1 << (self.r + 1)) - 1

    def pi_bits(self) -> str:
        """Row-major 0/1 string of the pi relation, length r^2."""
        top = 1 << self.r  # a leading 1 keeps the row's high zeros; [:2:-1] drops it and "0b"
        return "".join([bin(row | top)[:2:-1] for row in self.rows])

    @classmethod
    def from_pi_bits(
        cls, group: AbelianGroup, minus_one: int, bits: str, status: str = STATUS_UNVERIFIED
    ) -> HyperfieldCandidate:
        r = group.order
        if len(bits) != r * r or set(bits) - {"0", "1"}:
            raise ValueError(f"pi bit string must be {r * r} chars of 0/1")
        rows = tuple(int(bits[x * r : (x + 1) * r][::-1], 2) for x in range(r))
        return cls(group, minus_one, rows, status)

    # -- addition ---------------------------------------------------------

    def p_set(self, z: int) -> int:
        """P(z): row z of pi, with the zero bit adjoined when z = -1."""
        mask = self.rows[z]
        if z == self.minus_one:
            mask |= 1 << self.r
        return mask

    def translate(self, mask: int, y: int) -> int:
        """Multiply a set mask elementwise by the nonzero element y; zero stays."""
        r = self.r
        row = self.group.mul_row(y)
        out = mask & (1 << r)  # zero bit carried through
        rest = mask & ~(1 << r)
        while rest:
            low = rest & -rest
            out |= 1 << row[low.bit_length() - 1]
            rest ^= low
        return out

    def add(self, x: int, y: int) -> int:
        """Hyperaddition of two elements of H (indices 0..r, r = zero) as a mask."""
        zero = self.r
        if x == zero:
            return 1 << y
        if y == zero:
            return 1 << x
        z = self.group.mul(self.group.inv(y), x)
        return self.translate(self.p_set(z), y)

    def add_table(self) -> list[list[int]]:
        """Dense (r+1) x (r+1) table of add() masks, cached after first use."""
        cached = getattr(self, "_table", None)
        if cached is None:
            n = self.r + 1
            cached = [[self.add(x, y) for y in range(n)] for x in range(n)]
            self._table = cached
        return cached

    def set_add(self, mask_a: int, mask_b: int, table: list[list[int]] | None = None) -> int:
        """Set-extended sum: union of e + f over elements of the two masks."""
        if table is None:
            table = self.add_table()
        out = 0
        a = mask_a
        while a:
            la = a & -a
            ea = la.bit_length() - 1
            b = mask_b
            while b:
                lb = b & -b
                out |= table[ea][lb.bit_length() - 1]
                b ^= lb
            a ^= la
        return out

    def elements_of(self, mask: int) -> tuple[int, ...]:
        return tuple(e for e in range(self.r + 1) if mask >> e & 1)

    def element_name(self, e: int) -> str:
        return "0" if e == self.r else self.group.element_name(e)

    def set_name(self, mask: int) -> str:
        return "{" + ", ".join(self.element_name(e) for e in self.elements_of(mask)) + "}"

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HyperfieldCandidate)
            and self.group == other.group
            and self.minus_one == other.minus_one
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.group, self.minus_one, self.rows))

    def __repr__(self) -> str:
        return (
            f"HyperfieldCandidate({self.group.spec_string()}, -1={self.minus_one}, "
            f"pi={self.pi_bits()}, {self.status})"
        )


def row_ints(bits: np.ndarray) -> list[int]:
    """Each row of a 2-d 0/1 array as one int, column j weighing 2^j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


def bit_rows(values: Sequence[int], width: int) -> np.ndarray:
    """Each int below 2^width as a row of width 0/1 uint8 columns, bit j in
    column j: the inverse of row_ints."""
    size = -(-width // 8)
    data = b"".join([v.to_bytes(size, "little") for v in values])
    octets = np.frombuffer(data, dtype=np.uint8).reshape(len(values), size)
    return np.unpackbits(octets, axis=1, count=width, bitorder="little")


def build_candidate(bp: BlockPartition, chosen_blocks: int) -> HyperfieldCandidate:
    """Candidate whose pi is the union of the blocks in the given bitmask."""
    if chosen_blocks < 0 or chosen_blocks >> bp.b:
        raise ValueError(f"block mask {chosen_blocks:#x} out of range for b={bp.b}")
    chosen = bit_rows([chosen_blocks], bp.b)[0]
    return HyperfieldCandidate(bp.group, bp.minus_one, tuple(row_ints(chosen[bp.block_index])))


def union_block_bits(
    bp: BlockPartition, candidates: Sequence[HyperfieldCandidate]
) -> tuple[np.ndarray, np.ndarray]:
    """(is a union, block bits) of each candidate on bp, as a bool column and 0/1 rows:
    the blocks its pi meets, whose union is pi exactly when pi is a union of blocks."""
    pi = bit_rows([row for h in candidates for row in h.rows], bp.r).reshape(-1, bp.r * bp.r)
    block_of = bp.block_index.ravel()
    bits = np.zeros((len(pi), bp.b), dtype=np.uint8)
    at, code = np.nonzero(pi)
    bits[at, block_of[code]] = 1
    return (bits[:, block_of] == pi).all(axis=1), bits


def is_union_of_blocks(h: HyperfieldCandidate, bp: BlockPartition | None = None) -> bool:
    """True when every block is either fully inside or fully outside pi."""
    if bp is None:
        bp = _shared_blocks(h.group, h.minus_one)
    return bool(union_block_bits(bp, [h])[0][0])


def block_subset_of(h: HyperfieldCandidate, bp: BlockPartition) -> int:
    """Bitmask of blocks present in pi; raises if pi is not a union of blocks."""
    union, bits = union_block_bits(bp, [h])
    if not union[0]:
        raise ValueError("pi is not a union of blocks")
    return row_ints(bits)[0]


# -- verification -----------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    axiom: str | None = None
    witness: tuple[int, ...] = field(default_factory=tuple)
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_axioms(h: HyperfieldCandidate) -> VerificationReport:
    """Check the hyperfield axioms, reporting the first violation found.

    Checks run in this order: nonempty sums, commutativity, associativity,
    distributivity, unique negatives, and reversibility last (reversibility
    is implied by the others, so it is a redundant cross-check and should
    never be the first failure).

    Because addition is defined multiplicatively, u(x + y) = ux + uy holds
    for every relation pi whatsoever, so each ternary axiom only needs to
    be checked with one slot normalized to 1; the loops below do exactly
    that.  Cases involving the zero element hold by construction.  Tests
    compare this against a full triple-loop oracle.

    Some checks are identities.  Distributivity and unique negatives hold
    for every relation: both sides of a(z + 1) = az + a are the same pi
    bits, and whether 0 is in x + y depends only on x = -y.  Commutativity
    and reversibility hold for every union of blocks, because the block
    moves map each pair they compare to the other.  This function checks
    all six, because it also takes arbitrary relations.  Batch sweeps take
    only unions of blocks, so census.AxiomCircuit compiles just nonempty
    sums and associativity; tests compare its first failures with this
    function's.
    """
    r = h.r
    zero = h.zero
    minus = h.minus_one

    # nonempty sums: row z may be empty only for z = -1, where P(z) contains 0
    for z in range(r):
        if z != minus and h.rows[z] == 0:
            return _fail(h, "nonempty-sums", (z, 0), f"{h.element_name(z)} + 1 is empty")

    table = h.add_table()

    # commutativity: z + 1 = 1 + z suffices (scale by y^-1)
    for z in range(r):
        if table[z][0] != table[0][z]:
            return _fail(h, "commutativity", (z, 0), f"{h.element_name(z)} + 1 != 1 + {h.element_name(z)}")

    # associativity: (x + 1) + z = x + (1 + z) suffices (scale by y^-1)
    for x in range(r):
        left_inner = table[x][0]
        for z in range(r):
            lhs = h.set_add(left_inner, 1 << z, table)
            rhs = 0
            inner = table[0][z]
            while inner:
                low = inner & -inner
                rhs |= table[x][low.bit_length() - 1]
                inner ^= low
            if lhs != rhs:
                return _fail(
                    h,
                    "associativity",
                    (x, 0, z),
                    f"({h.element_name(x)} + 1) + {h.element_name(z)} = {h.set_name(lhs)} "
                    f"but {h.element_name(x)} + (1 + {h.element_name(z)}) = {h.set_name(rhs)}",
                )

    # distributivity: a(z + 1) = az + a suffices (addition is defined multiplicatively)
    for a in range(r):
        for z in range(r):
            if h.translate(table[z][0], a) != table[h.group.mul(a, z)][a]:
                return _fail(h, "distributivity", (a, z, 0), "a(z + 1) != az + a")

    # unique negatives, zero element included
    for x in range(r + 1):
        negs = [y for y in range(r + 1) if table[x][y] >> zero & 1]
        if len(negs) != 1:
            return _fail(
                h, "unique-negatives", (x,), f"{h.element_name(x)} has {len(negs)} negatives"
            )

    # reversibility (redundant): x in 1 + z implies z in x + (-1)
    for z in range(r):
        s = table[0][z]
        for x in range(r):
            if s >> x & 1 and not table[x][minus] >> z & 1:
                return _fail(
                    h,
                    "reversibility",
                    (x, 0, z),
                    f"{h.element_name(x)} in 1 + {h.element_name(z)} but "
                    f"{h.element_name(z)} not in {h.element_name(x)} - 1",
                )

    h.status = STATUS_VERIFIED
    return VerificationReport(True)


def _fail(h: HyperfieldCandidate, axiom: str, witness: tuple[int, ...], detail: str) -> VerificationReport:
    h.status = f"failed:{axiom}"
    return VerificationReport(False, axiom, witness, detail)


# -- ample certification ------------------------------------------------------


@dataclass(frozen=True)
class AmpleParams:
    """m = least row weight of pi, k = least column weight."""

    m: int
    k: int


def ample_params(h: HyperfieldCandidate) -> AmpleParams:
    r = h.r
    m = min(row.bit_count() for row in h.rows)
    k = min(sum(h.rows[x] >> y & 1 for x in range(r)) for y in range(r))
    return AmpleParams(m, k)


def is_ample(h: HyperfieldCandidate) -> bool:
    """m + k > r: every sum x + y with x, y nonzero then covers all of H^x or more."""
    p = ample_params(h)
    return p.m + p.k > h.r


def certify_ample(h: HyperfieldCandidate, bp: BlockPartition | None = None) -> bool:
    """Certify hyperfield-ness by the margin condition alone.

    Requires pi to be a union of blocks (checked); when m + k > r the
    candidate is a hyperfield with no further triple checking, and its
    status is set accordingly.
    """
    if bp is None:
        bp = _shared_blocks(h.group, h.minus_one)
    if not is_union_of_blocks(h, bp):
        raise ValueError("certification requires pi to be a union of blocks")
    if is_ample(h):
        h.status = STATUS_CERTIFIED
        return True
    return False


# -- fixtures -----------------------------------------------------------------


def krasner() -> HyperfieldCandidate:
    """The 2-element hyperfield with 1 + 1 = {0, 1}."""
    return HyperfieldCandidate(AbelianGroup(), 0, (1,))


def sign_hyperfield() -> HyperfieldCandidate:
    """The 3-element hyperfield of signs: 1 + 1 = 1, 1 + (-1) = everything."""
    group = AbelianGroup([2])
    return HyperfieldCandidate(group, 1, (0b01, 0b11))
