"""The word path of a sweep against scalar references.

The kernel must name the same first failing axiom as verify_axioms on
every block union (exhaustively up to order 6, on hypothesis draws up to
order 12).  It compiles only nonempty sums and associativity, which rests
on block_index being invariant under both block moves, checked here up
to order 16.  The circuit's workspace evaluation must give the words of
the one-gather evaluation it replaced, kept here as the reference, on
every partition up to order 16.  The words written from Gray-code
positions must be the bits of t ^ (t >> 1), and the bit-sliced ample
screen must agree with is_ample, also at the orders where its counter
adds its last plane.
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperblocks import (
    MODE_FULL,
    AbelianGroup,
    abelian_groups_up_to,
    build_candidate,
    canonical_form,
    compute_blocks,
    enumerate_subsets,
    is_ample,
    verify_axioms,
)
from hyperblocks.blocks import consistency_step, reversal_negation_step
from hyperblocks.census import CHUNK_BITS, AxiomCircuit, _ample_screen, _chunks, _survivors


def partitions(lo, hi):
    return [
        (g.spec_string(), m1)
        for g in abelian_groups_up_to(hi)
        if g.order >= lo
        for m1 in g.involution_candidates()
    ]


@cache
def block_circuit(spec, m1):
    bp = compute_blocks(AbelianGroup.from_spec(spec), m1)
    return bp, AxiomCircuit(bp)


def words_of(masks, nvars):
    """Masks packed 64 to a uint64 word: bit k % 64 of words[i, k // 64] is bit i of masks[k]."""
    bits = np.array([[m >> i & 1 for m in masks] for i in range(nvars)], dtype=np.uint8)
    bits = np.pad(bits, ((0, 0), (0, -len(masks) % 64)))
    return np.packbits(bits, axis=1, bitorder="little").view(np.uint64)


def bits_of(words, n):
    """The first n bits of each row of uint64 words, as 0/1 rows."""
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")[:, :n]


def first_failures(bp, circuit, masks):
    """The kernel's first failing axiom per block mask, None where every axiom holds."""
    first = bits_of(circuit.failures(words_of(masks, bp.b)), len(masks))
    return [circuit.AXIOMS[col.argmax()] if col.any() else None for col in first.T]


@pytest.mark.parametrize("spec,m1", partitions(1, 6))
def test_kernel_matches_scalar_on_every_small_block_union(spec, m1):
    bp, circuit = block_circuit(spec, m1)
    masks = list(range(1 << bp.b))
    expected = [verify_axioms(build_candidate(bp, m)).axiom for m in masks]
    assert first_failures(bp, circuit, masks) == expected


@pytest.mark.parametrize("spec,m1", partitions(7, 12))
@settings(max_examples=15)
@given(data=st.data())
def test_kernel_matches_scalar_on_drawn_block_unions(spec, m1, data):
    bp, circuit = block_circuit(spec, m1)
    masks = data.draw(st.lists(st.integers(0, (1 << bp.b) - 1), min_size=1, max_size=12))
    expected = [verify_axioms(build_candidate(bp, m)).axiom for m in masks]
    assert first_failures(bp, circuit, masks) == expected


def one_gather_failures(circuit, words):
    """AxiomCircuit.failures as one gather: a fresh register file and a
    (width x sides x words) temporary per call."""
    ones = np.full((1, words.shape[1]), ~np.uint64(0))
    pair_ands = words[circuit.pair_regs[0]] & words[circuit.pair_regs[1]]
    regs = np.concatenate([words, ones, ~ones, pair_ands])
    sides = np.bitwise_or.reduce(regs[circuit.side_regs], axis=0)
    empty, unassociative = (
        np.bitwise_or.reduce(sides[a] ^ sides[b], axis=0) for a, b in circuit.equalities
    )
    return np.stack([empty, unassociative & ~empty])


@pytest.mark.parametrize("spec,m1", partitions(1, 16))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_workspace_kernel_matches_one_gather_on_drawn_chunks(spec, m1, data):
    # spans start and end inside words, and run over up to three chunks,
    # through a cached circuit that has served other widths before
    bp, circuit = block_circuit(spec, m1)
    total = 1 << bp.b
    length = min(total, data.draw(st.one_of(st.integers(1, 200), st.integers(200, 3 << CHUNK_BITS))))
    lo = data.draw(st.integers(0, total - length))
    for _, words, _, _ in _chunks(bp, (lo, lo + length)):
        got = circuit.failures(words)
        expected = one_gather_failures(circuit, words)
        assert got.shape == expected.shape and (got == expected).all()


@pytest.mark.parametrize("spec,m1", [("Z9", 0), ("Z2xZ2xZ4", 2), ("Z16", 8)])
def test_one_circuit_takes_successive_widths(spec, m1):
    # the workspace is sized by the widest call, a narrower call uses a view
    # of it, and no result is a view of it: each kept result stays as it was
    bp = compute_blocks(AbelianGroup.from_spec(spec), m1)
    circuit = AxiomCircuit(bp)
    rng = np.random.default_rng(len(spec) + m1)
    kept = []
    for width in (256, 3, 1, 256, 3):
        # unions of about a quarter of the blocks: both axioms fail on some
        words = rng.integers(0, 1 << 64, (2, bp.b, width), dtype=np.uint64)
        words = words[0] & words[1]
        got = circuit.failures(words)
        assert (got == one_gather_failures(circuit, words)).all()
        if width == 256:
            assert got.any(axis=1).all()
        for before, copy in kept:
            assert (before == copy).all()
        kept.append((got, got.copy()))
    with pytest.raises(ValueError):
        circuit.failures(words[:-1])


def test_identities_compile_away():
    # both block moves fix block_index, so commutativity and reversibility hold
    # on every union of blocks and the circuit leaves them out, as it does
    # distributivity and unique negatives, which hold for every relation.
    # Blocks are closed under (a, b) -> (a^-1, a^-1 b) too, so s[x, y, e] and
    # s[y, x, e] are one register and associativity is compiled for x <= z only
    for spec, m1 in partitions(1, 16):
        g = AbelianGroup.from_spec(spec)
        bp = compute_blocks(g, m1)
        for x in range(bp.r):
            for y in range(bp.r):
                swapped = (g.inv(x), g.mul(g.inv(x), y))
                for q in consistency_step(g, (x, y)), reversal_negation_step(g, m1, (x, y)), swapped:
                    assert bp.block_of(*q) == bp.block_of(x, y), (spec, m1, (x, y), q)


def test_full_census_on_unaligned_gray_span():
    bp, _ = block_circuit("Z7", 0)
    span = (37, 2011)
    gray = [t ^ (t >> 1) for t in range(*span)]
    scalar = [mask for mask in gray if verify_axioms(build_candidate(bp, mask)).ok]
    chunks = list(_survivors(bp, MODE_FULL, span))
    assert [mask for masks, _, _ in chunks for mask in masks.tolist()] == scalar
    for masks, bits, ample in chunks:
        # each column of bits is its mask's block bits; each flag the candidate's ampleness
        shifts = np.arange(bp.b, dtype=np.uint64)[:, None]
        assert (bits == (masks[None, :] >> shifts) & np.uint64(1)).all()
        assert ample.tolist() == [is_ample(build_candidate(bp, m)) for m in masks.tolist()]

    classes = {}
    for mask in scalar:
        h = build_candidate(bp, mask)
        slot = classes.setdefault(canonical_form(h), [0, mask, is_ample(h)])
        slot[0] += 1
        slot[1] = min(slot[1], mask)
    census = enumerate_subsets(bp, span=span)
    assert census.subsets_examined == span[1] - span[0]
    assert census.hyperfield_count == len(scalar)
    assert census.ample_count == sum(is_ample(build_candidate(bp, m)) for m in scalar)
    assert [(c.canonical_pi, c.members, c.example_subset, c.ample) for c in census.classes] == [
        (key, members, subset, ample) for key, (members, subset, ample) in sorted(classes.items())
    ]


@settings(max_examples=60)
@given(data=st.data())
def test_chunk_words_are_the_gray_code_masks(data):
    # spans shorter than a word, unaligned, across chunks, and ending at 2^b
    spec = data.draw(st.sampled_from(["Z1", "Z3", "Z5", "Z7", "Z9", "Z3xZ3"]))
    bp = compute_blocks(AbelianGroup.from_spec(spec), 0)
    total = 1 << bp.b
    length = min(total, data.draw(st.one_of(st.integers(0, 63), st.integers(64, 3 << CHUNK_BITS))))
    lo = total - length if data.draw(st.booleans()) else data.draw(st.integers(0, total - length))
    positions = []
    for first, words, valid, _ in _chunks(bp, (lo, lo + length)):
        t = first + np.arange(64 * words.shape[1])
        gray = t ^ t >> 1
        assert (bits_of(words, len(t)) == gray >> np.arange(bp.b)[:, None] & 1).all()
        inside = bits_of(valid[None], len(t))[0].astype(bool)
        assert (inside == ((t >= lo) & (t < lo + length))).all()
        positions += t[inside].tolist()
    assert positions == list(range(lo, lo + length))


def screen_flags(bp, masks):
    return bits_of(_ample_screen(bp, words_of(masks, bp.b))[None], len(masks))[0].astype(bool)


@pytest.mark.parametrize("spec,m1", partitions(1, 6))
def test_ample_screen_matches_is_ample_on_every_small_block_union(spec, m1):
    bp = compute_blocks(AbelianGroup.from_spec(spec), m1)
    masks = list(range(1 << bp.b))
    assert screen_flags(bp, masks).tolist() == [is_ample(build_candidate(bp, m)) for m in masks]


# after y + 1 inputs the counter holds (y + 1).bit_length() planes, so its
# last plane is added at r = 1, 2, 4, 8 and 16.  Orders 1 and 3 are checked
# on every union above and 7 and 8 on drawn ones below; 15 and 16 complete
# the orders that end just before or on a step
PLANE_STEPS = [
    (g.spec_string(), orbit[0])
    for g in abelian_groups_up_to(16)
    if g.order in (15, 16)
    for orbit in g.minus_one_orbits()
]


@pytest.mark.parametrize("spec,m1", partitions(7, 11) + PLANE_STEPS)
@settings(max_examples=15)
@given(data=st.data())
def test_ample_screen_matches_is_ample_on_drawn_block_unions(spec, m1, data):
    bp = compute_blocks(AbelianGroup.from_spec(spec), m1)
    mask = st.integers(0, (1 << bp.b) - 1)
    # ORs of three masks too: at half density hardly any subset is ample
    dense = st.tuples(mask, mask, mask).map(lambda ms: ms[0] | ms[1] | ms[2])
    masks = data.draw(st.lists(st.one_of(mask, dense), min_size=1, max_size=70))
    assert screen_flags(bp, masks).tolist() == [is_ample(build_candidate(bp, m)) for m in masks]
