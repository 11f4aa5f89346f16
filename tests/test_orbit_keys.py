"""Census classes by block-orbit keys against the pi-string canonical_form.

enumerate_subsets classes its survivors by the least bit-reversed block
mask over the automorphisms fixing -1, and builds each class's pi string
once.  Here every class is recomputed by grouping the same survivors
under canonical_form, exhaustively up to order 8 and on hypothesis-drawn
Gray-code spans of the order-9 partitions.  Past 53 blocks, the keys of
block unions (which the quotient atlas and catalog deduplication read)
are checked against canonical_form as well.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperblocks import (
    MODE_AMPLE_ONLY,
    MODE_FULL,
    AbelianGroup,
    CapacityError,
    HyperfieldCandidate,
    abelian_groups_up_to,
    block_subset_of,
    build_candidate,
    canonical_form,
    compute_blocks,
    dedup_records,
    enumerate_subsets,
    is_ample,
    is_union_of_blocks,
    make_record,
    quotient_hyperfield,
)
from hyperblocks import census
from hyperblocks.blocks import BlockPartition
from hyperblocks.census import _survivors, automorphisms_fixing, block_permutations

SMALL = [
    (g.spec_string(), m1) for g in abelian_groups_up_to(8) for m1 in g.involution_candidates()
]


def partition(spec, m1):
    return compute_blocks(AbelianGroup.from_spec(spec), m1)


def reference_classes(bp, masks):
    """(canonical_pi, members, least mask, ample) per class, grouped by canonical_form."""
    autos = automorphisms_fixing(bp.group, bp.minus_one)
    classes = {}
    for mask in masks:
        h = build_candidate(bp, mask)
        slot = classes.setdefault(canonical_form(h, autos), [0, mask, is_ample(h)])
        slot[0] += 1
        slot[1] = min(slot[1], mask)
    return [(key, members, subset, ample) for key, (members, subset, ample) in sorted(classes.items())]


def census_classes(c):
    return [(cl.canonical_pi, cl.members, cl.example_subset, cl.ample) for cl in c.classes]


def image(h, sigma):
    """The relation {(sigma x, sigma y) : (x, y) in pi}, isomorphic to h when sigma fixes -1."""
    rows = [0] * h.r
    for x, row in enumerate(h.rows):
        for y in range(h.r):
            if row >> y & 1:
                rows[sigma[x]] |= 1 << sigma[y]
    return HyperfieldCandidate(h.group, h.minus_one, tuple(rows))


def reversed_mask(mask, b):
    return int(f"{mask:0{b}b}"[::-1], 2)


@pytest.mark.parametrize("mode", [MODE_FULL, MODE_AMPLE_ONLY])
@pytest.mark.parametrize("spec,m1", SMALL)
def test_orbit_keys_match_canonical_form(spec, m1, mode):
    bp = partition(spec, m1)
    # the survivors are the kernel's (tested against verify_axioms in
    # test_kernel.py) or the ample screen's; the classes are under test here
    masks = [m for chunk, _, _ in _survivors(bp, mode, None) for m in chunk.tolist()]
    c = enumerate_subsets(bp, mode)
    assert c.hyperfield_count == len(masks)
    assert c.ample_count == sum(is_ample(build_candidate(bp, m)) for m in masks)
    assert census_classes(c) == reference_classes(bp, masks)


@pytest.mark.parametrize("spec", ["Z9", "Z2xZ4", "Z3xZ3"])
@settings(max_examples=6)
@given(data=st.data())
def test_orbit_keys_on_drawn_gray_spans(spec, data):
    g = AbelianGroup.from_spec(spec)
    bp = compute_blocks(g, data.draw(st.sampled_from(g.involution_candidates())))
    lo = data.draw(st.integers(0, (1 << bp.b) - 1))
    span = (lo, data.draw(st.integers(lo + 1, min(lo + 1500, 1 << bp.b))))
    gray = [t ^ (t >> 1) for t in range(*span)]
    masks = [m for m in gray if is_ample(build_candidate(bp, m))]
    c = enumerate_subsets(bp, MODE_AMPLE_ONLY, span=span)
    assert (c.subsets_examined, c.hyperfield_count, c.ample_count) == (
        span[1] - span[0],
        len(masks),
        len(masks),
    )
    assert census_classes(c) == reference_classes(bp, masks)


@pytest.mark.parametrize("spec,m1", [("Z7", 0), ("Z2xZ2xZ2", 0), ("Z9", 0), ("Z3xZ3", 0)])
@settings(max_examples=40)
@given(data=st.data())
def test_pi_string_order_is_reversed_mask_order(spec, m1, data):
    bp = partition(spec, m1)
    a, b = (data.draw(st.integers(0, (1 << bp.b) - 1)) for _ in range(2))
    pa, pb = (build_candidate(bp, m).pi_bits() for m in (a, b))
    assert (pa < pb) == (reversed_mask(a, bp.b) < reversed_mask(b, bp.b))
    assert (pa == pb) == (a == b)


def test_enumerate_subsets_makes_no_canonical_form_calls(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("canonical_form called")

    monkeypatch.setattr(census, "canonical_form", refuse)
    for spec, m1 in [("Z7", 0), ("Z2xZ4", 2)]:
        for mode in (MODE_FULL, MODE_AMPLE_ONLY):
            assert enumerate_subsets(partition(spec, m1), mode).class_count > 0


def test_block_permutations_permute_blocks():
    bp = partition("Z2xZ2xZ2", 0)
    perms = block_permutations(bp)
    assert perms.shape == (168, bp.b)
    for perm in perms.tolist():
        assert sorted(perm) == list(range(bp.b))


def test_block_permutations_reject_a_split_block():
    # pair (1, a) alone and every other pair of Z3 in one block: a -> a^2
    # sends (1, a) to (1, a^2), which lies in the other block with (1, 1)
    g = AbelianGroup.from_spec("Z3")
    assignment = [1 if code == 1 else 0 for code in range(9)]
    with pytest.raises(RuntimeError):
        block_permutations(BlockPartition(g, 0, 2, assignment))


def test_automorphisms_fixing_enumerates_once_per_partition(monkeypatch):
    calls = []
    enumerate_all = AbelianGroup.automorphisms

    def counting(self):
        calls.append(self)
        return enumerate_all(self)

    monkeypatch.setattr(AbelianGroup, "automorphisms", counting)
    automorphisms_fixing.cache_clear()
    bp = partition("Z7", 0)
    records = [make_record(build_candidate(bp, m)) for m in range(0, 1 << bp.b, 37)]
    kept = dedup_records(records)
    assert 0 < len(kept) < len(records)
    assert len(calls) == 1
    autos = automorphisms_fixing(bp.group, bp.minus_one)
    assert isinstance(autos, tuple) and all(isinstance(a, tuple) for a in autos)
    assert len(calls) == 1


def test_keys_past_float64_precision_are_refused():
    # orbit keys are float64 sums of 2^(b-1-i); past 53 blocks they would round
    bp = partition("Z19", 0)
    assert bp.b > 53
    with pytest.raises(CapacityError):
        enumerate_subsets(bp, budget_bits=64, span=(0, 8))


def test_union_keys_stay_exact_past_float64_precision():
    # past KEY_BITS blocks the keys are Python ints packed from the block
    # bits; here they are read against canonical_form
    for spec in ["Z17", "Z19", "Z31", "Z64"]:
        bp = partition(spec, 0)
        assert bp.b > census.KEY_BITS
        firsts = [block[0] for block in bp.blocks]
        # one pair of a block of several is a relation that is no union
        split = next(block[0] for block in bp.blocks if len(block) > 1)
        rows = [0] * bp.r
        rows[split // bp.r] = 1 << split % bp.r
        lone = HyperfieldCandidate(bp.group, 0, tuple(rows))
        full = (1 << bp.b) - 1
        masks = [full - (1 << i) for i in range(0, bp.b, bp.b // 6)]
        masks += [1, 3 << 50, full // 7, full // 3 << 1 & full]
        unions, keys = census._union_keys(bp, [lone] + [build_candidate(bp, m) for m in masks])
        assert unions.tolist() == list(range(1, len(masks) + 1))
        for mask, key in zip(masks, keys.tolist()):
            form = canonical_form(build_candidate(bp, mask))
            blocks = [i for i, first in enumerate(firsts) if form[first] == "1"]
            assert key == sum(1 << (bp.b - 1 - i) for i in blocks), (spec, mask)


def test_union_keys_of_z256_quotients_stay_small():
    # keys are packed one automorphism at a time: an |A| x b table of
    # b-bit ints would hold 1.1 GiB here (b = 11,051, 128 automorphisms)
    quotients = [quotient_hyperfield(q, 256) for q in (257, 769, 3329)]
    bp = partition("Z256", quotients[0].minus_one)
    autos = automorphisms_fixing(bp.group, bp.minus_one)
    assert {h.minus_one for h in quotients} == {bp.minus_one} and len(autos) == 128
    candidates = quotients + [image(h, autos[k]) for h, k in zip(quotients, (3, 50, 127))]
    tracemalloc.start()
    try:
        unions, keys = census._union_keys(bp, candidates)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 150 << 20
    assert unions.tolist() == list(range(6))
    keys = keys.tolist()
    assert keys[:3] == keys[3:]
    # each key against the least over automorphisms of its permuted block bits as a string
    perms = block_permutations(bp)
    for h, key in zip(quotients, keys):
        mask = block_subset_of(h, bp)
        chosen = [i for i in range(bp.b) if mask >> i & 1]
        text = np.full((len(perms), bp.b), ord("0"), dtype=np.uint8)
        text[np.arange(len(perms))[:, None], perms[:, chosen]] = ord("1")
        assert key == min(int(row.tobytes(), 2) for row in text)


def counted_permutations(monkeypatch):
    """Count the block_permutations calls the census makes, starting from an empty cache."""
    calls = []

    def counted(bp):
        calls.append(bp)
        return block_permutations(bp)

    monkeypatch.setattr(census, "block_permutations", counted)
    monkeypatch.setattr(census, "_PERMUTATIONS", {})
    return calls


def test_union_keys_enumerate_the_permutations_once(monkeypatch):
    # past KEY_BITS the keys are packed through the automorphisms' block
    # permutations; one shared, read-only table serves both lookups
    calls = counted_permutations(monkeypatch)
    bp = partition("Z17", 0)
    assert bp.b > census.KEY_BITS
    candidates = [build_candidate(bp, m) for m in (1, (1 << bp.b) - 1, 5 << 40)]
    first = census._union_keys(bp, candidates)
    second = census._union_keys(bp, candidates)
    assert calls == [bp]
    assert [a.tolist() for a in first] == [a.tolist() for a in second]
    with pytest.raises(ValueError):
        census._shared_permutations(bp)[0, 0] = 0


def test_shared_permutations_stay_under_their_entry_bound(monkeypatch):
    # the bound counts int32 entries (|A| x b per partition), not partitions:
    # here it holds Z17's 16 x 57 and Z19's 18 x 70 but not Z23's 22 x 100 too
    calls = counted_permutations(monkeypatch)
    z17, z19, z23 = (partition(spec, 0) for spec in ("Z17", "Z19", "Z23"))
    monkeypatch.setattr(census, "COEFF_ENTRY_BOUND", 16 * 57 + 22 * 100)
    for bp in (z17, z19, z17, z23, z17, z19):
        perms = census._shared_permutations(bp)
        assert perms.tolist() == block_permutations(bp).tolist()
        assert sum(t.size for t in census._PERMUTATIONS.values()) <= census.COEFF_ENTRY_BOUND
    # Z19 went first, as the least recently used, and came back; Z23 made way for it
    assert calls == [z17, z19, z23, z19]
    assert list(census._PERMUTATIONS) == [z17, z19]
    # a table larger than the bound is handed out but not kept
    monkeypatch.setattr(census, "COEFF_ENTRY_BOUND", 22 * 100 - 1)
    census._shared_permutations(z23)
    assert calls[-1] == z23 and z23 not in census._PERMUTATIONS


@pytest.mark.parametrize("spec,m1", [("Z7", 0), ("Z2xZ4", 2), ("Z3", 0), ("Z2xZ2", 1)])
def test_dedup_mixes_unions_and_other_relations(spec, m1):
    # unions are keyed by block-orbit key, the rest by canonical_form; the
    # first record of each canonical_form class is kept either way
    rng = random.Random(spec)
    bp = partition(spec, m1)
    autos = automorphisms_fixing(bp.group, m1)
    records = []
    for _ in range(150):
        if rng.random() < 0.5:
            h = build_candidate(bp, rng.getrandbits(bp.b))
        else:
            h = HyperfieldCandidate(bp.group, m1, tuple(rng.getrandbits(bp.r) for _ in range(bp.r)))
        records += [make_record(h), make_record(image(h, rng.choice(autos)))]
    rng.shuffle(records)
    expected, seen = [], set()
    for rec in records:
        form = canonical_form(rec.candidate)
        if form not in seen:
            seen.add(form)
            expected.append(rec)
    kept = dedup_records(records)
    assert kept == expected
    assert 0 < sum(is_union_of_blocks(rec.candidate) for rec in kept) < len(kept)
