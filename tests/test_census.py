"""Exhaustive enumeration over block subsets with isomorphism rejection."""

import pytest

from hyperblocks import (
    AbelianGroup,
    CapacityError,
    MODE_AMPLE_ONLY,
    MODE_FULL,
    STATUS_CERTIFIED,
    build_candidate,
    canonical_form,
    census_all_minus_ones,
    certified_candidates,
    compute_blocks,
    enumerate_sharded,
    enumerate_subsets,
    is_ample,
    merge_censuses,
    shard_span,
    verify_all_subsets,
    verify_axioms,
)
from conftest import from_labels


def test_z3_full_census(z3_blocks):
    c = enumerate_subsets(z3_blocks)
    assert c.summary() == "subsets=16 hyperfields=9 classes=7 ample=6"
    assert c.subsets_examined == 16
    assert c.hyperfield_count == 9
    assert c.class_count == 7
    assert c.ample_count == 6
    assert c.mode == MODE_FULL


def test_z3_class_structure(z3_blocks):
    c = enumerate_subsets(z3_blocks)
    # {D} {BD,CD} {BC} {ABD,ACD} {BCD} {ABC} {ABCD}
    by_subset = {cl.example_subset: cl for cl in c.classes}
    lab = z3_blocks.subset_from_labels
    assert set(by_subset) == {
        lab("D"), lab("BD"), lab("BC"), lab("ABD"), lab("BCD"), lab("ABC"), lab("ABCD")
    }
    assert by_subset[lab("BD")].members == 2
    assert by_subset[lab("ABD")].members == 2
    for labels in ["D", "BC", "BCD", "ABC", "ABCD"]:
        assert by_subset[lab(labels)].members == 1
    assert not by_subset[lab("D")].ample
    assert not by_subset[lab("BD")].ample
    for labels in ["BC", "ABD", "BCD", "ABC", "ABCD"]:
        assert by_subset[lab(labels)].ample


def test_bd_isomorphic_to_cd(z3_blocks):
    bd = from_labels(z3_blocks, "BD")
    cd = from_labels(z3_blocks, "CD")
    assert bd != cd
    assert canonical_form(bd) == canonical_form(cd)
    abd = from_labels(z3_blocks, "ABD")
    acd = from_labels(z3_blocks, "ACD")
    assert canonical_form(abd) == canonical_form(acd)
    assert canonical_form(bd) != canonical_form(abd)


def test_canonical_form_distinguishes_classes(z3_blocks):
    c = enumerate_subsets(z3_blocks)
    forms = [cl.canonical_pi for cl in c.classes]
    assert len(forms) == len(set(forms))


def test_canonical_form_is_automorphism_invariant():
    g = AbelianGroup.from_spec("Z5")
    bp = compute_blocks(g, 0)
    for mask in range(1 << bp.b):
        h = build_candidate(bp, mask)
        base = canonical_form(h)
        for sigma in g.automorphisms():
            moved = {
                (sigma[p // 5], sigma[p % 5]) for blk in bp.blocks
                for p in blk if (mask >> bp.block_of(p // 5, p % 5)) & 1
            }
            bits = "".join(
                "1" if (x, y) in moved else "0" for x in range(5) for y in range(5)
            )
            from hyperblocks import HyperfieldCandidate
            assert canonical_form(HyperfieldCandidate.from_pi_bits(g, 0, bits)) == base


def test_ample_only_mode(z3_blocks):
    c = enumerate_subsets(z3_blocks, mode=MODE_AMPLE_ONLY)
    assert c.summary() == "subsets=16 hyperfields=6 classes=5 ample=6"
    assert c.mode == MODE_AMPLE_ONLY
    assert c.hyperfield_count == 6
    assert c.class_count == 5


def test_certified_candidates_status_and_soundness(z3_blocks):
    seen = []
    for mask, h in certified_candidates(z3_blocks):
        assert h.status == STATUS_CERTIFIED
        assert is_ample(h)
        assert verify_axioms(h).ok
        seen.append(mask)
    lab = z3_blocks.subset_from_labels
    assert sorted(seen) == sorted(
        lab(s) for s in ["BC", "ABC", "ABD", "ACD", "BCD", "ABCD"]
    )


def test_certified_candidates_on_unaligned_gray_span(z7_blocks):
    span = (37, 2011)
    gray = [t ^ (t >> 1) for t in range(*span)]
    expected = [mask for mask in gray if is_ample(build_candidate(z7_blocks, mask))]
    got = list(certified_candidates(z7_blocks, span))
    assert [mask for mask, _ in got] == expected
    assert all(h == build_candidate(z7_blocks, mask) for mask, h in got)
    assert all(h.status == STATUS_CERTIFIED for _, h in got)


def test_trivial_group_census():
    bp = compute_blocks(AbelianGroup([]), 0)
    c = enumerate_subsets(bp)
    # empty relation is the 2-element field, full relation is the
    # two-element hyperfield with 1+1 = {0,1}
    assert c.subsets_examined == 2
    assert c.hyperfield_count == 2
    assert c.class_count == 2


def test_census_counts_match_brute_force():
    for spec in ["Z4", "Z2xZ2", "Z5"]:
        g = AbelianGroup.from_spec(spec)
        for m1 in g.involution_candidates():
            bp = compute_blocks(g, m1)
            expected_hf = 0
            expected_ample = 0
            for mask in range(1 << bp.b):
                h = build_candidate(bp, mask)
                if verify_axioms(h).ok:
                    expected_hf += 1
                    if is_ample(h):
                        expected_ample += 1
            c = enumerate_subsets(bp)
            assert c.hyperfield_count == expected_hf
            assert c.ample_count == expected_ample
            assert sum(cl.members for cl in c.classes) == expected_hf


def test_class_sizes_divide_automorphism_count():
    for spec in ["Z3", "Z4", "Z2xZ2", "Z5", "Z7"]:
        g = AbelianGroup.from_spec(spec)
        for m1 in g.involution_candidates():
            fixing = [a for a in g.automorphisms() if a[m1] == m1]
            c = enumerate_subsets(compute_blocks(g, m1))
            for cl in c.classes:
                assert len(fixing) % cl.members == 0


def test_span_merge_equals_whole(z3_blocks):
    whole = enumerate_subsets(z3_blocks)
    parts = [
        enumerate_subsets(z3_blocks, span=(0, 5)),
        enumerate_subsets(z3_blocks, span=(5, 11)),
        enumerate_subsets(z3_blocks, span=(11, 16)),
    ]
    assert sum(p.subsets_examined for p in parts) == 16
    assert merge_censuses(parts) == whole


def test_shard_spans_tile_the_gray_range():
    for b, n in [(0, 1), (4, 1), (4, 3), (4, 16), (12, 7)]:
        spans = [shard_span(b, i, n) for i in range(n)]
        assert spans[0][0] == 0 and spans[-1][1] == 1 << b
        assert all(lo < hi == nxt for (lo, hi), (nxt, _) in zip(spans, spans[1:]))
    for i, n in [(-1, 3), (3, 3), (0, 0)]:
        with pytest.raises(ValueError):
            shard_span(4, i, n)


def test_spans_outside_the_gray_range_are_refused(z3_blocks):
    # Z3 has b = 4, so positions run over [0, 16)
    for span in [(0, 64), (9, 3), (-1, 4), (16, 17)]:
        for mode in (MODE_FULL, MODE_AMPLE_ONLY):
            with pytest.raises(ValueError):
                enumerate_subsets(z3_blocks, mode, span=span)
        with pytest.raises(ValueError):
            list(certified_candidates(z3_blocks, span))
    assert enumerate_subsets(z3_blocks, span=(0, 16)) == enumerate_subsets(z3_blocks)
    assert len(list(certified_candidates(z3_blocks, (0, 16)))) == 6
    for k in (0, 7, 16):
        empty = enumerate_subsets(z3_blocks, span=(k, k))
        assert empty.summary() == "subsets=0 hyperfields=0 classes=0 ample=0"
        assert list(certified_candidates(z3_blocks, (k, k))) == []


def test_keys_past_32_bits_give_the_canonical_form():
    # Z13 has b = 35; this span of 4,096 Gray positions centres on the
    # all-ones mask, so its classes' keys set bits 32 to 34
    bp = compute_blocks(AbelianGroup.from_spec("Z13"), 0)
    assert bp.b == 35
    t = int("10" * 17 + "1", 2)
    assert t ^ (t >> 1) == (1 << 35) - 1
    c = enumerate_subsets(bp, MODE_AMPLE_ONLY, budget_bits=35, span=(t - 2048, t + 2048))
    assert c.summary() == "subsets=4096 hyperfields=2510 classes=352 ample=2510"
    assert any(cl.canonical_pi[0] == "1" for cl in c.classes)  # pi bit 0 is key bit 34
    for cl in c.classes:
        assert cl.canonical_pi == canonical_form(build_candidate(bp, cl.example_subset))
    empty = enumerate_subsets(bp, MODE_AMPLE_ONLY, budget_bits=35, span=(t, t))
    assert empty.classes == ()


def test_sharded_matches_serial(z3_blocks, z7_blocks):
    assert enumerate_sharded(z3_blocks, threads=3) == enumerate_subsets(z3_blocks)
    # more shards than the 16 subsets: one subset per shard
    assert enumerate_sharded(z3_blocks, threads=1000) == enumerate_subsets(z3_blocks)
    whole = enumerate_subsets(z7_blocks, mode=MODE_AMPLE_ONLY)
    assert enumerate_sharded(z7_blocks, mode=MODE_AMPLE_ONLY, threads=4) == whole


def test_sharded_rejects_fewer_than_one_thread(z3_blocks):
    for threads in (0, -3):
        with pytest.raises(ValueError):
            enumerate_sharded(z3_blocks, threads=threads)


def test_census_all_minus_ones():
    censuses = census_all_minus_ones(AbelianGroup.from_spec("Z4"))
    assert [c.minus_one for c in censuses] == [0, 2]
    assert all(c.subsets_examined == 32 for c in censuses)
    z10 = census_all_minus_ones(AbelianGroup.from_spec("Z5"))
    assert [c.minus_one for c in z10] == [0]


def test_budget_enforced(z7_blocks):
    with pytest.raises(CapacityError):
        enumerate_subsets(z7_blocks, budget_bits=5)


def _scalar_tally(bp):
    counts = {}
    verified = certified = certified_unverified = 0
    for mask in range(1 << bp.b):
        h = build_candidate(bp, mask)
        report = verify_axioms(h)
        screen = 2 * min(row.bit_count() for row in h.rows) > bp.r
        certified += screen
        if report.ok:
            verified += 1
        else:
            counts[report.axiom] = counts.get(report.axiom, 0) + 1
            certified_unverified += screen
    return verified, certified, certified_unverified, counts


@pytest.mark.parametrize("spec,m1", [("Z4", 0), ("Z2xZ2", 1), ("Z5", 0), ("Z6", 3)])
def test_batch_sweep_matches_scalar_verify(spec, m1):
    bp = compute_blocks(AbelianGroup.from_spec(spec), m1)
    sweep = verify_all_subsets(bp)
    verified, certified, certified_unverified, counts = _scalar_tally(bp)
    assert sweep.subsets_examined == 1 << bp.b
    assert sweep.verified_count == verified
    assert sweep.certified_count == certified
    assert sweep.certified_unverified == certified_unverified
    assert sweep.failure_counts == counts


def test_batch_sweep_z7_tallies(z7_blocks):
    sweep = verify_all_subsets(z7_blocks)
    assert sweep.subsets_examined == 4096
    assert sweep.verified_count == 932
    assert sweep.certified_count == 612  # same count the exact solution counter gives
    assert sweep.certified_unverified == 0
    assert sweep.reversibility_only == 0
    # block unions satisfy the two closure symmetries by construction, so the
    # only axioms that can fail are nonempty sums and associativity
    assert set(sweep.failure_counts) <= {"nonempty-sums", "associativity"}


def test_batch_sweep_budget_and_order_caps(z7_blocks):
    with pytest.raises(CapacityError):
        verify_all_subsets(z7_blocks, budget_bits=5)
    big = compute_blocks(AbelianGroup.from_spec("Z16"), 0)
    with pytest.raises(CapacityError):
        verify_all_subsets(big)
