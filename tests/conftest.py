import pytest
from hypothesis import settings

from hyperblocks import AbelianGroup, build_candidate, compute_blocks

# the same examples on every run, and no deadline: timings vary too much on small hosts
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def z3():
    return AbelianGroup.from_spec("Z3")


@pytest.fixture(scope="session")
def z3_blocks(z3):
    return compute_blocks(z3, 0)


@pytest.fixture(scope="session")
def z7_blocks():
    g = AbelianGroup.from_spec("Z7")
    return compute_blocks(g, 0)


@pytest.fixture(scope="session")
def z5_blocks():
    g = AbelianGroup.from_spec("Z5")
    return compute_blocks(g, 0)


def from_labels(bp, labels):
    """Build a candidate from a block-label string like "BCD"."""
    return build_candidate(bp, bp.subset_from_labels(labels))


@pytest.fixture(scope="session")
def z3_named(z3_blocks):
    """The nine Z3 hyperfields, keyed by block labels."""
    names = ["D", "BD", "CD", "BC", "BCD", "ABD", "ACD", "ABC", "ABCD"]
    return {name: from_labels(z3_blocks, name) for name in names}
