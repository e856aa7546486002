from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from littlelab.classes import (EnumerableClass, FiniteClass, hd_prime, singletons,
                               thresholds)
from littlelab.littlestone import (ShatteredTree, find_shattered_tree, ldim,
                                   max_witness_depth, tree_enumerator,
                                   verify_shattered_tree)
import reference_littlestone as reference
from conftest import seeded_classes


# ---------------------------------------------------------------------------
# Dimension engine

def test_ldim_base_cases():
    assert ldim(FiniteClass(3, frozenset())) == -1
    assert ldim(FiniteClass(3, frozenset({5}))) == 0


def test_ldim_known_families():
    for d in (1, 2, 3):
        assert ldim(thresholds(d)) == d
        assert ldim(hd_prime(d)) == d
    for n in (2, 3, 6):
        assert ldim(singletons(n)) == 1
    assert ldim(singletons(1)) == 0  # one hypothesis cannot split anything


def test_ldim_full_cube():
    H = FiniteClass(3, frozenset(range(8)))
    assert ldim(H) == 3


@st.composite
def finite_classes(draw):
    domain = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.frozensets(st.integers(min_value=0, max_value=(1 << domain) - 1),
                              min_size=0, max_size=8))
    return FiniteClass(domain, rows)


@settings(max_examples=60, deadline=None)
@given(finite_classes())
def test_engines_agree(H):
    assert ldim(H) == max_witness_depth(H)


@settings(max_examples=40, deadline=None)
@given(finite_classes())
def test_ldim_log_bound_and_monotonicity(H):
    if H.rows:
        assert 0 <= ldim(H) <= max(len(H.rows).bit_length() - 1, 0)
    sub = FiniteClass(H.domain_size, frozenset(list(H.rows)[: len(H.rows) // 2]))
    assert ldim(sub) <= ldim(H)


# ---------------------------------------------------------------------------
# Witness trees

def test_tree_shape_validation():
    with pytest.raises(ValueError):
        ShatteredTree((1, 2), 2)


def test_tree_paths_enumeration():
    tree = ShatteredTree((1, 0, 2), 2)
    paths = list(reference.paths(tree))
    assert len(paths) == 4
    assert paths[0] == ((1, 0), (0, 0))
    assert paths[3] == ((1, 1), (2, 1))


def test_find_and_verify_witnesses_on_seeded_classes():
    for H in seeded_classes(7, 25):
        d = ldim(H)
        if d >= 1:
            tree = find_shattered_tree(H, d)
            assert tree is not None
            assert verify_shattered_tree(H, tree, d)
            assert reference.verify_shattered_tree(H, tree, d)
        assert find_shattered_tree(H, d + 1) is None


def test_verify_rejects_a_non_witness():
    H = singletons(4)  # dimension 1: no depth-2 tree exists
    bogus = ShatteredTree((0, 1, 2), 2)
    assert not verify_shattered_tree(H, bogus, 2)
    with pytest.raises(ValueError):
        verify_shattered_tree(H, bogus, 3)


@st.composite
def classes_with_trees(draw):
    # Node instances come from the domain, so invalid trees and paths that
    # give one instance both labels occur; the empty class and domain 0 (depth
    # 0 only) are drawn too.
    domain = draw(st.integers(min_value=0, max_value=6))
    rows = draw(st.frozensets(st.integers(min_value=0, max_value=(1 << domain) - 1),
                              max_size=16))
    H = FiniteClass(domain, rows)
    instance = st.integers(min_value=0, max_value=max(domain - 1, 0))
    if ldim(H) >= 1 and draw(st.booleans()):
        # A found witness with one node redrawn: shattered trees and near
        # misses at full depth, which random nodes above depth 2 rarely give.
        nodes = list(find_shattered_tree(H, ldim(H)).nodes)
        nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))] = draw(instance)
        return H, ShatteredTree(tuple(nodes), ldim(H))
    depth = draw(st.integers(min_value=0, max_value=4 if domain else 0))
    nodes = draw(st.lists(instance, min_size=(1 << depth) - 1, max_size=(1 << depth) - 1))
    return H, ShatteredTree(tuple(nodes), depth)


@settings(max_examples=400, deadline=None)
@given(classes_with_trees())
def test_verify_matches_the_path_by_path_reference(case):
    H, tree = case
    assert verify_shattered_tree(H, tree, tree.depth) == \
        reference.verify_shattered_tree(H, tree, tree.depth)


def test_find_shattered_tree_requires_positive_depth():
    with pytest.raises(ValueError):
        find_shattered_tree(thresholds(1), 0)


# ---------------------------------------------------------------------------
# Dovetailing enumerator

def test_enumerator_finds_embedded_witness():
    E = EnumerableClass.embed_finite(thresholds(2))
    found = [item for item in islice(tree_enumerator(E, 2), 10_000) if item is not None]
    assert len(found) == 1 and isinstance(found[0], ShatteredTree)
    assert verify_shattered_tree(thresholds(2), found[0], 2)


def test_enumerator_depth_zero_needs_one_hypothesis():
    E = EnumerableClass.embed_finite(singletons(2))
    found = [item for item in islice(tree_enumerator(E, 0), 1_000) if item is not None]
    assert found == [ShatteredTree((), 0)]


def test_enumerator_certifies_nothing_above_the_dimension_or_below_zero():
    E = EnumerableClass.embed_finite(thresholds(2))
    # Depth above the true dimension never certifies, only ticks.
    assert set(islice(tree_enumerator(E, 3), 2_000)) == {None}
    # At negative depth there is no witness to find: the stream is empty.
    assert list(tree_enumerator(E, -1)) == []


def test_enumerator_skips_absent_slots():
    def gen(i):
        if i == 0:
            return None
        if i <= 2:
            return frozenset({i - 1}).__contains__
        return None

    E = EnumerableClass(gen, 4)
    found = [item for item in islice(tree_enumerator(E, 1), 10_000) if item is not None]
    assert len(found) == 1 and found[0].depth == 1


def test_tree_enumerator_yields_progress_ticks():
    E = EnumerableClass.embed_finite(thresholds(1))
    stream = tree_enumerator(E, 1)
    first = next(stream)
    assert first is None
