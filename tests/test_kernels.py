import gc
import random
import tracemalloc

from hypothesis import example, given, settings, strategies as st

import reference_kernels as reference
from littlelab import families, kernels
from littlelab.classes import FiniteClass, singletons, thresholds
from littlelab.cli import default_table_oracle
from littlelab.game import optimal_mistake_bound
from littlelab.littlestone import _flatten, find_shattered_tree, ldim


@st.composite
def mask_classes(draw):
    domain = draw(st.integers(min_value=1, max_value=7))
    rows = draw(st.frozensets(
        st.integers(min_value=0, max_value=(1 << domain) - 1), max_size=14))
    return tuple(sorted(rows)), domain


def fresh_values(rows: tuple[int, ...], domain: int) -> tuple[int, int]:
    """(ldim, game value) of the rows, each kernel starting on the empty memo
    of a fresh class."""
    H = FiniteClass(domain, frozenset(rows))
    return ldim(H), optimal_mistake_bound(H)


def assert_matches_reference(rows: tuple[int, ...], domain: int) -> None:
    value, game_value = fresh_values(rows, domain)
    assert value == reference.ldim_masks(rows, domain)
    assert game_value == reference.game_value_masks(rows, domain)
    H = FiniteClass(domain, frozenset(rows))
    for depth in range(1, value + 2):
        expected = reference.search(rows, domain, depth)
        tree = find_shattered_tree(H, depth)
        if expected is None:
            assert tree is None
        else:
            assert tree is not None and tree.nodes == _flatten(expected, depth)


@settings(max_examples=200, deadline=None)
@given(mask_classes())
def test_kernels_and_search_match_reference(case):
    assert_matches_reference(*case)


@st.composite
def row_tuples(draw):
    # Domain 0 included; the zero row and the all-ones row drawn often.
    domain = draw(st.integers(min_value=0, max_value=9))
    full = (1 << domain) - 1
    row = st.sampled_from((0, full)) | st.integers(min_value=0, max_value=full)
    return tuple(draw(st.lists(row, max_size=16))), domain


@settings(max_examples=300, deadline=None)
@given(row_tuples())
@example(((), 0))
@example(((0,), 0))
@example(((0, (1 << 70) - 1, 1 << 69), 70))
def test_columns_match_reference(case):
    assert kernels.columns(*case) == reference.columns(*case)


def test_empty_and_one_row_classes():
    for domain in (0, 1, 5):
        assert fresh_values((), domain) == (-1, 0)
        assert_matches_reference((), domain)
    for row in (0, 1, 0b10110):
        assert fresh_values((row,), 5) == (0, 0)
        assert_matches_reference((row,), 5)


def test_duplicate_and_complementary_columns():
    # Instances 1 and 2 copy instance 0; instance 3 is its complement and
    # instance 4 is constant.  Only instance 0 splits, so the witness uses it.
    rows = (0b01000, 0b00111)
    assert_matches_reference(rows, 5)
    assert find_shattered_tree(FiniteClass(5, frozenset(rows)), 1).nodes == (0,)
    assert_matches_reference(thresholds(3).sorted_rows, 8)


def test_wide_domain_matches_reference():
    domain = 70  # row masks wider than 64 bits
    rows = (0, 1 << 69, (1 << 69) | 1)
    assert_matches_reference(rows, domain)
    H = FiniteClass(domain, frozenset(rows))
    assert ldim(H) == 1
    assert optimal_mistake_bound(H) == 1
    assert find_shattered_tree(H, 1).nodes == (0,)


def test_large_classes_the_naive_recursions_cannot_finish():
    assert ldim(singletons(40)) == 1
    assert fresh_values(thresholds(6).sorted_rows, 64) == (6, 6)


@st.composite
def classes_with_version_spaces(draw):
    rows, domain = draw(mask_classes())
    full = (1 << len(rows)) - 1
    vs = draw(st.lists(st.integers(min_value=0, max_value=full), max_size=8))
    return FiniteClass(domain, frozenset(rows)), draw(st.permutations(vs + [0, full]))


@settings(max_examples=200, deadline=None)
@given(classes_with_version_spaces())
def test_class_memos_match_reference_on_every_version_space(case):
    # One class object answers every query, so its memos carry over between
    # version spaces queried in any order.
    H, vs = case
    for v in vs:
        sub = H.restricted_to(v).sorted_rows
        assert H.ldim_of(v) == reference.ldim_masks(sub, H.domain_size)
        assert H.game_value_of(v) == reference.game_value_masks(sub, H.domain_size)


@settings(max_examples=100, deadline=None)
@given(classes_with_version_spaces())
def test_class_memos_answer_small_and_repeated_spaces_exactly(case):
    # The empty space, every one-row space, and each space twice over, so the
    # second query is a memo hit.
    H, vs = case
    for v in [0, *(1 << i for i in range(len(H))), *vs, *vs]:
        sub = H.restricted_to(v).sorted_rows
        assert H.ldim_of(v) == reference.ldim_masks(sub, H.domain_size)
        assert H.game_value_of(v) == reference.game_value_masks(sub, H.domain_size)
    for memo in (H._ldim_memo, H._game_memo):
        assert all(v & (v - 1) for v in memo)


def test_ldim_kernel_stops_at_a_side_of_dimension_zero():
    # Each split of singletons(64) has a one-row side, so only the root is
    # computed, not a chain of 63 nested version spaces.
    H = singletons(64)
    assert ldim(H) == 1
    assert len(H._ldim_memo) == 1


def test_game_kernel_stops_at_a_bound_of_one():
    # The first-mistake bound of singletons(1000) is 1, so the root returns
    # 1 at once instead of descending one frame per row, past the
    # interpreter's recursion limit.
    H = singletons(1000)
    assert optimal_mistake_bound(H) == 1
    assert len(H._game_memo) == 1


@st.composite
def classes_with_complement_instances(draw):
    # Instance domain + k is the complement of instance xs[k]: `splits` keeps
    # one column of each such pair, while the reference recursion reads both.
    rows, domain = draw(mask_classes())
    xs = draw(st.lists(st.integers(min_value=0, max_value=domain - 1),
                       min_size=1, max_size=domain))
    extended = frozenset(
        row | sum((~row >> x & 1) << (domain + k) for k, x in enumerate(xs))
        for row in rows)
    H = FiniteClass(domain + len(xs), extended)
    full = (1 << len(rows)) - 1
    vs = draw(st.lists(st.integers(min_value=0, max_value=full), max_size=6))
    return H, vs + [full]


@settings(max_examples=200, deadline=None)
@given(classes_with_complement_instances())
def test_game_values_with_complement_instances_match_reference(case):
    H, vs = case
    assert fresh_values(H.sorted_rows, H.domain_size)[1] == \
        reference.game_value_masks(H.sorted_rows, H.domain_size)
    for v in vs:
        sub = H.restricted_to(v).sorted_rows
        assert H.game_value_of(v) == reference.game_value_masks(sub, H.domain_size)


def test_game_kernel_visits_few_version_spaces_where_the_value_is_small():
    # floor(log2 |v|) never binds on these classes, where the first-mistake
    # bound does: the memo holds 1 and 8 version spaces, not 65,385 and 3,061.
    oracle = default_table_oracle()
    dr_halt = families.IndexedClass.from_supports(
        families.two_tier_block_supports(oracle, range(6))).finite
    for H, value in ((singletons(16), 1), (dr_halt, 2)):
        assert optimal_mistake_bound(H) == value
        assert len(H._game_memo) <= 32


def test_discarded_classes_leave_no_memo_behind():
    rng = random.Random(11)

    def churn(count: int) -> None:
        for _ in range(count):
            H = FiniteClass(8, frozenset(rng.sample(range(1 << 8), 12)))
            ldim(H)
            optimal_mistake_bound(H)

    tracemalloc.start()
    try:
        churn(100)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        churn(2000)
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 64 * 1024, f"traced memory grew by {growth} bytes"
