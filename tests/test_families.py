import pytest
from hypothesis import given, settings, strategies as st

import reference_families as reference
from littlelab.budget import FuelExhaustedError
from littlelab.core import Sample, canonical_index, encode_sample
from littlelab.families import (MAX_MEMBER_BITS, BlockPosition, IndexedClass,
                                adversarial_family, block_position,
                                diagonal_forcing_sample, diagonal_label,
                                dimension_witness_from_thresholds,
                                extended_block_supports,
                                extended_family_decider, find_thresholds,
                                forcing_row_bits, s1, s2, stage_hypothesis, triple_block_family,
                                two_tier_block_supports, two_tier_family_decider)
from littlelab.game import Horizon, mistake_bound, mistakes_on_sample
from littlelab.learners import b_triple_blocks, toy_learner
from littlelab.littlestone import ldim, verify_shattered_tree
from littlelab.machine import CONST0_INDEX, TableOracle

ORACLE = TableOracle({(0, 0): 0, (0, 1): 1, (1, 0): 0, (2, 2): 0, (2, 0): 1})
# Self-halting: e=0 (value irrelevant here: (0,0) is self input), e=2.
# Program 1 halts on 0 but not on itself.


# ---------------------------------------------------------------------------
# Re-indexing

def test_indexed_class_round_trip():
    indexed = IndexedClass.from_supports(
        [frozenset({10, 30}), frozenset({20})])
    assert indexed.naturals == (10, 20, 30)
    assert indexed.to_natural(indexed.of_natural(20)) == 20
    assert indexed.finite.rows == frozenset({0b101, 0b010})
    sample = indexed.reindex_sample(Sample.of((30, 1), (10, 0)))
    assert sample == Sample.of((2, 1), (0, 0))


# ---------------------------------------------------------------------------
# Self-halting block families

def test_triple_block_family_slots():
    family = triple_block_family(ORACLE, 3)
    # Program 1 lacks the upper tiers.
    assert [i for i in range(9) if family.generator(i) is None] == [4, 5]
    truncation = family.truncation(9)
    assert ldim(truncation) == 2
    # Block 0 contributes all three supports, block 1 only the base.
    assert (1 << 0) in truncation.rows
    assert ((1 << 0) | (1 << 1) | (1 << 2)) in truncation.rows
    assert (1 << 3) in truncation.rows
    assert ((1 << 3) | (1 << 4)) not in truncation.rows


def test_triple_block_learner_bound():
    truncation = triple_block_family(ORACLE, 3).truncation(9)
    bound = mistake_bound(b_triple_blocks(), truncation, Horizon(6))
    assert bound.value == 2


# ---------------------------------------------------------------------------
# Certificate-exponent block families

def test_extended_supports_and_decider():
    e_list = [0, 1, 2]
    supports = extended_block_supports(ORACLE, e_list)
    # e=0: halts on 0 and on itself with value 0 -> 3 supports; e=1: halts on
    # 0 but not itself -> 1 support; e=2: halts on 0 and itself (value 0) -> 3.
    assert len(supports) == 7
    decide = extended_family_decider(ORACLE)
    for support in supports:
        assert decide(canonical_index(support)) == 1
    assert decide(canonical_index({2, 3})) == 0
    assert decide(0) == 0  # the empty set
    assert decide(canonical_index({6})) == 0  # 2*3: no pure power of two


def test_two_tier_supports_and_decider():
    supports = two_tier_block_supports(ORACLE, [0, 1, 2])
    assert len(supports) == 7
    decide = two_tier_family_decider(ORACLE)
    for support in supports:
        assert decide(canonical_index(support)) == 1
    # 13 never appears in this family.
    c0 = ORACLE.certificate_index(0, 0)
    ce = ORACLE.certificate_index(0, 0)
    assert decide(canonical_index({1, 5 ** c0, 13 ** ce})) == 0


class LoggedOracle(TableOracle):
    """A table oracle that logs every query.  The certificate positions of
    the pairs in `unknown` are not found, as a budgeted oracle's may not be."""

    def __init__(self, halting, certificates, unknown):
        super().__init__(halting, certificates)
        self.unknown = unknown
        self.log = []

    def halts(self, e, x):
        self.log.append(("halts", e, x))
        return super().halts(e, x)

    def certificate_index(self, e, x):
        self.log.append(("certificate_index", e, x))
        return None if (e, x) in self.unknown else super().certificate_index(e, x)

    def cert_matches(self, e, i, x):
        self.log.append(("cert_matches", e, i, x))
        return super().cert_matches(e, i, x)


@st.composite
def oracle_tables(draw, positions=st.integers(1, 3)):
    """Entries for programs e < 4 on inputs 0 and e, each sometimes absent,
    with outputs 0-2 and certificate positions drawn from `positions`
    (sometimes the table's default, sometimes not found)."""
    halting, certificates, unknown = {}, {}, set()
    for e in range(4):
        for x in sorted({0, e}):
            if draw(st.integers(0, 3)) == 0:
                continue
            halting[(e, x)] = draw(st.integers(0, 2))
            if draw(st.booleans()):
                certificates[(e, x)] = draw(positions)
            if draw(st.integers(0, 7)) == 0:
                unknown.add((e, x))
    return halting, certificates, unknown


def _outcome(table, call):
    """What `call(oracle)` returns or the budget error it raises, and the
    oracle queries it made, on a fresh logged oracle over `table`."""
    oracle = LoggedOracle(*table)
    try:
        result = call(oracle)
    except FuelExhaustedError as exc:
        result = ("budget", str(exc))
    return result, oracle.log


FAMILIES = [(extended_block_supports, reference.extended_block_members,
             extended_family_decider, reference.extended_family_decider),
            (two_tier_block_supports, reference.two_tier_block_members,
             two_tier_family_decider, reference.two_tier_family_decider)]


@st.composite
def block_sets(draw):
    """Finite sets near a block's supports: 2**e or not, odd block primes
    with exponents 0-3 and sometimes a member of another block."""
    e = draw(st.integers(0, 3))
    members = set() if draw(st.integers(0, 4)) == 4 else {2 ** e}
    for y in draw(st.lists(st.sampled_from((3, 5, 7, 11, 13)), max_size=3)):
        members.add(2 ** e * y ** draw(st.integers(0, 3)))
    if draw(st.integers(0, 4)) == 4:
        members.add(2 ** draw(st.integers(0, 3)) * draw(st.sampled_from((1, 3, 13))))
    return frozenset(members)


@settings(max_examples=150, deadline=None)
@given(oracle_tables(), st.lists(block_sets(), max_size=4))
def test_shape_tables_match_the_if_chains(table, drawn):
    for supports, members, decider, reference_decider in FAMILIES:
        for e_list in ([0], [1], [2], [3], range(4)):
            assert _outcome(table, lambda o: supports(o, e_list)) == _outcome(
                table, lambda o: [s for e in e_list for s in members(o, e)])
        # Codes: every support the family would have without budget errors,
        # each with one member shifted by -1, 1, 2 or 3, and the drawn sets.
        sets = set(drawn)
        for support in supports(TableOracle(*table[:2]), range(4)):
            sets.add(support)
            for member in support:
                for shift in (-1, 1, 2, 3):
                    sets.add((support - {member}) | {member + shift})
        for candidate in sorted(sets, key=sorted):
            code = canonical_index(candidate)
            assert _outcome(table, lambda o: decider(o)(code)) == _outcome(
                table, lambda o: reference_decider(o)(code)), sorted(candidate)


@settings(max_examples=150, deadline=None)
@given(oracle_tables(positions=st.integers(1, 24)))
def test_member_cap_refuses_exactly_the_supports_above_it(table):
    # A truncation with every position known either is built whole, below
    # the cap, or is refused; with unknown positions the budget error comes
    # first unless a member above the cap is reached before it.
    for supports, members, *_ in FAMILIES:
        for e_list in ([0], [1], [2], [3], range(4)):
            reference_call = lambda o: [s for e in e_list for s in members(o, e)]
            expected = _outcome(table, reference_call)
            whole = reference_call(TableOracle(*table[:2]))
            oversize = any(max(s) >> MAX_MEMBER_BITS for s in whole)
            try:
                outcome = _outcome(table, lambda o: supports(o, e_list))
            except ValueError as exc:
                assert oversize and f"member cap of 2^{MAX_MEMBER_BITS};" in str(exc)
                continue
            assert outcome == expected
            assert not oversize or isinstance(expected[0], tuple)  # the budget error


def test_member_cap_sits_at_2_to_the_20():
    # With P_e halting on 0 with output 2, block e's one support is
    # {2**e, 2**e * 3**c0}: built for the largest c0 that keeps 2**e * 3**c0
    # below 2**20, refused one position higher.
    for e in range(4):
        c0 = max(c for c in range(1, 20) if 2 ** e * 3 ** c < 2 ** MAX_MEMBER_BITS)
        oracle = TableOracle({(e, 0): 2}, {(e, 0): c0})
        assert extended_block_supports(oracle, [e]) == [{2 ** e, 2 ** e * 3 ** c0}]
        oracle.certificates[(e, 0)] = c0 + 1
        with pytest.raises(ValueError, match=f"2\\^{e} \\* 3\\^{c0 + 1}, at or above"):
            extended_block_supports(oracle, [e])


# ---------------------------------------------------------------------------
# Diagonal adversarial family

def test_block_geometry():
    assert [s1(n) for n in range(4)] == [0, 1, 3, 6]
    assert [s2(n) for n in range(4)] == [0, 1, 4, 10]
    for n in range(40):
        position = block_position(n)
        assert position.start <= n < position.end
        assert position.end - position.start == position.j + 1
        # Row (i, j) is the forcing row of the learner coded i - j, M = j.
        forcing = diagonal_forcing_sample(position.i - position.j, position.j, 1)
        assert n in [x for x, _ in forcing]
    with pytest.raises(ValueError):
        block_position(-1)


@pytest.mark.parametrize("e", range(0, 40, 3))
def test_forcing_row_bits_bound_the_codes_the_row_builds(e):
    for M in range(6):
        sample = diagonal_forcing_sample(e, M, 100)
        codes = sum(encode_sample(Sample(sample.items[:k])).bit_length() for k in range(M + 1))
        bound = forcing_row_bits(e, M, 10 ** 9)
        assert codes <= bound
        # Stopping early gives a partial sum past the limit, never a value at or below it.
        for limit in (0, bound // 2, bound - 1, bound):
            assert (forcing_row_bits(e, M, limit) > limit) == (bound > limit)


def test_block_rows_tile_each_block():
    # Within block i the rows partition [s2(i), s2(i+1)).
    for i in range(4):
        covered = []
        for j in range(i + 1):
            p = BlockPosition(i, j)
            covered.extend(range(p.start, p.end))
        assert covered == list(range(s2(i), s2(i + 1)))


def test_diagonal_labels_are_deterministic_and_flagged():
    for n in range(12):
        label, certain = diagonal_label(n)
        assert label in (0, 1)
        assert diagonal_label(n) == (label, certain)


def test_diagonal_rows_match_the_recursive_labels():
    # One fold per row gives the labels and flags the per-instance recursion
    # gave, on every row of blocks 0-6 and on the forcing rows of learners
    # 0-29; budget 1 leaves some runs unhalted, so both flags occur.
    flags = set()
    for step_budget in (1, 3, 50, 10_000):
        labels = [diagonal_label(n, step_budget) for n in range(s2(7))]
        assert labels == [reference.diagonal_label(n, step_budget) for n in range(s2(7))]
        flags.update(certain for _, certain in labels)
        family = adversarial_family(7, step_budget)
        assert [family.generator(block_position(n).i)(n) for n in range(s2(7))] == \
            [label for label, _ in labels]
        for e in range(30):
            for M in range(3):
                position = BlockPosition(M + e, M)
                assert diagonal_forcing_sample(e, M, step_budget) == Sample.of(*(
                    (n, reference.diagonal_label(n, step_budget)[0])
                    for n in range(position.start, position.end)))
    assert flags == {True, False}


def test_adversarial_family_structure():
    family = adversarial_family(4)
    truncation = family.truncation(s2(4))
    assert ldim(truncation) <= 1
    # Supports are disjoint across hypotheses: at most one labels any x with 1.
    for x in range(s2(4)):
        assert sum((row >> x) & 1 for row in truncation.rows) <= 1


def test_forcing_sample_defeats_its_learner():
    sample = diagonal_forcing_sample(CONST0_INDEX, 1)
    assert len(sample) == 2
    assert mistakes_on_sample(toy_learner(CONST0_INDEX), sample) == 2
    # The sample is realizable by the block hypothesis that carries it.
    position = block_position(sample.items[0].x)
    family = adversarial_family(position.i + 1)
    hypothesis = family.generator(position.i)
    assert all(hypothesis(x) == y for x, y in sample)


# ---------------------------------------------------------------------------
# Initial-segment (stage) family

def test_stage_hypotheses_are_monotone_in_stage():
    witness = find_thresholds(3)
    assert witness.verify()
    assert witness.stages == tuple(sorted(witness.stages))
    h_small, h_big = stage_hypothesis(witness.stages[0]), stage_hypothesis(
        witness.stages[-1])
    assert all(h_big(x) >= h_small(x) for x in witness.instances)


def test_dimension_witness_from_thresholds():
    witness = find_thresholds(4)
    indexed, tree = dimension_witness_from_thresholds(witness, 2)
    assert verify_shattered_tree(indexed.finite, tree, 2)
    assert ldim(indexed.finite) >= 2


def test_find_thresholds_validation():
    with pytest.raises(ValueError):
        find_thresholds(0)
    with pytest.raises(FuelExhaustedError, match="only 2 distinct self-halting times"):
        find_thresholds(4, step_cap=1, x_cap=3)
