import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from littlelab.batch import (FiniteDistribution, ProbabilisticHypothesis,
                             distribution_error, online_to_batch, pac_evaluate,
                             point_loss)
from littlelab.classes import FiniteClass, thresholds
from littlelab.core import Sample
from littlelab.learners import conservative_learner, constant_learner, sol
from reference_batch import reference_draw, reference_pac_evaluate


# ---------------------------------------------------------------------------
# Probabilistic hypotheses and point loss

def test_probabilistic_hypothesis_range_check():
    h = ProbabilisticHypothesis(lambda x: Fraction(1, 2))
    assert h(0) == Fraction(1, 2)
    bad = ProbabilisticHypothesis(lambda x: Fraction(3, 2))
    with pytest.raises(ValueError):
        bad(0)


def test_point_loss_values():
    h = lambda x: Fraction(1, 4)
    assert point_loss(h, (0, 1)) == Fraction(3, 4)
    assert point_loss(h, (0, 0)) == Fraction(1, 4)
    with pytest.raises(ValueError):
        point_loss(h, (0, 2))


# ---------------------------------------------------------------------------
# Conversion

def test_conversion_is_the_exact_prefix_average():
    H = thresholds(2)
    learner = sol(H)
    sample = Sample.of((0, 1), (3, 0))
    converted = online_to_batch(learner, sample)
    for x in H.domain():
        mean = Fraction(
            sum(learner.predict(sample.prefix(t), x) for t in range(len(sample))),
            len(sample))
        assert converted(x) == mean
        assert converted(x) in (Fraction(0), Fraction(1, 2), Fraction(1))


def test_conversion_of_empty_sample_is_the_prior():
    learner = constant_learner(1)
    assert online_to_batch(learner, Sample())(3) == 1


# ---------------------------------------------------------------------------
# Distributions

def test_distribution_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        FiniteDistribution.of({(0, 1): Fraction(1, 2)})
    with pytest.raises(ValueError):
        FiniteDistribution.of({(0, 1): Fraction(3, 2),
                               (1, 0): Fraction(-1, 2)})


def test_uniform_distribution_and_exact_error():
    D = FiniteDistribution.uniform_over([(0, 1), (1, 0)])
    all_ones = lambda x: 1
    assert distribution_error(all_ones, D) == Fraction(1, 2)
    perfect = lambda x: int(x == 0)
    assert distribution_error(perfect, D) == 0
    with pytest.raises(ValueError, match="at least one item"):
        FiniteDistribution.uniform_over([])


def test_draws_are_seeded_and_supported():
    D = FiniteDistribution.of({(0, 1): Fraction(1, 4), (1, 0): Fraction(3, 4)})
    a = D.draw(random.Random(5), 30)
    b = D.draw(random.Random(5), 30)
    assert a == b
    assert {item.x for item in a} == {0, 1}  # both atoms appear in 30 draws


def test_pac_evaluate_deterministic_in_seed():
    H = thresholds(2)
    D = FiniteDistribution.uniform_over(
        (x, (min(H.rows) >> x) & 1) for x in H.domain())
    first = pac_evaluate(sol(H), D, m=10, trials=5, seed=3)
    second = pac_evaluate(sol(H), D, m=10, trials=5, seed=3)
    assert first == second
    assert all(isinstance(e, Fraction) and 0 <= e <= 1 for e in first)



class _StubRandom:
    """Hands out the given randrange values in turn."""

    def __init__(self, values):
        self.values = iter(values)

    def randrange(self, stop):
        assert stop == 10 ** 9
        return next(self.values)


def test_draw_picks_at_the_integer_thresholds():
    # u = r / 10**9 reaches a cumulative weight c exactly when r reaches
    # ceil(c * 10**9); one below it the earlier item is picked.  1/3 and 2/3
    # are not multiples of 10**-9 and 1/2 is, so a floor in place of the
    # ceiling picks the later item one step too early.
    weights = {(0, 1): Fraction(1, 3), (1, 0): Fraction(0), (2, 1): Fraction(1, 6),
               (3, 0): Fraction(1, 6), (4, 1): Fraction(1, 3)}
    D = FiniteDistribution.of(weights)
    # ceil(c * 10**9) for the distinct cumulative weights c of the items but
    # the last; the zero weight of x = 1 repeats the first.
    cuts = [333_333_334, 500_000_000, 666_666_667]
    values = [r for cut in cuts for r in (cut - 1, cut)] + [0, 10 ** 9 - 1]
    drawn = D.draw(_StubRandom(values), len(values))
    assert drawn == reference_draw(D, _StubRandom(values), len(values))
    assert [item.x for item in drawn] == [0, 2, 2, 3, 3, 4, 0, 4]


@st.composite
def distributions(draw):
    items = draw(st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                                    st.integers(min_value=0, max_value=1)),
                          min_size=1, max_size=6, unique=True))
    raw = draw(st.lists(st.integers(min_value=0, max_value=7),
                        min_size=len(items), max_size=len(items)).filter(any))
    return FiniteDistribution.of({item: Fraction(w, sum(raw)) for item, w in zip(items, raw)})


@settings(max_examples=100, deadline=None)
@given(distributions(), st.integers(min_value=0, max_value=12),
       st.integers(min_value=-2 ** 40, max_value=2 ** 40),
       st.sampled_from(["sol", "const0", "const1", "conservative"]))
def test_pac_evaluate_equals_the_rational_forms(D, m, seed, kind):
    # Uneven and zero weights, and labels that need not be realizable.
    H = FiniteClass(5, frozenset({0b00101, 0b11010, 0b00001, 0b10100}))
    learner = {"sol": sol(H), "conservative": conservative_learner()}.get(kind) \
        or constant_learner(int(kind[-1]))
    assert D.draw(random.Random(seed), m) == reference_draw(D, random.Random(seed), m)
    assert pac_evaluate(learner, D, m, 3, seed) == reference_pac_evaluate(learner, D, m, 3, seed)
