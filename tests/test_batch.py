import random
from fractions import Fraction

import pytest

from littlelab.batch import (FiniteDistribution, ProbabilisticHypothesis,
                             distribution_error, online_to_batch, pac_evaluate,
                             point_loss)
from littlelab.classes import thresholds
from littlelab.core import Sample
from littlelab.learners import constant_learner, sol


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

