"""Online-to-batch conversion and distributional evaluation.

All probabilities and losses are exact rationals: a converted predictor's
value at x is the average of the online learner's T predictions, and errors
against finite distributions are computed term by term, so every comparison
in the tests is exact rather than floating-point.

The hot loops stay on integers.  The average is one `Fraction` of the
integer sum of the predictions over T.  A draw takes r = randrange(10**9)
and picks the first item whose cumulative weight c exceeds u = r / 10**9;
since r is an integer, u >= c exactly when r >= ceil(c * 10**9), so the
draw compares r with those integer thresholds and picks what the rational
comparison picks.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .core import LabeledInstance, Sample


@dataclass(frozen=True)
class ProbabilisticHypothesis:
    """A [0,1]-valued predictor: the probability of emitting label 1."""

    fn: Callable[[int], Fraction]

    def __call__(self, x: int) -> Fraction:
        value = Fraction(self.fn(x))
        if not 0 <= value <= 1:
            raise ValueError(f"prediction {value} outside [0, 1]")
        return value


def point_loss(h, item: tuple[int, int]) -> Fraction:
    """|h(x) - y|: the probability a Bernoulli(h(x)) draw mislabels (x, y)."""
    x, y = item
    if y not in (0, 1):
        raise ValueError("labels are 0 or 1")
    return abs(Fraction(h(x)) - y)


def online_to_batch(learner, sample: Sample) -> ProbabilisticHypothesis:
    """Average the learner's predictions over all prefixes of the sample.

    The T prefixes are those of length 0..T-1, so the last item is never
    folded in.  The empty sample converts to the learner's prior prediction
    (T = 0 is treated as averaging the single prediction on the empty
    history).
    """
    states = [learner.init]
    for x, y in sample.items[:-1]:
        states.append(learner.update(states[-1], x, y))

    def fn(x: int) -> Fraction:
        return Fraction(sum(learner.decide(state, x) for state in states), len(states))

    return ProbabilisticHypothesis(fn)


# ---------------------------------------------------------------------------
# Finite distributions

# A draw's uniform variate is randrange(_DRAW_SCALE) / _DRAW_SCALE.
_DRAW_SCALE = 10 ** 9


@dataclass(frozen=True)
class FiniteDistribution:
    weights: tuple[tuple[LabeledInstance, Fraction], ...]

    def __post_init__(self) -> None:
        total = sum((w for _, w in self.weights), Fraction(0))
        if total != 1:
            raise ValueError(f"weights sum to {total}, not 1")
        if any(w < 0 for _, w in self.weights):
            raise ValueError("weights must be nonnegative")

    @staticmethod
    def of(weights: Mapping[tuple[int, int], Fraction | int]) -> "FiniteDistribution":
        return FiniteDistribution(tuple(
            (LabeledInstance(x, y), Fraction(w))
            for (x, y), w in sorted(weights.items())))

    @staticmethod
    def uniform_over(items: Iterable[tuple[int, int]]) -> "FiniteDistribution":
        items = list(items)
        if not items:
            raise ValueError("a uniform distribution needs at least one item")
        weight = Fraction(1, len(items))
        return FiniteDistribution.of({item: weight for item in items})

    def draw(self, rng: random.Random, m: int) -> Sample:
        population = [item for item, _ in self.weights]
        thresholds = []
        acc = Fraction(0)
        for _, w in self.weights[:-1]:
            acc += w
            thresholds.append(math.ceil(acc * _DRAW_SCALE))
        return Sample.of(*(population[bisect_right(thresholds, rng.randrange(_DRAW_SCALE))]
                           for _ in range(m)))


def distribution_error(h, D: FiniteDistribution) -> Fraction:
    """Exact expected point loss of a (possibly probabilistic) predictor."""
    return sum((w * point_loss(h, item) for item, w in D.weights), Fraction(0))


def pac_evaluate(learner, D: FiniteDistribution, m: int, trials: int,
                 seed: int) -> list[Fraction]:
    """Per-trial exact error of the online-to-batch converted learner on m
    i.i.d. draws; deterministic in the seed."""
    rng = random.Random(seed)
    errors = []
    for _ in range(trials):
        sample = D.draw(rng, m)
        errors.append(distribution_error(online_to_batch(learner, sample), D))
    return errors

