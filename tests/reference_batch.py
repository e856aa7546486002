"""Rational forms of the draw and the online-to-batch average.

``reference_draw`` is ``FiniteDistribution.draw`` as it was before it
compared integer thresholds: it turns each ``randrange(10**9)`` into the
rational u = r / 10**9 and walks the cumulative weights until u falls below
one.  ``reference_online_to_batch`` averages the predictions as a sum of
``Fraction`` values divided by their count.  ``reference_pac_evaluate`` runs
the trials of ``pac_evaluate`` with both.  They are only the oracles of the
agreement tests.
"""

from __future__ import annotations

import random
from fractions import Fraction

from littlelab.batch import (FiniteDistribution, ProbabilisticHypothesis,
                             distribution_error)
from littlelab.core import Sample


def reference_draw(D: FiniteDistribution, rng: random.Random, m: int) -> Sample:
    population = [item for item, _ in D.weights]
    cumulative = []
    acc = Fraction(0)
    for _, w in D.weights:
        acc += w
        cumulative.append(acc)
    picks = []
    for _ in range(m):
        u = Fraction(rng.randrange(10 ** 9), 10 ** 9)
        index = 0
        while index < len(cumulative) - 1 and u >= cumulative[index]:
            index += 1
        picks.append(population[index])
    return Sample.of(*picks)


def reference_online_to_batch(learner, sample: Sample) -> ProbabilisticHypothesis:
    states = [learner.init]
    for x, y in sample.items[:-1]:
        states.append(learner.update(states[-1], x, y))

    def fn(x: int) -> Fraction:
        return sum(Fraction(learner.decide(state, x)) for state in states) / len(states)

    return ProbabilisticHypothesis(fn)


def reference_pac_evaluate(learner, D: FiniteDistribution, m: int, trials: int,
                           seed: int) -> list[Fraction]:
    rng = random.Random(seed)
    return [distribution_error(reference_online_to_batch(learner, reference_draw(D, rng, m)), D)
            for _ in range(trials)]
