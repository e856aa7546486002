"""The game explorer without its horizon-bound prunes or instance classes.

``ReferenceExplorer._explore`` is the explorer's search as it was before a
node stopped at the horizon's own bound and before it tried one instance
per class of equivalent instances: it tries every feasible step of every
instance except a correct one that keeps the learner's key, and it never
returns early.  The ``reference_*`` functions answer each question on fresh
reference explorers, one per horizon, as the library did before one memo
served every horizon.  The agreement tests compare values, witnesses and
verdicts of the library's explorer against them.
"""

from __future__ import annotations

from littlelab.classes import FiniteClass
from littlelab.game import (Explorer, GameValue, Horizon, Verdict,
                            optimal_mistake_bound)


class ReferenceExplorer(Explorer):
    def _explore(self, state, key, v: int, remaining: int) -> tuple[int, tuple]:
        if remaining == 0:
            return 0, ()
        learner = self.learner
        cached = self.memo.get((key, v, remaining))
        if cached is not None:
            return cached
        best, best_continuation = 0, ()
        for x in range(self.H.domain_size):
            prediction = learner.decide(state, x)
            ones = v & self.H.columns[x]
            for y, sub in ((0, v ^ ones), (1, ones)):
                if not sub:
                    continue
                child = learner.update(state, x, y)
                child_key = learner.key(child)
                if prediction == y and child_key == key:
                    continue
                sub_value, sub_cont = self._explore(child, child_key, sub, remaining - 1)
                value = int(prediction != y) + sub_value
                if value > best:
                    best, best_continuation = value, ((x, y),) + sub_cont
        self.memo[(key, v, remaining)] = (best, best_continuation)
        return best, best_continuation


def reference_mistake_bound(learner, H: FiniteClass, horizon: Horizon) -> GameValue:
    return ReferenceExplorer(learner, H).bound(horizon)


def reference_is_optimal(learner, H: FiniteClass, horizon: Horizon) -> Verdict:
    """``game.is_optimal`` with its horizon and its recheck on two fresh memos."""
    bound = reference_mistake_bound(learner, H, horizon)
    recheck = reference_mistake_bound(learner, H, Horizon(horizon.t_max + 2))
    stabilized = recheck.value == bound.value
    optimum = optimal_mistake_bound(H)
    positive = stabilized and bound.value == optimum
    counterexample = None if positive else recheck.witness
    return Verdict(positive, recheck.value, optimum, stabilized, counterexample)


def reference_is_anytime_optimal(learner, H: FiniteClass, horizon: Horizon,
                                 check_depth: int) -> Verdict:
    return ReferenceExplorer(learner, H).anytime(horizon, check_depth)

