"""The game explorer without its horizon-bound prunes.

``ReferenceExplorer._explore`` is ``game._Explorer._explore`` as it was
before a node stopped at the horizon's own bound: it tries every feasible
step except a correct one that keeps the learner's key, and it never
returns early.  The agreement tests compare values, witnesses and verdicts
of the pruned explorer against it.
"""

from __future__ import annotations

from littlelab.game import _Explorer


class ReferenceExplorer(_Explorer):
    def _explore(self, state, v: int, remaining: int) -> tuple[int, tuple]:
        if remaining == 0:
            return 0, ()
        learner = self.learner
        key = learner.key(state)
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
                if prediction == y and learner.key(child) == key:
                    continue
                sub_value, sub_cont = self._explore(child, sub, remaining - 1)
                value = int(prediction != y) + sub_value
                if value > best:
                    best, best_continuation = value, ((x, y),) + sub_cont
        self.memo[(key, v, remaining)] = (best, best_continuation)
        return best, best_continuation
