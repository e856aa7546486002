"""The threshold-fallback learner with its three-field state.

``threshold_fallback_learner`` is ``learners.threshold_fallback_learner`` as
it was before its state became its key: the state is (only extra positives
so far, extras seen, sol's state), `seen` keeps growing after the flag
falls, and the key drops to sol's bitset once the flag is off.  Its
`whole_state` form keys on the whole state, as the explorer did before the
congruence key.  The agreement tests compare the library's learner against
both.
"""

from __future__ import annotations

import dataclasses

from littlelab.classes import FiniteClass
from littlelab.learners import Learner, sol


def threshold_fallback_learner(H: FiniteClass, fallback_rows: frozenset[int]) -> Learner:
    inner = sol(H)
    fallback_union = 0
    for row in fallback_rows:
        fallback_union |= row
    extras = frozenset(x for x in range(H.domain_size) if not fallback_union >> x & 1)

    def update(state, x: int, y: int):
        only_extra_positives, seen, v = state
        return (only_extra_positives and x in extras and y == 1,
                seen | {x} if x in extras else seen,
                inner.update(v, x, y))

    def decide(state, x: int) -> int:
        only_extra_positives, seen, v = state
        if only_extra_positives and x in extras and x not in seen:
            return 0
        return inner.decide(v, x)

    return Learner("threshold-fallback", (True, frozenset(), inner.init),
                   update, decide, key=lambda state: state if state[0] else state[2],
                   instance_key=lambda state, x: x if state[0] and x in extras else None)


def whole_state(learner: Learner) -> Learner:
    """The learner keyed on its whole state."""
    return dataclasses.replace(learner, key=lambda state: state)
