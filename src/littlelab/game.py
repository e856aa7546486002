"""Exact adversarial game analysis.

The adversary ranges over realizable samples within an explicit horizon (the
desk-scale truncation of the unbounded supremum); values are reported with
their horizon and verified to stabilize by re-running at horizon + 2.
Adversary instance order is ascending, with memoization keyed on
(version-space bitset of the history, learner-visible history): history must
be part of the key because arbitrary learners are history-dependent.  Learners
that declare themselves version-space-measurable get the fast path keyed on
the bitset alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import kernels
from .classes import FiniteClass, restrict
from .core import Sample
from .errors import NotRealizableError, PropertyViolation
from .littlestone import ldim


@dataclass(frozen=True)
class Horizon:
    t_max: int
    instance_cap: int | None = None

    def __post_init__(self) -> None:
        if self.t_max < 1:
            raise ValueError("horizon must allow at least one round")

    def cap(self, H: FiniteClass) -> int:
        if self.instance_cap is None:
            return H.domain_size
        return min(self.instance_cap, H.domain_size)


@dataclass(frozen=True)
class GameValue:
    value: int
    witness: Sample
    horizon: int


@lru_cache(maxsize=None)
def _game_value_cached(masks: tuple[int, ...], domain_size: int) -> int:
    return kernels.game_value_masks(masks, domain_size)


def optimal_mistake_bound(H: FiniteClass) -> int:
    """Minimax value over all deterministic learners and adversaries.

    Computed by the game recursion, independently of the ldim engine.
    """
    return _game_value_cached(H.sorted_rows, H.domain_size)


def mistakes_on_sample(learner, sample: Sample) -> int:
    """Exact mistake count of one run; predictions compared raw against labels."""
    return sum(
        1
        for t, (x, y) in enumerate(sample)
        if learner.predict(sample.prefix(t), x) != y
    )


class _Explorer:
    """Depth-first worst case of a fixed learner against the exhaustive adversary."""

    def __init__(self, learner, H: FiniteClass, horizon: Horizon):
        self.learner = learner
        self.H = H
        self.horizon = horizon
        self.cap = horizon.cap(H)
        self.memo: dict = {}

    def _redundant(self, sample: Sample, child: Sample, v: int, sub: int) -> bool:
        """A correctly-predicted step the adversary cannot profit from.

        For version-space-measurable learners a step that leaves the version
        space unchanged is a no-op.  For learners with a declared history
        key (a sufficient statistic of the history: the key of an extended
        history is a function of the key and the extension), a correct step
        that leaves the key unchanged only shrinks the adversary's options,
        so any continuation value is already achievable without the step.
        """
        if self.learner.vs_measurable:
            return sub == v
        if self.learner.history_key is not None:
            return self.learner.history_key(child) == self.learner.history_key(sample)
        return False

    def _state_key(self, sample: Sample, v: int, remaining: int):
        if self.learner.vs_measurable:
            return (v, remaining)
        if self.learner.history_key is not None:
            return (v, self.learner.history_key(sample), remaining)
        return (v, sample.items, remaining)

    def future_mistakes(self, sample: Sample, remaining: int | None = None
                        ) -> tuple[int, tuple]:
        """(max additional mistakes, adversarial continuation) from `sample`."""
        v = self.H.version_space(sample)
        if not v:
            raise NotRealizableError(f"history {sample.items} is not realizable")
        return self._explore(sample, v, self.horizon.t_max if remaining is None else remaining)

    def _explore(self, sample: Sample, v: int, remaining: int) -> tuple[int, tuple]:
        if remaining == 0:
            return 0, ()
        key = self._state_key(sample, v, remaining)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        best, best_continuation = 0, ()
        for x in range(self.cap):
            prediction = self.learner.predict(sample, x)
            ones = v & self.H.columns[x]
            for y, sub in ((0, v ^ ones), (1, ones)):
                if not sub:
                    continue
                child = sample.append(x, y)
                if prediction == y and self._redundant(sample, child, v, sub):
                    continue
                sub_value, sub_cont = self._explore(child, sub, remaining - 1)
                value = int(prediction != y) + sub_value
                if value > best:
                    best, best_continuation = value, ((x, y),) + sub_cont
        self.memo[key] = (best, best_continuation)
        return best, best_continuation


def mistake_bound(learner, H: FiniteClass, horizon: Horizon) -> GameValue:
    """Exact max of the learner's mistakes over realizable samples within horizon."""
    explorer = _Explorer(learner, H, horizon)
    value, continuation = explorer.future_mistakes(Sample())
    witness = Sample.of(*continuation)
    replayed = mistakes_on_sample(learner, witness)
    if replayed != value:
        raise PropertyViolation(
            f"witness replay gives {replayed} mistakes, search reported {value}")
    return GameValue(value, witness, horizon.t_max)


def post_sample_mistake_bound(learner, H: FiniteClass, sample: Sample,
                              horizon: Horizon) -> int:
    """Most the learner can be made to err after witnessing `sample`."""
    explorer = _Explorer(learner, H, horizon)
    value, _ = explorer.future_mistakes(sample)
    return value


def optimal_post_sample_bound(H: FiniteClass, sample: Sample) -> int:
    """Optimal post-sample bound via the minimax recursion on the version space.

    Internally asserted equal to the Littlestone dimension of the version
    space (the two engines must agree).
    """
    version_space = restrict(H, sample)
    if not version_space:
        raise NotRealizableError(f"sample {sample.items} is not realizable")
    value = optimal_mistake_bound(version_space)
    dimension = ldim(version_space)
    if value != dimension:
        raise PropertyViolation(
            f"minimax value {value} != version-space ldim {dimension}")
    return value


@dataclass(frozen=True)
class Verdict:
    positive: bool
    value: int
    optimum: int
    stabilized: bool
    counterexample: Sample | None = None


def is_optimal(learner, H: FiniteClass, horizon: Horizon) -> Verdict:
    bound = mistake_bound(learner, H, horizon)
    recheck = mistake_bound(learner, H, Horizon(horizon.t_max + 2, horizon.instance_cap))
    stabilized = recheck.value == bound.value
    optimum = optimal_mistake_bound(H)
    positive = stabilized and bound.value == optimum
    counterexample = None if positive else recheck.witness
    return Verdict(positive, recheck.value, optimum, stabilized, counterexample)


def _realizable_samples(H: FiniteClass, max_len: int, cap: int):
    """Breadth-first: shorter prefixes first; within a length, instances
    ascending with label 1 before label 0.  This canonical order makes the
    first counterexample reported by the anytime sweep the minimal one."""
    if not H.rows:
        return
    frontier: list[tuple[Sample, int]] = [(Sample(), H.version_space(()))]
    for depth in range(max_len + 1):
        next_frontier: list[tuple[Sample, int]] = []
        for sample, v in frontier:
            yield sample
            if depth == max_len:  # no level after this one is yielded
                continue
            for x in range(cap):
                ones = v & H.columns[x]
                for y, sub in ((1, ones), (0, v ^ ones)):
                    if sub:
                        next_frontier.append((sample.append(x, y), sub))
        frontier = next_frontier


def is_anytime_optimal(learner, H: FiniteClass, horizon: Horizon,
                       check_depth: int | None = None) -> Verdict:
    """Optimality after every realizable prefix up to check_depth."""
    depth = horizon.t_max if check_depth is None else check_depth
    explorer = _Explorer(learner, H, horizon)
    cap = horizon.cap(H)
    optimum_root = optimal_mistake_bound(H)
    for sample in _realizable_samples(H, depth, cap):
        achieved, _ = explorer.future_mistakes(sample)
        optimum = optimal_post_sample_bound(H, sample)
        if achieved > optimum:
            return Verdict(False, achieved, optimum, True, sample)
    root_value, _ = explorer.future_mistakes(Sample())
    return Verdict(root_value == optimum_root, root_value, optimum_root, True, None)
