"""Exact adversarial game analysis.

The adversary ranges over realizable samples within an explicit horizon (the
desk-scale truncation of the unbounded supremum); values are reported with
their horizon and verified to stabilize by re-running at horizon + 2.
Adversary instance order is ascending.  The explorer carries the learner's
state and the version-space bitset of the history, and memoises on
(learner key, bitset, rounds left).  It skips a correctly predicted step that
leaves the learner's key unchanged: equal keys predict alike and the step
only shrinks the version space, so every continuation after it is also open
without it.

Two more prunes stop at the horizon's own bound.  One round adds at most one
mistake, so a node with r rounds left is worth at most r: it returns as soon
as its best reaches r, and it does not try a correct step, which scores at
most r - 1, once its best is r - 1 or more.  The best changes only on a
strict improvement, so the first maximising step and its continuation are
the ones the full loop keeps; both prunes leave every value, witness and
written memo entry as they were, and only leave some entries unwritten.

One `Explorer` serves every horizon and every starting sample of one
(learner, class) pair: nothing in the memo key depends on the horizon, each
entry holds the exact value, and its continuation is the first maximising
step, a function of the key (equal keys predict and step alike).  So
`is_optimal` runs its horizon and its horizon + 2 recheck on one memo, and a
caller that wants a bound and an anytime sweep can share one too.  The memo
lives as long as the explorer its caller holds.

A node tries one instance per class of equivalent instances.  Two instances
whose restricted columns (v & column) and `Learner.instance_key` agree give
the same prediction and the same child keys and version spaces for both
labels, so the later one adds nothing the earlier one did not: its value is
equal, and the best changes only on a strict improvement.  Classes are met
in ascending instance order, so the first maximising step, and with it the
witness, does not move.  A learner without an `instance_key` keeps every
instance in its own class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classes import FiniteClass
from .core import Sample
from .errors import NotRealizableError, PropertyViolation


@dataclass(frozen=True)
class Horizon:
    t_max: int

    def __post_init__(self) -> None:
        if self.t_max < 1:
            raise ValueError("horizon must allow at least one round")


@dataclass(frozen=True)
class GameValue:
    value: int
    witness: Sample
    horizon: int


def optimal_mistake_bound(H: FiniteClass) -> int:
    """Minimax value over all deterministic learners and adversaries.

    Computed by the game recursion (through the class's own memo,
    ``FiniteClass.game_value_of``), independently of the ldim engine.
    """
    return H.game_value_of(H.version_space(()))


def mistakes_on_sample(learner, sample: Sample) -> int:
    """Exact mistake count of one run; predictions compared raw against labels."""
    mistakes, state = 0, learner.init
    for x, y in sample:
        mistakes += learner.decide(state, x) != y
        state = learner.update(state, x, y)
    return mistakes


class Explorer:
    """Depth-first worst case of a fixed learner against the exhaustive
    adversary, on one memo that serves every horizon and starting sample."""

    def __init__(self, learner, H: FiniteClass):
        self.learner = learner
        self.H = H
        self.memo: dict = {}

    def future_mistakes(self, sample: Sample, rounds: int) -> tuple[int, tuple]:
        """(max additional mistakes, adversarial continuation) over the next
        `rounds` rounds after `sample`."""
        v = self.H.version_space(sample)
        if not v:
            raise NotRealizableError(f"history {sample.items} is not realizable")
        state = self.learner.state(sample)
        key = self.learner.key(state)
        if rounds == 0:
            return 0, ()
        found = self.memo.get((key, v, rounds))
        return found if found is not None else self._explore(state, key, v, rounds)

    def bound(self, horizon: Horizon) -> GameValue:
        """Exact max of the learner's mistakes over realizable samples within
        horizon, with a witness replayed against the learner."""
        value, continuation = self.future_mistakes(Sample(), horizon.t_max)
        witness = Sample.of(*continuation)
        replayed = mistakes_on_sample(self.learner, witness)
        if replayed != value:
            raise PropertyViolation(
                f"witness replay gives {replayed} mistakes, search reported {value}")
        return GameValue(value, witness, horizon.t_max)

    def anytime(self, horizon: Horizon, check_depth: int) -> Verdict:
        """Optimality after every realizable prefix up to check_depth."""
        H = self.H
        optimum_root = optimal_mistake_bound(H)
        for sample in realizable_samples(H, check_depth):
            achieved, _ = self.future_mistakes(sample, horizon.t_max)
            optimum = optimal_post_sample_bound(H, sample)
            if achieved > optimum:
                return Verdict(False, achieved, optimum, True, sample)
        root_value, _ = self.future_mistakes(Sample(), horizon.t_max)
        return Verdict(root_value == optimum_root, root_value, optimum_root, True, None)

    def _explore(self, state, key, v: int, remaining: int) -> tuple[int, tuple]:
        """Solve a node (remaining >= 1) that is not in the memo, and write its
        entry.  A child's entry is looked up before the call, so a memo hit
        costs no call."""
        learner = self.learner
        memo = self.memo
        columns = self.H.columns
        instance_key = learner.instance_key
        visited = set()
        best, best_continuation = 0, ()
        for x in range(self.H.domain_size):
            ones = v & columns[x]
            if instance_key is not None:
                # Only the first instance of each class is tried.
                step_class = ones, instance_key(state, x)
                if step_class in visited:
                    continue
                visited.add(step_class)
            prediction = learner.decide(state, x)
            for y, sub in ((0, v ^ ones), (1, ones)):
                if not sub:
                    continue
                correct = prediction == y
                # A correct step scores at most remaining - 1.
                if correct and best >= remaining - 1:
                    continue
                child = learner.update(state, x, y)
                child_key = learner.key(child)
                if correct and child_key == key:
                    continue
                found = memo.get((child_key, sub, remaining - 1)) if remaining > 1 else (0, ())
                if found is None:
                    found = self._explore(child, child_key, sub, remaining - 1)
                value = int(not correct) + found[0]
                if value > best:
                    best, best_continuation = value, ((x, y),) + found[1]
                    if best == remaining:  # no step can score more
                        memo[key, v, remaining] = best, best_continuation
                        return best, best_continuation
        memo[key, v, remaining] = best, best_continuation
        return best, best_continuation


def mistake_bound(learner, H: FiniteClass, horizon: Horizon) -> GameValue:
    """Exact max of the learner's mistakes over realizable samples within horizon."""
    return Explorer(learner, H).bound(horizon)


def optimal_post_sample_bound(H: FiniteClass, sample: Sample) -> int:
    """Optimal post-sample bound via the minimax recursion on the version space.

    Internally asserted equal to the Littlestone dimension of the version
    space (the two engines must agree).
    """
    v = H.version_space(sample)
    if not v:
        raise NotRealizableError(f"sample {sample.items} is not realizable")
    value = H.game_value_of(v)
    dimension = H.ldim_of(v)
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
    explorer = Explorer(learner, H)
    bound = explorer.bound(horizon)
    recheck = explorer.bound(Horizon(horizon.t_max + 2))
    stabilized = recheck.value == bound.value
    optimum = optimal_mistake_bound(H)
    positive = stabilized and bound.value == optimum
    counterexample = None if positive else recheck.witness
    return Verdict(positive, recheck.value, optimum, stabilized, counterexample)


def realizable_samples(H: FiniteClass, max_len: int):
    """Every realizable sample of length at most max_len, breadth-first:
    shorter prefixes first; within a length, instances ascending with label 1
    before label 0.  This canonical order makes the first counterexample
    reported by the anytime sweep the minimal one."""
    if not H.rows:
        return
    frontier: list[tuple[Sample, int]] = [(Sample(), H.version_space(()))]
    for depth in range(max_len + 1):
        next_frontier: list[tuple[Sample, int]] = []
        for sample, v in frontier:
            yield sample
            if depth == max_len:  # no level after this one is yielded
                continue
            for x in range(H.domain_size):
                ones = v & H.columns[x]
                for y, sub in ((1, ones), (0, v ^ ones)):
                    if sub:
                        next_frontier.append((sample.append(x, y), sub))
        frontier = next_frontier


def is_anytime_optimal(learner, H: FiniteClass, horizon: Horizon,
                       check_depth: int) -> Verdict:
    """Optimality after every realizable prefix up to check_depth."""
    return Explorer(learner, H).anytime(horizon, check_depth)
