"""Significant inputs: inputs on which every (anytime) optimal learner is
forced to a unique prediction.

Two independent engines are provided.  The closed forms decide significance
from version-space dimensions alone.  The brute-force oracle decides it from
the definition, by checking which pinned predictions remain compatible with
optimality in the exact finite game; it exists to validate the closed forms
and is deliberately capped to tiny instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .classes import FiniteClass
from .core import Sample
from .errors import InstanceTooLargeError, NotRealizableError
from .game import optimal_mistake_bound
from .littlestone import ldim


@dataclass(frozen=True)
class SignificanceVerdict:
    significant: bool
    forced_prediction: int | None


def _require_realizable(H: FiniteClass, sample: Sample) -> int:
    v = H.version_space(sample)
    if not v:
        raise NotRealizableError(f"sample {sample.items} is not realizable")
    return v


def _step_dimensions(H: FiniteClass, v: int, steps) -> Iterator[tuple[int, int, int, bool]]:
    """Per (x, y) of `steps` from version space v: the dimensions (dim, one, zero)
    of the version space and of its restrictions to x = 1 and x = 0, and whether
    is_opt_significant's conditions hold there (a None label skips (2))."""
    for x, y in steps:
        ones = v & H.version_space(((x, 1),))
        dim, one, zero = (H.ldim_of(u) for u in (v, ones, v ^ ones))
        yield dim, one, zero, dim == max(one, zero) and (
            y is None or (one if y == 1 else zero) >= dim - 1)
        v = ones if y == 1 else v ^ ones


# ---------------------------------------------------------------------------
# Closed forms

def is_aopt_significant(H: FiniteClass, sample: Sample, x: int) -> SignificanceVerdict:
    """Significance w.r.t. anytime optimal learning.

    The prediction is forced exactly when one label's constrained version
    space keeps the full dimension while the other's does not: predicting
    the shrinking label then risks a mistake followed by a full-dimension
    future, exceeding the post-history optimum.  When both labels drop the
    dimension, a mistake costs at most what the drop already saved, so
    either prediction remains anytime optimal.
    """
    v = _require_realizable(H, sample)
    dim, one, zero, _ = next(_step_dimensions(H, v, [(x, None)]))
    significant = one != zero and max(one, zero) == dim
    return SignificanceVerdict(significant, int(one >= zero) if significant else None)


def is_opt_significant(H: FiniteClass, sample: Sample, x: int) -> SignificanceVerdict:
    """Significance w.r.t. optimal learning.

    Holds iff (1) at every step, including the queried one, the version-space
    dimension equals the max over both label restrictions, and (2) no
    witnessed label ever drops the dimension by more than one.  The forced
    prediction is the dimension-maximizing label at the queried step.
    """
    _require_realizable(H, sample)
    for _, one, zero, holds in _step_dimensions(H, H.version_space(()), [*sample, (x, None)]):
        if not holds:
            return SignificanceVerdict(False, None)
    return SignificanceVerdict(True, int(one >= zero))


# ---------------------------------------------------------------------------
# Brute-force oracle

# The largest domain, row count and sample length the brute-force entry
# points accept.
BRUTE_FORCE_MAX_DOMAIN = 4
BRUTE_FORCE_MAX_ROWS = 8
BRUTE_FORCE_MAX_SAMPLE_LEN = 4


def _check_caps(H: FiniteClass, sample: Sample) -> None:
    if H.domain_size > BRUTE_FORCE_MAX_DOMAIN:
        raise InstanceTooLargeError(
            f"domain {H.domain_size} exceeds brute-force cap {BRUTE_FORCE_MAX_DOMAIN}")
    if len(H.rows) > BRUTE_FORCE_MAX_ROWS:
        raise InstanceTooLargeError(
            f"{len(H.rows)} rows exceed brute-force cap {BRUTE_FORCE_MAX_ROWS}")
    if len(sample) > BRUTE_FORCE_MAX_SAMPLE_LEN:
        raise InstanceTooLargeError(
            f"sample length {len(sample)} exceeds brute-force cap "
            f"{BRUTE_FORCE_MAX_SAMPLE_LEN}")


def _chain_game_value(H: FiniteClass, chain: tuple, pins: dict,
                      t: int, v: int, remaining: int) -> int:
    """Worst case of the best strategy pinned at on-chain points.

    The current history is the length-t prefix of `chain`; pins maps a chain
    position to (instance, pinned prediction) at that history.  Off-chain
    subgames have no pins, so their value is the version-space dimension
    capped by the remaining horizon.
    """
    if remaining == 0:
        return 0
    pin = pins.get(t)
    best = 0
    for x in range(H.domain_size):
        outcomes = {}
        ones = v & H.columns[x]
        for y, sub in ((0, v ^ ones), (1, ones)):
            if not sub:
                continue
            if t < len(chain) and (x, y) == tuple(chain[t]):
                value = _chain_game_value(H, chain, pins, t + 1, sub, remaining - 1)
            else:
                value = min(H.ldim_of(sub), remaining - 1)
            outcomes[y] = value
        if not outcomes:
            continue
        predictions = (pin[1],) if pin is not None and pin[0] == x else (0, 1)
        node = min(
            max(int(p != y) + v for y, v in outcomes.items()) for p in predictions)
        best = max(best, node)
    return best


def _pinned_values(H: FiniteClass, sample: Sample, pins: dict) -> list[int]:
    """Chain-game value at every on-chain node (positions 0..len(sample))."""
    horizon = len(sample) + 1 + max(ldim(H), 0)
    values = []
    for t in range(len(sample) + 1):
        v = H.version_space(sample.items[:t])
        values.append(_chain_game_value(H, sample.items, pins, t, v, horizon - t))
    return values


def _verdict(achievable: list[int]) -> SignificanceVerdict:
    """Significant iff exactly one pinned prediction stays achievable."""
    if len(achievable) == 1:
        return SignificanceVerdict(True, achievable[0])
    return SignificanceVerdict(False, None)


def brute_force_opt_significant(H: FiniteClass, sample: Sample,
                                x: int) -> SignificanceVerdict:
    """Significance from the definition: which pinned predictions at (S, x)
    admit a strategy whose overall worst case still meets the optimum."""
    _check_caps(H, sample)
    _require_realizable(H, sample)
    optimum = optimal_mistake_bound(H)
    achievable = [r for r in (0, 1)
                  if _pinned_values(H, sample, {len(sample): (x, r)})[0] <= optimum]
    return _verdict(achievable)


def brute_force_aopt_significant(H: FiniteClass, sample: Sample,
                                 x: int) -> SignificanceVerdict:
    """Like brute_force_opt_significant, but a pinned prediction must keep
    the strategy optimal after every prefix of the history as well."""
    _check_caps(H, sample)
    _require_realizable(H, sample)
    dims = [H.ldim_of(H.version_space(sample.items[:t])) for t in range(len(sample) + 1)]
    achievable = []
    for r in (0, 1):
        values = _pinned_values(H, sample, {len(sample): (x, r)})
        if all(value <= dim for value, dim in zip(values, dims)):
            achievable.append(r)
    return _verdict(achievable)


# ---------------------------------------------------------------------------
# Mistake profiles of optimal learners on a fixed sample

def achievable_mistake_counts(H: FiniteClass, sample: Sample) -> set[int]:
    """All values of M_A(sample) over optimal learners A, by pinning every
    on-chain prediction and testing compatibility with optimality."""
    _check_caps(H, sample)
    _require_realizable(H, sample)
    optimum = optimal_mistake_bound(H)
    counts: set[int] = set()
    for assignment in product((0, 1), repeat=len(sample)):
        pins = {t: (sample.items[t].x, p) for t, p in enumerate(assignment)}
        if _pinned_values(H, sample, pins)[0] <= optimum:
            counts.add(sum(int(p != sample.items[t].y)
                           for t, p in enumerate(assignment)))
    return counts


@dataclass(frozen=True)
class EquivalenceReport:
    condition_a: bool
    condition_b: bool
    counts: frozenset[int]
    expected: int

    @property
    def equivalent(self) -> bool:
        return self.condition_a == self.condition_b


def condition_a_holds(H: FiniteClass, sample: Sample) -> bool:
    """Per-step dimension conditions over the witnessed history."""
    return all(holds for *_, holds in _step_dimensions(H, H.version_space(()), sample))


def check_condition_equivalence(H: FiniteClass, sample: Sample) -> EquivalenceReport:
    """The per-step dimension conditions hold iff every optimal learner makes
    exactly dim(H) - dim(H_S) mistakes on the sample."""
    expected = ldim(H) - H.ldim_of(H.version_space(sample))
    counts = achievable_mistake_counts(H, sample)
    condition_b = counts == {expected}
    return EquivalenceReport(condition_a_holds(H, sample), condition_b,
                             frozenset(counts), expected)


def check_forced_mistake_count(H: FiniteClass, sample: Sample, x: int) -> int:
    """For a significant input, the unique mistake count m of all optimal
    learners on the history, with dim(H_S) = dim(H) - m."""
    verdict = is_opt_significant(H, sample, x)
    if not verdict.significant:
        raise ValueError("input is not significant; no forced mistake count")
    counts = achievable_mistake_counts(H, sample)
    if len(counts) != 1:
        raise AssertionError(f"expected a unique mistake count, got {counts}")
    (m,) = counts
    if H.ldim_of(H.version_space(sample)) != ldim(H) - m:
        raise AssertionError("version-space dimension does not match mistakes")
    return m


# ---------------------------------------------------------------------------
# Dimension-1 sweep

@dataclass(frozen=True)
class SweepReport:
    precondition_ok: bool
    precondition_notes: tuple[str, ...]
    all_significant: bool
    non_significant: tuple = ()
    inputs_checked: int = 0
    truncation_artifacts: int = 0


def verify_ldim1_all_significant(truncation: FiniteClass, *,
                                 enumerated: int, enumeration_budget: int,
                                 max_sample_len: int) -> SweepReport:
    """For a truncation of an infinite dimension-1 class, every realizable
    (sample, instance) pair should be significant for optimal learning.

    The infinitude hypothesis is proxied by the truncation consuming strictly
    fewer hypotheses than the enumeration provides; violations are reported,
    not silently passed, and the sweep runs regardless.

    A dimension-1 version space of an infinite class stays infinite until it
    collapses to a single hypothesis: the losing branch of every step has
    dimension 0, so each step removes at most one hypothesis.  A version
    space of exactly two distinct hypotheses is therefore a truncation
    artifact, not a state the full class can reach; when the infinitude
    proxy holds, the sweep prunes such histories and counts them instead of
    reporting spurious non-significant inputs.
    """
    notes = []
    if ldim(truncation) != 1:
        notes.append(f"dimension is {ldim(truncation)}, not 1")
    if enumerated >= enumeration_budget:
        notes.append(
            f"enumeration exhausted ({enumerated} of {enumeration_budget}); "
            "class may be finite")
    prune_artifacts = not notes
    failures = []
    checked = 0
    artifacts = 0

    def sweep(sample: Sample, v: int) -> None:
        nonlocal checked, artifacts
        if prune_artifacts and v.bit_count() == 2:
            artifacts += 1
            return
        for x in range(truncation.domain_size):
            checked += 1
            if not is_opt_significant(truncation, sample, x).significant:
                failures.append((sample, x))
        if len(sample) == max_sample_len:
            return
        for x in range(truncation.domain_size):
            ones = v & truncation.columns[x]
            for y, sub in ((0, v ^ ones), (1, ones)):
                if sub:
                    sweep(sample.append(x, y), sub)

    if truncation.rows:
        sweep(Sample(), truncation.version_space(()))
    return SweepReport(not notes, tuple(notes), not failures,
                       tuple(failures[:5]), checked, artifacts)
