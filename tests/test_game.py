import pytest
from hypothesis import example, given, settings, strategies as st

from littlelab.classes import FiniteClass, hd_prime, singletons, thresholds
from littlelab.core import Sample
from littlelab.errors import NotRealizableError
from littlelab import game
from littlelab.game import (Explorer, Horizon, is_anytime_optimal, is_optimal,
                            mistake_bound, mistakes_on_sample,
                            optimal_mistake_bound, optimal_post_sample_bound,
                            realizable_samples)
from littlelab.learners import (conservative_learner, constant_learner, sol,
                                threshold_fallback_learner)
from littlelab.littlestone import ldim
from conftest import seeded_classes
from reference_game import (ReferenceExplorer, reference_is_anytime_optimal,
                            reference_is_optimal, reference_mistake_bound)
import reference_learners


def test_horizon_validation():
    with pytest.raises(ValueError):
        Horizon(0)


def test_mistakes_on_sample_counts_raw_disagreements():
    assert mistakes_on_sample(constant_learner(0), Sample()) == 0
    s = Sample.of((0, 1), (1, 0), (2, 1))
    assert mistakes_on_sample(constant_learner(0), s) == 2
    assert mistakes_on_sample(constant_learner(1), s) == 1


def test_optimal_bound_equals_dimension():
    for H in seeded_classes(21, 20):
        assert optimal_mistake_bound(H) == ldim(H)
    assert optimal_mistake_bound(FiniteClass(2, frozenset({1}))) == 0


def test_sol_achieves_the_optimum():
    for d in (1, 2, 3):
        H = thresholds(d)
        bound = mistake_bound(sol(H), H, Horizon(2 * d + 2))
        assert bound.value == d
        assert mistakes_on_sample(sol(H), bound.witness) == d


def test_conservative_learner_bound_on_singletons():
    H = singletons(4)
    bound = mistake_bound(conservative_learner(), H, Horizon(4))
    assert bound.value == 1


def test_constant_learner_is_suboptimal_on_thresholds():
    H = thresholds(2)
    verdict = is_optimal(constant_learner(1), H, Horizon(6))
    assert not verdict.positive
    assert verdict.value > verdict.optimum
    assert verdict.counterexample is not None


def test_post_sample_bounds():
    H = thresholds(2)
    learner = sol(H)
    explorer = Explorer(learner, H)
    assert explorer.future_mistakes(Sample(), 6)[0] == \
        mistake_bound(learner, H, Horizon(6)).value
    for sample in realizable_samples(H, 2):
        optimum = optimal_post_sample_bound(H, sample)
        assert optimum == ldim(H.restricted_to(H.version_space(sample)))
        assert explorer.future_mistakes(sample, 6)[0] == optimum


def test_unrealizable_samples_are_rejected():
    H = singletons(3)
    bad = Sample.of((0, 1), (1, 1))
    with pytest.raises(NotRealizableError):
        Explorer(sol(H), H).future_mistakes(bad, 3)
    with pytest.raises(NotRealizableError):
        optimal_post_sample_bound(H, bad)


def test_sol_verdicts_positive():
    for H in seeded_classes(5, 8, max_domain=4, max_rows=8):
        horizon = Horizon(2 * max(ldim(H), 1) + 2)
        assert is_optimal(sol(H), H, horizon).positive
        assert is_anytime_optimal(sol(H), H, horizon, check_depth=2).positive


def test_anytime_counterexample_is_bfs_minimal():
    H = hd_prime(3)
    learner = threshold_fallback_learner(H, thresholds(3).rows)
    verdict = is_anytime_optimal(learner, H, Horizon(8), check_depth=2)
    assert not verdict.positive
    assert verdict.counterexample == Sample.of((8, 1))


def test_realizable_sample_generator_is_breadth_first():
    H = singletons(2)
    samples = list(realizable_samples(H, 1))
    lengths = [len(s) for s in samples]
    assert lengths == sorted(lengths)
    assert samples[0] == Sample()
    # Within length 1: instances ascending, label 1 before label 0.
    assert [s.items[0] for s in samples[1:]] == [
        (0, 1), (0, 0), (1, 1), (1, 0)]


def test_mistake_bound_value_monotone_in_horizon():
    H = thresholds(2)
    learner = constant_learner(1)
    values = [mistake_bound(learner, H, Horizon(t)).value for t in (1, 2, 4, 6)]
    assert values == sorted(values)


def test_realizable_samples_build_no_level_past_the_last(monkeypatch):
    appended = []
    append = Sample.append

    def counting_append(sample, x, y):
        appended.append((x, y))
        return append(sample, x, y)

    monkeypatch.setattr(Sample, "append", counting_append)
    H = hd_prime(2)
    samples = list(realizable_samples(H, 2))
    assert len(samples) == 79
    assert len(appended) == 78  # one per nonempty sample yielded


@st.composite
def learners_on_classes(draw, max_horizon=3):
    domain = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.frozensets(st.integers(min_value=0, max_value=(1 << domain) - 1),
                              min_size=1, max_size=8))
    H = FiniteClass(domain, rows)
    kind = draw(st.sampled_from(["sol", "const0", "const1", "conservative", "fallback"]))
    if kind == "sol":
        learner = sol(H)
    elif kind == "conservative":
        learner = conservative_learner()
    elif kind == "fallback":
        learner = threshold_fallback_learner(H, draw(st.frozensets(st.sampled_from(sorted(rows)))))
    else:
        learner = constant_learner(int(kind[-1]))
    return learner, H, draw(st.integers(min_value=1, max_value=max_horizon))


@settings(max_examples=150, deadline=None)
@given(learners_on_classes())
def test_mistake_bound_is_the_worst_realizable_sample(case):
    # The explorer skips correct steps that keep the learner's key; the
    # definition is the plain maximum over every realizable sample.
    learner, H, t = case
    worst = max(mistakes_on_sample(learner, sample)
                for sample in realizable_samples(H, t))
    assert mistake_bound(learner, H, Horizon(t)).value == worst


@settings(max_examples=200, deadline=None)
@given(learners_on_classes(max_horizon=5))
def test_horizon_prunes_match_the_reference_explorer(case):
    # Each learner keeps its own key; only the bound prunes, the instance
    # classes and the shared memo differ.
    learner, H, t = case
    value, continuation = ReferenceExplorer(learner, H).future_mistakes(Sample(), t)
    bound = mistake_bound(learner, H, Horizon(t))
    assert (bound.value, bound.witness) == (value, Sample.of(*continuation))
    assert is_optimal(learner, H, Horizon(t)) == reference_is_optimal(learner, H, Horizon(t))


_HD_PRIME_4 = hd_prime(4)


@st.composite
def fallback_cases(draw, max_horizon=5):
    domain = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.frozensets(st.integers(min_value=0, max_value=(1 << domain) - 1),
                              min_size=1, max_size=8))
    fallback_rows = draw(st.frozensets(st.sampled_from(sorted(rows))))
    return (FiniteClass(domain, rows), fallback_rows,
            draw(st.integers(min_value=1, max_value=max_horizon)))


@settings(max_examples=150, deadline=None)
@given(fallback_cases())
@example((_HD_PRIME_4, thresholds(4).rows, 5))
def test_fallback_key_keeps_the_values_of_the_whole_state_key(case):
    # The three-field learner keyed on its whole state keeps `seen` after the
    # flag drops, so the explorer takes some correct steps the library's
    # learner skips and the witness may differ; the value may not.
    H, fallback_rows, t = case
    whole_state = reference_learners.whole_state(
        reference_learners.threshold_fallback_learner(H, fallback_rows))
    assert (mistake_bound(threshold_fallback_learner(H, fallback_rows), H, Horizon(t)).value
            == mistake_bound(whole_state, H, Horizon(t)).value)


@pytest.mark.parametrize("d", [3, 4])
def test_fallback_state_matches_the_three_field_learner(d):
    # The state (seen, v), then v, is in bijection with the three-field
    # learner's key, so one explorer on each writes as many memo entries and
    # finds the same values, witnesses and verdicts at every horizon.
    H = hd_prime(d)
    learner = threshold_fallback_learner(H, thresholds(d).rows)
    reference = reference_learners.threshold_fallback_learner(H, thresholds(d).rows)
    for t in range(1, 2 * d + 3):
        horizon = Horizon(t)
        explorer, reference_explorer = Explorer(learner, H), Explorer(reference, H)
        assert explorer.bound(horizon) == reference_explorer.bound(horizon)
        assert len(explorer.memo) == len(reference_explorer.memo)
        assert is_optimal(learner, H, horizon) == is_optimal(reference, H, horizon)
        for depth in (1, 2):
            assert (is_anytime_optimal(learner, H, horizon, depth)
                    == is_anytime_optimal(reference, H, horizon, depth))


@pytest.mark.parametrize("learner, reference_learner, H, t, reference_entries, entries", [
    pytest.param(threshold_fallback_learner(_HD_PRIME_4, thresholds(4).rows),
                 reference_learners.threshold_fallback_learner(_HD_PRIME_4, thresholds(4).rows),
                 _HD_PRIME_4, 10, 6_904, 1_010, id="fallback-hd_prime4"),
    pytest.param(constant_learner(1), constant_learner(1), singletons(3), 500, 2_992, 500,
                 id="const1-singletons3"),
])
def test_explorer_stops_at_the_horizon_bound(learner, reference_learner, H, t,
                                             reference_entries, entries):
    # `reference_entries` is what the explorer wrote before the bound prunes
    # and the fallback learner's congruence key, on the three-field learner
    # keyed on its whole state.
    reference = ReferenceExplorer(reference_learners.whole_state(reference_learner), H)
    explorer = game.Explorer(learner, H)
    assert explorer.future_mistakes(Sample(), t)[0] == reference.future_mistakes(Sample(), t)[0]
    assert len(reference.memo) == reference_entries
    assert len(explorer.memo) <= entries


_HD_PRIME_3 = hd_prime(3)


@st.composite
def explorer_cases(draw):
    kind = draw(st.sampled_from(["sol", "const0", "const1", "conservative", "fallback"]))
    if kind == "fallback":
        return threshold_fallback_learner(_HD_PRIME_3, thresholds(3).rows), _HD_PRIME_3
    domain = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.frozensets(st.integers(min_value=0, max_value=(1 << domain) - 1),
                              min_size=1, max_size=10))
    H = FiniteClass(domain, rows)
    if kind == "sol":
        return sol(H), H
    if kind == "conservative":
        return conservative_learner(), H
    return constant_learner(int(kind[-1])), H


@settings(max_examples=60, deadline=None)
@given(explorer_cases(), st.data())
def test_one_explorer_matches_fresh_reference_explorers(case, data):
    # The reference tries every instance on a fresh memo per horizon; the
    # library's explorer tries one instance per class, and one explorer
    # serves every horizon here, met in a drawn order.
    learner, H = case
    horizons = data.draw(st.permutations(range(1, ldim(H) + 4)))
    shared = Explorer(learner, H)
    for t in horizons:
        horizon = Horizon(t)
        reference = reference_mistake_bound(learner, H, horizon)
        assert shared.bound(horizon) == reference
        assert mistake_bound(learner, H, horizon) == reference
        assert is_optimal(learner, H, horizon) == reference_is_optimal(learner, H, horizon)
        for depth in (1, 2):
            assert (is_anytime_optimal(learner, H, horizon, depth)
                    == reference_is_anytime_optimal(learner, H, horizon, depth))
