import pytest

from littlelab.classes import (FiniteClass, hd_prime, restrict, singletons,
                               thresholds)
from littlelab.core import Sample
from littlelab.errors import NotRealizableError
from littlelab.game import (Horizon, _realizable_samples, is_anytime_optimal,
                            is_optimal, mistake_bound, mistakes_on_sample,
                            optimal_mistake_bound, optimal_post_sample_bound,
                            post_sample_mistake_bound)
from littlelab.learners import (conservative_learner, constant_learner, sol,
                                threshold_fallback_learner)
from littlelab.littlestone import ldim
from conftest import seeded_classes


def test_horizon_validation():
    with pytest.raises(ValueError):
        Horizon(0)
    assert Horizon(3, instance_cap=2).cap(thresholds(2)) == 2
    assert Horizon(3).cap(thresholds(2)) == 4


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
    empty = Sample()
    assert post_sample_mistake_bound(learner, H, empty, Horizon(6)) == \
        mistake_bound(learner, H, Horizon(6)).value
    for sample in _realizable_samples(H, 2, H.domain_size):
        optimum = optimal_post_sample_bound(H, sample)
        assert optimum == ldim(restrict(H, sample))
        assert post_sample_mistake_bound(learner, H, sample, Horizon(6)) == optimum


def test_unrealizable_samples_are_rejected():
    H = singletons(3)
    bad = Sample.of((0, 1), (1, 1))
    with pytest.raises(NotRealizableError):
        post_sample_mistake_bound(sol(H), H, bad, Horizon(3))
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
    samples = list(_realizable_samples(H, 1, 2))
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
    samples = list(_realizable_samples(H, 2, H.domain_size))
    assert len(samples) == 79
    assert len(appended) == 78  # one per nonempty sample yielded
