import pytest

from littlelab.classes import FiniteClass, hd_prime, singletons, thresholds
from littlelab.core import Sample
from littlelab.errors import InstanceTooLargeError, NotRealizableError
from littlelab.game import realizable_samples
from littlelab.littlestone import ldim
from littlelab.significance import (BRUTE_FORCE_MAX_DOMAIN,
                                    BRUTE_FORCE_MAX_ROWS,
                                    BRUTE_FORCE_MAX_SAMPLE_LEN,
                                    achievable_mistake_counts,
                                    brute_force_aopt_significant,
                                    brute_force_opt_significant,
                                    check_condition_equivalence,
                                    check_forced_mistake_count,
                                    condition_a_holds, is_aopt_significant,
                                    is_opt_significant,
                                    verify_ldim1_all_significant)


def test_empty_history_extra_instance_is_significant():
    H = hd_prime(3)
    for x in (8, 9):
        aopt = is_aopt_significant(H, Sample(), x)
        opt = is_opt_significant(H, Sample(), x)
        assert aopt.significant and aopt.forced_prediction == 0
        assert opt.significant and opt.forced_prediction == 0


def test_significance_after_pinning_the_extra_hypothesis():
    H = hd_prime(3)
    seen_extra = Sample.of((8, 1))
    # Anytime-optimal learners must now match the pinned hypothesis.
    aopt = is_aopt_significant(H, seen_extra, 9)
    assert aopt.significant and aopt.forced_prediction == 1
    # Merely optimal learners are not forced: the dimension dropped by 3.
    assert not is_opt_significant(H, seen_extra, 9).significant


def test_forced_mistake_count_requires_significance():
    H = singletons(4)
    assert check_forced_mistake_count(H, Sample(), 0) == 0
    assert check_forced_mistake_count(H, Sample.of((0, 1)), 1) == 1
    with pytest.raises(ValueError):
        check_forced_mistake_count(singletons(2), Sample.of((0, 1)), 1)


def test_unrealizable_histories_are_rejected():
    H = singletons(3)
    bad = Sample.of((0, 1), (1, 1))
    for fn in (is_aopt_significant, is_opt_significant,
               brute_force_opt_significant, brute_force_aopt_significant):
        with pytest.raises(NotRealizableError):
            fn(H, bad, 2)


BRUTE_FORCE_ENTRY_POINTS = (
    brute_force_opt_significant,
    brute_force_aopt_significant,
    lambda H, sample, x: achievable_mistake_counts(H, sample),
    lambda H, sample, x: check_condition_equivalence(H, sample),
    check_forced_mistake_count,
)


def test_brute_force_caps_are_enforced():
    # Eight rows free on instances 1-3 and 0 on instance 0, so (0, 0) is a
    # significant step of every history and each entry point reaches its caps.
    rows = [r << 1 for r in range(BRUTE_FORCE_MAX_ROWS)]
    at_caps = FiniteClass(BRUTE_FORCE_MAX_DOMAIN, frozenset(rows))
    assert len(at_caps) == BRUTE_FORCE_MAX_ROWS
    longest = Sample.of(*[(0, 0)] * BRUTE_FORCE_MAX_SAMPLE_LEN)
    above = [
        (FiniteClass(BRUTE_FORCE_MAX_DOMAIN + 1, frozenset(rows)), Sample(),
         f"domain {BRUTE_FORCE_MAX_DOMAIN + 1} exceeds brute-force cap "
         f"{BRUTE_FORCE_MAX_DOMAIN}$"),
        (FiniteClass(BRUTE_FORCE_MAX_DOMAIN, frozenset(rows + [1])), Sample(),
         f"{BRUTE_FORCE_MAX_ROWS + 1} rows exceed brute-force cap "
         f"{BRUTE_FORCE_MAX_ROWS}$"),
        (at_caps, longest.append(0, 0),
         f"sample length {BRUTE_FORCE_MAX_SAMPLE_LEN + 1} exceeds brute-force "
         f"cap {BRUTE_FORCE_MAX_SAMPLE_LEN}$"),
    ]
    for entry_point in BRUTE_FORCE_ENTRY_POINTS:
        entry_point(at_caps, longest, 0)
        for H, sample, message in above:
            with pytest.raises(InstanceTooLargeError, match=message):
                entry_point(H, sample, 0)


def test_closed_forms_match_brute_force_on_singletons():
    H = singletons(3)
    for sample in realizable_samples(H, 2):
        for x in H.domain():
            closed = is_opt_significant(H, sample, x)
            brute = brute_force_opt_significant(H, sample, x)
            assert closed.significant == brute.significant, (sample.items, x)
            assert closed.forced_prediction == brute.forced_prediction
            closed_a = is_aopt_significant(H, sample, x)
            brute_a = brute_force_aopt_significant(H, sample, x)
            assert closed_a.significant == brute_a.significant
            assert closed_a.forced_prediction == brute_a.forced_prediction


def test_achievable_mistake_counts_pinpoints_optimal_runs():
    H = singletons(4)
    # With three other singletons alive, predicting 1 at the root costs more
    # than the optimum allows, so the mistake count is forced either way.
    assert achievable_mistake_counts(H, Sample.of((0, 1))) == {1}
    assert achievable_mistake_counts(H, Sample.of((0, 0))) == {0}
    # With only two hypotheses both root predictions stay optimal.
    assert achievable_mistake_counts(singletons(2), Sample.of((0, 1))) == {0, 1}


def test_condition_equivalence_on_small_classes():
    for H in (singletons(2), thresholds(1),
              FiniteClass(3, frozenset({0b001, 0b011, 0b111}))):
        for sample in realizable_samples(H, 2):
            report = check_condition_equivalence(H, sample)
            assert report.equivalent, (H, sample.items, report)


def test_condition_a_detects_non_adversarial_instances():
    # No instance splits 4 thresholds into a branch of full dimension 2.
    assert not condition_a_holds(thresholds(2), Sample.of((1, 0)))
    # A singleton query keeping three candidates alive is maximally hard.
    assert condition_a_holds(singletons(4), Sample.of((0, 0)))
    assert not condition_a_holds(singletons(2), Sample.of((0, 1)))


def test_dimension1_sweep_flags_bad_preconditions():
    report = verify_ldim1_all_significant(thresholds(2), enumerated=4,
                                          enumeration_budget=4,
                                          max_sample_len=1)
    assert not report.precondition_ok
    assert len(report.precondition_notes) == 2  # wrong dimension + exhausted
