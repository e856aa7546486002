import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from littlelab import kernels
from littlelab.cli import default_table_oracle
from littlelab.budget import FuelExhaustedError
from littlelab.classes import (EnumerableClass, FiniteClass, hd_prime,
                               singletons, thresholds)
from littlelab.core import Sample
from littlelab.families import (IndexedClass, extended_block_supports,
                                triple_block_family, two_tier_block_supports)
from littlelab.game import (Horizon, is_anytime_optimal, mistake_bound,
                            mistakes_on_sample)
from littlelab.learners import (b_extended_blocks, b_triple_blocks,
                                b_two_tier_blocks, conservative_learner,
                                constant_learner, factor_block_instance,
                                relabeled, sig_predictor, sol,
                                threshold_fallback_learner, toy_learner)
from littlelab.littlestone import ldim
from littlelab.machine import CONST0_INDEX, CONST1_INDEX, DECJZ, TableOracle, index_of


# ---------------------------------------------------------------------------
# sol

def test_sol_tie_breaks_to_one():
    H = FiniteClass(2, frozenset({0b01, 0b11}))  # supports {0} and {0,1}
    assert sol(H).predict(Sample.of((0, 1)), 1) == 1


def test_sol_on_extra_instance_of_hd_prime():
    H = hd_prime(3)
    for x in (8, 9):
        assert sol(H).predict(Sample(), x) == 0


def test_sol_prefers_the_larger_restriction():
    H = thresholds(2)
    prediction = sol(H).predict(Sample(), 1)
    assert prediction == 1
    assert (ldim(H.restricted_to(H.version_space(((1, 1),))))
            > ldim(H.restricted_to(H.version_space(((1, 0),)))))


def test_sol_determinism():
    H = thresholds(2)
    s = Sample.of((0, 1), (3, 0))
    assert all(sol(H).predict(s, x) == sol(H).predict(s, x) for x in H.domain())


@st.composite
def small_classes(draw):
    domain = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.frozensets(
        st.integers(min_value=0, max_value=(1 << domain) - 1), max_size=8))
    return FiniteClass(domain, rows)


def _error(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@settings(max_examples=150, deadline=None)
@given(small_classes())
def test_sol_steps_equal_the_version_space_forms(H):
    # The old forms: one version_space call per step, and both sides' dimensions
    # from a fresh kernel memo, whatever their size.
    learner = sol(H)
    n = H.domain_size
    for v in range(1 << len(H)):
        for x in range(n):
            for y in (0, 1):
                assert learner.update(v, x, y) == v & H.version_space(((x, y),))
            ones = v & H.version_space(((x, 1),))
            assert learner.decide(v, x) == int(
                kernels.ldim(ones, H.splits, {}) >= kernels.ldim(v ^ ones, H.splits, {}))
    full = learner.init
    for x in (-1, -n, n, n + 5):
        expected = _error(H.version_space, ((x, 1),))
        assert expected == f"instance {x} outside domain of size {n}"
        assert _error(learner.update, full, x, 1) == expected
        assert _error(learner.update, full, x, 2) == expected
        assert _error(learner.decide, full, x) == expected
    for y in (-1, 2):
        expected = _error(H.version_space, ((0, y),))
        assert expected == f"label must be 0 or 1, got {y}"
        assert _error(learner.update, full, 0, y) == expected


def test_sol_enters_the_kernels_only_on_memo_misses(monkeypatch):
    H = hd_prime(3)
    entered = {"ldim": [], "game_value": []}

    def counting(name):
        kernel = getattr(kernels, name)

        def enter(v, splits, memo):
            assert v & (v - 1) and v not in memo
            entered[name].append(v)
            return kernel(v, splits, memo)
        return enter

    for name in entered:
        monkeypatch.setattr(kernels, name, counting(name))
    learner = sol(H)
    assert mistake_bound(learner, H, Horizon(8)).value == 3
    assert is_anytime_optimal(learner, H, Horizon(8), check_depth=1).positive
    for name, spaces in entered.items():
        assert spaces and len(spaces) == len(set(spaces)), name


# ---------------------------------------------------------------------------
# Simple learners

def test_constant_learner():
    assert constant_learner(1).predict(Sample.of((0, 0)), 5) == 1
    with pytest.raises(ValueError):
        constant_learner(2)


def test_conservative_learner():
    learner = conservative_learner()
    assert learner.predict(Sample(), 7) == 0
    assert learner.predict(Sample.of((5, 1)), 5) == 1
    assert learner.predict(Sample.of((5, 0)), 5) == 0


# ---------------------------------------------------------------------------
# Fallback deviation learner

def test_fallback_learner_gap_values():
    H = hd_prime(3)
    learner = threshold_fallback_learner(H, thresholds(3).rows)
    gap = Sample.of((8, 1), (9, 1))
    assert mistakes_on_sample(learner, gap) == 2
    assert mistakes_on_sample(sol(H), gap) == 1
    assert mistake_bound(learner, H, Horizon(8)).value == 3
    # After leaving the all-extras regime it coincides with sol.
    s = Sample.of((0, 0))
    assert all(learner.predict(s, x) == sol(H).predict(s, x)
               for x in H.domain())
    # Repeats of a seen extra instance are not milkable.
    assert learner.predict(Sample.of((8, 1)), 8) == 1


# ---------------------------------------------------------------------------
# Budgeted significant-input predictor

def test_sig_predictor_fuel_exhaustion():
    enumerable = EnumerableClass.embed_finite(thresholds(2))
    for fuel in (0, 1, 3):
        with pytest.raises(FuelExhaustedError, match="^fuel exhausted$"):
            sig_predictor(enumerable, 2, fuel=fuel).predict(Sample(), 0)
    with pytest.raises(ValueError, match="fuel must be a natural"):
        sig_predictor(enumerable, 2, fuel=-1).predict(Sample(), 0)
    with pytest.raises(ValueError):
        sig_predictor(enumerable, -1)


def test_sig_predictor_negative_depth_exhausts():
    # Dimension 0 class: any recorded mistake drives the race depth below 0.
    H = FiniteClass(2, frozenset({0b01}))
    enumerable = EnumerableClass.embed_finite(H)
    predictor = sig_predictor(enumerable, 0)
    with pytest.raises(FuelExhaustedError):
        predictor.predict(Sample.of((1, 1)), 0)  # unrealizable history


# ---------------------------------------------------------------------------
# Toy-machine learner

def test_toy_learner_constants():
    s = Sample.of((3, 1))
    assert toy_learner(CONST0_INDEX).predict(s, 9) == 0
    assert toy_learner(CONST1_INDEX).predict(s, 9) == 1


def test_toy_learner_fuel_exhaustion():
    looping = index_of(((DECJZ, 1, 0),))
    with pytest.raises(FuelExhaustedError):
        toy_learner(looping, step_budget=50).predict(Sample(), 0)


# ---------------------------------------------------------------------------
# Block instance factoring

def test_factor_block_instance():
    assert factor_block_instance(8) == (3, None, 0)
    assert factor_block_instance(2 * 9) == (1, 3, 2)
    assert factor_block_instance(4 * 125) == (2, 5, 3)
    assert factor_block_instance(6 * 5) is None  # mixed odd primes
    assert factor_block_instance(0) is None


# ---------------------------------------------------------------------------
# Hand-built two-mistake learners

def test_b_triple_blocks_case_analysis():
    learner = b_triple_blocks()
    assert learner.predict(Sample(), 7) == 0
    e = 2
    after_top = Sample.of((3 * e + 2, 1))
    assert learner.predict(after_top, 3 * e) == 1
    assert learner.predict(after_top, 3 * e + 1) == 1
    assert learner.predict(after_top, 3 * e + 2) == 1
    assert learner.predict(after_top, 3 * (e + 1)) == 0
    after_down = Sample.of((3 * e, 1), (3 * e + 1, 0))
    assert learner.predict(after_down, 3 * e) == 1
    assert learner.predict(after_down, 3 * e + 1) == 0
    assert learner.predict(after_down, 3 * e + 2) == 0


def _oracle(bit: int) -> TableOracle:
    # Program 1 halts on input 0; on itself it halts with the given value.
    return TableOracle({(1, 0): 0, (1, 1): bit})


def test_b_extended_blocks_first_mistake_cases():
    e = 1
    c0 = (e % 3) + 1  # default certificate position convention
    learner = b_extended_blocks(_oracle(1))
    after_power = Sample.of((2 ** e * 3 ** 2, 1))
    assert learner.predict(after_power, 2 ** e) == 1
    assert learner.predict(after_power, 2 ** e * 3 ** 2) == 1
    assert learner.predict(after_power, 2 ** e * 3) == 0
    after_base = Sample.of((2 ** e, 1))
    assert learner.predict(after_base, 2 ** e * 5 ** c0) == 1
    assert learner.predict(after_base, 2 ** e * 3 ** c0) == 0
    learner0 = b_extended_blocks(_oracle(0))
    assert learner0.predict(after_base, 2 ** e * 3 ** c0) == 1
    assert learner0.predict(after_base, 2 ** e * 5 ** c0) == 0


def test_b_two_tier_blocks_first_mistake_cases():
    e = 1
    c0 = (e % 3) + 1
    learner = b_two_tier_blocks(_oracle(1))
    after_base = Sample.of((2 ** e, 1))
    assert learner.predict(after_base, 2 ** e * 5 ** c0) == 1
    assert learner.predict(after_base, 2 ** e * 3 ** c0) == 0
    after_seven = Sample.of((2 ** e * 7 ** 3, 1))
    assert learner.predict(after_seven, 2 ** e * 5 ** c0) == 1
    assert learner.predict(after_seven, 2 ** e * 7 ** 3) == 1


# ---------------------------------------------------------------------------
# Domain adaptation

def test_relabeled_translates_instances():
    H = singletons(3)
    naturals = (10, 20, 30)
    learner = relabeled(sol(FiniteClass(31, frozenset(
        1 << n for n in naturals))), lambda i: naturals[i])
    direct = sol(singletons(3))
    sample = Sample.of((1, 1))
    translated = Sample.of((20, 1))
    assert learner.predict(sample, 1) == learner.predict(sample, 1)
    # Conservative check: seen-positive instance predicted as by the base
    # learner on the translated history.
    base = sol(FiniteClass(31, frozenset(1 << n for n in naturals)))
    assert learner.predict(sample, 1) == base.predict(translated, 20)


# ---------------------------------------------------------------------------
# Learner keys are congruences

def _key_violations(learner, H: FiniteClass, depth: int) -> list:
    """Group the (state, v) pairs reachable in at most `depth` realizable
    steps by (key, v).  The explorer's memo on (key, v, rounds) and its skip
    rule are exact only if the pairs of one group predict alike on every
    instance and keep equal child keys after every feasible (x, y).  Its one
    step per class of equivalent instances is exact only if, in every
    reachable state, instances with equal (v & column, instance_key) predict
    alike and give equal child keys for both labels."""
    groups: dict = {}
    frontier = [(learner.init, H.version_space(()))]
    for level in range(depth + 1):
        children = []
        for state, v in frontier:
            groups.setdefault((learner.key(state), v), {})[state] = None
            if level == depth:
                continue
            for x in H.domain():
                ones = v & H.columns[x]
                for y, sub in ((0, v ^ ones), (1, ones)):
                    if sub:
                        children.append((learner.update(state, x, y), sub))
        frontier = children
    violations = []
    for (key, v), states in groups.items():
        first, *rest = states
        for state in rest:
            for x in H.domain():
                if learner.decide(state, x) != learner.decide(first, x):
                    violations.append((key, v, x, "decide"))
                ones = v & H.columns[x]
                for y, sub in ((0, v ^ ones), (1, ones)):
                    if sub and (learner.key(learner.update(state, x, y))
                                != learner.key(learner.update(first, x, y))):
                        violations.append((key, v, x, y))
        if learner.instance_key is None:
            continue
        for state in states:
            representative: dict = {}
            for x in H.domain():
                x0 = representative.setdefault(
                    (v & H.columns[x], learner.instance_key(state, x)), x)
                if learner.decide(state, x) != learner.decide(state, x0):
                    violations.append((key, v, x0, x, "instance decide"))
                for y in (0, 1):
                    if (learner.key(learner.update(state, x, y))
                            != learner.key(learner.update(state, x0, y))):
                        violations.append((key, v, x0, x, y))
    return violations


def _congruence_cases():
    H = hd_prime(3)
    yield pytest.param(sol(H), H, id="sol")
    for bit in (0, 1):
        yield pytest.param(constant_learner(bit), H, id=f"const{bit}")
    yield pytest.param(conservative_learner(), H, id="conservative")
    yield pytest.param(threshold_fallback_learner(H, thresholds(3).rows), H,
                       id="fallback")
    yield pytest.param(threshold_fallback_learner(hd_prime(4), thresholds(4).rows),
                       hd_prime(4), id="fallback-hd_prime4")
    oracle = default_table_oracle()
    yield pytest.param(b_triple_blocks(), triple_block_family(oracle, 4).truncation(12),
                       id="b_triple_blocks")
    for supports, block_learner in ((two_tier_block_supports, b_two_tier_blocks),
                                    (extended_block_supports, b_extended_blocks)):
        indexed = IndexedClass.from_supports(supports(oracle, range(4)))
        yield pytest.param(relabeled(block_learner(oracle), indexed.to_natural),
                           indexed.finite, id=block_learner.__name__)


@pytest.mark.parametrize("learner, H", _congruence_cases())
def test_learner_keys_are_congruences(learner, H):
    violations = _key_violations(learner, H, 3)
    assert not violations, f"{len(violations)} violations, first {violations[:3]}"


def test_the_congruence_check_sees_a_wrong_instance_key():
    # The conservative learner reads x itself, so one class for all
    # instances of equal column breaks the contract; the instance-contract
    # violations are the 5-tuples.
    H = hd_prime(3)
    merged = dataclasses.replace(conservative_learner(), instance_key=lambda seen, x: None)
    assert any(len(violation) == 5 for violation in _key_violations(merged, H, 3))
