import gc
import json
import time
import weakref
from collections import Counter
from functools import cache
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_machine as reference
from littlelab import machine
from littlelab.budget import FuelExhaustedError
from littlelab.machine import (CONST0_INDEX, CONST0_PROGRAM, CONST1_INDEX,
                               CONST1_PROGRAM, DECJZ, HALT, Halted, MachineOracle,
                               TableOracle, apply2, certificate_index,
                               enumerate_halting_computations, enumerate_programs,
                               index_of, p_cert, pair, run, run_trace, unpair)

LOOP = ((DECJZ, 1, 0),)  # register 1 stays 0: jumps to itself


# ---------------------------------------------------------------------------
# Pairing and numbering

@given(st.integers(min_value=0, max_value=500),
       st.integers(min_value=0, max_value=500))
def test_pair_round_trip(a, b):
    assert unpair(pair(a, b)) == (a, b)


@given(st.integers(min_value=0, max_value=2000))
def test_unpair_round_trip(n):
    a, b = unpair(n)
    assert pair(a, b) == n


def test_unpair_inverts_pair_exhaustively():
    for s in range(500):
        for b in range(s + 1):
            assert unpair(pair(s - b, b)) == (s - b, b)
    big = 10 ** 40
    assert unpair(pair(big, 7)) == (big, 7)


def test_program_numbering_is_a_bijection():
    for n in range(300):
        assert index_of(enumerate_programs(n)) == n


def test_const_program_indices():
    assert enumerate_programs(CONST0_INDEX) == CONST0_PROGRAM
    assert enumerate_programs(CONST1_INDEX) == CONST1_PROGRAM


def test_padded_program_is_distinct_but_equivalent():
    padded = CONST1_PROGRAM + ((HALT, 0),)
    assert index_of(padded) != CONST1_INDEX
    for x in (0, 3, 7):
        assert run(padded, x, 100).output == run(CONST1_PROGRAM, x, 100).output


# ---------------------------------------------------------------------------
# Execution

def test_const_programs_ignore_input():
    for x in (0, 1, 9):
        assert run(CONST0_PROGRAM, x, 100) == Halted(0, 1)
        assert run(CONST1_PROGRAM, x, 100).output == 1


def test_empty_program_echoes_input():
    assert run(enumerate_programs(0), 42, 10) == Halted(42, 0)


def test_looping_program_never_halts_within_budget():
    assert run(LOOP, 0, 1_000) is None


def test_out_of_range_jump_halts():
    program = ((DECJZ, 0, 99),)
    result = run(program, 0, 10)
    assert isinstance(result, Halted)


def test_run_trace_matches_run():
    trace = run_trace(CONST1_PROGRAM, 5, 100)
    assert trace is not None
    assert len(trace) - 1 == run(CONST1_PROGRAM, 5, 100).steps
    assert run_trace(LOOP, 0, 50) is None


# Inputs 0, 1 and 2 decide most branches of small programs; the wide range
# reaches registers that no short budget can count down.
INPUTS = st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 49), st.integers(0, 10 ** 6))


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 4_999), INPUTS, st.none() | INPUTS, st.integers(0, 300))
def test_step_loop_matches_the_tuple_interpreter(e, x, second, budget):
    program = enumerate_programs(e)
    expected = reference.run(program, x, budget, second)
    assert run(program, x, budget, second) == expected
    assert run_trace(program, x, budget) == reference.run_trace(program, x, budget)
    if second is not None:
        assert apply2(e, x, second, budget) == expected


@pytest.mark.parametrize("program", [LOOP] + [enumerate_programs(e) for e in (26, 64, 67)],
                         ids=["LOOP", "P26", "P64", "P67"])
@pytest.mark.parametrize("x", [0, 1])
def test_fixed_points_match_the_tuple_interpreter(program, x):
    # Each of these reaches a DECJZ r t with t its own position and r zero.
    # A second argument 0 leaves every register as without it, so one
    # reference run serves run and apply2.
    e = index_of(program)
    for budget in (0, 1, 2, 10 ** 6):
        assert reference.run(program, x, budget, 0) is None
        assert run(program, x, budget) is None
        assert apply2(e, x, 0, budget) is None
        if budget < 10 ** 6:  # a trace of 10^6 configurations is not worth its memory
            assert run_trace(program, x, budget) == reference.run_trace(program, x, budget)


def test_run_trace_stops_at_a_fixed_point():
    start = time.perf_counter()
    assert run_trace(LOOP, 0, 10 ** 6) is None
    assert time.perf_counter() - start < 0.1


def test_apply2_places_arguments_in_two_registers():
    # HALT 1 copies the second argument to the output register.
    second_arg = ((HALT, 1),)
    result = apply2(index_of(second_arg), 3, 9, 100)
    assert isinstance(result, Halted) and result.output == 9


def test_step_budget_validation():
    with pytest.raises(ValueError):
        run(CONST0_PROGRAM, 0, -1)
    with pytest.raises(ValueError):
        enumerate_programs(-1)


# ---------------------------------------------------------------------------
# Halting computations and certificates

def test_certificate_positions_are_consistent():
    x = 0
    for e in (CONST0_INDEX, CONST1_INDEX):
        i = certificate_index(e, x, budget=200_000)
        assert i is not None and i >= 1
        assert p_cert(e, i, x) == 1
        assert p_cert(e, i + 1, x) == 0
        assert p_cert(e, 0, x) == 0
        certificate = enumerate_halting_computations(x, i)
        assert certificate.program_index == e
        assert certificate.input == x


def test_certificate_positions_start_at_one():
    with pytest.raises(ValueError):
        enumerate_halting_computations(0, 0)


def test_dovetailer_matches_the_rerunning_reference():
    for x in range(4):
        for budget in (0, 1, 2, 3, 7, 50, 500, 5000):
            for e in range(36):
                assert (certificate_index(e, x, budget)
                        == reference.certificate_index(e, x, budget)), (e, x, budget)
    for x in (0, 1):
        for cap in (5, 40, 300, 500_000):
            for i in range(1, 31):
                try:
                    expected = reference.enumerate_halting_computations(x, i, search_cap=cap)
                except RuntimeError as exc:
                    with pytest.raises(FuelExhaustedError) as exhausted:
                        enumerate_halting_computations(x, i, search_cap=cap)
                    assert str(exhausted.value) == str(exc)
                    continue
                found = enumerate_halting_computations(x, i, search_cap=cap)
                assert found == expected, (x, i, cap)


def test_dovetailer_retires_programs_at_a_fixed_point(monkeypatch):
    calls = 0
    execute = machine._execute

    def counting(*args):
        nonlocal calls
        calls += 1
        return execute(*args)

    machine._walk.cache_clear()  # a walk kept warm by an earlier call would step nothing
    monkeypatch.setattr(machine, "_execute", counting)
    assert certificate_index(122, 0, 2_000_000) is not None
    assert calls <= 500


# In the cold walk from 3 the 50th step is the first after a find, and the
# 56th follows three steps that resuming from that find would repeat.
@pytest.mark.parametrize("interrupted", [50, 56])
def test_an_interrupted_walk_restarts_cold(monkeypatch, interrupted):
    calls = 0
    execute = machine._execute

    def interrupting(*args):
        nonlocal calls
        calls += 1
        if calls == interrupted:
            raise KeyboardInterrupt
        return execute(*args)

    machine._walk.cache_clear()
    monkeypatch.setattr(machine, "_execute", interrupting)
    with pytest.raises(KeyboardInterrupt):
        certificate_index(122, 3, 2_000_000)
    assert calls == interrupted
    assert certificate_index(122, 3, 2_000_000) == reference.certificate_index(122, 3, 2_000_000)
    assert (enumerate_halting_computations(3, 30)
            == reference.enumerate_halting_computations(3, 30))


@cache
def _reference_enumeration(x, i, cap):
    """The reference's i-th computation from x, or its error message."""
    try:
        return reference.enumerate_halting_computations(x, i, search_cap=cap)
    except RuntimeError as exc:
        return str(exc)


@cache
def _reference_index(e, x, cap):
    return reference.certificate_index(e, x, cap)


def _message(call):
    try:
        return call()
    except FuelExhaustedError as exc:
        return str(exc)


# (kind, x, cap, i, j): e is the program of the j-th computation from x, or of
# the i-th when j is 0, so that p_cert also meets its own certificate.
WALK_CALLS = st.tuples(st.sampled_from(("certificate_index", "enumerate", "p_cert")),
                       st.integers(0, 3),
                       st.sampled_from((0, 1, 2, 3, 7, 50, 500, 5000, 500_000)),
                       st.integers(1, 30), st.just(0) | st.integers(1, 30))


@settings(max_examples=80, deadline=None)
@given(st.lists(WALK_CALLS, min_size=1, max_size=12))
@example([("enumerate", 0, 7, 1, 0), ("enumerate", 0, 0, 1, 0)])  # a kept find at the cap
def test_kept_walks_answer_like_cold_walks_in_any_order(calls):
    visited: Counter = Counter()  # pairs stepped by the walk from each input
    walking = []  # the input of the walk now advancing, if any
    execute, dovetail = machine._execute, machine._dovetail

    def counting(*args):
        if walking:
            visited[walking[-1]] += 1
        return execute(*args)

    def dovetailing(x):
        steps, cap = dovetail(x), None
        while True:
            walking.append(x)
            try:
                find = steps.send(cap)
            finally:
                walking.pop()
            cap = yield find

    largest: Counter = Counter()
    machine._walk.cache_clear()
    with mock.patch.object(machine, "_execute", counting), \
            mock.patch.object(machine, "_dovetail", dovetailing):
        for kind, x, cap, i, j in calls:
            e = _reference_enumeration(x, j or i, 500_000).program_index
            if kind == "certificate_index":
                assert certificate_index(e, x, cap) == _reference_index(e, x, cap)
            elif kind == "enumerate":
                found = _message(lambda: enumerate_halting_computations(x, i, search_cap=cap))
                assert found == _reference_enumeration(x, i, cap)
            else:
                expected = _reference_enumeration(x, i, cap)
                if not isinstance(expected, str):
                    expected = int(expected.program_index == e)
                assert _message(lambda: p_cert(e, i, x, search_cap=cap)) == expected
            largest[x] = max(largest[x], cap)
            assert visited[x] <= largest[x], (x, visited[x], largest[x])


def test_kept_walks_are_bounded():
    machine._walk.cache_clear()
    walks = []
    for x in range(machine._WALKS_KEPT + 4):
        assert certificate_index(CONST0_INDEX, x, 5_000) is not None
        walks.append(weakref.ref(machine._walk(x)))
    gc.collect()
    assert sum(walk() is not None for walk in walks) == machine._WALKS_KEPT
    # Each kept walk is bounded as an uncached call at its largest cap is.
    # Both join the same programs, one per diagonal reached, about
    # sqrt(2 * cap) of them.  At its end the uncached call holds the live
    # configuration of each program still running; the kept walk holds those
    # same configurations, plus a (position, e, P_e, s) tuple in place of each
    # configuration the uncached call dropped when its program halted.


# ---------------------------------------------------------------------------
# Oracles

def test_machine_oracle_budgeted_answers():
    oracle = MachineOracle(step_budget=1_000)
    assert oracle.halts(CONST1_INDEX, 7) == 1
    assert oracle.halts(CONST0_INDEX, 7) == 0
    assert oracle.halts(index_of(LOOP), 0) is None
    i = oracle.certificate_index(CONST0_INDEX, 0)
    assert i is not None and oracle.cert_matches(CONST0_INDEX, i, 0)
    assert oracle.certificate_index(index_of(LOOP), 0) is None


def test_machine_oracle_cert_matches_honours_its_dovetail_budget():
    i = MachineOracle(1_000).certificate_index(CONST0_INDEX, 0)
    assert i is not None and i > 1
    with pytest.raises(FuelExhaustedError, match="not found within search cap"):
        MachineOracle(1_000, dovetail_budget=3).cert_matches(CONST0_INDEX, i, 0)


def test_table_oracle_defaults_and_lookup():
    oracle = TableOracle({(4, 0): 1})
    assert oracle.halts(4, 0) == 1
    assert oracle.halts(5, 5) is None
    assert oracle.halts(9, 9) is None  # outside the table
    assert oracle.certificate_index(4, 0) == (4 % 3) + 1
    assert oracle.certificate_index(5, 5) is None
    assert oracle.cert_matches(4, (4 % 3) + 1, 0)
    assert not oracle.cert_matches(4, 0, 0)


def test_table_oracle_file_format(tmp_path):
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps({
        "2,0": {"halts": 1, "cert": 5},
        "3,3": "diverges",
    }))
    oracle = TableOracle.from_file(str(path))
    assert oracle.halts(2, 0) == 1
    assert oracle.certificate_index(2, 0) == 5
    assert oracle.halts(3, 3) is None
    path.write_text(json.dumps({"2,0": {"wrong": 1}}))
    with pytest.raises(ValueError):
        TableOracle.from_file(str(path))
