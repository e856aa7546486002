import json

import pytest
from hypothesis import given, settings, strategies as st

import reference_machine as reference
from littlelab.budget import FuelExhaustedError
from littlelab.machine import (CONST0_INDEX, CONST0_PROGRAM, CONST1_INDEX,
                               CONST1_PROGRAM, DECJZ, HALT, INC, HaltsAnswer,
                               Halted, MachineOracle, RUNNING, TableOracle,
                               ToyProgram, apply2, certificate_index,
                               enumerate_halting_computations,
                               enumerate_programs, halting_steps, index_of,
                               p_cert, pair, run, run_trace, unpair)

LOOP = ToyProgram(((DECJZ, 1, 0),))  # register 1 stays 0: jumps to itself


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
    padded = CONST1_PROGRAM.padded()
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
    assert run(LOOP, 0, 1_000) is RUNNING
    assert halting_steps(LOOP, 0, 1_000) is None


def test_out_of_range_jump_halts():
    program = ToyProgram(((DECJZ, 0, 99),))
    result = run(program, 0, 10)
    assert isinstance(result, Halted)


def test_run_trace_matches_run():
    trace = run_trace(CONST1_PROGRAM, 5, 100)
    assert trace is not RUNNING
    assert len(trace) - 1 == run(CONST1_PROGRAM, 5, 100).steps
    assert run_trace(LOOP, 0, 50) is RUNNING


def test_apply2_places_arguments_in_two_registers():
    # HALT 1 copies the second argument to the output register.
    second_arg = ToyProgram(((HALT, 1),))
    result = apply2(index_of(second_arg), 3, 9, 100)
    assert isinstance(result, Halted) and result.output == 9


def test_step_budget_validation():
    with pytest.raises(ValueError):
        run(CONST0_PROGRAM, 0, -1)
    with pytest.raises(ValueError):
        enumerate_programs(-1)


# ---------------------------------------------------------------------------
# Program text format

def test_program_text_round_trip():
    program = ToyProgram(((INC, 2), (DECJZ, 1, 0), (HALT, 2)))
    assert ToyProgram.from_text(program.to_text()) == program
    with_comments = "INC 2  # bump\n\nDECJZ 1 0\nHALT 2\n"
    assert ToyProgram.from_text(with_comments) == program


def test_program_text_parse_error_names_the_line():
    with pytest.raises(ValueError, match="line 2"):
        ToyProgram.from_text("INC 1\nFROB 3")


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


# ---------------------------------------------------------------------------
# Oracles

def test_machine_oracle_budgeted_answers():
    oracle = MachineOracle(step_budget=1_000)
    reply = oracle.halts(CONST1_INDEX, 7)
    assert reply.status == HaltsAnswer.YES and reply.value == 1
    assert oracle.halts(index_of(LOOP), 0).status == HaltsAnswer.UNKNOWN
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
    assert oracle.halts(4, 0) .status == HaltsAnswer.YES
    assert oracle.halts(4, 0).value == 1
    assert oracle.halts(5, 5).status == HaltsAnswer.NO
    assert oracle.halts(9, 9).status == HaltsAnswer.NO  # outside the table
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
    assert oracle.halts(2, 0).value == 1
    assert oracle.certificate_index(2, 0) == 5
    assert oracle.halts(3, 3).status == HaltsAnswer.NO
    path.write_text(json.dumps({"2,0": {"wrong": 1}}))
    with pytest.raises(ValueError):
        TableOracle.from_file(str(path))
