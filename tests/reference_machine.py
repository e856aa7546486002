"""Slow reference interpreter and dovetail walks of the halting computations.

The interpreter is the tuple one that ``littlelab.machine`` replaced with an
in-place step loop: every step rebuilds the whole register tuple, and a run
steps on to its budget even at a configuration that repeats itself.  The
walks are the loops that ``littlelab.machine`` replaced with one live
configuration per program.  For every dovetail pair (e, s) they decode
program e again and re-run it from step 0 for s steps, so a walk costs cubic
time in its last diagonal.  Neither shares step code with the library; they
are only the oracle of the agreement tests.
"""

from __future__ import annotations

from typing import Iterator

from littlelab.machine import (DECJZ, INC, Config, Halted, HaltingCertificate,
                               Program, enumerate_programs)


def _initial_config(program: Program, value: int, second: int | None = None) -> Config:
    regs = [0] * max(max((ins[1] for ins in program), default=0) + 1,
                     2 if second is not None else 1)
    regs[0] = value
    if second is not None:
        regs[1] = second
    return (0, tuple(regs))


def _step(program: Program, config: Config) -> Config:
    pc, regs = config
    ins = program[pc]
    if ins[0] == INC:
        r = ins[1]
        regs = regs[:r] + (regs[r] + 1,) + regs[r + 1:]
        return (pc + 1, regs)
    if ins[0] == DECJZ:
        r, target = ins[1], ins[2]
        if regs[r] == 0:
            return (target, regs)
        regs = regs[:r] + (regs[r] - 1,) + regs[r + 1:]
        return (pc + 1, regs)
    # HALT r: copy register r to register 0, jump past the end.
    r = ins[1]
    regs = (regs[r],) + regs[1:]
    return (len(program), regs)


def _is_terminal(program: Program, config: Config) -> bool:
    return config[0] >= len(program)


def run(program: Program, value: int, step_budget: int,
        second: int | None = None) -> Halted | None:
    """Deterministic small-step execution; None means not halted in budget."""
    if step_budget < 0:
        raise ValueError("step budget must be a natural")
    config = _initial_config(program, value, second)
    for steps in range(step_budget + 1):
        if _is_terminal(program, config):
            return Halted(config[1][0], steps)
        if steps == step_budget:
            break
        config = _step(program, config)
    return None


def run_trace(program: Program, value: int, step_budget: int) -> tuple[Config, ...] | None:
    """Full configuration trace from initial to halting configuration, or
    None when the run does not halt within step_budget steps."""
    config = _initial_config(program, value)
    trace = [config]
    for _ in range(step_budget):
        if _is_terminal(program, config):
            return tuple(trace)
        config = _step(program, config)
        trace.append(config)
    if _is_terminal(program, config):
        return tuple(trace)
    return None


def _dovetail_pairs() -> Iterator[tuple[int, int]]:
    """(program index e, step count s) in diagonal order: e+s ascending, e ascending."""
    diagonal = 0
    while True:
        for e in range(diagonal + 1):
            yield e, diagonal - e
        diagonal += 1


def enumerate_halting_computations(x: int, i: int, *, search_cap: int = 500_000) -> HaltingCertificate:
    """The i-th (1-indexed) halting computation from input x in dovetail order.

    A pair (e, s) contributes iff program e on input x halts in exactly s
    steps, so every halting program appears exactly once.
    """
    if i < 1:
        raise ValueError("certificate positions start at 1")
    found = 0
    for count, (e, s) in enumerate(_dovetail_pairs()):
        if count >= search_cap:
            raise RuntimeError(f"certificate {i} for input {x} not found within search cap")
        program = enumerate_programs(e)
        result = run(program, x, s)
        if isinstance(result, Halted) and result.steps == s:
            found += 1
            if found == i:
                trace = run_trace(program, x, s)
                assert trace is not None
                return HaltingCertificate(e, x, trace)
    raise AssertionError("unreachable")


def certificate_index(e: int, x: int, budget: int) -> int | None:
    """Position of P_e's halting computation from x in the dovetail order.

    None means unknown within budget (the faithful partiality of the lookup).
    """
    found = 0
    for count, (cand, s) in enumerate(_dovetail_pairs()):
        if count >= budget:
            return None
        program = enumerate_programs(cand)
        result = run(program, x, s)
        if isinstance(result, Halted) and result.steps == s:
            found += 1
            if cand == e:
                return found
    return None
