"""Slow reference walks of the dovetail order of halting computations.

These are the loops that ``littlelab.machine`` replaced with one live
configuration per program.  For every dovetail pair (e, s) they decode
program e again and re-run it from step 0 for s steps, so a walk costs cubic
time in its last diagonal.  They are only the oracle of the agreement test.
"""

from __future__ import annotations

from typing import Iterator

from littlelab.machine import (Halted, HaltingCertificate, Running,
                               enumerate_programs, run, run_trace)


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
                assert not isinstance(trace, Running)
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
