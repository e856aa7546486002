"""Toy computability substrate: a register machine with a bijective numbering.

A program is its instruction tuple (`Program`), over three opcodes:

    INC r       increment register r
    DECJZ r t   if register r is zero jump to instruction t, else decrement r
    HALT r      copy register r into register 0 and halt

Register 0 holds the input; the output is read from register 0 at halt.
Control falling past the end of the program halts as well (so every
instruction tuple is a valid program, which keeps the numbering a bijection).
A run's register list reaches the highest register its program names.
Two-place functions receive their arguments in registers 0 and 1.

Every run goes through one step loop on a list of registers changed in place.
It stops at once at a DECJZ r t with t its own position and register r zero:
that step writes nothing and keeps pc, so each later step repeats it.  Every
other step moves pc, so a one-step run that leaves pc where it was is at such
a fixed point.  A fixed point can never halt, so run_trace returns None as
soon as it tries to step from one, and the dovetailer retires a program at its
first step at the fixed point, as it retires a halted one.

An answer the budget did not reach is None throughout: run and apply2 return
Halted or None, run_trace a trace or None, and an oracle's halts(e, x) the
output of P_e on x or None.

The module also provides the effective enumeration of halting computations
from a fixed input, halting certificates with a total verifier, and the
HaltingOracle abstraction with a budgeted machine-backed implementation and
an exact table-driven one for tests.

Halting computations come from one dovetailer over the pairs (e, s), e + s
ascending and then e ascending.  It keeps one live configuration per program:
program e joins at diagonal e and steps once per later diagonal, so no pair
re-runs its program from step 0.  Its cap (search_cap, budget, a
MachineOracle's dovetail_budget) counts dovetail pairs, not machine steps.

The walk from each input is a generator, kept paused between calls (for the
few most recently used inputs) with the halting computations it has found so
far and their positions.  Each send(cap) walks it on to its next find, or
stops it before its first pair at or past cap.  Neither the order nor a
program's steps depend on the cap, so a call reads the kept finds below its
cap and sends only while it needs more; a walk never visits a pair at or past
the largest cap it was given.  A walk interrupted by an exception starts
again cold.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Generator, Iterator, Mapping

from .budget import FuelExhaustedError

INC = "INC"
DECJZ = "DECJZ"
HALT = "HALT"

Instruction = tuple  # (INC, r) | (DECJZ, r, t) | (HALT, r)
Program = tuple[Instruction, ...]
Config = tuple[int, tuple[int, ...]]  # (pc, registers)


# ---------------------------------------------------------------------------
# Pairing helpers (Cantor pairing, used only for the program numbering)

def pair(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + b


def unpair(n: int) -> tuple[int, int]:
    # The largest s with s(s+1)/2 <= n, i.e. with (2s+1)^2 <= 8n+1.
    s = (math.isqrt(8 * n + 1) - 1) // 2
    b = n - s * (s + 1) // 2
    return s - b, b


# ---------------------------------------------------------------------------
# Programs

def _instruction_to_nat(ins: Instruction) -> int:
    if ins[0] == HALT:
        return 3 * ins[1]
    if ins[0] == INC:
        return 3 * ins[1] + 1
    return 3 * pair(ins[1], ins[2]) + 2


def _nat_to_instruction(n: int) -> Instruction:
    opcode, operand = n % 3, n // 3
    if opcode == 0:
        return (HALT, operand)
    if opcode == 1:
        return (INC, operand)
    r, t = unpair(operand)
    return (DECJZ, r, t)


def enumerate_programs(n: int) -> Program:
    """The n-th program under a total bijection between naturals and programs."""
    if n < 0:
        raise ValueError("program indices are naturals")
    instructions: list[Instruction] = []
    rest = n
    while rest > 0:
        head, rest = unpair(rest - 1)
        instructions.append(_nat_to_instruction(head))
    return tuple(instructions)


def index_of(program: Program) -> int:
    code = 0
    for ins in reversed(program):
        code = pair(_instruction_to_nat(ins), code) + 1
    return code


# ---------------------------------------------------------------------------
# Execution

@dataclass(frozen=True)
class Halted:
    output: int
    steps: int


def _registers(program: Program, value: int, second: int | None = None) -> list[int]:
    top = max((ins[1] for ins in program), default=0)
    regs = [0] * (max(top, 0 if second is None else 1) + 1)
    regs[0] = value
    if second is not None:
        regs[1] = second
    return regs


def _execute(code: Program, pc: int, regs: list[int],
             budget: int) -> tuple[int, int]:
    """At most budget steps from pc, changing regs in place: (pc, steps taken).

    pc >= len(code) means halted; a fixed point reports the whole budget spent
    and keeps pc.  Every other step moves pc: INC and a nonzero DECJZ go to
    pc + 1, a zero DECJZ to its target t != pc, HALT past the end.
    """
    end = len(code)
    for steps in range(budget):
        if pc >= end:
            return pc, steps
        ins = code[pc]
        op = ins[0]
        if op == INC:
            regs[ins[1]] += 1
            pc += 1
        elif op == DECJZ:
            r = ins[1]
            if regs[r]:
                regs[r] -= 1
                pc += 1
            elif ins[2] == pc:  # a self-jump on a zero register: a fixed point
                return pc, budget
            else:
                pc = ins[2]
        else:  # HALT r: copy register r to register 0, jump past the end.
            regs[0] = regs[ins[1]]
            pc = end
    return pc, budget


def run(program: Program, value: int, step_budget: int,
        second: int | None = None) -> Halted | None:
    """Deterministic small-step execution; None means not halted in budget."""
    if step_budget < 0:
        raise ValueError("step budget must be a natural")
    regs = _registers(program, value, second)
    pc, steps = _execute(program, 0, regs, step_budget)
    if pc >= len(program):
        return Halted(regs[0], steps)
    return None


def run_trace(program: Program, value: int, step_budget: int) -> tuple[Config, ...] | None:
    """Full configuration trace from initial to halting configuration, or
    None when the run does not halt within step_budget steps.

    A fixed point can never halt, so the trace stops at its first step there:
    the one step that leaves pc unchanged.
    """
    pc, regs = 0, _registers(program, value)
    trace = [(pc, tuple(regs))]
    while pc < len(program) and len(trace) <= step_budget:
        step_pc = _execute(program, pc, regs, 1)[0]
        if step_pc == pc:
            return None
        pc = step_pc
        trace.append((pc, tuple(regs)))
    return tuple(trace) if pc >= len(program) else None


def apply2(e: int, a: int, b: int, step_budget: int) -> Halted | None:
    """Program e as a two-place function: arguments in registers 0 and 1.
    None means not halted within step_budget steps."""
    return run(enumerate_programs(e), a, step_budget, second=b)


# ---------------------------------------------------------------------------
# Halting computations and certificates

@dataclass(frozen=True)
class HaltingCertificate:
    program_index: int
    input: int
    trace: tuple[Config, ...]

    @property
    def steps(self) -> int:
        return len(self.trace) - 1


def _dovetail(x: int) -> Generator[tuple[int, int, Program, int] | None, int, None]:
    """The dovetail walk from input x, driven by send(cap).

    Each send(cap) walks on to the next halting computation and yields it as
    (position, e, P_e, s), or yields None at the first live pair at or past
    cap, without stepping it.  Program e joins at pair (e, 0) and steps once
    per diagonal, so at (e, s) it has run exactly s steps.  It leaves at its
    halting pair, or at its first step at a fixed point (the one step that
    leaves pc unchanged), one diagonal after it reached the fixed point: none
    of its later pairs can yield, and the cap cut is the same.
    """
    cap = 0  # visit nothing before the first send
    diagonal = first = 0  # first: the position of the pair (0, diagonal)
    program = enumerate_programs(0)
    # (e, P_e, [pc, registers]) per live program, e ascending
    live = [(0, program, [0, _registers(program, x)])]
    while True:
        running = []  # the programs stepped on this diagonal that go on
        for entry in live:
            e, program, state = entry
            while first + e >= cap:  # every pair after this one sits later still
                cap = yield None
            pc, steps = _execute(program, state[0], state[1], 1)
            if not steps:
                cap = yield first + e, e, program, diagonal - e
            elif pc != state[0]:
                state[0] = pc
                running.append(entry)
        diagonal += 1
        first += diagonal
        program = enumerate_programs(diagonal)
        running.append((diagonal, program, [0, _registers(program, x)]))
        live = running


class _Walk:
    """The dovetail walk from input x, kept paused between calls.

    found holds (position, e, P_e, s) for each halting computation met so far,
    in dovetail order; steps is the walk paused at its first unvisited pair.
    """

    def __init__(self, x: int):
        self.x = x
        self.restart()

    def restart(self) -> None:
        """Start again cold.  An exception from a send ends the generator, and
        a step cut short may have changed a register but not pc; the walk is
        deterministic, so a cold restart finds the same entries."""
        self.found: list[tuple[int, int, Program, int]] = []
        self.steps = _dovetail(self.x)
        next(self.steps)


# Walks kept between calls, least recently used first out.  Callers ask about
# a handful of inputs (the certificate families use x = 0 and x = e for a few
# programs e), and each walk holds at most one entry per program it has
# joined, about sqrt(2 * cap) of them: under 1 MiB for a walk taken to
# 2,000,000 pairs, ten times MachineOracle's default dovetail budget.
_WALKS_KEPT = 16


@lru_cache(maxsize=_WALKS_KEPT)
def _walk(x: int) -> _Walk:
    return _Walk(x)


def _halting_computations(x: int, cap: int) -> Iterator[tuple[int, Program, int]]:
    """(e, P_e, s) for each pair (e, s) among the first cap pairs in dovetail
    order (e + s ascending, then e ascending) where P_e halts on x in exactly
    s steps.  The order and each program's steps do not depend on cap, so
    these are the entries of x's kept walk at positions below cap; the walk
    goes on only as far as the caller reads, one find at a time."""
    walk = _walk(x)
    for i in count():
        while i >= len(walk.found):
            try:
                find = walk.steps.send(cap)
            except BaseException:
                walk.restart()
                raise
            if find is None:
                return
            walk.found.append(find)
        position, e, program, s = walk.found[i]
        if position >= cap:
            return
        yield e, program, s


def enumerate_halting_computations(x: int, i: int, *, search_cap: int = 500_000) -> HaltingCertificate:
    """The i-th (1-indexed) halting computation from input x in dovetail order.

    A pair (e, s) contributes iff program e on input x halts in exactly s
    steps, so every halting program appears exactly once.  search_cap counts
    dovetail pairs; running out of it raises FuelExhaustedError.
    """
    if i < 1:
        raise ValueError("certificate positions start at 1")
    for found, (e, program, s) in enumerate(_halting_computations(x, search_cap), start=1):
        if found == i:
            trace = run_trace(program, x, s)
            assert trace is not None
            return HaltingCertificate(e, x, trace)
    raise FuelExhaustedError(f"certificate {i} for input {x} not found within search cap")


def p_cert(e: int, i: int, x: int, *, search_cap: int = 500_000) -> int:
    """1 iff the i-th halting computation from x is exactly P_e's run on x.

    Total: after checking i > 0, P_e is simulated at most one step past the
    certificate's finite trace.
    """
    if i < 1:
        return 0
    certificate = enumerate_halting_computations(x, i, search_cap=search_cap)
    if certificate.program_index != e:
        return 0
    program = enumerate_programs(e)
    trace = run_trace(program, x, certificate.steps)
    return int(trace == certificate.trace)


def certificate_index(e: int, x: int, budget: int) -> int | None:
    """Position of P_e's halting computation from x in the dovetail order.

    None means unknown within budget dovetail pairs (the faithful partiality
    of the lookup).
    """
    for found, (cand, _, _) in enumerate(_halting_computations(x, budget), start=1):
        if cand == e:
            return found
    return None


# ---------------------------------------------------------------------------
# Halting oracles

class MachineOracle:
    """Budgeted real-machine oracle: it certifies a run that halts within the
    step budget and knows nothing of the rest."""

    def __init__(self, step_budget: int, dovetail_budget: int = 200_000):
        self.step_budget = step_budget
        self.dovetail_budget = dovetail_budget

    def halts(self, e: int, x: int) -> int | None:
        """P_e's output on x, or None when the run does not halt within the
        step budget: unknown, since more steps could make it halt."""
        result = run(enumerate_programs(e), x, self.step_budget)
        return None if result is None else result.output

    def certificate_index(self, e: int, x: int) -> int | None:
        if self.halts(e, x) is None:
            return None
        return certificate_index(e, x, self.dovetail_budget)

    def cert_matches(self, e: int, i: int, x: int) -> bool:
        return p_cert(e, i, x, search_cap=self.dovetail_budget) == 1


class TableOracle:
    """Exact, budget-free oracle defined by an explicit finite map.

    Needed to instantiate diverging branches that no budgeted real oracle can
    certify.  Entries map (e, x) to a halting value (with an optional
    certificate position); every other query diverges, so that both sides of
    every case split are controllable.
    """

    def __init__(self, halting: Mapping[tuple[int, int], int] | None = None,
                 certificates: Mapping[tuple[int, int], int] | None = None):
        self.halting = dict(halting or {})
        self.certificates = dict(certificates or {})

    def halts(self, e: int, x: int) -> int | None:
        """P_e's output on x, or None when the pair is not in the table:
        P_e diverges on x."""
        return self.halting.get((e, x))

    def certificate_index(self, e: int, x: int) -> int | None:
        if (e, x) not in self.halting:
            return None
        return self.certificates.get((e, x), (e % 3) + 1)

    def cert_matches(self, e: int, i: int, x: int) -> bool:
        return i > 0 and self.certificate_index(e, x) == i

    @staticmethod
    def from_file(path: str) -> "TableOracle":
        """JSON map from "e,x" to {"halts": v[, "cert": i]} or "diverges"
        (the default for a pair the map leaves out)."""
        with open(path) as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: expected a JSON object mapping \"e,x\" to entries")
        halting: dict[tuple[int, int], int] = {}
        certificates: dict[tuple[int, int], int] = {}
        for key, entry in raw.items():
            # ASCII digits only: str.isdecimal() also takes other scripts' digits.
            if not re.fullmatch("[0-9]+,[0-9]+", key):
                raise ValueError(f"oracle key {key!r}: expected \"e,x\" with e and x naturals")
            e_str, _, x_str = key.partition(",")
            pair_key = (int(e_str), int(x_str))
            if isinstance(entry, dict) and "halts" in entry:
                for name in ("halts", "cert"):
                    # Only a JSON integer; bool is an int subclass.
                    if name in entry and type(entry[name]) is not int:
                        raise ValueError(f"oracle entry {key!r}: {name!r} must be an "
                                         f"integer, not {entry[name]!r}")
                if entry["halts"] < 0:
                    raise ValueError(f"oracle entry {key!r}: 'halts' must be a natural "
                                     f"(a machine output), not {entry['halts']}")
                halting[pair_key] = entry["halts"]
                if "cert" in entry:
                    if entry["cert"] < 1:
                        raise ValueError(f"oracle entry {key!r}: 'cert' must be at least 1 "
                                         f"(certificate positions start at 1), not "
                                         f"{entry['cert']}")
                    certificates[pair_key] = entry["cert"]
            elif entry != "diverges":
                raise ValueError(f"malformed oracle entry for {key!r}: {entry!r}")
        return TableOracle(halting, certificates)


# Canonical tiny programs used throughout the demos and tests.
CONST0_PROGRAM: Program = ((HALT, 2),)
CONST1_PROGRAM: Program = ((INC, 2), (HALT, 2))
CONST0_INDEX = index_of(CONST0_PROGRAM)
CONST1_INDEX = index_of(CONST1_PROGRAM)
