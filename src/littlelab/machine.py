"""Toy computability substrate: a register machine with a bijective numbering.

Programs are finite lists of instructions over three opcodes:

    INC r       increment register r
    DECJZ r t   if register r is zero jump to instruction t, else decrement r
    HALT r      copy register r into register 0 and halt

Register 0 holds the input; the output is read from register 0 at halt.
Control falling past the end of the program halts as well (so every
instruction list is a valid program, which keeps the numbering a bijection).
Two-place functions receive their arguments in registers 0 and 1.

The module also provides the effective enumeration of halting computations
from a fixed input, halting certificates with a total verifier, and the
HaltingOracle abstraction with a budgeted machine-backed implementation and
an exact table-driven one for tests.

Halting computations come from one dovetailer over the pairs (e, s), e + s
ascending and then e ascending.  It keeps one live configuration per program:
program e joins at diagonal e and steps once per later diagonal, so no pair
re-runs its program from step 0.  Its cap (search_cap, budget, a
MachineOracle's dovetail_budget) counts dovetail pairs, not machine steps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import count
from typing import Iterator, Mapping

from .budget import FuelExhaustedError

INC = "INC"
DECJZ = "DECJZ"
HALT = "HALT"

Instruction = tuple  # (INC, r) | (DECJZ, r, t) | (HALT, r)
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

@dataclass(frozen=True)
class ToyProgram:
    instructions: tuple[Instruction, ...]

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def register_count(self) -> int:
        regs = [0]
        for ins in self.instructions:
            regs.append(ins[1])
        return max(regs) + 1

    def padded(self) -> "ToyProgram":
        """A syntactically distinct, run-equivalent program (appends HALT 0)."""
        return ToyProgram(self.instructions + ((HALT, 0),))

    def to_text(self) -> str:
        lines = []
        for ins in self.instructions:
            lines.append(" ".join(str(part) for part in ins))
        return "\n".join(lines)

    @staticmethod
    def from_text(text: str) -> "ToyProgram":
        instructions: list[Instruction] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            op = parts[0].upper()
            try:
                if op == INC and len(parts) == 2:
                    instructions.append((INC, int(parts[1])))
                elif op == DECJZ and len(parts) == 3:
                    instructions.append((DECJZ, int(parts[1]), int(parts[2])))
                elif op == HALT and len(parts) in (1, 2):
                    instructions.append((HALT, int(parts[1]) if len(parts) == 2 else 0))
                else:
                    raise ValueError
            except ValueError:
                raise ValueError(f"line {lineno}: cannot parse instruction {raw!r}") from None
        return ToyProgram(tuple(instructions))


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


def enumerate_programs(n: int) -> ToyProgram:
    """The n-th program under a total bijection between naturals and programs."""
    if n < 0:
        raise ValueError("program indices are naturals")
    instructions: list[Instruction] = []
    rest = n
    while rest > 0:
        head, rest = unpair(rest - 1)
        instructions.append(_nat_to_instruction(head))
    return ToyProgram(tuple(instructions))


def index_of(program: ToyProgram) -> int:
    code = 0
    for ins in reversed(program.instructions):
        code = pair(_instruction_to_nat(ins), code) + 1
    return code


# ---------------------------------------------------------------------------
# Execution

@dataclass(frozen=True)
class Halted:
    output: int
    steps: int


class Running:
    """Sentinel: not halted within the step budget."""

    def __repr__(self) -> str:  # pragma: no cover
        return "Running"


RUNNING = Running()


def _initial_config(program: ToyProgram, value: int, second: int | None = None) -> Config:
    regs = [0] * max(program.register_count, 2 if second is not None else 1)
    regs[0] = value
    if second is not None:
        regs[1] = second
    return (0, tuple(regs))


def _step(program: ToyProgram, config: Config) -> Config:
    pc, regs = config
    ins = program.instructions[pc]
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


def _is_terminal(program: ToyProgram, config: Config) -> bool:
    return config[0] >= len(program)


def run(program: ToyProgram, value: int, step_budget: int,
        second: int | None = None) -> Halted | Running:
    """Deterministic small-step execution; Running means not halted in budget."""
    if step_budget < 0:
        raise ValueError("step budget must be a natural")
    config = _initial_config(program, value, second)
    for steps in range(step_budget + 1):
        if _is_terminal(program, config):
            return Halted(config[1][0], steps)
        if steps == step_budget:
            break
        config = _step(program, config)
    return RUNNING


def run_trace(program: ToyProgram, value: int, step_budget: int,
              second: int | None = None) -> tuple[Config, ...] | Running:
    """Full configuration trace from initial to halting configuration."""
    config = _initial_config(program, value, second)
    trace = [config]
    for _ in range(step_budget):
        if _is_terminal(program, config):
            return tuple(trace)
        config = _step(program, config)
        trace.append(config)
    if _is_terminal(program, config):
        return tuple(trace)
    return RUNNING


def halting_steps(program: ToyProgram, value: int, step_budget: int) -> int | None:
    result = run(program, value, step_budget)
    return result.steps if isinstance(result, Halted) else None


def apply2(e: int, a: int, b: int, step_budget: int) -> Halted | Running:
    """Program e as a two-place function: arguments in registers 0 and 1."""
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


def _halting_computations(x: int, cap: int) -> Iterator[tuple[int, ToyProgram, int]]:
    """(e, P_e, s) for each pair (e, s) among the first cap pairs in dovetail
    order (e + s ascending, then e ascending) where P_e halts on x in exactly
    s steps.  Program e starts at pair (e, 0) and steps once per diagonal, so
    at (e, s) it has run exactly s steps; it leaves at its halting pair."""
    live: list[tuple[int, ToyProgram, Config]] = []
    for diagonal in count():
        program = enumerate_programs(diagonal)
        live.append((diagonal, program, _initial_config(program, x)))
        first = diagonal * (diagonal + 1) // 2  # position of the pair (0, diagonal)
        running: list[tuple[int, ToyProgram, Config]] = []
        for e, program, config in live:
            if first + e >= cap:  # every pair after this one sits later still
                return
            if _is_terminal(program, config):
                yield e, program, diagonal - e
            else:
                running.append((e, program, _step(program, config)))
        live = running


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
            assert not isinstance(trace, Running)
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
    return int(not isinstance(trace, Running) and trace == certificate.trace)


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

class HaltsAnswer:
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class OracleReply:
    status: str
    value: int | None = None


class MachineOracle:
    """Budgeted real-machine oracle: yes within the step budget, else unknown."""

    def __init__(self, step_budget: int, dovetail_budget: int = 200_000):
        self.step_budget = step_budget
        self.dovetail_budget = dovetail_budget

    def halts(self, e: int, x: int) -> OracleReply:
        result = run(enumerate_programs(e), x, self.step_budget)
        if isinstance(result, Halted):
            return OracleReply(HaltsAnswer.YES, result.output)
        return OracleReply(HaltsAnswer.UNKNOWN)

    def certificate_index(self, e: int, x: int) -> int | None:
        if self.halts(e, x).status != HaltsAnswer.YES:
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

    def halts(self, e: int, x: int) -> OracleReply:
        if (e, x) in self.halting:
            return OracleReply(HaltsAnswer.YES, self.halting[(e, x)])
        return OracleReply(HaltsAnswer.NO)

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
            e_str, x_str = key.split(",")
            pair_key = (int(e_str), int(x_str))
            if isinstance(entry, dict) and "halts" in entry:
                for name in ("halts", "cert"):
                    # Only a JSON integer; bool is an int subclass.
                    if name in entry and type(entry[name]) is not int:
                        raise ValueError(f"oracle entry {key!r}: {name!r} must be an "
                                         f"integer, not {entry[name]!r}")
                halting[pair_key] = entry["halts"]
                if "cert" in entry:
                    certificates[pair_key] = entry["cert"]
            elif entry != "diverges":
                raise ValueError(f"malformed oracle entry for {key!r}: {entry!r}")
        return TableOracle(halting, certificates)


# Canonical tiny programs used throughout the demos and tests.
CONST0_PROGRAM = ToyProgram(((HALT, 2),))
CONST1_PROGRAM = ToyProgram(((INC, 2), (HALT, 2)))
CONST0_INDEX = index_of(CONST0_PROGRAM)
CONST1_INDEX = index_of(CONST1_PROGRAM)
