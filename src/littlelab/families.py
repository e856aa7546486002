"""Hypothesis families built on the toy machine substrate.

These families tie online-learning structure to halting behavior:

* triple_block_family: supports {3e} always, plus {3e, 3e+1} and
  {3e, 3e+1, 3e+2} exactly when program e self-halts.
* extended_block_supports / two_tier_block_supports: supports inside the
  block 2**e * {3,5,7,11,13}**i whose exponents are halting-certificate
  positions, together with total deciders for exactly the member supports.
* adversarial_family: the diagonal family whose labels flip the prediction
  of the machine-coded learner assigned to each block row, forcing any such
  learner above any finite mistake bound.
* initial-segment family: h_s(x) = 1 iff program x self-halts within s
  steps; it contains arbitrarily many thresholds.

Each certificate-block family is one table of support shapes
(EXTENDED_SHAPES, TWO_TIER_SHAPES), read both by `block_members`, which lists
a block's supports, and by `family_decider`, which decides membership.

True natural-number instances can be huge, so `IndexedClass` re-indexes a
finite set of supports onto a compact domain for the exact game analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .budget import FuelExhaustedError
from .classes import EnumerableClass, FiniteClass, Hypothesis
from .core import LabeledInstance, Sample, decode_canonical, encode_sample, primes
from .littlestone import ShatteredTree, find_shattered_tree, verify_shattered_tree
from .machine import apply2, enumerate_programs, run


# ---------------------------------------------------------------------------
# Compact re-indexing

@dataclass(frozen=True)
class IndexedClass:
    """A finite family of supports re-indexed onto {0, ..., n-1}."""

    finite: FiniteClass
    naturals: tuple[int, ...]

    def to_natural(self, i: int) -> int:
        return self.naturals[i]

    def of_natural(self, n: int) -> int:
        return self.naturals.index(n)

    def reindex_sample(self, sample_over_naturals: Sample) -> Sample:
        return Sample.of(*((self.of_natural(x), y) for x, y in sample_over_naturals))

    @staticmethod
    def from_supports(supports: Iterable[frozenset[int]]) -> "IndexedClass":
        supports = list(supports)
        naturals = tuple(sorted(set().union(*supports))) if supports else ()
        position = {n: i for i, n in enumerate(naturals)}
        rows = frozenset(sum(1 << position[n] for n in support)
                         for support in supports)
        return IndexedClass(FiniteClass(len(naturals), rows), naturals)


# ---------------------------------------------------------------------------
# Triple block family (self-halting supports)

def triple_block_family(oracle, e_max: int) -> EnumerableClass:
    """Three enumeration slots per block e; the upper two are present exactly
    when the oracle certifies that program e self-halts."""

    def gen(i: int) -> Hypothesis | None:
        e, k = divmod(i, 3)
        if k == 0:
            return frozenset({3 * e}).__contains__
        if oracle.halts(e, e) is None:
            return None
        if k == 1:
            return frozenset({3 * e, 3 * e + 1}).__contains__
        return frozenset({3 * e, 3 * e + 1, 3 * e + 2}).__contains__

    return EnumerableClass(gen, 3 * e_max)


# ---------------------------------------------------------------------------
# Certificate-exponent block families

_DR_PRIMES = (3, 5, 7, 11, 13)


def factor_block_instance(x: int) -> tuple[int, int | None, int] | None:
    """Decompose x = 2**e * y**i with y an odd block prime (or x = 2**e).

    Returns (e, y, i) with y=None, i=0 for pure powers of two; None when x is
    not of this shape.
    """
    if x < 1:
        return None
    e = 0
    while x % 2 == 0:
        x //= 2
        e += 1
    if x == 1:
        return (e, None, 0)
    for y in _DR_PRIMES:
        i = 0
        while x % y == 0:
            x //= y
            i += 1
        if i:
            return (e, y, i) if x == 1 else None
    return None


def certificate_position(oracle, e: int, x: int) -> int:
    """The oracle's certificate position for program e on input x."""
    index = oracle.certificate_index(e, x)
    if index is None:
        raise FuelExhaustedError(
            f"certificate position for program {e} on input {x} unknown within budget")
    return index


# Every member of a certificate-block support must be below
# 2**MAX_MEMBER_BITS.  The CLI demos code each support as a bitmask with a
# bit per member value, so a code, perturbed members included, has at most
# 2**20 + 1 bits; an --oracle file with certificate position 30 would
# otherwise ask for a code of 2 * 3**30 bits.  The built-in table's members
# are below 2**14.
MAX_MEMBER_BITS = 20

# A shape (at_0, at_e, output) puts into block e the support
# {2**e} | {2**e * y**c0 for y in at_0} | {2**e * y**ce for y in at_e}, where c0
# and ce are P_e's certificate positions on inputs 0 and e.  A block is empty
# unless P_e halts on 0; a shape with primes in at_e needs P_e to halt on e
# too, with halting output `output` unless that is None.
Shape = tuple[tuple[int, ...], tuple[int, ...], int | None]

EXTENDED_SHAPES: tuple[Shape, ...] = (((3,), (), None), ((5,), (7,), 1), ((5,), (11,), 1),
                                      ((5,), (13,), 0), ((3,), (13,), 0))
TWO_TIER_SHAPES: tuple[Shape, ...] = (((3,), (), None), ((5,), (7,), None),
                                      ((5,), (11,), None))


def block_members(oracle, e: int, shapes: Sequence[Shape]) -> list[frozenset[int]]:
    """The supports `shapes` place in block e, in table order.

    ce is looked up only at the first kept shape that needs it, so a block
    whose P_e does not halt on e asks for no certificate on input e.

    A member at or above 2**MAX_MEMBER_BITS raises ValueError.  Every
    position read is the exponent of a kept member 2**e * y**c, and
    y**c > 2**c, so a position c >= MAX_MEMBER_BITS - e is refused before y
    is raised to it.
    """
    if oracle.halts(e, 0) is None:
        return []
    base = 2 ** e

    def member(y: int, c: int) -> int:
        value = base * y ** c if e + c < MAX_MEMBER_BITS else None
        if value is None or value >> MAX_MEMBER_BITS:
            raise ValueError(f"block {e} has the member 2^{e} * {y}^{c}, at or above the "
                             f"member cap of 2^{MAX_MEMBER_BITS}; lower its certificate "
                             f"position")
        return value

    c0 = certificate_position(oracle, e, 0)
    reply = oracle.halts(e, e)
    ce = None
    members = []
    for at_0, at_e, output in shapes:
        if at_e:
            if reply is None or (output is not None and reply != output):
                continue
            if ce is None:
                ce = certificate_position(oracle, e, e)
        members.append(frozenset({base, *(member(y, c0) for y in at_0),
                                  *(member(y, ce) for y in at_e)}))
    return members


def extended_block_supports(oracle, e_list: Sequence[int]) -> list[frozenset[int]]:
    return [support for e in e_list for support in block_members(oracle, e, EXTENDED_SHAPES)]


def two_tier_block_supports(oracle, e_list: Sequence[int]) -> list[frozenset[int]]:
    return [support for e in e_list for support in block_members(oracle, e, TWO_TIER_SHAPES)]


def _decompose_support(members: frozenset[int]) -> dict[int | None, tuple[int, int]] | None:
    """Map odd block prime -> (e, exponent) for a candidate support.

    Requires one pure power of two, every member sharing the same e, and
    strictly positive exponents; None when the shape is wrong.
    """
    shape: dict[int | None, tuple[int, int]] = {}
    for member in members:
        fac = factor_block_instance(member)
        if fac is None:
            return None
        e, y, i = fac
        if y is not None and i < 1:
            return None
        if y in shape:
            return None
        shape[y] = (e, i)
    if None not in shape:
        return None
    if len({e for e, _ in shape.values()}) != 1:
        return None
    return shape


def family_decider(oracle, shapes: Sequence[Shape]) -> Callable[[int], int]:
    """Total decider for membership of a canonically-coded finite set in the
    family `shapes` lays out: a block support of one shape's primes, with the
    certificate exponents and the output on e that the shape asks for."""
    by_primes = {frozenset(shape[0] + shape[1]): shape for shape in shapes}

    def decide(y_code: int) -> int:
        exponents = _decompose_support(decode_canonical(y_code))
        if exponents is None:
            return 0
        e = exponents[None][0]
        shape = by_primes.get(frozenset(exponents) - {None})
        if shape is None:
            return 0
        at_0, at_e, output = shape
        if not (all(oracle.cert_matches(e, exponents[y][1], 0) for y in at_0)
                and all(oracle.cert_matches(e, exponents[y][1], e) for y in at_e)):
            return 0
        if output is None:
            return 1
        return int(oracle.halts(e, e) == output)

    return decide


def extended_family_decider(oracle) -> Callable[[int], int]:
    """Total decider for membership in the extended block family."""
    return family_decider(oracle, EXTENDED_SHAPES)


def two_tier_family_decider(oracle) -> Callable[[int], int]:
    """Total decider for membership in the two-tier block family."""
    return family_decider(oracle, TWO_TIER_SHAPES)


# ---------------------------------------------------------------------------
# Diagonal adversarial family

def s1(n: int) -> int:
    return n * (n + 1) // 2


def s2(n: int) -> int:
    return n * (n + 1) * (n + 2) // 6


@dataclass(frozen=True)
class BlockPosition:
    i: int
    j: int

    @property
    def start(self) -> int:
        return s2(self.i) + s1(self.j)

    @property
    def end(self) -> int:
        """One past the last member; the block row holds j + 1 instances."""
        return s2(self.i) + s1(self.j + 1)


def block_position(n: int) -> BlockPosition:
    if n < 0:
        raise ValueError("instances are naturals")
    i = 0
    while s2(i + 1) <= n:
        i += 1
    offset = n - s2(i)
    j = 0
    while s1(j + 1) <= offset:
        j += 1
    return BlockPosition(i, j)


@lru_cache(maxsize=16)
def _diagonal_row(i: int, j: int, step_budget: int) -> tuple[tuple[int, bool], ...]:
    """(label, certain) for each member of block row (i, j), left to right.

    A member's label reads only the earlier members of its row, so the row is
    one fold: machine-coded learner i - j runs on the code of the row's
    labelled history so far and the member.
    """
    position = BlockPosition(i, j)
    history: tuple[LabeledInstance, ...] = ()
    row = []
    for n in range(position.start, position.end):
        result = apply2(i - j, encode_sample(Sample(history)), n, step_budget)
        # Not halted within budget: the convergence indicator is taken as
        # false, flagged uncertain since more steps could flip it.
        label, certain = (int(result.output == 0), True) if result is not None else (0, False)
        row.append((label, certain))
        history += (LabeledInstance(n, label),)
    return tuple(row)


def diagonal_label(n: int, step_budget: int = 10_000) -> tuple[int, bool]:
    """Label L(n) = [machine-coded learner of this block row predicts 0 on
    the row's own history], with a certainty flag for the step budget."""
    position = block_position(n)
    return _diagonal_row(position.i, position.j, step_budget)[n - position.start]


def adversarial_family(i_max: int, step_budget: int = 10_000) -> EnumerableClass:
    """Family {h_i}: h_i carries the diagonal labels on the rows of block i
    and is 0 elsewhere.  Dimension 1: each instance is labeled 1 by at most
    one hypothesis."""

    def gen(i: int) -> Hypothesis | None:
        def evaluate(n: int) -> int:
            position = block_position(n)
            if position.i != i:
                return 0
            return _diagonal_row(i, position.j, step_budget)[n - position.start][0]

        return evaluate

    return EnumerableClass(gen, i_max)


def forcing_row_bits(e: int, M: int, limit: int) -> int:
    """An upper bound on the total bits of the codes of the M + 1 histories
    (lengths 0 to M) that block row (M + e, M) encodes, or a partial sum above
    limit: the sum stops there, so it reads few instances and primes whatever
    e and M are.  A code is the product of p_2t^(x_t + 1) * p_2t+1^(y_t + 1),
    so with y_t <= 1 it has at most 1 + sum (x_t + 1) b(p_2t) + 2 b(p_2t+1)
    bits, b the bit length."""
    start = BlockPosition(M + e, M).start
    stream = primes()
    code = total = 1  # the empty history's code, 1, has one bit
    for x in range(start, start + M):
        if total > limit:
            break
        code += (x + 1) * next(stream).bit_length() + 2 * next(stream).bit_length()
        total += code
    return total


def diagonal_forcing_sample(e: int, M: int, step_budget: int = 10_000) -> Sample:
    """The length-(M+1) realizable sample on which the machine-coded learner
    e errs every step: block row (i, j) = (M + e, M)."""
    position = BlockPosition(M + e, M)
    return Sample.of(*((n, label) for n, (label, _) in zip(
        range(position.start, position.end), _diagonal_row(M + e, M, step_budget))))


# ---------------------------------------------------------------------------
# Initial-segment family (stage-counting thresholds)

def stage_hypothesis(s: int) -> Hypothesis:
    """h_s(x) = 1 iff program x self-halts within s steps."""

    def evaluate(x: int) -> int:
        return int(run(enumerate_programs(x), x, s) is not None)

    return evaluate


@dataclass(frozen=True)
class ThresholdWitness:
    """Instances and stages with h_{s_i}(x_j) = [i >= j]."""

    instances: tuple[int, ...]
    stages: tuple[int, ...]

    def as_indexed_class(self) -> IndexedClass:
        supports = []
        for s in self.stages:
            h = stage_hypothesis(s)
            supports.append(frozenset(x for x in self.instances if h(x)))
        return IndexedClass.from_supports(supports)

    def verify(self) -> bool:
        for i, s in enumerate(self.stages):
            h = stage_hypothesis(s)
            if any(h(x) != int(i >= j) for j, x in enumerate(self.instances)):
                return False
        return True


def find_thresholds(k: int, step_cap: int = 10_000, x_cap: int = 5_000) -> ThresholdWitness:
    """k instances with strictly increasing self-halting times; the matching
    stage hypotheses form k thresholds."""
    if k < 1:
        raise ValueError("k must be >= 1")
    timed: dict[int, int] = {}
    for x in range(x_cap):
        result = run(enumerate_programs(x), x, step_cap)
        if result is not None and result.steps not in timed:
            timed[result.steps] = x
        if len(timed) >= k:
            break
    if len(timed) < k:
        raise FuelExhaustedError(
            f"only {len(timed)} distinct self-halting times within caps")
    chosen = sorted(timed)[:k]
    return ThresholdWitness(tuple(timed[s] for s in chosen), tuple(chosen))


def dimension_witness_from_thresholds(witness: ThresholdWitness,
                                      depth: int) -> tuple[IndexedClass, ShatteredTree]:
    """An explicit verified depth-`depth` witness inside the threshold block."""
    indexed = witness.as_indexed_class()
    tree = find_shattered_tree(indexed.finite, depth)
    if tree is None or not verify_shattered_tree(indexed.finite, tree, depth):
        raise AssertionError(f"no verified depth-{depth} witness found")
    return indexed, tree
