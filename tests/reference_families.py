"""The certificate-block families as four if-chains, and the diagonal label
as one recursion per instance.

``extended_block_members``, ``two_tier_block_members``,
``extended_family_decider`` and ``two_tier_family_decider`` are the
families as they were before each became one table of support shapes read
by ``block_members`` and ``family_decider``.  The agreement tests compare
the tables' supports (in order), deciders, oracle queries and budget errors
against them.

``diagonal_label`` is ``families.diagonal_label`` as it was before each
block row became one left-to-right fold: the label of n recursively derives
the labels of the members before n in its row, with an unbounded cache.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from littlelab.core import Sample, decode_canonical, encode_sample
from littlelab.families import _decompose_support, block_position, certificate_position
from littlelab.machine import apply2


@lru_cache(maxsize=None)
def diagonal_label(n: int, step_budget: int) -> tuple[int, bool]:
    position = block_position(n)
    history = Sample.of(*((m, diagonal_label(m, step_budget)[0])
                          for m in range(position.start, n)))
    result = apply2(position.i - position.j, encode_sample(history), n, step_budget)
    if result is not None:
        return int(result.output == 0), True
    return 0, False


def extended_block_members(oracle, e: int) -> list[frozenset[int]]:
    """All supports the extended halting-support family places in block e."""
    if oracle.halts(e, 0) is None:
        return []
    c0 = certificate_position(oracle, e, 0)
    members = [frozenset({2 ** e, 2 ** e * 3 ** c0})]
    reply = oracle.halts(e, e)
    if reply in (0, 1):
        ce = certificate_position(oracle, e, e)
        if reply == 1:
            members.append(frozenset({2 ** e, 2 ** e * 5 ** c0, 2 ** e * 7 ** ce}))
            members.append(frozenset({2 ** e, 2 ** e * 5 ** c0, 2 ** e * 11 ** ce}))
        else:
            members.append(frozenset({2 ** e, 2 ** e * 5 ** c0, 2 ** e * 13 ** ce}))
            members.append(frozenset({2 ** e, 2 ** e * 3 ** c0, 2 ** e * 13 ** ce}))
    return members


def two_tier_block_members(oracle, e: int) -> list[frozenset[int]]:
    """All supports the two-tier halting-support family places in block e."""
    if oracle.halts(e, 0) is None:
        return []
    c0 = certificate_position(oracle, e, 0)
    members = [frozenset({2 ** e, 2 ** e * 3 ** c0})]
    if oracle.halts(e, e) is not None:
        ce = certificate_position(oracle, e, e)
        members.append(frozenset({2 ** e, 2 ** e * 5 ** c0, 2 ** e * 7 ** ce}))
        members.append(frozenset({2 ** e, 2 ** e * 5 ** c0, 2 ** e * 11 ** ce}))
    return members


def extended_family_decider(oracle) -> Callable[[int], int]:
    """Total decider for membership of a canonically-coded finite set in the
    extended block family."""

    def decide(y_code: int) -> int:
        members = decode_canonical(y_code)
        shape = _decompose_support(members)
        if shape is None:
            return 0
        e = shape[None][0]
        primes = set(shape) - {None}
        if primes == {3} and len(members) == 2:
            return int(oracle.cert_matches(e, shape[3][1], 0))
        if len(members) != 3:
            return 0
        if primes in ({5, 7}, {5, 11}, {5, 13}):
            i = shape[5][1]
            j = shape[7][1] if 7 in shape else shape[11][1] if 11 in shape else shape[13][1]
        elif primes == {3, 13}:
            i, j = shape[3][1], shape[13][1]
        else:
            return 0
        if not (oracle.cert_matches(e, i, 0) and oracle.cert_matches(e, j, e)):
            return 0
        reply = oracle.halts(e, e)
        if reply not in (0, 1):
            return 0
        has_13 = 13 in primes
        return int((reply == 0) == has_13)

    return decide


def two_tier_family_decider(oracle) -> Callable[[int], int]:
    """Total decider for membership in the two-tier block family."""

    def decide(y_code: int) -> int:
        members = decode_canonical(y_code)
        shape = _decompose_support(members)
        if shape is None:
            return 0
        e = shape[None][0]
        primes = set(shape) - {None}
        if primes == {3} and len(members) == 2:
            return int(oracle.cert_matches(e, shape[3][1], 0))
        if len(members) == 3 and primes in ({5, 7}, {5, 11}):
            i = shape[5][1]
            j = shape[7][1] if 7 in shape else shape[11][1]
            return int(oracle.cert_matches(e, i, 0) and oracle.cert_matches(e, j, e))
        return 0

    return decide
