"""Slow reference prime-power code of a sequence.

This is the product loop that ``littlelab.core.encode_sequence`` replaced
with one square-and-multiply chain: it builds every prime power with ``**``
and multiplies the powers together.  It shares no code with the library and
is only the oracle of the agreement test.
"""

from __future__ import annotations


def _primes(count: int) -> list[int]:
    found: list[int] = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found):
            found.append(candidate)
        candidate += 1
    return found


def encode_sequence(z) -> int:
    """Product of p_i**(z_i + 1); the empty sequence encodes to 1."""
    entries = [int(v) for v in z]
    if any(v < 0 for v in entries):
        raise ValueError("sequence entries must be naturals")
    code = 1
    for p, v in zip(_primes(len(entries)), entries):
        code *= p ** (v + 1)
    return int(code)
