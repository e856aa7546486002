"""Exact integer encodings and sample primitives.

Sequences of naturals are encoded as prime-power products (the i-th entry z_i
contributes p_i**(z_i + 1)), samples are encoded by flattening to
(x_1, y_1, ..., x_T, y_T), and finite sets of naturals are encoded as bitmask
integers.  All codes are arbitrary-precision: the prime-power encoding
overflows 64 bits already for tiny inputs.

A sequence code is built by one square-and-multiply chain over the bits of
the odd primes' exponents, not as a product of separate powers: the work is
one run of squarings up to the code's size, instead of one power per entry
and a product of megabit integers.  The factor of 2 is a final left shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count, islice
from typing import Iterable, Iterator, NamedTuple, Sequence


class NotInRangeError(ValueError):
    """Raised when an integer is not a valid sequence code."""


class LabeledInstance(NamedTuple):
    x: int
    y: int


@dataclass(frozen=True)
class Sample:
    """A finite sequence of labeled domain instances with prefix access."""

    items: tuple[LabeledInstance, ...] = ()

    def __post_init__(self) -> None:
        coerced = []  # ints only; int() turns a bool label into 0/1
        for x, y in self.items:
            if not (isinstance(x, int) and isinstance(y, int)):
                raise ValueError(f"instance and label must be integers, got {x!r} and {y!r}")
            if y not in (0, 1):
                raise ValueError(f"label must be 0 or 1, got {y}")
            if x < 0:
                raise ValueError(f"instance must be a natural, got {x}")
            coerced.append(LabeledInstance(int(x), int(y)))
        object.__setattr__(self, "items", tuple(coerced))

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[LabeledInstance]:
        return iter(self.items)

    def prefix(self, n: int) -> "Sample":
        if not 0 <= n <= len(self.items):
            raise ValueError(f"prefix length {n} out of range for |S|={len(self.items)}")
        return Sample(self.items[:n])

    def append(self, x: int, y: int) -> "Sample":
        return Sample(self.items + (LabeledInstance(x, y),))

    @staticmethod
    def of(*pairs: tuple[int, int]) -> "Sample":
        return Sample(tuple(LabeledInstance(x, y) for x, y in pairs))


def primes() -> Iterator[int]:
    """The primes in order, by trial division (codes only involve small primes)."""
    found: list[int] = []
    for candidate in count(2):
        if all(candidate % p for p in found):
            found.append(candidate)
            yield candidate


def encode_sequence(z: Sequence[int] | Iterable[int]) -> int:
    """Product of p_i**(z_i + 1); the empty sequence encodes to 1.

    Simultaneous exponentiation: going down the bits of the exponents
    e_i = z_i + 1 of the odd primes, square the code, then multiply it by the
    primes whose exponent has that bit set.  This is Horner's rule on the
    exponent bits, so after the last bit the code is the exact product of
    the odd prime powers; 2**e_0 is then one left shift.
    """
    entries = [int(v) for v in z]
    if any(v < 0 for v in entries):
        raise ValueError("sequence entries must be naturals")
    if not entries:
        return 1
    odd = list(zip(islice(primes(), 1, None), (v + 1 for v in entries[1:])))
    code = 1
    for bit in reversed(range(max((e for _, e in odd), default=0).bit_length())):
        factor = 1
        for p, e in odd:
            if e >> bit & 1:
                factor *= p
        code = code * code * factor
    return code << (entries[0] + 1)


def decode_sequence(code: int) -> tuple[int, ...]:
    """Inverse of encode_sequence on its range; rejects malformed codes."""
    if code < 1:
        raise NotInRangeError(f"codes are positive integers, got {code}")
    entries: list[int] = []
    rest = code
    stream = primes()
    while rest > 1:
        p = next(stream)
        exponent = 0
        while rest % p == 0:
            rest //= p
            exponent += 1
        if exponent == 0:
            # A later prime divides the code while this one does not: prime gap.
            raise NotInRangeError(f"{code} skips prime {p}; not a sequence code")
        entries.append(exponent - 1)
    return tuple(entries)


@lru_cache(maxsize=64)
def _encode_sample_cached(items: tuple[LabeledInstance, ...]) -> int:
    flat: list[int] = []
    for x, y in items:
        flat.extend((x, y))
    return encode_sequence(flat)


def encode_sample(sample: Sample) -> int:
    # Cached: replaying a learner re-encodes the same prefixes, and codes of
    # samples with large instances are expensive multi-megabit integers.
    return _encode_sample_cached(sample.items)


def decode_sample(code: int) -> Sample:
    flat = decode_sequence(code)
    if len(flat) % 2:
        raise NotInRangeError(f"{code} decodes to an odd-length sequence; not a sample code")
    return Sample.of(*zip(flat[0::2], flat[1::2]))


def canonical_index(instances: Iterable[int]) -> int:
    """Bitmask code of a finite set: sum of 2**x over members."""
    members = set(instances)
    if any(x < 0 for x in members):
        raise ValueError("set members must be naturals")
    return sum(1 << x for x in members)


def decode_canonical(y: int) -> frozenset[int]:
    if y < 0:
        raise ValueError("canonical indices are naturals")
    # Peel off the lowest set bit: one pass over the code per member, so a
    # sparse code of many bits decodes in O(members × bits).
    members = []
    while y:
        low = y & -y
        members.append(low.bit_length() - 1)
        y ^= low
    return frozenset(members)
