"""Hypothesis and hypothesis-class representations.

A hypothesis is its 0/1 function on the naturals: `Hypothesis` names the
type, and a support set serves as one through its `__contains__`.  A
FiniteClass is a deduplicated set of 0/1 rows over the domain prefix
{0, ..., n-1}; rows are stored as bitmask integers (bit x set iff the
hypothesis labels x with 1).  An EnumerableClass is a budgeted stream of
hypotheses indexed by naturals, where a slot may be absent (a diverging
enumeration step); queries read only the slots below its budget, so none hangs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from . import kernels


class ClassFileError(ValueError):
    """Raised on a malformed class file, with the offending entry number."""


Hypothesis = Callable[[int], int]  # a total 0/1 map over the naturals


@dataclass(frozen=True)
class FiniteClass:
    domain_size: int
    rows: frozenset[int]
    sorted_rows: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _ldim_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _game_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.domain_size < 0:
            raise ValueError("domain size must be a natural")
        for row in self.rows:
            if row < 0 or row >> self.domain_size:
                raise ValueError(f"row {row:b} exceeds domain size {self.domain_size}")
        object.__setattr__(self, "sorted_rows", tuple(sorted(self.rows)))

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """Bit i of columns[x] is set when sorted_rows[i] labels x with 1."""
        return kernels.columns(self.sorted_rows, self.domain_size)

    @cached_property
    def splits(self) -> tuple[tuple[int, int], ...]:
        """(x, columns[x]) for the first instance x of each distinct split, ascending."""
        return kernels.splits(self.columns, (1 << len(self.rows)) - 1)

    def ldim_of(self, v: int) -> int:
        """Littlestone dimension of the rows in version space v; -1 for v = 0.

        A space of at most one row and a value already in the class's memo
        are answered here, without entering the kernel.  That is exact: the
        kernel returns 0 (or -1 for v = 0) on such a space without a memo
        entry, and the memo holds only exact values the kernel wrote.
        """
        if not v & (v - 1):
            return 0 if v else -1
        cached = self._ldim_memo.get(v)
        if cached is not None:
            return cached
        return kernels.ldim(v, self.splits, self._ldim_memo)

    def game_value_of(self, v: int) -> int:
        """Minimax mistake bound of the rows in version space v; 0 for v = 0.

        As in `ldim_of`, a space of at most one row (value 0) and a memo hit
        never enter the kernel.
        """
        if not v & (v - 1):
            return 0
        cached = self._game_memo.get(v)
        if cached is not None:
            return cached
        return kernels.game_value(v, self.splits, self._game_memo)

    def version_space(self, sample: Iterable[tuple[int, int]]) -> int:
        """Bitset of the rows consistent with the sample (bit i: sorted_rows[i])."""
        v = (1 << len(self.rows)) - 1
        for x, y in sample:
            if not 0 <= x < self.domain_size:
                raise ValueError(f"instance {x} outside domain of size {self.domain_size}")
            if y not in (0, 1):
                raise ValueError(f"label must be 0 or 1, got {y}")
            v &= self.columns[x] if y else ~self.columns[x]
        return v

    def restricted_to(self, v: int) -> "FiniteClass":
        """The sub-class of the rows in version space v."""
        return FiniteClass(self.domain_size, frozenset(
            row for i, row in enumerate(self.sorted_rows) if v >> i & 1))

    def domain(self) -> range:
        return range(self.domain_size)

    def row_string(self, row: int) -> str:
        return "".join(str((row >> x) & 1) for x in range(self.domain_size))

    @staticmethod
    def from_hypotheses(domain_size: int, hypotheses: Iterable[Hypothesis]) -> "FiniteClass":
        return FiniteClass(domain_size, frozenset(
            sum(1 << x for x in range(domain_size) if h(x)) for h in hypotheses))


# ---------------------------------------------------------------------------
# Enumerable classes

@dataclass(frozen=True)
class EnumerableClass:
    """Budgeted enumerable stream of hypotheses.

    generator(i) returns the i-th hypothesis or None for an absent (diverging)
    slot.  The generator must be a pure function of its index.  enumeration
    budget caps the indices consulted.
    """

    generator: Callable[[int], Hypothesis | None]
    enumeration_budget: int

    def hypotheses(self) -> Iterator[tuple[int, Hypothesis]]:
        for i in range(self.enumeration_budget):
            h = self.generator(i)
            if h is not None:
                yield i, h

    def constrained(self, pairs: Sequence[tuple[int, int]]) -> "EnumerableClass":
        """Filter the stream to hypotheses consistent with the given pairs."""
        base = self.generator
        pinned = tuple(pairs)

        def gen(i: int) -> Hypothesis | None:
            h = base(i)
            if h is None or any(h(x) != y for x, y in pinned):
                return None
            return h

        return EnumerableClass(gen, self.enumeration_budget)

    def truncation(self, domain_size: int) -> FiniteClass:
        return FiniteClass.from_hypotheses(domain_size, (h for _, h in self.hypotheses()))

    @staticmethod
    def embed_finite(H: FiniteClass) -> "EnumerableClass":
        rows = H.sorted_rows

        def gen(i: int) -> Hypothesis | None:
            if i < len(rows):
                return lambda x: rows[i] >> x & 1
            return None

        return EnumerableClass(gen, max(len(rows), 1))


# ---------------------------------------------------------------------------
# Builders

def thresholds(d: int) -> FiniteClass:
    """2**d threshold hypotheses over domain size 2**d.

    Instance k of the 1-based presentation is stored as k-1, so row n labels
    exactly {0, ..., n-1} with 1, for n in 1..2**d.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    size = 1 << d
    return FiniteClass(size, frozenset((1 << n) - 1 for n in range(1, size + 1)))


def singletons(n: int) -> FiniteClass:
    if n < 1:
        raise ValueError("n must be >= 1")
    return FiniteClass(n, frozenset(1 << x for x in range(n)))


def hd_prime_extra_instances(d: int) -> list[int]:
    """The d-1 instances labeled 1 only by the extra hypothesis (offset applied)."""
    return [(1 << d) + i - 1 for i in range(1, d)]


def hd_prime(d: int) -> FiniteClass:
    """Thresholds plus one disjointly-supported hypothesis over d-1 extra instances."""
    rows = thresholds(d).rows  # rejects d < 1
    extra = sum(1 << x for x in hd_prime_extra_instances(d))
    return FiniteClass((1 << d) + d - 1, rows | {extra})


def to_file(H: FiniteClass, path: str) -> None:
    payload = {"domain_size": H.domain_size,
               "hypotheses": [H.row_string(r) for r in H.sorted_rows]}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def from_file(path: str) -> FiniteClass:
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ClassFileError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    if not isinstance(payload, dict) or set(payload) != {"domain_size", "hypotheses"}:
        raise ClassFileError(f"{path}: expected keys domain_size and hypotheses")
    n = payload["domain_size"]
    rows = payload["hypotheses"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ClassFileError(f"{path}: domain_size must be a natural number, got {n!r}")
    if not isinstance(rows, list):
        raise ClassFileError(f"{path}: hypotheses must be a list, got {type(rows).__name__}")
    masks = set()
    for entry_no, line in enumerate(rows, start=1):
        if not isinstance(line, str) or len(line) != n or set(line) - {"0", "1"}:
            raise ClassFileError(f"{path}: entry {entry_no}: bad row {line!r}")
        mask = sum(1 << x for x, c in enumerate(line) if c == "1")
        if mask in masks:
            raise ClassFileError(f"{path}: entry {entry_no}: duplicate row {line!r}")
        masks.add(mask)
    return FiniteClass(n, frozenset(masks))
