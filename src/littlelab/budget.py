"""Shared fuel bookkeeping for budgeted (partial-computability) operations."""

from __future__ import annotations


class FuelExhaustedError(RuntimeError):
    """A budgeted operation ran out of fuel before producing an answer.

    This is the desk-scale analogue of divergence, not a failure of the
    operation itself.
    """


class FuelTank:
    """Mutable fuel counter shared between logically concurrent enumerators."""

    def __init__(self, fuel: int):
        if fuel < 0:
            raise ValueError("fuel must be a natural")
        self.remaining = fuel

    def spend(self) -> None:
        if self.remaining < 1:
            raise FuelExhaustedError("fuel exhausted")
        self.remaining -= 1
