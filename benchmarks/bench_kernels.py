"""Time the Littlestone-dimension and game-value kernels.

Runs ``littlelab.kernels`` through their one entry, a class's own memos
(``ldim`` and ``optimal_mistake_bound`` on a fresh ``FiniteClass`` per
repeat, so every timing starts cold), on a small battery of classes and
prints a timing table.  Every value is checked: against the known dimension where there is
one (thresholds(d) and hd_prime(d) have dimension d, singletons dimension 1),
and the game value against the dimension.  The last two cases are ldim only.
Usage:

    python3 benchmarks/bench_kernels.py [--repeats N]
"""

from __future__ import annotations

import argparse
import random
import time

from littlelab.classes import FiniteClass, hd_prime, singletons, thresholds
from littlelab.game import optimal_mistake_bound
from littlelab.littlestone import ldim

KERNELS = {"ldim": ldim, "game value": optimal_mistake_bound}


def battery() -> list[tuple[str, tuple[int, ...], int, int | None, bool]]:
    """(name, rows, domain size, known dimension or None, time the game value)."""
    cases = [
        ("thresholds(4)", thresholds(4).sorted_rows, 16, 4, True),
        ("thresholds(6)", thresholds(6).sorted_rows, 64, 6, True),
        ("hd_prime(3)", hd_prime(3).sorted_rows, 10, 3, True),
        ("singletons(12)", singletons(12).sorted_rows, 12, 1, True),
    ]
    rng = random.Random(7)
    for i in range(3):
        domain = 9 + i
        rows = tuple(sorted(rng.sample(range(1 << domain), 40)))
        cases.append((f"random[{i}] d={domain} r=40", rows, domain, None, True))
    rows = tuple(sorted(rng.sample(range(1 << 20), 400)))
    cases.append(("random d=20 r=400", rows, 20, None, False))
    cases.append(("singletons(40)", singletons(40).sorted_rows, 40, 1, False))
    return cases


def timed(fn, rows, domain, repeats):
    best = float("inf")
    value = None
    for _ in range(repeats):
        H = FiniteClass(domain, frozenset(rows))
        start = time.perf_counter()
        value = fn(H)
        best = min(best, time.perf_counter() - start)
    return value, best


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    header = f"{'case':<24}{'kernel':<18}{'best (s)':>12}  value"
    print(header)
    print("-" * len(header))
    for case, rows, domain, known, with_game in battery():
        kernel_names = ["ldim"] + (["game value"] if with_game else [])
        values = []
        for kernel_name in kernel_names:
            value, best = timed(KERNELS[kernel_name], rows, domain, args.repeats)
            values.append(value)
            print(f"{case:<24}{kernel_name:<18}{best:>12.6f}  {value}")
        if known is not None and values[0] != known:
            print(f"MISMATCH on {case}: ldim {values[0]}, known dimension {known}")
            return 1
        if len(set(values)) != 1:
            print(f"MISMATCH on {case}: ldim {values[0]}, game value {values[1]}")
            return 1
    print("\nevery value matches its known dimension and the game value")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
