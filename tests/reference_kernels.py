"""Slow reference recursions over tuples of row masks.

These are the naive splitting, game and tree-search recursions that the
bitset kernels in ``littlelab.kernels`` and ``littlelab.littlestone`` replace,
and the (instance, row) double loop that ``kernels.columns`` replaced.
They rebuild the row tuple of every split and never stop early, so they are
only fit for small classes; the agreement tests compare the fast engines
against them.
"""

from __future__ import annotations


def ldim_masks(rows: tuple[int, ...], domain_size: int) -> int:
    """Depth of the deepest shattered tree, by the splitting recursion."""
    memo: dict[tuple[int, ...], int] = {}

    def rec(masks: tuple[int, ...]) -> int:
        if not masks:
            return -1
        if len(masks) == 1:
            return 0
        cached = memo.get(masks)
        if cached is not None:
            return cached
        best = 0
        for x in range(domain_size):
            zeros = tuple(r for r in masks if not (r >> x) & 1)
            if not zeros or len(zeros) == len(masks):
                continue
            ones = tuple(r for r in masks if (r >> x) & 1)
            cand = 1 + min(rec(zeros), rec(ones))
            if cand > best:
                best = cand
        memo[masks] = best
        return best

    return rec(tuple(sorted(rows)))


def game_value_masks(rows: tuple[int, ...], domain_size: int) -> int:
    """Minimax mistake count: adversary picks instances and feasible labels,
    the learner picks predictions; independent of the ldim recursion."""
    memo: dict[tuple[int, ...], int] = {}

    def rec(masks: tuple[int, ...]) -> int:
        if len(masks) <= 1:
            return 0
        cached = memo.get(masks)
        if cached is not None:
            return cached
        best = 0
        for x in range(domain_size):
            zeros = tuple(r for r in masks if not (r >> x) & 1)
            if not zeros or len(zeros) == len(masks):
                continue
            ones = tuple(r for r in masks if (r >> x) & 1)
            v0 = rec(zeros)
            v1 = rec(ones)
            # Prediction 1: pay on label 0; prediction 0: pay on label 1.
            predict1 = max(1 + v0, v1)
            predict0 = max(v0, 1 + v1)
            cand = min(predict1, predict0)
            if cand > best:
                best = cand
        memo[masks] = best
        return best

    return rec(tuple(sorted(rows)))


def search(masks: tuple[int, ...], domain_size: int, depth: int):
    """Nested (x, left, right) witness structure of the first depth-`depth`
    shattered tree in ascending instance order, or None."""
    if depth == 0:
        return () if masks else None
    if len(masks).bit_length() - 1 < depth:  # Ldim <= log2 |H|
        return None
    for x in range(domain_size):
        zeros = tuple(r for r in masks if not (r >> x) & 1)
        if not zeros or len(zeros) == len(masks):
            continue
        ones = tuple(r for r in masks if (r >> x) & 1)
        left = search(zeros, domain_size, depth - 1)
        if left is None:
            continue
        right = search(ones, domain_size, depth - 1)
        if right is not None:
            return (x, left, right)
    return None


def columns(rows: tuple[int, ...], domain_size: int) -> tuple[int, ...]:
    """One column bitset per instance x, testing every (instance, row) pair:
    bit i is set when rows[i] labels x with 1."""
    cols = []
    for x in range(domain_size):
        col = 0
        for i, row in enumerate(rows):
            if row >> x & 1:
                col |= 1 << i
        cols.append(col)
    return tuple(cols)
