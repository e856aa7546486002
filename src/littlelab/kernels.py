"""Littlestone-dimension and game-value kernels over bitset version spaces.

Both kernels take a class as its sorted tuple of row masks plus the domain
size.  A version space is an int whose bit i is set when row i is still
consistent, so the whole class is ``(1 << len(rows)) - 1``.  Each instance x
becomes one column bitset, the rows labelling x with 1; splitting a version
space v on x yields ``v ^ (v & col)`` (label 0) and ``v & col`` (label 1).
A constant column never splits anything, and a column equal to an earlier one
or to its complement splits every version space the same way, so only the
first column of each distinct split is kept.

Two bounds prune the recursions, and both are admissible:

* a depth-d shattered tree needs 2^d hypotheses, and the halving learner
  makes at most floor(log2 |v|) mistakes on v, so neither the dimension nor
  the game value of v exceeds floor(log2 |v|): a node stops at that value;
* a split whose best possible value, computed from those bounds on its two
  sides, cannot beat the best split so far is skipped.

The two recursions stay separate, so each checks the other.  Memo tables are
keyed on the version-space int and confined to one top-level call.
"""

from __future__ import annotations


def columns(rows: tuple[int, ...], domain_size: int) -> tuple[int, ...]:
    """One column bitset per instance x: bit i is set when rows[i] labels x with 1."""
    cols = []
    for x in range(domain_size):
        col = 0
        for i, row in enumerate(rows):
            if row >> x & 1:
                col |= 1 << i
        cols.append(col)
    return tuple(cols)


def _splits(rows: tuple[int, ...], domain_size: int) -> tuple[int, list[tuple[int, int]]]:
    """The full version space and one (x, column) per distinct split, in
    ascending x: x is the first instance inducing that split."""
    full = (1 << len(rows)) - 1
    seen = {0, full}
    splits = []
    for x, col in enumerate(columns(rows, domain_size)):
        if col not in seen:
            seen.add(col)
            seen.add(full ^ col)
            splits.append((x, col))
    return full, splits


def ldim_masks(rows: tuple[int, ...], domain_size: int) -> int:
    """Depth of the deepest shattered tree, by the splitting recursion:
    ldim(v) = max over splits of 1 + min(ldim(zeros), ldim(ones))."""
    full, splits = _splits(rows, domain_size)
    if not full:
        return -1
    columns = [col for _, col in splits]
    memo: dict[int, int] = {}

    def rec(v: int) -> int:
        if not v & (v - 1):
            return 0
        cached = memo.get(v)
        if cached is not None:
            return cached
        cap = v.bit_count().bit_length() - 1
        best = 0
        for col in columns:
            ones = v & col
            if not ones or ones == v:
                continue
            zeros = v ^ ones
            if ones.bit_count() <= zeros.bit_count():
                small, large = ones, zeros
            else:
                small, large = zeros, ones
            # 1 + floor(log2 |small|) bounds this split's value.
            if small.bit_count().bit_length() <= best:
                continue
            low = rec(small)
            if 1 + low <= best:
                continue
            cand = 1 + min(low, rec(large))
            if cand > best:
                best = cand
                if best == cap:
                    break
        memo[v] = best
        return best

    return rec(full)


def game_value_masks(rows: tuple[int, ...], domain_size: int) -> int:
    """Minimax mistake count: the adversary picks an instance and a feasible
    label, the learner a prediction; independent of the ldim recursion."""
    full, splits = _splits(rows, domain_size)
    columns = [col for _, col in splits]
    memo: dict[int, int] = {}

    def rec(v: int) -> int:
        if not v & (v - 1):
            return 0
        cached = memo.get(v)
        if cached is not None:
            return cached
        cap = v.bit_count().bit_length() - 1
        best = 0
        for col in columns:
            ones = v & col
            if not ones or ones == v:
                continue
            zeros = v ^ ones
            # The value is monotone in v0 and v1, and v_i <= floor(log2 |side_i|).
            u0 = zeros.bit_count().bit_length() - 1
            u1 = ones.bit_count().bit_length() - 1
            if min(max(1 + u0, u1), max(u0, 1 + u1)) <= best:
                continue
            v0 = rec(zeros)
            v1 = rec(ones)
            # Prediction 1: pay on label 0; prediction 0: pay on label 1.
            cand = min(max(1 + v0, v1), max(v0, 1 + v1))
            if cand > best:
                best = cand
                if best == cap:
                    break
        memo[v] = best
        return best

    return rec(full)
