"""Littlestone-dimension and game-value kernels over bitset version spaces.

A version space is an int whose bit i is set when row i of a class's sorted
rows is still consistent.  Each instance x becomes one column bitset, the rows
labelling x with 1; splitting v on x yields ``v ^ (v & col)`` (label 0) and
``v & col`` (label 1).  A constant column never splits anything, and a column
equal to an earlier one or to its complement splits every version space the
same way, so only the first column of each distinct split is kept; both stay
true inside every sub-version-space, so a class's splits serve all of them.

Four rules prune the recursions, and all are admissible:

* a depth-d shattered tree needs 2^d hypotheses, and the halving learner
  makes at most floor(log2 |v|) mistakes on v, so neither the dimension nor
  the game value of v exceeds floor(log2 |v|): a node stops at that value;
* the game value of v is also at most 1 + floor(log2 m), where m is the
  largest minority side of a split of v.  The learner that predicts the
  forced label where v agrees on x, and otherwise the label most rows of v
  give x, first errs where the target takes v's minority label, which
  leaves at most m rows; halving them errs at most floor(log2 m) more times.
  As m <= |v| / 2, this bound is never above the first, and the game node
  stops at it.  On singletons it is 1, where floor(log2 |v|) let the
  recursion visit about 2^|v| version spaces.  An instance whose column is
  the complement of another's has the same minority side, so `splits` serve
  this bound as well as every column would.  A node whose bound is 1 has
  value exactly 1 and returns it before trying a split: v has two rows or
  more, so some kept split divides it, and every dividing split scores at
  least 1.  A singletons-like space is then one memo entry, and the
  recursion does not descend one frame per row;
* a split whose best possible value, computed from those bounds on its two
  sides, cannot beat the best split so far is skipped.  A side's value is at
  most its parent's, so the game recursion also caps each side at the
  parent's bound;
* in the ldim recursion, a split whose smaller side has dimension 0 (a
  single row, as rows are distinct) is worth exactly 1: the larger side is
  nonempty, so its dimension is at least 0, and it is not computed.  This
  spares a singletons-like space of k rows a chain of k - 1 nested version
  spaces, one row fewer at each step.

The two recursions stay separate, so each checks the other.  Each writes the
exact value of every version space it finishes into a memo its caller owns.
``FiniteClass.ldim_of`` and ``game_value_of`` are the one entry to each: the
class owns the memos, so one memo per class serves every call.
"""

from __future__ import annotations


def columns(rows: tuple[int, ...], domain_size: int) -> tuple[int, ...]:
    """Column x has bit i set when rows[i] labels x with 1: a walk of each row's set bits."""
    cols = [0] * domain_size
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return tuple(cols)


def splits(cols: tuple[int, ...], full: int) -> tuple[tuple[int, int], ...]:
    """One (x, column) per distinct split of version space `full`, in
    ascending x: x is the first instance inducing that split."""
    seen = {0, full}
    kept = []
    for x, col in enumerate(cols):
        if col not in seen:
            seen.update((col, full ^ col))
            kept.append((x, col))
    return tuple(kept)


def ldim(v: int, splits: tuple[tuple[int, int], ...], memo: dict[int, int]) -> int:
    """Depth of the deepest shattered tree of v (-1 for v = 0), by the splitting
    recursion: ldim(v) = max over splits of 1 + min(ldim(zeros), ldim(ones))."""
    def rec(v: int) -> int:
        if not v & (v - 1):
            return 0
        cached = memo.get(v)
        if cached is not None:
            return cached
        cap = v.bit_count().bit_length() - 1
        best = 0
        for _, col in splits:
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
            # large is nonempty, so ldim(large) >= 0 and low = 0 is the min.
            cand = 1 + min(low, rec(large)) if low else 1
            if cand > best:
                best = cand
                if best == cap:
                    break
        memo[v] = best
        return best

    return rec(v) if v else -1


def game_value(v: int, splits: tuple[tuple[int, int], ...], memo: dict[int, int]) -> int:
    """Minimax mistake count on v: the adversary picks an instance and a feasible
    label, the learner a prediction; independent of the ldim recursion."""
    def rec(v: int) -> int:
        if not v & (v - 1):
            return 0
        cached = memo.get(v)
        if cached is not None:
            return cached
        size = v.bit_count()
        cap = size.bit_length() - 1
        if cap >= 2:
            # The first-mistake bound: 1 + floor(log2 m), m the largest
            # minority side of a split.  It is at most cap (equal below 2),
            # and a minority side of 2^(cap-1) or more keeps it there.
            half = 1 << (cap - 1)
            most = 0
            for _, col in splits:
                ones = (v & col).bit_count()
                if ones > size - ones:
                    ones = size - ones
                if ones >= half:
                    break
                if ones > most:
                    most = ones
            else:
                cap = most.bit_length()
        if cap == 1:
            memo[v] = 1
            return 1
        best = 0
        for _, col in splits:
            ones = v & col
            if not ones or ones == v:
                continue
            zeros = v ^ ones
            # The value is monotone in v0 and v1, and v_i <= floor(log2 |side_i|)
            # and v_i <= cap, the value of v, which contains side i.
            u0 = min(zeros.bit_count().bit_length() - 1, cap)
            u1 = min(ones.bit_count().bit_length() - 1, cap)
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

    return rec(v)

