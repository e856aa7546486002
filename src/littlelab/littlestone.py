"""Littlestone dimension: the splitting recursion (through the class's own
memo, ``FiniteClass.ldim_of``), direct tree search, and the dovetailing
witness enumerator for budgeted enumerable classes.

Shattered trees are stored in heap layout: nodes (x_1, ..., x_{2^d - 1}) with
the root at position 1, and the two children of position i at 2i and 2i + 1.
A label path (y_1, ..., y_d) therefore visits i_{j+1} = 2 i_j + y_j; the
verifier walks the layout once per level, splitting the raw rows at each node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .classes import EnumerableClass, FiniteClass


@dataclass(frozen=True)
class ShatteredTree:
    nodes: tuple[int, ...]
    depth: int

    def __post_init__(self) -> None:
        if len(self.nodes) != (1 << self.depth) - 1:
            raise ValueError(
                f"depth-{self.depth} tree needs {(1 << self.depth) - 1} nodes, "
                f"got {len(self.nodes)}")


def ldim(H: FiniteClass) -> int:
    """Exact Littlestone dimension, by the splitting recursion; -1 for the empty class."""
    return H.ldim_of(H.version_space(()))


def _search(v: int, splits: tuple[tuple[int, int], ...], depth: int):
    """Nested (x, left, right) witness structure for version space v, or None.

    Instances are tried in ascending order.  ``splits`` keeps only the first
    x of each distinct split (``FiniteClass.splits``); that is exact, because a
    later x whose column equals an earlier column, or its complement, fails
    exactly when the earlier x fails, so the first witness is unchanged.
    """
    if depth == 0:
        return () if v else None
    # Ldim(V) <= log2 |V|: each tree path needs its own hypothesis.
    if v.bit_count().bit_length() - 1 < depth:
        return None
    for x, col in splits:
        ones = v & col
        if not ones or ones == v:
            continue
        left = _search(v ^ ones, splits, depth - 1)
        if left is None:
            continue
        right = _search(ones, splits, depth - 1)
        if right is not None:
            return (x, left, right)
    return None


def _flatten(structure, depth: int) -> tuple[int, ...]:
    nodes = [0] * ((1 << depth) - 1)

    def fill(node, position: int) -> None:
        if node == ():
            return
        x, left, right = node
        nodes[position - 1] = x
        fill(left, 2 * position)
        fill(right, 2 * position + 1)

    fill(structure, 1)
    return tuple(nodes)


def find_shattered_tree(H: FiniteClass, d: int) -> ShatteredTree | None:
    """Exhaustive search for a depth-d witness; None certifies there is none."""
    if d < 1:
        raise ValueError("witness search needs depth >= 1")
    structure = _search(H.version_space(()), H.splits, d)
    if structure is None:
        return None
    return ShatteredTree(_flatten(structure, d), d)


def verify_shattered_tree(H: FiniteClass, tree: ShatteredTree, d: int) -> bool:
    """Check every label path has a consistent hypothesis, in one pass per level
    over H.rows, never the engines' columns: each node splits the rows meeting its
    path so far on its instance, so a leaf gets exactly the rows its path admits."""
    if tree.depth != d or len(tree.nodes) != (1 << d) - 1:
        raise ValueError(f"tree has wrong shape for depth {d}")

    def shattered(rows: list[int], position: int) -> bool:
        if not rows or position > len(tree.nodes):
            return bool(rows)
        x = tree.nodes[position - 1]
        zeros, ones = [], []
        for row in rows:
            (ones if row >> x & 1 else zeros).append(row)
        return shattered(zeros, 2 * position) and shattered(ones, 2 * position + 1)

    return shattered(list(H.rows), 1)


def max_witness_depth(H: FiniteClass) -> int:
    """Dimension via the tree-search engine alone (cross-check for ldim); it
    asks only whether each depth has a witness, and builds no tree."""
    if not H.rows:
        return -1
    depth = 0
    while _search(H.version_space(()), H.splits, depth + 1) is not None:
        depth += 1
    return depth


# ---------------------------------------------------------------------------
# Dovetailing enumerator for enumerable classes

def tree_enumerator(H: EnumerableClass, d: int) -> Iterator[ShatteredTree | None]:
    """Dovetailer over (hypothesis indices, instances, stages).

    Yields None as a progress tick after each unit of work; yields a verified
    witness once one exists within the current stage.  Stage k consults
    hypothesis indices < k and instances < k, so every witness over finitely
    many hypotheses and instances is eventually found.
    """
    if d < 0:
        return
    stage = 1
    while True:
        rows: set[int] = set()
        budget = min(stage, H.enumeration_budget)
        for i in range(budget):
            h = H.generator(i)
            yield None
            if h is None:
                continue
            mask = 0
            for x in range(stage):
                if h(x):
                    mask |= 1 << x
                yield None
            rows.add(mask)
        if d == 0:
            if rows:
                yield ShatteredTree((), 0)
                return
        else:
            approximation = FiniteClass(stage, frozenset(rows))
            yield None
            witness = find_shattered_tree(approximation, d)
            if witness is not None and verify_shattered_tree(approximation, witness, d):
                yield witness
                return
        stage += 1

