"""Slow reference witness check, path by path.

This is the verifier that ``littlelab.littlestone.verify_shattered_tree``
replaced with one pass per level: it lists all 2^d root-to-leaf constraint
paths of a tree and, for each, looks for a row that meets every constraint.
It reads only the tree's nodes and the class's rows, and is the oracle of
the agreement test.
"""

from __future__ import annotations

from typing import Iterator

from littlelab.classes import FiniteClass
from littlelab.littlestone import ShatteredTree


def paths(tree: ShatteredTree) -> Iterator[tuple[tuple[int, int], ...]]:
    """All 2^depth root-to-leaf (instance, label) constraint lists, in
    ascending order of their label strings."""
    for bits in range(1 << tree.depth):
        position = 1
        constraints = []
        for j in range(tree.depth):
            y = (bits >> (tree.depth - 1 - j)) & 1
            constraints.append((tree.nodes[position - 1], y))
            position = 2 * position + y
        yield tuple(constraints)


def verify_shattered_tree(H: FiniteClass, tree: ShatteredTree, d: int) -> bool:
    """Check every label path has a consistent hypothesis."""
    if tree.depth != d or len(tree.nodes) != (1 << d) - 1:
        raise ValueError(f"tree has wrong shape for depth {d}")
    for constraints in paths(tree):
        if not any(all((row >> x) & 1 == y for x, y in constraints) for row in H.rows):
            return False
    return True
