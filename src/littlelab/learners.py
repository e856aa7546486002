"""Online learners.

A Learner is a state machine: `init` is its state on the empty history,
`update(state, x, y)` folds one labelled instance in, and `decide(state, x)`
predicts.  A state is hashable; `key(state)` (the state itself by default)
is what predictions depend on, and the game analysis memoises on it.  sol's
state is the version-space bitset, the fallback learner's is its key (the
extras seen and sol's bitset, then the bitset alone), the block learners'
key is their current hypothesis, and learners that read the whole history
keep the items tuple.

Learners over the machine-backed classes (the halting-support families) work
on the true natural-number instances; `relabeled` adapts them to the compact
re-indexed domains used by the exact game analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

from .budget import FuelExhaustedError, FuelTank
from .classes import EnumerableClass, FiniteClass
from .core import Sample, encode_sample
from .families import (EXTENDED_SHAPES, TWO_TIER_SHAPES, block_members,
                       certificate_position, factor_block_instance)
from .littlestone import ShatteredTree, tree_enumerator
from .machine import apply2


@dataclass(frozen=True)
class Learner:
    """A learner as a state machine (see the module docstring).

    `instance_key(state, x)` lets the game explorer try one instance per
    class of equivalent instances.  The contract: two instances x, x' with
    equal ``v & columns[x]`` (v the version space of the history) and equal
    `instance_key` get the same `decide` and, for each label, children with
    the same `key`.  The default, None, puts every instance in its own
    class.  sol declares a constant, since it reads x only through
    ``v & columns[x]``.
    """

    name: str
    init: Hashable
    update: Callable[[Hashable, int, int], Hashable]
    decide: Callable[[Hashable, int], int]
    key: Callable[[Hashable], Hashable] = lambda state: state
    instance_key: Callable[[Hashable, int], Hashable] | None = None

    def state(self, sample: Iterable[tuple[int, int]]) -> Hashable:
        """The state after the history `sample`."""
        state = self.init
        for x, y in sample:
            state = self.update(state, x, y)
        return state

    def predict(self, sample: Sample, x: int) -> int:
        return self.decide(self.state(sample), x)


def _replaying(name: str, predict: Callable[[Sample, int], int]) -> Learner:
    """A learner whose state is the whole history, for a prediction function
    that reads the history as a Sample."""
    return Learner(name, (), lambda items, x, y: items + ((x, y),),
                   lambda items, x: predict(Sample(items), x))


# ---------------------------------------------------------------------------
# Standard optimal algorithm

def sol(H: FiniteClass) -> Learner:
    """Predict the label whose version-space restriction has the larger
    Littlestone dimension, ties going to 1.  The state is the version-space
    bitset of the history.

    A step ANDs v with x's column (or its complement); since v lies inside
    the full space, that equals ``v & H.version_space(((x, y),))``, and the
    same instance and label checks raise the same errors.  An instance that
    v labels alike is forced: ldim(0) = -1 is below the dimension of any
    nonempty side, so the prediction is that label (1 when v = 0) without a
    dimension query.  `H.ldim_of` answers one-row spaces and memo hits
    without entering the kernel.  It is looked up on each call, not bound
    once, so a wrapper installed on the class later still sees the calls.
    """
    n = H.domain_size
    cols = H.columns

    def update(v: int, x: int, y: int) -> int:
        if not 0 <= x < n:
            raise ValueError(f"instance {x} outside domain of size {n}")
        if y == 1:
            return v & cols[x]
        if y == 0:
            return v & ~cols[x]
        raise ValueError(f"label must be 0 or 1, got {y}")

    def decide(v: int, x: int) -> int:
        if not 0 <= x < n:
            raise ValueError(f"instance {x} outside domain of size {n}")
        ones = v & cols[x]
        if ones == v or not ones:
            return int(ones == v)
        return int(H.ldim_of(ones) >= H.ldim_of(v ^ ones))

    return Learner(f"sol[{n}]", H.version_space(()), update, decide,
                   instance_key=lambda v, x: None)


def constant_learner(bit: int) -> Learner:
    if bit not in (0, 1):
        raise ValueError("constant learners predict 0 or 1")
    return Learner(f"const{bit}", (), lambda state, x, y: state, lambda state, x: bit)


def conservative_learner() -> Learner:
    """Predict 1 exactly on instances already seen labeled 1.  The state is
    the set of those instances."""
    return Learner("conservative", frozenset(),
                   lambda seen, x, y: seen | {x} if y == 1 else seen,
                   lambda seen, x: int(x in seen))


def threshold_fallback_learner(H: FiniteClass, fallback_rows: frozenset[int]) -> Learner:
    """Sol on H, except: predict 0 on a never-seen "extra" instance while the
    history consists solely of positively-labeled extra instances.

    Extra instances are those labeled 0 by every hypothesis in
    `fallback_rows` (the designated sub-family).  With H the threshold family
    plus one extra hypothesis supported on the extra instances, this learner
    is optimal (bound max(d, |extras|) = d) yet not anytime optimal: after
    seeing one extra instance labeled 1 the version space pins the extra
    hypothesis, so zero further mistakes are optimal, but this learner still
    errs once on each remaining fresh extra instance.  Any history containing
    a non-extra step (or a 0 label) drops it back to plain sol, which handles
    every such prefix optimally.

    The state is the key.  While the history holds only positively labelled
    extras it is (seen, v): the extras seen, which are the whole history, and
    sol's state.  After that it is sol's bitset v alone, since `decide` then
    reads only v and the history can never again consist solely of extras; a
    tuple and an int never compare equal.  Only an extra instance in the
    tuple form is read beyond its column (through `seen`), so only such an
    instance keeps a class of its own.
    """
    inner = sol(H)
    fallback_union = 0
    for row in fallback_rows:
        fallback_union |= row
    extras = frozenset(x for x in range(H.domain_size) if not fallback_union >> x & 1)
    # The explorer asks `instance_key` about every instance of the domain at
    # every node; a tuple index is cheaper there than a set lookup.
    is_extra = tuple(x in extras for x in range(H.domain_size))

    def update(state, x: int, y: int):
        if isinstance(state, tuple):
            seen, v = state
            v = inner.update(v, x, y)
            return (seen | {x}, v) if x in extras and y == 1 else v
        return inner.update(state, x, y)

    def decide(state, x: int) -> int:
        if isinstance(state, tuple):
            seen, state = state
            if x in extras and x not in seen:
                return 0
        return inner.decide(state, x)

    return Learner("threshold-fallback", (frozenset(), inner.init), update, decide,
                   instance_key=lambda state, x: (
                       x if is_extra[x] and isinstance(state, tuple) else None))


# ---------------------------------------------------------------------------
# Budgeted significant-input predictor for enumerable classes

def _race(H: EnumerableClass, pairs: tuple[tuple[int, int], ...], x: int,
          depth: int, tank: FuelTank) -> int:
    """Race depth-`depth` witness enumerators for the (x,1)- and (x,0)-
    constrained version spaces; the first to certify wins."""
    if depth < 0:
        raise FuelExhaustedError("no label can be certified at negative depth")
    racers = [
        (1, tree_enumerator(H.constrained(pairs + ((x, 1),)), depth)),
        (0, tree_enumerator(H.constrained(pairs + ((x, 0),)), depth)),
    ]
    while True:
        for label, enumerator in racers:
            tank.spend()
            item = next(enumerator, None)
            if isinstance(item, ShatteredTree):
                return label


def sig_predictor(H: EnumerableClass, d: int, fuel: int = 100_000) -> Learner:
    """Budgeted predictor that is exact on significant inputs of optimal
    online learning, for a class of known dimension d.

    Each prediction replays the history, racing witness enumerators at depth
    d - (mistakes so far); running out of fuel is the desk-scale analogue of
    the prediction diverging.
    """
    if d < 0:
        raise ValueError("class dimension must be a natural")

    def predict(sample: Sample, x: int) -> int:
        tank = FuelTank(fuel)
        mistakes = 0
        pairs: tuple[tuple[int, int], ...] = ()
        for xt, yt in sample:
            p = _race(H, pairs, xt, d - mistakes, tank)
            if p != yt:
                mistakes += 1
            pairs = pairs + ((xt, yt),)
        return _race(H, pairs, x, d - mistakes, tank)

    return _replaying(f"sig[d={d}]", predict)


# ---------------------------------------------------------------------------
# Toy-machine-backed learner

def toy_learner(program_index: int, step_budget: int = 100_000) -> Learner:
    """Program `program_index` run as a two-place function on
    (sample code, instance); not halting within budget exhausts fuel.

    Predictions are the raw outputs: a run converging outside {0,1} counts
    as a mistake against either label.
    """

    def predict(sample: Sample, x: int) -> int:
        result = apply2(program_index, encode_sample(sample), x, step_budget)
        if result is None:
            raise FuelExhaustedError(
                f"program {program_index} not halted within {step_budget} steps")
        return result.output

    return _replaying(f"toy:{program_index}", predict)


# ---------------------------------------------------------------------------
# Hand-rolled optimal learners for the halting-support families.
# These predict over true natural instances; they are adapted to compact
# domains with `relabeled`.

def _match(support: frozenset[int] | None, x: int) -> int:
    return 0 if support is None else int(x in support)


def b_triple_blocks() -> Learner:
    """Optimal 2-mistake learner for the family with supports
    {3e} always and {3e,3e+1}, {3e,3e+1,3e+2} on self-halting e.

    Predicts 0 until a mistake on x1 in the block of e, then matches
    {3e, 3e+1, x1}; a second mistake pins the target down.  The state is
    (e, support).
    """

    def update(state, xt: int, yt: int):
        e, support = state
        if _match(support, xt) == yt:
            return state
        if support is None:
            e = xt // 3
            return e, frozenset({3 * e, 3 * e + 1, xt})
        if xt == 3 * e + 2 and yt == 1:
            return e, frozenset({3 * e, 3 * e + 1, 3 * e + 2})
        if xt == 3 * e + 1 and yt == 0:
            return e, frozenset({3 * e})
        # Any other disagreement is unrealizable; keep the hypothesis.
        return state

    return Learner("b-triple-blocks", (None, None), update,
                   lambda state, x: _match(state[1], x))


def _resolve_target(candidates: Iterable[frozenset[int]],
                    seen: tuple[tuple[int, int], ...],
                    current: frozenset[int]) -> frozenset[int]:
    """The canonically first candidate consistent with the whole history."""
    for support in sorted(candidates, key=sorted):
        if all(int(xt in support) == yt for xt, yt in seen):
            return support
    return current


def _block_learner(name: str, first_support, members) -> Learner:
    """A 2-mistake block learner whose state is (e, support, seen).

    Until its first mistake it predicts 0.  A first mistake on a block
    instance x1 = 2**e * y**i (factored as fac) matches
    `first_support(x1, fac)`; every later mistake re-resolves the target
    among `members(e)` against the whole history `seen`.  Predictions read
    (e, support) only, which is the key.
    """

    def update(state, xt: int, yt: int):
        e, support, seen = state
        seen += ((xt, yt),)
        if _match(support, xt) != yt:
            if support is None:
                fac = factor_block_instance(xt)
                if fac is not None and yt == 1:
                    e, support = fac[0], first_support(xt, fac)
            elif e is not None:
                support = _resolve_target(members(e), seen, support)
        return e, support, seen

    return Learner(name, (None, None, ()), update,
                   lambda state, x: _match(state[1], x),
                   key=lambda state: state[:2])


def b_extended_blocks(oracle) -> Learner:
    """Optimal 2-mistake learner for the extended halting-support family.

    After a first mistake on x1 = 2**e * y**i it matches {2**e, x1} (then the
    target after a second mistake).  After a first mistake on x1 = 2**e it
    consults the halting oracle on (e, e): output 1 gives {2**e, 2**e*5**c0},
    output 0 gives {2**e, 2**e*3**c0, 2**e*13**ce}, anything else gives
    {2**e, 2**e*3**c0}.
    """

    def first_support(xt: int, fac) -> frozenset[int]:
        e, y, _ = fac
        if y is not None:
            return frozenset({2 ** e, xt})
        reply = oracle.halts(e, e)
        if reply == 1:
            return frozenset({2 ** e, 2 ** e * 5 ** certificate_position(oracle, e, 0)})
        if reply == 0:
            # Matching the two-element {2^e, 2^e 13^ce} admits a third
            # mistake (after erring on (2^e 3^c0, 1) two candidates remain);
            # the member below keeps every second mistake target-determining.
            return frozenset({2 ** e, 2 ** e * 3 ** certificate_position(oracle, e, 0),
                              2 ** e * 13 ** certificate_position(oracle, e, e)})
        return frozenset({2 ** e, 2 ** e * 3 ** certificate_position(oracle, e, 0)})

    return _block_learner("b-extended-blocks", first_support,
                          lambda e: block_members(oracle, e, EXTENDED_SHAPES))


def b_two_tier_blocks(oracle) -> Learner:
    """Optimal 2-mistake learner for the two-tier halting-support family.

    First mistake on x1 = 2**e * y**i with y in {5,7,11} matches
    {2**e, 2**e*5**c0, x1}; on x1 = 2**e * 3**i matches {2**e, x1}; on
    x1 = 2**e matches {2**e, 2**e*5**c0}.  A first mistake on any other
    block instance fixes e but no support.
    """

    def first_support(xt: int, fac) -> frozenset[int] | None:
        e, y, _ = fac
        if y == 3:
            return frozenset({2 ** e, xt})
        if y in (5, 7, 11):
            c0 = certificate_position(oracle, e, 0)
            return frozenset({2 ** e, 2 ** e * 5 ** c0, xt})
        if y is None:
            return frozenset({2 ** e, 2 ** e * 5 ** certificate_position(oracle, e, 0)})
        return None

    return _block_learner("b-two-tier-blocks", first_support,
                          lambda e: block_members(oracle, e, TWO_TIER_SHAPES))


# ---------------------------------------------------------------------------
# Domain adaptation

def relabeled(learner: Learner, to_natural: Callable[[int], int]) -> Learner:
    """Adapt a learner over true naturals to a compact re-indexed domain.
    The state is the inner learner's, and so is the key."""
    return Learner(f"{learner.name}@reindexed", learner.init,
                   lambda state, x, y: learner.update(state, to_natural(x), y),
                   lambda state, x: learner.decide(state, to_natural(x)),
                   learner.key)
