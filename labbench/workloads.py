"""Query batteries of the four workloads.

Each builder takes a seeded ``random.Random`` and returns the battery: a list
of ``(kind, query)`` pairs.  A query is a closure over inputs built here, at
set-up time; calling it does the work a user asked for and checks the answer,
raising ``CheckFailed`` when a check breaks.  Checks hold for every seed.

The seed picks concrete inputs inside strata whose cost is fixed: each
battery has the same number of queries of each kind and shape, and classes
are drawn up to a seeded relabelling of the domain.  That keeps the total
work of a battery nearly the same from seed to seed, so run-to-run spread
measures the program and not the draw.  The order of the queries is fixed,
not drawn: the library's caches live for the whole pass, so the order
decides which query pays for a value that several queries share.

Library functions are always looked up as module attributes at call time
(``littlestone.ldim``), so the traced run sees the wrapped versions.
"""

from __future__ import annotations

import random

from littlelab import (batch, classes, core, families, game, learners,
                       littlestone, machine, significance)
from littlelab.budget import FuelExhaustedError
from littlelab.classes import FiniteClass
from littlelab.cli import default_table_oracle
from littlelab.game import Horizon


class CheckFailed(AssertionError):
    """An answer broke one of the benchmark's output checks."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def relabelled_row(row: int, perm: list[int]) -> int:
    return sum(1 << perm[x] for x in range(len(perm)) if (row >> x) & 1)


def relabelled(H: FiniteClass, perm: list[int]) -> FiniteClass:
    """The class with instance x renamed perm[x]: isomorphic, so every
    dimension and game value is unchanged."""
    return FiniteClass(H.domain_size, frozenset(relabelled_row(row, perm) for row in H.rows))


def shuffled(rng: random.Random, H: FiniteClass) -> tuple[FiniteClass, list[int]]:
    perm = list(range(H.domain_size))
    rng.shuffle(perm)
    return relabelled(H, perm), perm


def _sampler_query(rng: random.Random):
    """One small query through every layer.

    Each battery holds one, so that every per-layer metric of every
    workload's traced run reads a small, measured value instead of a constant
    zero.  The traced run's coverage check leaves this query out when it asks
    whether a workload reaches its stressed layer.
    """
    H, _ = shuffled(rng, classes.singletons(3))
    x = rng.randrange(3)
    sample = core.Sample.of((x, rng.choice(H.sorted_rows) >> x & 1))
    target = rng.choice(H.sorted_rows)
    seed, program, n = rng.randrange(1 << 30), rng.randrange(16), rng.randrange(10)

    def query():
        # A constant learner keeps the sampler's ldim calls to a handful,
        # so that it barely moves littlestone.ldim_distinct_ratio.
        const = learners.constant_learner(1)
        expect(littlestone.ldim(H) == 1, "singletons(3) must have dimension 1")
        expect(littlestone.find_shattered_tree(H, 1) is not None, "no depth-1 witness")
        expect(game.mistake_bound(const, H, Horizon(2)).value == 2, "const1 must err twice")
        significance.is_aopt_significant(H, sample, (x + 1) % 3)
        D = batch.FiniteDistribution.uniform_over((y, target >> y & 1) for y in range(3))
        expect(len(batch.pac_evaluate(const, D, 2, 1, seed)) == 1, "one PAC trial")
        code = core.encode_sample(sample)
        machine.run(machine.enumerate_programs(program), code, 100)
        families.diagonal_label(n, 100)
        try:  # program 26 loops on the empty sample, so it runs out of fuel
            learners.toy_learner(26, 50).predict(core.Sample(), 0)
        except FuelExhaustedError:
            pass
        else:
            raise CheckFailed("the looping learner 26 halted")
    return query


# ---------------------------------------------------------------------------
# dimension: one cold class per query, three engines plus a verified witness

# (rows, domain size) of the random classes, ten classes of each.
RANDOM_SHAPES = ((10, 12), (12, 10), (14, 14), (16, 12), (18, 10),
                 (20, 9), (12, 18), (14, 16), (24, 8))


def _dimension_query(H: FiniteClass, expected: int | None):
    def query():
        d = littlestone.ldim(H)
        value = game.optimal_mistake_bound(H)
        depth = littlestone.max_witness_depth(H)
        expect(d == value == depth, f"engines disagree: ldim {d}, game {value}, search {depth}")
        expect(expected is None or d == expected, f"ldim {d}, expected {expected}")
        if d >= 1:
            tree = littlestone.find_shattered_tree(H, d)
            expect(tree is not None and littlestone.verify_shattered_tree(H, tree, d),
                   f"depth-{d} witness missing or invalid")
    return query


def dimension(rng: random.Random) -> list:
    named: list[tuple[str, FiniteClass, int | None]] = []
    for shape in RANDOM_SHAPES:
        rows, n = shape
        for _ in range(10):
            H = FiniteClass(n, frozenset(rng.sample(range(1 << n), rows)))
            named.append((f"random{rows}x{n}", H, None))
    for d in (2, 3, 4, 4):
        named.append((f"thresholds({d})", shuffled(rng, classes.thresholds(d))[0], d))
    for n in (4, 6, 8, 10):
        named.append((f"singletons({n})", shuffled(rng, classes.singletons(n))[0], 1))
    for d in (2, 3, 3):
        named.append((f"hd_prime({d})", shuffled(rng, classes.hd_prime(d))[0], d))
    oracle = default_table_oracle()
    for supports in (families.two_tier_block_supports, families.extended_block_supports):
        for e_max in (3, 4, 5, 6):
            # The dr-halt / dr-ext truncation over programs below e_max.
            indexed = families.IndexedClass.from_supports(supports(oracle, range(e_max)))
            H = shuffled(rng, indexed.finite)[0]
            named.append((f"{supports.__name__}({e_max})", H, 2))
    return [("sampler", _sampler_query(rng))] + [
        (kind, _dimension_query(H, expected)) for kind, H, expected in named]


# ---------------------------------------------------------------------------
# adversary: exhaustive games, significance sweeps and PAC trials on small
# classes, where the same tiny version spaces recur

def _bound_query(learner, H: FiniteClass, horizon: int, expected: int):
    def query():
        bound = game.mistake_bound(learner, H, Horizon(horizon))
        expect(bound.value == expected,
               f"{learner.name} bound {bound.value}, expected {expected}")
        replayed = game.mistakes_on_sample(learner, bound.witness)
        expect(replayed == bound.value, f"witness replay {replayed} != bound {bound.value}")
    return query


def _optimal_query(learner, H: FiniteClass, horizon: int, optimal: bool, anytime: bool):
    def query():
        verdict = game.is_optimal(learner, H, Horizon(horizon))
        expect(verdict.positive == optimal, f"{learner.name} optimal={verdict.positive}")
        verdict = game.is_anytime_optimal(learner, H, Horizon(horizon), check_depth=1)
        expect(verdict.positive == anytime, f"{learner.name} anytime={verdict.positive}")
        expect(anytime or verdict.counterexample is not None, "no counterexample")
    return query


def _significance_query(H: FiniteClass, sample, predictor):
    def query():
        for x in range(H.domain_size):
            for verdict in (significance.is_aopt_significant(H, sample, x),
                            significance.is_opt_significant(H, sample, x)):
                if verdict.significant:
                    # sol is optimal and anytime optimal, so it must make
                    # every forced prediction.
                    expect(predictor.predict(sample, x) == verdict.forced_prediction,
                           f"sol disagrees with the forced prediction at x={x}")
    return query


def _pac_query(H: FiniteClass, target: int, trials: int, seed: int):
    def query():
        D = batch.FiniteDistribution.uniform_over(
            (x, (target >> x) & 1) for x in range(H.domain_size))
        errors = batch.pac_evaluate(learners.sol(H), D, 40, trials, seed)
        expect(len(errors) == trials and all(0 <= e <= 1 for e in errors),
               f"PAC errors out of range: {errors}")
    return query


def adversary(rng: random.Random) -> list:
    battery = []
    # (name, class, its Littlestone dimension)
    small = [("thresholds(2)", classes.thresholds(2), 2),
             ("thresholds(3)", classes.thresholds(3), 3),
             ("singletons(4)", classes.singletons(4), 1),
             ("singletons(5)", classes.singletons(5), 1),
             ("hd_prime(2)", classes.hd_prime(2), 2),
             ("hd_prime(3)", classes.hd_prime(3), 3)]
    for name, base, d in small:
        for extra in (2, 3):
            H, _ = shuffled(rng, base)
            most_ones = max(bin(row).count("1") for row in H.rows)
            horizon = d + extra
            battery.append((f"sol-bound {name}", _bound_query(learners.sol(H), H, horizon, d)))
            battery.append((f"conservative-bound {name}", _bound_query(
                learners.conservative_learner(), H, horizon, min(horizon, most_ones))))
            for bit in (0, 1):
                battery.append((f"const{bit}-bound {name}", _bound_query(
                    learners.constant_learner(bit), H, horizon, horizon)))
            battery.append((f"sol-optimal {name}",
                            _optimal_query(learners.sol(H), H, d + 1, True, True)))
            # Every row of singletons(n) has one 1, so the conservative learner
            # errs at most once there, as few times as the dimension allows;
            # on thresholds and hd_prime the fullest row has more 1s than that.
            on_singletons = name.startswith("singletons")
            battery.append((f"conservative-optimal {name}", _optimal_query(
                learners.conservative_learner(), H, d + 1, on_singletons, on_singletons)))
            for const in (learners.constant_learner(0), learners.constant_learner(1)):
                battery.append((f"{const.name}-optimal {name}",
                                _optimal_query(const, H, d + 1, False, False)))
    for _ in range(3):
        # The optimal-but-not-anytime-optimal gap on thresholds plus extras.
        d = 3
        H, perm = shuffled(rng, classes.hd_prime(d))
        threshold_rows = frozenset(relabelled_row((1 << n) - 1, perm)
                                   for n in range(1, (1 << d) + 1))
        fallback = learners.threshold_fallback_learner(H, threshold_rows)
        battery.append(("fallback-bound hd_prime(3)", _bound_query(fallback, H, d + 1, d)))
        battery.append(("fallback-optimal hd_prime(3)", _optimal_query(fallback, H, d, True, False)))
    for name, base, _ in small:
        for _ in range(3):
            H, _ = shuffled(rng, base)
            sol = learners.sol(H)
            x = rng.randrange(H.domain_size)
            row = rng.choice(H.sorted_rows)
            for sample in (core.Sample(), core.Sample.of((x, (row >> x) & 1))):
                battery.append((f"significance {name}", _significance_query(H, sample, sol)))
    for name, base, _ in small[:4] * 2:
        H, _ = shuffled(rng, base)
        battery.append((f"pac {name}", _pac_query(H, rng.choice(H.sorted_rows), 1,
                                                  rng.randrange(1 << 30))))
    battery.append(("sampler", _sampler_query(rng)))
    return battery


# ---------------------------------------------------------------------------
# replay: machine-coded learners whose predictions need huge sample codes

def _const_query(index: int, bit: int, sample, x: int):
    def query():
        prediction = learners.toy_learner(index).predict(sample, x)
        expect(prediction == bit, f"constant-{bit} learner predicted {prediction}")
    return query


def _forcing_query(e: int, M: int, step_budget: int):
    """Replay learner e on its diagonal forcing sample: M + 1 mistakes when
    every label is certain, and otherwise a prediction that runs out of fuel
    at the first uncertain label."""
    def query():
        sample = families.diagonal_forcing_sample(e, M, step_budget)
        certain = all(families.diagonal_label(n, step_budget)[1] for n, _ in sample)
        try:
            mistakes = game.mistakes_on_sample(learners.toy_learner(e, step_budget), sample)
        except FuelExhaustedError:
            expect(not certain, f"learner {e} diverged on a certain forcing sample")
            return
        expect(certain, f"learner {e} halted where its labels are uncertain")
        expect(mistakes == M + 1, f"learner {e} made {mistakes} != {M + 1} mistakes")
    return query


def replay(rng: random.Random) -> list:
    battery = []
    # 100 constant predictions on three-item samples.  Query i draws its
    # instances within 2% of the i-th point of a log grid over 10^2 .. 3*10^5,
    # so every battery has the same spread of code sizes.
    count = 100
    for i in range(count):
        size = 100 * 3000 ** (i / (count - 1))
        items = [(int(size * (1 + 0.02 * rng.random())), rng.randrange(2)) for _ in range(3)]
        bit = i % 2
        index = (machine.CONST0_INDEX, machine.CONST1_INDEX)[bit]
        battery.append((f"const{bit} size~{int(size)}", _const_query(
            index, bit, core.Sample.of(*items), rng.randrange(1000))))
    # Forcing-sample replays of small learners that halt at once; the
    # constant-0 learner is one of them.  The learners are fixed, not drawn:
    # the cheaper replays cost about as much as the median query, and a
    # seeded choice among them would move query_p50_ms from seed to seed.
    for e, M in ((machine.CONST0_INDEX, 6), (machine.CONST0_INDEX, 7), (21, 2), (29, 3),
                 (9, 4), (20, 5)):
        battery.append((f"forcing e={e} M={M}", _forcing_query(e, M, 10_000)))
    battery.append(("sampler", _sampler_query(rng)))
    return battery


# ---------------------------------------------------------------------------
# dovetail: small programs run for many steps

def _certificate_query(e: int, x: int):
    def query():
        oracle = machine.MachineOracle(step_budget=1_000, dovetail_budget=2_000_000)
        index = oracle.certificate_index(e, x)
        expect(index is not None, f"no certificate for program {e} on {x}")
        expect(machine.p_cert(e, index, x) == 1, f"p_cert({e}, {index}, {x}) != 1")
    return query


def _enumeration_query(x: int, i: int):
    def query():
        certificate = machine.enumerate_halting_computations(x, i)
        program = machine.enumerate_programs(certificate.program_index)
        expect(machine.run_trace(program, x, certificate.steps) == certificate.trace,
               f"certificate {i} on input {x} does not replay")
    return query


def _thresholds_query(k: int):
    def query():
        witness = families.find_thresholds(k, 10_000, 5_000)
        expect(len(witness.instances) == k and witness.verify(),
               f"threshold witness for k={k} failed verification")
    return query


def dovetail(rng: random.Random) -> list:
    battery = []
    halting = {x: [e for e in range(16, 124)
                   if isinstance(machine.run(machine.enumerate_programs(e), x, 200),
                                 machine.Halted)]
               for x in (0, 1)}
    # Certificate cost grows steeply with the program index, so programs are
    # drawn one per stratum of six indices.
    for x in (0, 1):
        for low in range(16, 124, 6):
            stratum = [e for e in halting[x] if low <= e < low + 6]
            battery.append((f"certificate x={x} e~{low}", _certificate_query(rng.choice(stratum), x)))
    for j in range(36):
        battery.append(("enumerate", _enumeration_query(j % 2, 20 + j + rng.randrange(2))))
    for k in (3, 4, 4, 4):
        battery.append((f"thresholds k={k}", _thresholds_query(k)))
    # Forcing samples of learners that run to the step budget (26, 64, 67)
    # and of learners that halt on every label.
    looping = (26, 64, 67)
    quick = [e for e in range(40) if e not in looping]
    for i in range(34):
        e = looping[i % 3] if i % 2 == 0 else rng.choice(quick)
        battery.append((f"forcing e={e}", _forcing_query(e, 1 + i % 3,
                                                         20_000 + rng.randrange(500))))
    battery.append(("sampler", _sampler_query(rng)))
    return battery


BUILDERS = {"dimension": dimension, "adversary": adversary,
            "replay": replay, "dovetail": dovetail}
