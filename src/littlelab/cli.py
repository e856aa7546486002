"""Batch experiment runner.

Every demo subcommand asserts its expected outcome internally and exits with
code 2 when an internal theorem-derived check fails; usage errors exit 1.
Reports are deterministic given the flags and seed, emitted as TSV key/value
rows or a JSON object.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction

from . import batch, classes, families, game, learners, significance
from .budget import FuelExhaustedError
from .classes import FiniteClass, from_file, hd_prime, singletons, thresholds, to_file
from .core import Sample, canonical_index
from .errors import PropertyViolation
from .families import MAX_MEMBER_BITS
from .game import Horizon
from .littlestone import find_shattered_tree, ldim, max_witness_depth
from .machine import TableOracle


def default_table_oracle() -> TableOracle:
    """Built-in table over programs e <= 8 with mixed self-halting bits.

    Self-halting: value e % 2 for e in {1,2,4,5,7,8}, divergence for
    {0,3,6}.  Input 0 halts for e in {1,2,3,4,5,7} (so those blocks are
    populated in the certificate families) and diverges for {0,6,8}.
    """
    halting = {}
    for e in (1, 2, 4, 5, 7, 8):
        halting[(e, e)] = e % 2
    for e in (1, 2, 3, 4, 5, 7):
        halting[(e, 0)] = 0
    return TableOracle(halting)


def load_oracle(path: str | None) -> TableOracle:
    if path:
        return TableOracle.from_file(path)
    return default_table_oracle()


# The most rows a class from a builder or --file may have.  A horizon-2 sol
# duel, which grows about as rows^3 on singletons, takes 0.32 s at 128 rows
# in a fresh process; its game alone takes 0.29 s at 128 rows, 1.2 s at 200
# and 2.5 s at 256.  Far above it the game recursion can reach Python's
# recursion limit: `optimal_mistake_bound` fails on thresholds(10), 1,024
# rows, while singletons(1000) takes 0.15 s.
MAX_ROWS = 128

# The largest domain a class file may have.  A horizon-2 sol duel on a
# 128-row file takes 0.9 s at domain 2^13, 1.9 s at 2^14 and 5.3 s at 2^15 in
# a fresh process (random rows); at 2^14 `convert` takes 6.9 s and `pac-eval
# --m 3 --trials 2` 10.6 s.  The builders reach domain 128.
MAX_DOMAIN = 2 ** 14

# The longest horizon `duel --horizon` accepts.  The game explorer recurses
# once per round, below Python's default limit of 1,000 frames: a constant
# learner on singletons(3) raised RecursionError at horizon 1,000 and runs
# in 0.03 s at 500.
MAX_HORIZON = 500

# The largest d `demo-hdprime --d` accepts: its exhaustive games, the bound
# and the anytime sweep on one explorer, take about 0.25 s at d = 5, 1.8 s at
# d = 6 and 21 s at d = 7 in a fresh process on a 2-core host.
MAX_HDPRIME_D = 6

# The most blocks `demo-rer-halt --e-max` accepts.  Its significance checks
# and block-learner game grow about as e_max^2: 1.2 s at 500 blocks and 5.0 s
# at 1,000 in a fresh process on a 2-core host.
MAX_RER_BLOCKS = 500

# The largest program index `--learner toy:N` and `demo-split --e` accept.  A
# run's register list reaches the highest register its program names, and
# the index of (INC 10^9; HALT 0) is about 4.5 * 10^18.  No index up to 10^6
# names a register above 471; `duel --builder thresholds --d 2 --learner
# toy:1000000` takes 0.09 s in a fresh process.
MAX_PROGRAM_INDEX = 10 ** 6

# The most bits `demo-split`'s forcing row may encode, by
# families.forcing_row_bits before any code is built.  In a fresh process on
# a 2-core host the largest e within the cap for each M from 1 to 31 takes at
# most 1.5 s (e = 69, M = 10); --e 261 --M 3, 5 * 10^7 bits, takes 6.6 s.
MAX_FORCING_ROW_BITS = 20_000_000

# The largest `demo-split --i-max`: its truncation builds every diagonal row
# below block i_max, s2(i_max) instances.  In a fresh process on a 2-core host
# it takes 1.3 s at 22, 1.7 s at 23, 3.2 s at 25 and 13.9 s at 30.
MAX_SPLIT_BLOCKS = 22

# The most (history, instance) inputs a `significance` sweep may decide.  The
# sweep counts them as it goes, so the worst refused sweep runs this far: on
# 128-row random class files at --max-len 1, 100,000 inputs took 9.6 s at
# domain 512, 9.1 s at 4,096 and 10.4 s at 2^14 in a fresh process on a
# 2-core host (the 16,385 inputs of --max-len 0 alone take 5.0 s at 2^14).
MAX_SIGNIFICANCE_INPUTS = 100_000


def build_class(args) -> FiniteClass:
    if args.file:
        H = from_file(args.file)
        if len(H) > MAX_ROWS:
            raise UsageError(f"--file {args.file} has {len(H)} rows, above the cap "
                             f"of {MAX_ROWS} rows")
        if H.domain_size > MAX_DOMAIN:
            raise UsageError(f"--file {args.file} has domain size {H.domain_size}, above "
                             f"the cap of {MAX_DOMAIN}")
        return H
    if args.builder == "singletons" and args.n > MAX_ROWS:
        raise UsageError(f"--builder singletons --n {args.n} gives {args.n} rows, "
                         f"above the cap of {MAX_ROWS} rows")
    # thresholds(d) has 2^d rows and hd-prime(d) 2^d + 1; compare exponents
    # first, so that a huge --d never builds 2^d.
    extra = int(args.builder == "hd-prime")
    if args.builder in ("thresholds", "hd-prime") and (
            args.d >= MAX_ROWS.bit_length() or (1 << args.d) + extra > MAX_ROWS):
        raise UsageError(f"--builder {args.builder} --d {args.d} gives "
                         f"2^{args.d}{' + 1' * extra} rows, above the cap of "
                         f"{MAX_ROWS} rows")
    if args.builder == "thresholds":
        return thresholds(args.d)
    if args.builder == "singletons":
        return singletons(args.n)
    if args.builder == "hd-prime":
        return hd_prime(args.d)
    raise UsageError(f"unknown builder {args.builder!r}")


def build_learner(name: str, H: FiniteClass):
    if name == "sol":
        return learners.sol(H)
    if name == "conservative":
        return learners.conservative_learner()
    if name in ("const0", "const1"):
        return learners.constant_learner(int(name[-1]))
    if name == "fallback":
        # Only meaningful for the extended threshold family: sol plus the
        # predict-0 deviation on unseen extra instances.  A class of fewer
        # than 2^d rows cannot contain thresholds(d), so it is refused before
        # those rows are built.
        d = (H.domain_size + 1).bit_length() - 1
        if d < 1 or len(H) < 1 << d or not (threshold_rows := thresholds(d).rows) <= H.rows:
            raise UsageError("fallback learner requires the hd-prime builder")
        return learners.threshold_fallback_learner(H, threshold_rows)
    if name.startswith("toy:"):
        index = _digits(name.split(":", 1)[1])
        if index > MAX_PROGRAM_INDEX:
            raise UsageError(f"--learner toy:{index} is above the cap of {MAX_PROGRAM_INDEX}")
        return learners.toy_learner(index)
    raise UsageError(f"unknown learner {name!r}")


class UsageError(ValueError):
    pass


def emit(report: list[tuple[str, object]], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({key: value for key, value in report}, default=str))
    else:
        for key, value in report:
            print(f"{key}\t{value}")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise PropertyViolation(message)


def _sample_text(sample: Sample) -> str:
    return ",".join(f"{x}:{y}" for x, y in sample) or "-"


def _parse_sample(text: str) -> Sample:
    if not text or text == "-":
        return Sample()
    return Sample.of(*(tuple(map(_digits, part.split(":"))) for part in text.split(",")))


# ---------------------------------------------------------------------------
# Subcommands

def cmd_ldim(args) -> list[tuple[str, object]]:
    H = build_class(args)
    value = ldim(H)
    expect(value == max_witness_depth(H),
           "recursion and tree-search dimensions disagree")
    report = [("ldim", value)]
    if value >= 1:
        tree = find_shattered_tree(H, value)
        report.append(("witness_nodes", ",".join(map(str, tree.nodes))))
    expect(find_shattered_tree(H, value + 1) is None if H.rows else True,
           "witness exists above the reported dimension")
    return report


def cmd_duel(args) -> list[tuple[str, object]]:
    H = build_class(args)
    learner = build_learner(args.learner, H)
    horizon = Horizon(args.horizon)
    bound = game.mistake_bound(learner, H, horizon)
    return [("learner", learner.name),
            ("horizon", bound.horizon),
            ("mistake_bound", bound.value),
            ("optimal_bound", game.optimal_mistake_bound(H)),
            ("witness", _sample_text(bound.witness))]


def cmd_significance(args) -> list[tuple[str, object]]:
    H = build_class(args)
    report: list[tuple[str, object]] = []
    count = 0
    for sample in game.realizable_samples(H, args.max_len):
        for x in range(H.domain_size):
            if count == MAX_SIGNIFICANCE_INPUTS:
                raise UsageError(f"the sweep has more than {MAX_SIGNIFICANCE_INPUTS} inputs "
                                 f"(histories times instances), the cap; lower --max-len")
            aopt = significance.is_aopt_significant(H, sample, x)
            opt = significance.is_opt_significant(H, sample, x)
            key = f"S={_sample_text(sample)};x={x}"
            report.append(
                (key, f"aopt={int(aopt.significant)}:{aopt.forced_prediction} "
                      f"opt={int(opt.significant)}:{opt.forced_prediction}"))
            count += 1
    report.insert(0, ("inputs", count))
    return report


def cmd_demo_hdprime(args) -> list[tuple[str, object]]:
    d = args.d
    H = hd_prime(d)
    extra = classes.hd_prime_extra_instances(d)
    learner_a = learners.threshold_fallback_learner(H, thresholds(d).rows)
    learner_sol = learners.sol(H)
    gap_sample = Sample.of(*((x, 1) for x in extra))
    a_errs = game.mistakes_on_sample(learner_a, gap_sample)
    sol_errs = game.mistakes_on_sample(learner_sol, gap_sample)
    expect(a_errs == d - 1, f"fallback learner made {a_errs} != {d - 1} mistakes")
    expect(sol_errs == 1, f"sol made {sol_errs} != 1 mistakes")
    horizon = Horizon(2 * d + 2)
    # One explorer: the anytime sweep starts at the root game the bound solved.
    explorer = game.Explorer(learner_a, H)
    a_bound = explorer.bound(horizon)
    expect(a_bound.value == d == game.optimal_mistake_bound(H),
           "fallback learner is not optimal at the class dimension")
    verdict = explorer.anytime(horizon, check_depth=2)
    expect(not verdict.positive and verdict.counterexample is not None,
           "fallback learner unexpectedly anytime optimal")
    return [("dimension", d),
            ("gap_sample", _sample_text(gap_sample)),
            ("fallback_mistakes", a_errs),
            ("sol_mistakes", sol_errs),
            ("fallback_bound", a_bound.value),
            ("anytime_witness", _sample_text(verdict.counterexample))]


def cmd_demo_rer_halt(args) -> list[tuple[str, object]]:
    oracle = load_oracle(args.oracle)
    e_max = args.e_max
    family = families.triple_block_family(oracle, e_max)
    truncation = family.truncation(3 * e_max)
    report: list[tuple[str, object]] = [("e_max", e_max)]
    for e in range(e_max):
        sample = Sample.of((3 * e, 1))
        verdict = significance.is_aopt_significant(truncation, sample, 3 * e + 1)
        bit = int(oracle.halts(e, e) is not None)
        expect(verdict.significant, f"block {e}: input not significant")
        expect(verdict.forced_prediction == bit,
               f"block {e}: forced prediction {verdict.forced_prediction} != {bit}")
        report.append((f"forced_e{e}", verdict.forced_prediction))
    bound = game.mistake_bound(learners.b_triple_blocks(), truncation,
                               Horizon(2 * ldim(truncation) + 2))
    expect(bound.value == 2, f"block learner bound {bound.value} != 2")
    report.append(("b_bound", bound.value))
    return report


def _dr_reports(supports, decider, indexed) -> list[tuple[str, object]]:
    report: list[tuple[str, object]] = [("members", len(supports)),
                                        ("ldim", ldim(indexed.finite))]
    for support in supports:
        expect(decider(canonical_index(support)) == 1,
               f"decider rejects member {sorted(support)}")
    rejected = 0
    for support in supports:
        for member in sorted(support):
            perturbed = (support - {member}) | {member + 1}
            if frozenset(perturbed) not in map(frozenset, supports):
                expect(decider(canonical_index(perturbed)) == 0,
                       f"decider accepts non-member {sorted(perturbed)}")
                rejected += 1
    report.append(("perturbations_rejected", rejected))
    return report


def _check_dr_ext_truncation(oracle, indexed, e_max: int) -> None:
    """Refuse a truncation too small to show the extended family's cases.

    The family has dimension 2, and block e's significant case needs the rows
    outside block e to keep dimension 2, which the whole family gives and a
    truncation to blocks e < e_max may not (with the built-in oracle it does
    from e_max = 4 on)."""
    H = indexed.finite
    hint = "raise --e-max (the built-in oracle needs --e-max >= 4)"
    dim = ldim(H)
    if dim < 2:
        raise UsageError(f"--e-max {e_max} gives a truncation of dimension {dim}, "
                         f"below the family's 2; {hint}")
    for e in range(e_max):
        if 2 ** e in indexed.naturals and oracle.halts(e, e) in (0, 1):
            rest = H.ldim_of(H.version_space(((indexed.of_natural(2 ** e), 0),)))
            if rest < 2:
                raise UsageError(f"--e-max {e_max}: outside block {e} the truncation "
                                 f"has dimension {rest}, below 2, so block {e}'s case "
                                 f"cannot show; {hint}")


def cmd_demo_dr_ext(args) -> list[tuple[str, object]]:
    oracle = load_oracle(args.oracle)
    e_list = list(range(args.e_max))
    supports = families.extended_block_supports(oracle, e_list)
    indexed = families.IndexedClass.from_supports(supports)
    _check_dr_ext_truncation(oracle, indexed, args.e_max)
    decider = families.extended_family_decider(oracle)
    report = _dr_reports(supports, decider, indexed)
    expect(ldim(indexed.finite) == 2, "extended family truncation must have dimension 2")
    for e in e_list:
        base = 2 ** e
        if all(base not in support for support in supports):
            report.append((f"case_e{e}", "unrealizable"))
            continue
        c0 = oracle.certificate_index(e, 0)
        query = base * 3 ** c0
        sample = indexed.reindex_sample(Sample.of((base, 1)))
        verdict = significance.is_opt_significant(
            indexed.finite, sample, indexed.of_natural(query))
        reply = oracle.halts(e, e)
        if reply in (0, 1):
            expect(verdict.significant and verdict.forced_prediction == 1 - reply,
                   f"block {e}: expected forced {1 - reply}")
            report.append((f"case_e{e}", f"significant:{verdict.forced_prediction}"))
        else:
            expect(not verdict.significant, f"block {e}: unexpectedly significant")
            report.append((f"case_e{e}", "not-significant"))
    return report


def cmd_demo_dr_halt(args) -> list[tuple[str, object]]:
    oracle = load_oracle(args.oracle)
    e_list = list(range(args.e_max))
    supports = families.two_tier_block_supports(oracle, e_list)
    if not supports:
        raise UsageError(f"--e-max {args.e_max} gives an empty truncation: no block "
                         f"e < {args.e_max} is populated; raise --e-max")
    indexed = families.IndexedClass.from_supports(supports)
    decider = families.two_tier_family_decider(oracle)
    report = _dr_reports(supports, decider, indexed)
    for e in e_list:
        base = 2 ** e
        if all(base not in support for support in supports):
            report.append((f"case_e{e}", "unrealizable"))
            continue
        c0 = oracle.certificate_index(e, 0)
        query = base * 3 ** c0
        sample = indexed.reindex_sample(Sample.of((base, 1)))
        verdict = significance.is_aopt_significant(
            indexed.finite, sample, indexed.of_natural(query))
        bit = int(oracle.halts(e, e) is None)
        expect(verdict.significant and verdict.forced_prediction == bit,
               f"block {e}: expected forced {bit}")
        report.append((f"case_e{e}", f"significant:{verdict.forced_prediction}"))
    learner = learners.relabeled(learners.b_two_tier_blocks(oracle),
                                 indexed.to_natural)
    bound = game.mistake_bound(learner, indexed.finite,
                               Horizon(2 * ldim(indexed.finite) + 2))
    expect(bound.value == 2, f"block learner bound {bound.value} != 2")
    report.append(("b_bound", bound.value))
    return report


def cmd_demo_split(args) -> list[tuple[str, object]]:
    if families.forcing_row_bits(args.e, args.M, MAX_FORCING_ROW_BITS) > MAX_FORCING_ROW_BITS:
        raise UsageError(f"--e {args.e} --M {args.M}: the forcing row's history codes would "
                         f"take more than {MAX_FORCING_ROW_BITS} bits, the cap; lower --e "
                         f"or --M")
    truncation = families.adversarial_family(
        args.i_max, args.step_budget).truncation(families.s2(args.i_max))
    if ldim(truncation) < 1:
        # Learner 4 outputs 0 on the empty history within one step, so the
        # first diagonal label 1 starts block 4 under every budget.
        raise UsageError(f"--i-max {args.i_max} gives a truncation of dimension 0: "
                         f"no diagonal label below block {args.i_max} is 1; "
                         f"--i-max must be at least 5")
    sample = families.diagonal_forcing_sample(args.e, args.M, args.step_budget)
    mistakes = game.mistakes_on_sample(
        learners.toy_learner(args.e, args.step_budget), sample)
    expect(mistakes == args.M + 1,
           f"forcing sample yields {mistakes} != {args.M + 1} mistakes")
    expect(ldim(truncation) == 1, "diagonal family truncation must have dimension 1")
    return [("learner_index", args.e), ("target_mistakes", args.M + 1),
            ("mistakes", mistakes), ("sample_length", len(sample)),
            ("truncation_ldim", ldim(truncation))]


def cmd_demo_init(args) -> list[tuple[str, object]]:
    try:
        witness = families.find_thresholds(args.k, args.step_cap, args.x_cap)
    except FuelExhaustedError as exc:
        raise UsageError(f"{exc}; raise --step-cap or --x-cap") from exc
    expect(witness.verify(), "threshold witness failed verification")
    depth = (args.k).bit_length() - 1
    indexed, tree = families.dimension_witness_from_thresholds(witness, depth)
    expect(ldim(indexed.finite) >= depth,
           f"induced class dimension below {depth}")
    return [("k", args.k),
            ("instances", ",".join(map(str, witness.instances))),
            ("stages", ",".join(map(str, witness.stages))),
            ("tree_nodes", ",".join(map(str, tree.nodes))),
            ("induced_ldim", ldim(indexed.finite))]


def cmd_build(args) -> list[tuple[str, object]]:
    H = build_class(args)
    to_file(H, args.out)
    return [("out", args.out), ("domain_size", H.domain_size), ("rows", len(H))]


def cmd_convert(args) -> list[tuple[str, object]]:
    H = build_class(args)
    learner = build_learner(args.learner, H)
    sample = _parse_sample(args.sample)
    H.version_space(sample)  # rejects instances outside the class domain
    predictor = batch.online_to_batch(learner, sample)
    queries = [_digits(q) for q in args.query.split(",")] if args.query else list(H.domain())
    for x in queries:
        if not 0 <= x < H.domain_size:
            raise UsageError(f"instance {x} outside domain of size {H.domain_size}")
    return [(f"p({x})", str(predictor(x))) for x in queries]


def cmd_pac_eval(args) -> list[tuple[str, object]]:
    H = build_class(args)
    if not H:
        raise UsageError("pac-eval needs a class with at least one row to draw the target from")
    learner = build_learner(args.learner, H)
    rng = random.Random(args.seed)
    target = rng.choice(sorted(H.rows))
    D = batch.FiniteDistribution.uniform_over(
        (x, (target >> x) & 1) for x in H.domain())
    errors = batch.pac_evaluate(learner, D, args.m, args.trials, args.seed + 1)
    hits = sum(1 for err in errors if err <= args.epsilon)
    return [("target_row", H.row_string(target)),
            ("trials", args.trials),
            ("m", args.m),
            ("epsilon", str(args.epsilon)),
            ("success_rate", f"{hits}/{args.trials}")]


# ---------------------------------------------------------------------------
# Argument parsing

def _digits(text: str) -> int:
    """A natural number written in the digits 0-9 and nothing else: int()
    alone also takes a sign, underscores, surrounding spaces and non-ASCII
    digits."""
    if not re.fullmatch("[0-9]+", text):
        raise UsageError(f"expected a natural number in the digits 0-9, got {text!r}")
    return int(text)


def _bounded(low: int, high: int | None = None, reason: str = ""):
    """The argparse type of a natural in low..high (high None: no upper bound),
    keeping low and high on it, so each bounded flag can be read back."""

    def parse(text: str) -> int:
        try:
            value = _digits(text)
        except UsageError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if value < low or (high is not None and value > high):
            bound = f"at least {low}" if value < low else f"at most {high} (the cap)"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}"
                                             + (f": {reason}" if reason else ""))
        return value

    parse.low, parse.high = low, high
    return parse


_natural = _bounded(0)


def _integer(text: str) -> int:
    """A natural number, or one with a leading minus: seeds may be negative."""
    return -_natural(text[1:]) if text.startswith("-") else _natural(text)


def _epsilon(text: str) -> Fraction:
    """A finite nonnegative rational, read exactly ("0.2" is 1/5).

    Decimal exponents beyond 1e±100 are refused before Fraction expands them
    into a power of ten of that many digits.
    """
    exponent = text.lower().partition("e")[2]
    try:
        if exponent and abs(int(exponent)) > 100:
            raise ValueError(exponent)
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a finite rational with an exponent "
                                         f"within ±100, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative rational, got {text!r}")
    return value


def _add_class_args(p) -> None:
    p.add_argument("--builder", choices=["thresholds", "singletons", "hd-prime"])
    p.add_argument("--file")
    p.add_argument("--d", type=_bounded(1), default=2)
    p.add_argument("--n", type=_bounded(1), default=4)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="littlelab")
    parser.add_argument("--format", choices=["tsv", "json"], default="tsv")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ldim", help="dimension with verified witness tree")
    _add_class_args(p)
    p.set_defaults(run=cmd_ldim)

    p = sub.add_parser("duel", help="learner vs exhaustive adversary")
    _add_class_args(p)
    p.add_argument("--learner", required=True)
    p.add_argument("--horizon", type=_bounded(
        1, MAX_HORIZON, "the game explorer recurses once per round"), default=6)
    p.set_defaults(run=cmd_duel)

    p = sub.add_parser("significance", help="verdict sweep over short histories")
    _add_class_args(p)
    p.add_argument("--max-len", type=_natural, default=1)
    p.set_defaults(run=cmd_significance)

    p = sub.add_parser("demo-hdprime", help="optimal-but-not-anytime gap table")
    p.add_argument("--d", type=_bounded(
        3, MAX_HDPRIME_D, "the gap needs two extra instances (d >= 3), and the exhaustive "
        "games take about 2 s at d = 6 and 21 s at d = 7"), default=3)
    p.set_defaults(run=cmd_demo_hdprime)

    p = sub.add_parser("demo-rer-halt", help="forced predictions mirror halting bits")
    p.add_argument("--oracle")
    p.add_argument("--e-max", type=_bounded(
        1, MAX_RER_BLOCKS, "the demo's checks grow about as e_max^2"), default=9)
    p.set_defaults(run=cmd_demo_rer_halt)

    # Block e holds 2^e, so the DR demos take --e-max at most MAX_MEMBER_BITS.
    dr_blocks = _bounded(1, MAX_MEMBER_BITS, f"block e holds 2^e, and members must stay "
                                             f"below the member cap of 2^{MAX_MEMBER_BITS}")
    p = sub.add_parser("demo-dr-ext", help="extended certificate-block family")
    p.add_argument("--oracle")
    p.add_argument("--e-max", type=dr_blocks, default=9)
    p.set_defaults(run=cmd_demo_dr_ext)

    p = sub.add_parser("demo-dr-halt", help="two-tier certificate-block family")
    p.add_argument("--oracle")
    p.add_argument("--e-max", type=dr_blocks, default=9)
    p.set_defaults(run=cmd_demo_dr_halt)

    p = sub.add_parser("demo-split", help="diagonal forcing-sample replay")
    p.add_argument("--e", type=_bounded(0, MAX_PROGRAM_INDEX), default=0)
    p.add_argument("--M", type=_natural, default=2)
    p.add_argument("--step-budget", type=_bounded(1), default=10_000)
    p.add_argument("--i-max", type=_bounded(1, MAX_SPLIT_BLOCKS, "the truncation builds "
                                            "every diagonal row below block i_max"), default=5)
    p.set_defaults(run=cmd_demo_split)

    p = sub.add_parser("demo-init", help="threshold search in the stage family")
    p.add_argument("--k", type=_bounded(2, reason="k thresholds give a witness of depth "
                                        "floor(log2 k), and depth 0 shows none"), default=4)
    p.add_argument("--step-cap", type=_natural, default=10_000)
    p.add_argument("--x-cap", type=_natural, default=5_000)
    p.set_defaults(run=cmd_demo_init)

    p = sub.add_parser("build", help="write a class file")
    _add_class_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_build)

    p = sub.add_parser("convert", help="online-to-batch predictions")
    _add_class_args(p)
    p.add_argument("--learner", default="sol")
    p.add_argument("--sample", default="-")
    p.add_argument("--query", default="")
    p.set_defaults(run=cmd_convert)

    p = sub.add_parser("pac-eval", help="seeded distributional evaluation")
    _add_class_args(p)
    p.add_argument("--learner", default="sol")
    p.add_argument("--m", type=_natural, default=40)
    p.add_argument("--trials", type=_bounded(1), default=200)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--epsilon", type=_epsilon, default="0.2")
    p.set_defaults(run=cmd_pac_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        report = args.run(args)
    except PropertyViolation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 2
    except FuelExhaustedError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    emit(report, args.format)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
