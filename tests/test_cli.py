import argparse
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from littlelab import cli
from littlelab.classes import FiniteClass, from_file, hd_prime, singletons, to_file
from littlelab.core import Sample


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_tsv(out: str) -> dict:
    return dict(line.split("\t", 1) for line in out.strip().splitlines())


# ---------------------------------------------------------------------------
# Plumbing

def test_sample_text_round_trip():
    s = Sample.of((3, 1), (0, 0))
    assert cli._parse_sample(cli._sample_text(s)) == s
    assert cli._parse_sample("-") == Sample()
    assert cli._sample_text(Sample()) == "-"


def test_default_oracle_has_mixed_bits():
    oracle = cli.default_table_oracle()
    bits = {oracle.halts(e, e) is not None for e in range(9)}
    assert bits == {True, False}


def test_load_oracle_reads_a_table_file(tmp_path):
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps({"0,0": {"halts": 1}}))
    oracle = cli.load_oracle(str(path))
    assert oracle.halts(0, 0) == 1
    assert oracle.halts(1, 1) is None


# ---------------------------------------------------------------------------
# Exit codes

def test_ldim_subcommand_tsv(capsys):
    code, out, _ = run_cli(capsys, "ldim", "--builder", "thresholds", "--d", "3")
    assert code == 0
    report = parse_tsv(out)
    assert report["ldim"] == "3"
    assert "witness_nodes" in report


def test_json_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "ldim",
                           "--builder", "singletons", "--n", "4")
    assert code == 0
    assert json.loads(out)["ldim"] == 1


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "duel", "--builder", "thresholds",
                           "--d", "2", "--learner", "nonsense")
    assert code == 1
    assert "usage error" in err


def test_bad_flags_exit_code(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 1
    assert run_cli(capsys, "--help")[0] == 0


def test_property_violation_exit_code(capsys, monkeypatch):
    # Sabotage the gap demo's learner: the internal theorem check must fail.
    monkeypatch.setattr(cli.learners, "threshold_fallback_learner",
                        lambda H, rows: cli.learners.constant_learner(0))
    code, _, err = run_cli(capsys, "demo-hdprime", "--d", "3")
    assert code == 2
    assert "property violation" in err


def test_demo_hdprime_rejects_degenerate_dimension(capsys):
    assert run_cli(capsys, "demo-hdprime", "--d", "2")[0] == 1


def test_missing_class_file_exit_code(capsys, tmp_path):
    code, _, err = run_cli(capsys, "ldim", "--file", str(tmp_path / "no.json"))
    assert code == 1


def test_oracle_file_holding_a_list_exit_code(capsys, tmp_path):
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps([1, 2]))
    code, _, err = run_cli(capsys, "demo-rer-halt", "--oracle", str(path))
    assert code == 1
    assert "expected a JSON object" in err and "Traceback" not in err


@pytest.mark.parametrize("entry", [{"halts": [1]}, {"halts": 1, "cert": None},
                                   {"halts": 1.5}, {"halts": True}])
def test_oracle_file_with_a_non_integer_value_exit_code(capsys, tmp_path, entry):
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps({"0,0": entry}))
    code, _, err = run_cli(capsys, "demo-rer-halt", "--oracle", str(path))
    assert code == 1
    assert "'0,0'" in err and "Traceback" not in err


@pytest.mark.parametrize("entry", [{"halts": 1, "cert": -1}, {"halts": 1, "cert": 0},
                                   {"halts": -1}])
def test_oracle_file_with_an_out_of_range_value_exit_code(capsys, tmp_path, entry):
    # The built-in table, with one entry whose certificate position is below
    # 1 (positions start at 1) or whose output is negative (outputs are
    # naturals).  Unchecked, a cert of -1 reaches the demo as 3 ** -1, a
    # float, and a cert of 0 fails its property check (exit 2).
    table = cli.default_table_oracle().halting
    raw = {f"{e},{x}": {"halts": value} for (e, x), value in table.items()}
    raw["1,1"] = entry
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "demo-dr-ext", "--oracle", str(path))
    assert code == 1
    assert out == "" and "'1,1'" in err and "Traceback" not in err


def _builtin_table_with(**entries) -> dict:
    """The built-in oracle table as an --oracle file, with `entries` (keyed
    "e_x" for "e,x") replacing or adding pairs."""
    table = cli.default_table_oracle().halting
    raw = {f"{e},{x}": {"halts": value} for (e, x), value in table.items()}
    raw.update({key.replace("_", ","): entry for key, entry in entries.items()})
    return raw


# A certificate position of 30 puts 2 * 3**30 (block 1) or 2**7 * 7**30
# (block 7) into the truncation; its bitmask code would need that many bits.
LARGE_C0 = _builtin_table_with(**{"1_0": {"halts": 0, "cert": 30}})
LARGE_CE = _builtin_table_with(**{"7_7": {"halts": 1, "cert": 30}})
# 2**7 * 7**(10**7) has 28 million bits: the member is refused unbuilt.
HUGE_CE = _builtin_table_with(**{"7_7": {"halts": 1, "cert": 10 ** 7}})


@pytest.mark.parametrize("command", ["demo-dr-ext", "demo-dr-halt"])
@pytest.mark.parametrize("raw", [LARGE_C0, LARGE_CE, HUGE_CE], ids=["c0", "ce", "huge-ce"])
def test_dr_demos_refuse_members_above_the_cap(capsys, tmp_path, command, raw):
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(raw))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--oracle", str(path))
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == "" and "Traceback" not in err
    assert "usage error" in err and f"member cap of 2^{cli.MAX_MEMBER_BITS}" in err


@pytest.mark.parametrize("command", ["demo-dr-ext", "demo-dr-halt"])
def test_dr_demo_e_max_above_the_cap_is_a_usage_error(capsys, command):
    code, out, err = run_cli(capsys, command, "--e-max", str(cli.MAX_MEMBER_BITS + 1))
    assert code == 1
    assert out == "" and "Traceback" not in err
    assert "argument --e-max" in err and f"at most {cli.MAX_MEMBER_BITS}" in err
    assert f"member cap of 2^{cli.MAX_MEMBER_BITS}" in err
    # At the cap block e = 19 holds 2**19, below the member cap.
    assert run_cli(capsys, command, "--e-max", str(cli.MAX_MEMBER_BITS))[0] == 0


@pytest.mark.parametrize("key", ["0,0,0", "a,0", "5", "\u0663,3", "3,\u0663"])
def test_oracle_file_with_a_malformed_key_exit_code(capsys, tmp_path, key):
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps({key: {"halts": 1}}))
    code, out, err = run_cli(capsys, "demo-rer-halt", "--oracle", str(path))
    assert code == 1
    assert out == "" and f"{key!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("payload, field", [
    ({"domain_size": 2, "hypotheses": 5}, "hypotheses"),
    ({"domain_size": 2, "hypotheses": "01"}, "hypotheses"),
    ({"domain_size": 2.5, "hypotheses": ["01"]}, "domain_size"),
    ({"domain_size": True, "hypotheses": ["0"]}, "domain_size"),
    ({"domain_size": -1, "hypotheses": []}, "domain_size"),
])
def test_class_file_with_a_mistyped_field_exit_code(capsys, tmp_path, payload, field):
    path = tmp_path / "class.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "ldim", "--file", str(path))
    assert code == 1
    assert out == "" and f"{field} must be" in err and "Traceback" not in err


def test_threshold_search_shortfall_exit_code(capsys):
    code, _, err = run_cli(capsys, "demo-init", "--k", "100", "--x-cap", "10")
    assert code == 1
    assert "self-halting times" in err and "Traceback" not in err


@pytest.mark.parametrize("command, flag, reason", [
    ("demo-init", "--k", "must be at least 2"),
    ("demo-dr-halt", "--e-max", "empty truncation"),
])
def test_too_small_witness_flag_is_a_usage_error(capsys, command, flag, reason):
    code, out, err = run_cli(capsys, command, flag, "1")
    assert code == 1
    assert out == "" and "Traceback" not in err
    assert flag in err and reason in err
    assert run_cli(capsys, command, flag, "2")[0] == 0


@pytest.mark.parametrize("argv", [
    ("demo-split", "--step-budget", "0"),
    *(("demo-split", "--i-max", str(i)) for i in range(1, 5)),
    *(("demo-dr-ext", "--e-max", str(e)) for e in range(1, 4)),
])
def test_undersized_truncations_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == "" and "Traceback" not in err and "property violation" not in err
    minimum = {"--step-budget": "must be at least 1", "--i-max": "--i-max must be at least 5",
               "--e-max": "--e-max >= 4"}[argv[1]]
    assert argv[1] in err and minimum in err


@pytest.mark.parametrize("argv, flag", [
    (("ldim", "--builder", "singletons", "--n", "1000"), "--n 1000"),
    (("duel", "--builder", "singletons", "--n", "200", "--learner", "sol",
      "--horizon", "2"), "--n 200"),
    (("ldim", "--builder", "thresholds", "--d", "8"), "--d 8"),
    (("ldim", "--builder", "hd-prime", "--d", "7"), "--d 7"),
    (("ldim", "--builder", "hd-prime", "--d", "1000000000"), "--d 1000000000"),
])
def test_builder_classes_above_the_row_cap_are_usage_errors(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == "" and "Traceback" not in err
    assert flag in err and f"cap of {cli.MAX_ROWS} rows" in err


def test_class_file_above_the_row_cap_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "class.json"
    to_file(singletons(1200), str(path))
    code, out, err = run_cli(capsys, "ldim", "--file", str(path))
    assert code == 1
    assert out == "" and "Traceback" not in err
    assert "1200 rows" in err and f"cap of {cli.MAX_ROWS} rows" in err


def test_classes_at_the_row_cap_run(capsys, tmp_path):
    assert cli.MAX_ROWS == 128
    path = tmp_path / "class.json"
    to_file(singletons(cli.MAX_ROWS), str(path))
    for argv in (("--file", str(path)), ("--builder", "singletons", "--n", "128"),
                 ("--builder", "thresholds", "--d", "7"),
                 ("--builder", "hd-prime", "--d", "6")):
        assert run_cli(capsys, "ldim", *argv)[0] == 0


@pytest.mark.parametrize("domain_size", [10 ** 7, 10 ** 12])
def test_class_file_above_the_domain_cap_is_refused_at_once(capsys, tmp_path, domain_size):
    path = tmp_path / "class.json"
    path.write_text(json.dumps({"domain_size": domain_size, "hypotheses": []}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "duel", "--file", str(path), "--learner", "sol")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == "" and "Traceback" not in err
    assert f"domain size {domain_size}" in err and f"cap of {cli.MAX_DOMAIN}" in err


def test_class_files_at_the_domain_cap_run(capsys, tmp_path):
    path = tmp_path / "class.json"
    to_file(FiniteClass(cli.MAX_DOMAIN, frozenset({1, 1 << (cli.MAX_DOMAIN - 1)})), str(path))
    assert run_cli(capsys, "ldim", "--file", str(path))[0] == 0


def test_duel_horizon_above_the_cap_is_a_usage_error(capsys):
    argv = ("duel", "--builder", "singletons", "--n", "3", "--learner", "const1",
            "--horizon")
    code, out, err = run_cli(capsys, *argv, str(cli.MAX_HORIZON + 1))
    assert code == 1
    assert out == "" and "Traceback" not in err
    assert "argument --horizon" in err and f"at most {cli.MAX_HORIZON}" in err
    # At the cap the explorer still fits the recursion limit.
    code, out, _ = run_cli(capsys, *argv, str(cli.MAX_HORIZON))
    assert code == 0 and parse_tsv(out)["mistake_bound"] == str(cli.MAX_HORIZON)


def test_demo_hdprime_above_the_cap_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "demo-hdprime", "--d", str(cli.MAX_HDPRIME_D + 1))
    assert code == 1
    assert out == "" and "Traceback" not in err
    assert "argument --d" in err and f"got {cli.MAX_HDPRIME_D + 1}" in err
    assert f"at most {cli.MAX_HDPRIME_D} (the cap)" in err


def subcommand_parsers(parser: argparse.ArgumentParser) -> dict:
    """The subcommand parsers of the CLI parser, by name."""
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def bounded_flags():
    """(subcommand, flag, low, high) for each flag whose type is cli._bounded,
    read from the parser itself."""
    return [(command, flag, action.type.low, action.type.high)
            for command, sub in subcommand_parsers(cli.make_parser()).items()
            for action in sub._actions
            for flag in action.option_strings if hasattr(action.type, "low")]


def test_the_bounded_flags_are_found():
    found = {(command, flag) for command, flag, _, _ in bounded_flags()}
    assert {("duel", "--horizon"), ("demo-hdprime", "--d"), ("demo-rer-halt", "--e-max"),
            ("demo-split", "--e"), ("demo-init", "--k"), ("pac-eval", "--trials")} <= found


@pytest.mark.parametrize("command, flag, low, high", bounded_flags())
def test_every_bounded_flag_refuses_its_neighbours_at_parse_time(capsys, command, flag,
                                                                  low, high):
    for value in [low - 1] + ([] if high is None else [high + 1]):
        with pytest.raises(SystemExit):
            cli.make_parser().parse_args([command, flag, str(value)])
        capsys.readouterr()
        code, out, err = run_cli(capsys, command, flag, str(value))
        assert code == 1
        assert out == "" and "Traceback" not in err and f"argument {flag}" in err
        if value >= 0:  # a negative value is refused as not a natural
            bound = f"at least {low}" if value < low else f"at most {high} (the cap)"
            assert f"must be {bound}, got {value}" in err


def test_toy_learner_index_above_the_cap_is_refused_at_once(capsys):
    argv = ("duel", "--builder", "thresholds", "--d", "2", "--horizon", "1", "--learner")
    start = time.perf_counter()
    # Program (INC 10^9; HALT 0): unchecked, its run asks for 10^9 + 1 registers.
    code, out, err = run_cli(capsys, *argv, "toy:4500000007500000005")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == "" and "Traceback" not in err
    assert "--learner toy:4500000007500000005" in err
    assert f"cap of {cli.MAX_PROGRAM_INDEX}" in err
    assert run_cli(capsys, *argv, f"toy:{cli.MAX_PROGRAM_INDEX + 1}")[0] == 1
    assert run_cli(capsys, *argv, f"toy:{cli.MAX_PROGRAM_INDEX}")[0] == 0


@pytest.mark.parametrize("e, M", [(0, 40), (0, 10 ** 30), (2000, 1), (5000, 1), (261, 3)])
def test_demo_split_rows_above_the_bit_cap_are_refused_at_once(capsys, e, M):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "demo-split", "--e", str(e), "--M", str(M))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == "" and "Traceback" not in err
    assert f"--e {e} --M {M}" in err and f"{cli.MAX_FORCING_ROW_BITS} bits, the cap" in err


def test_demo_split_rows_within_the_bit_cap_run(capsys):
    # (3, 30) and (128, 5) are the largest e within the cap for their M.
    for e, M in ((3, 30), (128, 5), (cli.MAX_PROGRAM_INDEX, 0)):
        assert cli.families.forcing_row_bits(e, M, cli.MAX_FORCING_ROW_BITS) <= \
            cli.MAX_FORCING_ROW_BITS
        code, out, _ = run_cli(capsys, "demo-split", "--e", str(e), "--M", str(M))
        assert code == 0 and parse_tsv(out)["mistakes"] == str(M + 1)
    for e, M in ((4, 30), (129, 5)):
        assert cli.families.forcing_row_bits(e, M, cli.MAX_FORCING_ROW_BITS) > \
            cli.MAX_FORCING_ROW_BITS


def test_demo_rer_halt_runs_at_its_block_cap(capsys):
    code, out, _ = run_cli(capsys, "demo-rer-halt", "--e-max", str(cli.MAX_RER_BLOCKS))
    assert code == 0 and parse_tsv(out)["b_bound"] == "2"


def test_diverging_learner_exit_code(capsys):
    code, _, err = run_cli(capsys, "duel", "--builder", "thresholds",
                           "--learner", "toy:1129")
    assert code == 1
    assert err.startswith("budget exhausted:") and "Traceback" not in err


# ---------------------------------------------------------------------------
# Subcommands

def test_duel_reports_bound_and_witness(capsys):
    code, out, _ = run_cli(capsys, "duel", "--builder", "thresholds",
                           "--d", "2", "--learner", "sol", "--horizon", "6")
    assert code == 0
    report = parse_tsv(out)
    assert report["mistake_bound"] == "2"
    assert report["optimal_bound"] == "2"


def test_fallback_learner_requires_matching_class(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "duel", "--builder", "singletons",
                         "--n", "4", "--learner", "fallback")
    assert code == 1
    # Domain size 0 gives d = 0, for which no threshold class exists.
    path = tmp_path / "empty.json"
    to_file(FiniteClass(0, frozenset()), str(path))
    code, _, err = run_cli(capsys, "duel", "--file", str(path), "--learner", "fallback")
    assert code == 1
    assert "fallback learner requires the hd-prime builder" in err


def test_fallback_learner_refuses_a_small_class_before_building_thresholds(
        capsys, tmp_path, monkeypatch):
    # One row over domain 16,383 (d = 14, the widest file under the domain
    # cap) cannot hold the 16,384 threshold rows; at domain 65,535 building
    # them first took about 2 s and 294 MiB of peak RSS.
    monkeypatch.setattr(cli, "thresholds", lambda d: pytest.fail("thresholds built"))
    path = tmp_path / "wide.json"
    to_file(FiniteClass(cli.MAX_DOMAIN - 1, frozenset({1})), str(path))
    code, out, err = run_cli(capsys, "duel", "--file", str(path), "--learner", "fallback")
    assert code == 1 and out == ""
    assert "fallback learner requires the hd-prime builder" in err


def test_demo_hdprime(capsys):
    code, out, _ = run_cli(capsys, "demo-hdprime", "--d", "3")
    assert code == 0
    report = parse_tsv(out)
    assert report["fallback_mistakes"] == "2"
    assert report["sol_mistakes"] == "1"
    assert report["fallback_bound"] == "3"
    assert report["anytime_witness"] == "8:1"


def test_demo_split_default_is_three_mistakes(capsys):
    code, out, _ = run_cli(capsys, "demo-split")
    assert code == 0
    assert parse_tsv(out)["mistakes"] == "3"


def test_demo_split_rejects_negative_mistake_target(capsys):
    code, out, err = run_cli(capsys, "demo-split", "--M", "-3")
    assert code == 1
    assert out == "" and "natural" in err


def test_build_and_reload(capsys, tmp_path):
    out_path = tmp_path / "class.json"
    code, out, _ = run_cli(capsys, "build", "--builder", "hd-prime",
                           "--d", "2", "--out", str(out_path))
    assert code == 0
    assert from_file(str(out_path)) == hd_prime(2)
    code, out, _ = run_cli(capsys, "ldim", "--file", str(out_path))
    assert code == 0
    assert parse_tsv(out)["ldim"] == "2"


def test_convert_reports_rational_predictions(capsys):
    code, out, _ = run_cli(capsys, "convert", "--builder", "thresholds",
                           "--d", "2", "--sample", "0:1,3:0", "--query", "0,3")
    assert code == 0
    report = parse_tsv(out)
    assert set(report) == {"p(0)", "p(3)"}


def test_significance_sweep(capsys):
    code, out, _ = run_cli(capsys, "significance", "--builder", "singletons",
                           "--n", "3", "--max-len", "1")
    assert code == 0
    assert int(parse_tsv(out)["inputs"]) > 0


def test_significance_sweep_stops_at_the_input_cap(capsys, monkeypatch):
    # singletons(3) has 7 realizable histories of length at most 1: 21 inputs.
    argv = ("significance", "--builder", "singletons", "--n", "3", "--max-len", "1")
    monkeypatch.setattr(cli, "MAX_SIGNIFICANCE_INPUTS", 21)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and parse_tsv(out)["inputs"] == "21"
    monkeypatch.setattr(cli, "MAX_SIGNIFICANCE_INPUTS", 20)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and "Traceback" not in err
    assert "more than 20 inputs" in err and "--max-len" in err


def test_pac_eval_takes_a_negative_seed(capsys):
    args = ("pac-eval", "--builder", "thresholds", "--d", "2", "--m", "10", "--trials", "20")
    code, out, _ = run_cli(capsys, *args, "--seed", "-3")
    assert code == 0
    assert run_cli(capsys, *args, "--seed=-3") == (0, out, "")


def test_pac_eval_deterministic(capsys):
    args = ("pac-eval", "--builder", "thresholds", "--d", "2",
            "--m", "10", "--trials", "20", "--seed", "1")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second and first[0] == 0


# No row to draw the target from; no instance to spread the distribution over.
NO_TARGET = {"domain_size": 2, "hypotheses": []}
NO_DOMAIN = {"domain_size": 0, "hypotheses": [""]}


@pytest.mark.parametrize("payload", [NO_TARGET, NO_DOMAIN])
def test_pac_eval_refuses_a_class_it_cannot_draw_from(capsys, tmp_path, payload):
    path = tmp_path / "class.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "pac-eval", "--file", str(path))
    assert code == 1
    assert out == "" and err.startswith("usage error") and "Traceback" not in err


@pytest.mark.parametrize("learner", ["const1", "sol"])
def test_convert_rejects_out_of_domain_sample(capsys, learner):
    # The last item is never folded into a prefix state, so only the
    # sample check sees its instance.
    code, _, err = run_cli(capsys, "convert", "--builder", "thresholds", "--d", "2",
                           "--learner", learner, "--sample", "9:1")
    assert code == 1
    assert "instance 9 outside domain of size 4" in err


@pytest.mark.parametrize("argv", [
    ("pac-eval", "--trials", "-1"),
    ("pac-eval", "--trials", "0"),
    ("pac-eval", "--m", "-3"),
    ("pac-eval", "--epsilon", "inf"),
    ("pac-eval", "--epsilon", "nan"),
    ("pac-eval", "--epsilon", "-0.1"),
    ("pac-eval", "--epsilon", "1/0"),
    ("pac-eval", "--epsilon", "1e999999999"),
    ("significance", "--max-len", "-1"),
    ("pac-eval", "--seed", " 1_0"),
    ("pac-eval", "--seed", "+1"),
    ("pac-eval", "--seed", "\u0661"),
])
def test_learner_command_bounds_are_checked_at_parse_time(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "--builder", "thresholds", *argv[1:])
    assert code == 1
    assert out == "" and "Traceback" not in err
    assert f"argument {argv[1]}" in err


def test_convert_rejects_out_of_domain_query(capsys):
    # const1 never consults the class, so only the query check sees 9.
    code, out, err = run_cli(capsys, "convert", "--builder", "thresholds", "--d", "2",
                             "--learner", "const1", "--query", "9")
    assert code == 1
    assert out == "" and "instance 9 outside domain of size 4" in err


@pytest.mark.parametrize("argv", [
    ("convert", "--builder", "thresholds", "--d", "2", "--sample=0_1:1", "--query=\u0663, 2 "),
    ("convert", "--builder", "thresholds", "--d", "2", "--sample= 0:1"),
    ("convert", "--builder", "thresholds", "--d", "2", "--query=1_1"),
    ("convert", "--builder", "thresholds", "--d", "2", "--query=+1"),
    ("duel", "--builder", "thresholds", "--learner", "sol", "--d", "1_0"),
    ("duel", "--builder", "thresholds", "--learner", "toy:4_58"),
    ("ldim", "--builder", "singletons", "--n", " 5"),
    ("ldim", "--builder", "singletons", "--n", "\u0665"),
])
def test_integers_on_the_command_line_are_ascii_digits_only(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == "" and "Traceback" not in err
    assert "expected a natural number in the digits 0-9" in err


@pytest.mark.parametrize("argv", [
    ("duel", "--builder", "thresholds", "--learner", "sol", "--horizon", "0"),
    ("ldim", "--builder", "thresholds", "--d", "0"),
    ("ldim", "--builder", "singletons", "--n", "-2"),
    ("demo-hdprime", "--d", "-1"),
    ("demo-rer-halt", "--e-max", "0"),
    ("demo-dr-ext", "--e-max", "0"),
    ("demo-dr-halt", "--e-max", "-1"),
    ("demo-split", "--i-max", "0"),
    ("demo-split", "--e", "-1"),
    ("demo-split", "--step-budget", "-1"),
    ("demo-init", "--k", "0"),
    ("demo-init", "--step-cap", "-1"),
    ("demo-init", "--x-cap", "-5"),
])
def test_size_and_budget_flags_are_checked_at_parse_time(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == "" and "Traceback" not in err
    assert f"argument {argv[-2]}" in err


# ---------------------------------------------------------------------------
# Fuzzed class files

@st.composite
def valid_class_files(draw):
    n = draw(st.integers(0, 6))
    rows = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=8))
    return {"domain_size": n,
            "hypotheses": ["".join(str(row >> x & 1) for x in range(n)) for row in rows]}


@st.composite
def malformed_class_files(draw):
    payload = draw(valid_class_files())
    n, rows = payload["domain_size"], payload["hypotheses"]
    fault = draw(st.sampled_from(["extra key", "missing key", "not an object", "not a list",
                                  "ragged", "non-binary", "duplicate", "domain"]))
    if fault == "extra key":
        payload["rows"] = rows
    elif fault == "missing key":
        del payload[draw(st.sampled_from(sorted(payload)))]
    elif fault == "not an object":
        return [n, rows]
    elif fault == "not a list":
        payload["hypotheses"] = draw(st.sampled_from(["01", 3, None, {"0": "1"}]))
    elif fault == "ragged":
        length = draw(st.integers(0, 7).filter(lambda k: k != n))
        rows.insert(draw(st.integers(0, len(rows))), "1" * length)
    elif fault == "non-binary":
        bad = draw(st.text("012ab ", min_size=n, max_size=n).filter(
            lambda text: set(text) - {"0", "1"}) if n else st.sampled_from([0, None, ["0"]]))
        rows.insert(draw(st.integers(0, len(rows))), bad)
    elif fault == "duplicate":
        rows.append(rows[0] if rows else "0" * n)
        rows.append(rows[-1])
    else:
        payload["domain_size"] = draw(st.sampled_from([True, False, 2.0, 0.5, -1, "3", None]))
    return payload


def _class_file_commands(path, out_path, horizon):
    duels = [("duel", "--learner", learner, "--horizon", str(horizon))
             for learner in ("sol", "conservative", "const1", "fallback")]
    for command in [("ldim",), *duels, ("significance", "--max-len", "1"), ("convert",),
                    ("pac-eval", "--m", "3", "--trials", "2"), ("build", "--out", out_path)]:
        yield [command[0], "--file", path, *command[1:]]


@settings(max_examples=150, deadline=None)
@given(valid_class_files() | malformed_class_files(), st.integers(1, 3))
@example(NO_TARGET, 3)
@example(NO_DOMAIN, 3)
def test_class_file_commands_keep_the_exit_code_contract(tmp_path_factory, payload, horizon):
    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / "class.json"
    path.write_text(json.dumps(payload))
    for argv in _class_file_commands(str(path), str(folder / "out.json"), horizon):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2), (argv, payload)
        assert "Traceback" not in err.getvalue(), (argv, payload)


# ---------------------------------------------------------------------------
# Fuzzed oracle files

@st.composite
def oracle_files(draw):
    """An --oracle file over programs e <= 8 and inputs 0 and e: the built-in
    table (now and then an empty one) with up to five entries replaced by
    outputs from 0 to 3 and certificate positions from 1 to 4, or by
    "diverges".  Now and then an entry has an output of -1, a certificate
    position of -1, 0, 30 or 1000, or a non-integer value, a key is
    malformed, or the file is not an object."""

    def rare() -> bool:
        return draw(st.integers(0, 9)) == 9

    raw = {} if rare() else _builtin_table_with()
    for _ in range(draw(st.integers(0, 5))):
        e = draw(st.integers(0, 8))
        key = f"{e},{draw(st.sampled_from([0, e]))}"
        if rare():
            key = draw(st.sampled_from(["0,0,0", "a,0", "5", "-1,0", ""]))
        if draw(st.integers(0, 4)) == 0:
            raw[key] = "diverges" if not rare() else draw(st.sampled_from([None, 1, [1]]))
            continue
        entry = {"halts": -1 if rare() else draw(st.integers(0, 3))}
        if draw(st.booleans()):
            entry["cert"] = draw(st.integers(1, 4))
        if rare():
            entry["cert"] = draw(st.sampled_from([-1, 0, 30, 1000]))
        if rare():
            entry[draw(st.sampled_from(["halts", "cert"]))] = draw(
                st.sampled_from([1.5, True, "1", None, 2.0]))
        raw[key] = entry
    if rare():
        return draw(st.sampled_from([[raw], list(raw), "diverges", 3, None]))
    return raw


@settings(max_examples=150, deadline=None)
@given(oracle_files(), st.integers(1, 9))
@example(LARGE_C0, 9)
@example(LARGE_CE, 9)
def test_oracle_file_demos_keep_the_exit_code_contract(tmp_path_factory, raw, e_max):
    path = tmp_path_factory.mktemp("fuzz") / "oracle.json"
    path.write_text(json.dumps(raw))
    for command in ("demo-rer-halt", "demo-dr-ext", "demo-dr-halt"):
        argv = [command, "--oracle", str(path), "--e-max", str(e_max)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2), (argv, raw)
        assert "Traceback" not in err.getvalue(), (argv, raw)


# ---------------------------------------------------------------------------
# Fuzzed convert text

CONVERT_DOMAIN = 4  # thresholds(2)


@st.composite
def sample_and_query_texts(draw):
    """--sample and --query text over domain 4, and whether both are well
    formed: pairs "x:y" and instances x in the domain with labels 0 or 1,
    now and then a stray separator, a non-integer, a label outside {0, 1}
    or an instance outside the domain."""
    good = True

    def rare() -> bool:
        nonlocal good
        hit = draw(st.integers(0, 9)) == 9
        good &= not hit
        return hit

    def instance() -> str:
        if rare():
            return draw(st.sampled_from(["-1", "4", "9", str(10 ** 30), "", "a", "1.5", "0x1"]))
        return str(draw(st.integers(0, CONVERT_DOMAIN - 1)))

    def pair() -> str:
        x, y = instance(), draw(st.sampled_from("01"))
        if rare():
            y = draw(st.sampled_from(["2", "-1", "", "b", "1.0"]))
        if rare():
            return draw(st.sampled_from([x, f"{x}:{y}:{y}", f"{x}{y}", f"{x}:", f":{y}"]))
        return f"{x}:{y}"

    def joined(parts: list[str]) -> str:
        text = ",".join(parts)
        if rare():
            spot = draw(st.integers(0, len(text)))
            text = text[:spot] + draw(st.sampled_from([",", ",,", ";", ":", " "])) + text[spot:]
        return text

    sample = joined([pair() for _ in range(draw(st.integers(0, 4)))]) or "-"
    query = joined([instance() for _ in range(draw(st.integers(0, 3)))])
    return sample, query, good


@settings(max_examples=200, deadline=None)
@given(sample_and_query_texts(), st.sampled_from(["sol", "const1", "conservative"]))
def test_convert_text_flags_keep_the_exit_code_contract(texts, learner):
    sample, query, good = texts
    argv = ["convert", "--builder", "thresholds", "--d", "2", "--learner", learner,
            f"--sample={sample}", f"--query={query}"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1), argv
    assert "Traceback" not in err.getvalue(), argv
    if good:
        assert code == 0, (argv, err.getvalue())


# ---------------------------------------------------------------------------
# Fuzzed argv for the game commands

# The largest in-range value drawn for each bounded size flag, so that every
# case takes at most about 0.1 s: a sol duel on singletons(16) at horizon 6
# takes 0.09 s, and one on singletons(32) 3.7 s.  Sizes above the row cap
# are drawn apart; they are refused before any row is built.
AFFORDABLE = {("duel", "--d"): 4, ("duel", "--n"): 16, ("duel", "--horizon"): 6,
              ("demo-hdprime", "--d"): 4}
OVER_THE_ROW_CAP = {("duel", "--d"): [8, 64, 10 ** 30],
                    ("duel", "--n"): [cli.MAX_ROWS + 1, 10 ** 30]}
PLAIN_LEARNERS = ["sol", "conservative", "const0", "const1"]
NOT_NATURALS = ["", "x", "1.5", "+3", " 3", "\u0663", "0x10", "1_0"]


@st.composite
def game_argv(draw, command: str):
    """(argv, refused, values): argv for command from the flags its own
    parser declares, each left at its default or drawn in range or, now and
    then, out of range; refused is whether some value must make the CLI exit
    1, and values maps each flag given to its value."""

    def one_in(n: int) -> bool:
        return draw(st.integers(0, n - 1)) == 0

    fmt = draw(st.sampled_from([[], ["--format", "tsv"], ["--format", "json"]]))
    argv, values, refused = [*fmt, command], {}, False
    for action in subcommand_parsers(cli.make_parser())[command]._actions:
        flag = max(action.option_strings, key=len, default=None)
        if flag in (None, "--help", "--file") or not action.required and one_in(4):
            continue
        bad = one_in(8)
        if action.choices:
            value = draw(st.sampled_from(["cubes", ""] if bad else sorted(action.choices)))
        elif hasattr(action.type, "low"):
            low, high = action.type.low, action.type.high
            if bad:
                value = draw(st.sampled_from(
                    [str(low - 1) if low else "-1", *NOT_NATURALS]
                    + ([str(high + 1), str(10 ** 30)] if high is not None else [])))
            elif (command, flag) in OVER_THE_ROW_CAP and one_in(8):
                value = draw(st.sampled_from(OVER_THE_ROW_CAP[command, flag]))
            else:
                value = draw(st.integers(low, AFFORDABLE[command, flag]))
        elif bad:  # --learner
            value = draw(st.sampled_from([f"toy:{cli.MAX_PROGRAM_INDEX + 1}", "toy:-1", "toy:",
                                          "toy:\u0663", "gradient", ""]))
        elif one_in(4):
            value = f"toy:{draw(st.integers(0, 500))}"
        else:
            value = draw(st.sampled_from([*PLAIN_LEARNERS, "fallback"]))
        refused |= bad
        values[flag] = value
        argv.append(f"{flag}={value}")
    if command == "duel" and not refused:
        # Without a builder there is no class; singletons read --n, the
        # other builders --d.
        builder = values.get("--builder")
        size_flag = "--n" if builder == "singletons" else "--d"
        refused = builder is None or values.get(size_flag) in OVER_THE_ROW_CAP["duel", size_flag]
    return argv, refused, values


def _run_fuzzed(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert "Traceback" not in err.getvalue(), argv
    return code, out.getvalue()


@settings(max_examples=300, deadline=None)
@given(game_argv("duel"))
def test_fuzzed_duel_argv_keeps_the_exit_code_contract(case):
    argv, refused, values = case
    code, out = _run_fuzzed(argv)
    assert code in (0, 1, 2), argv
    if refused:
        assert (code, out) == (1, ""), argv
    elif values["--learner"] in PLAIN_LEARNERS:
        assert code == 0, argv


@settings(max_examples=60, deadline=None)
@given(game_argv("demo-hdprime"))
def test_fuzzed_demo_hdprime_argv_keeps_the_exit_code_contract(case):
    argv, refused, _ = case
    code, out = _run_fuzzed(argv)
    assert (code, out == "") == ((1, True) if refused else (0, False)), argv
