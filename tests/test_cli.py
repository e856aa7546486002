import json

import pytest

from littlelab import cli
from littlelab.classes import from_file, hd_prime
from littlelab.core import Sample
from littlelab.machine import HaltsAnswer


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
    bits = {oracle.halts(e, e).status == HaltsAnswer.YES for e in range(9)}
    assert bits == {True, False}


def test_oracle_env_variable(tmp_path, monkeypatch):
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps({"0,0": {"halts": 1}}))
    monkeypatch.setenv(cli.ORACLE_ENV, str(path))
    oracle = cli.load_oracle(None)
    assert oracle.halts(0, 0).value == 1
    assert oracle.halts(1, 1).status == HaltsAnswer.NO


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


def test_threshold_search_shortfall_exit_code(capsys):
    code, _, err = run_cli(capsys, "demo-init", "--k", "100", "--x-cap", "10")
    assert code == 1
    assert "self-halting times" in err and "Traceback" not in err


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


def test_fallback_learner_requires_matching_class(capsys):
    code, _, _ = run_cli(capsys, "duel", "--builder", "singletons",
                         "--n", "4", "--learner", "fallback")
    assert code == 1


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


def test_pac_eval_deterministic(capsys):
    args = ("pac-eval", "--builder", "thresholds", "--d", "2",
            "--m", "10", "--trials", "20", "--seed", "1")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second and first[0] == 0
