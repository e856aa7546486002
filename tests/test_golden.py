"""The kernel-backed subcommands print byte-identical reports.

``tests/golden/cases.json`` maps each case to its argument list and exit
code; ``tests/golden/<case>.stdout`` holds the stdout captured before the
bitset kernels replaced the tuple recursions.
"""

import json
from pathlib import Path

import pytest

from littlelab import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(name, capsys, monkeypatch):
    monkeypatch.delenv(cli.ORACLE_ENV, raising=False)
    case = CASES[name]
    assert cli.main(case["argv"]) == case["exit"]
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
