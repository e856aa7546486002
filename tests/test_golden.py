"""The kernel- and version-space-backed subcommands print byte-identical
reports.

``tests/golden/cases.json`` maps each case to its argument list and exit
code; ``tests/golden/<case>.stdout`` holds its stdout.  The first nine cases
(``ldim-*``, ``demo-*``, ``duel`` and ``significance``) were captured before
the bitset kernels replaced the tuple recursions.  The other six
(``duel-fallback``, ``duel-conservative``, ``duel-const1``,
``significance-len2``, ``pac-eval`` and ``convert``) were captured before
the explorer, the learners and the significance engines moved from row sets
to the class's version-space bitset; together they cover every learner the
explorer memoises, online-to-batch conversion and depth-2 realizable sweeps.
The last five (``demo-split``, ``duel-toy``, ``duel-const0``,
``convert-fallback`` and ``pac-eval-conservative``) were captured before
learners became state machines (init, update, decide, key): they cover the
machine-coded learner through mistake counting and through the explorer,
the explorer's skip rule for a constant learner, and online-to-batch
conversion of the fallback and conservative learners.  The last three
(``pac-eval-sol-hd-prime``, ``convert-sol`` and ``duel-singletons-sol``)
were captured before the dimension memos moved onto the class: they drive
sol through version spaces whose one side is empty.  The last two
(``demo-hdprime-d4`` and ``duel-singletons-sol-n64``) were captured before
sol read columns directly, the class memos answered one-row spaces and hits
without the kernel, and the ldim kernel stopped at a side of dimension 0:
they drive sol and the fallback learner through every split of hd_prime(4)
and sol through singletons(64), whose ldim chain the last rule cuts.  The
last one (``demo-hdprime-d5``) was captured before the game explorer stopped
at the horizon's bound and the fallback learner's key dropped its seen set.
The last two (``demo-init`` and ``demo-init-k8``) were captured before
budgeted runs and oracle replies said "not known to halt" with None: they
drive the threshold search and the stage hypotheses up to stage 2,105.

Every subcommand has at least one case.  ``build`` is exempt, since it
writes a file.
"""

import argparse
import json
from pathlib import Path

import pytest

from littlelab import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(name, capsys):
    case = CASES[name]
    assert cli.main(case["argv"]) == case["exit"]
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()


def test_every_subcommand_has_a_golden():
    subparsers, = (action for action in cli.make_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    covered = {case["argv"][0] for case in CASES.values()}
    assert set(subparsers.choices) - {"build"} == covered
