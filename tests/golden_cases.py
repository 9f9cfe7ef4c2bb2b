"""The invocations of the golden corpus under ``tests/golden/`` and the
record each one leaves: argv, exit code, stdout and stderr, in one text
block.  ``test_golden`` compares fresh records with the committed files byte
for byte; ``golden/regen.py`` rewrites the files by hand.

The corpus covers every subcommand in text, LaTeX and JSON at small n,
``eck table --max-n 4`` with criterion 9 failing (exit 1), and ``eck table
--max-n 8`` in JSON, the size the benchmark runs.  No invocation passes
``--timings``, so every record is deterministic.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from eck.cli import run
from eck.hirzebruch import AFFINE_KINDS, PROJECTIVE_KINDS
from eck.identities import FORMULAS

GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("text", "latex", "json")


def _cases() -> list[list[str]]:
    bases: list[list[str]] = []
    for kind in PROJECTIVE_KINDS + AFFINE_KINDS:
        bases.append(["compute", "--kind", kind, "--n", "2..4"])
        bases.append(["compute", "--kind", kind, "--n", "3", "--expand"])
    for formula in FORMULAS:
        bases.append(["verify", "--formula", formula, "--n", "2..4"])
    bases.append(["verify", "--formula", "remark_k", "--n", "4..6", "--k", "1"])
    for kind in ("CQ", "CCQ"):
        bases.append(["certify", "--kind", kind, "--n", "2..4"])
        bases.append(["certify", "--kind", kind, "--n", "3"])
    bases.append(["csm", "--n", "2..5"])
    bases.append(["csm", "--n", "2..4", "--space", "CCX"])
    bases.append(["csm", "--n", "4", "--order", "12"])
    bases.append(["table", "--max-n", "4"])
    cases = [base + ["--format", fmt] for base in bases for fmt in FORMATS]
    return cases + [["table", "--max-n", "8", "--format", "json"]]


CASES = _cases()


def case_name(argv: list[str]) -> str:
    """File stem of one invocation, e.g. ``csm_n_4_order_12_format_json``."""
    return "_".join(token.lstrip("-") for token in argv)


def record(argv: list[str]) -> str:
    """Run ``eck <argv>`` in-process and return its golden record.  The
    caller makes sure ``ECK_MAX_N`` is unset."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return (
        f"argv: eck {' '.join(argv)}\n"
        f"exit: {code}\n"
        f"--- stdout\n{out.getvalue()}"
        f"--- stderr\n{err.getvalue()}"
    )
