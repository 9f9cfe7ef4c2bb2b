"""Rewrite the golden corpus from the current code.

Run by hand, from the repository root, only when an output change is
intended:

    PYTHONPATH=src python tests/golden/regen.py

It writes one ``<case>.txt`` per invocation in ``tests/golden_cases.py``
and deletes golden files no case names.  ``tests/test_golden.py`` only
reads these files.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from golden_cases import CASES, GOLDEN, case_name, record

    os.environ.pop("ECK_MAX_N", None)
    names = set()
    for argv in CASES:
        name = case_name(argv)
        names.add(name)
        (GOLDEN / f"{name}.txt").write_bytes(record(argv).encode("utf-8"))
    for stale in GOLDEN.glob("*.txt"):
        if stale.stem not in names:
            stale.unlink()
    print(f"wrote {len(names)} golden files to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
