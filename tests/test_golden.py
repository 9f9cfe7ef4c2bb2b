"""Golden corpus: every invocation in ``golden_cases.CASES`` must reproduce
its committed record under ``tests/golden/`` byte for byte, twice in a row.
The files are written only by ``tests/golden/regen.py``, run by hand."""

import pytest

from golden_cases import CASES, GOLDEN, case_name, record


def test_corpus_has_one_file_per_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(case_name(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=[case_name(argv) for argv in CASES])
def test_golden(argv, monkeypatch):
    monkeypatch.delenv("ECK_MAX_N", raising=False)
    want = (GOLDEN / f"{case_name(argv)}.txt").read_bytes()
    for _ in range(2):
        assert record(argv).encode("utf-8") == want
