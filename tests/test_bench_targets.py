"""Every span target of the traced benchmark must name a function that
exists in eck, so a rename fails here before the traced benchmark reports a
missing target."""

import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing() -> types.ModuleType:
    """Run ``bench/tracing.py`` in a fresh module object: it is only read, and
    no bytecode cache is written next to it."""
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("path", [path for _, path, _ in tracing.TARGETS], ids=[name for name, _, _ in tracing.TARGETS])
def test_target_resolves(path):
    assert tracing._originals(path), f"{path} names nothing in eck"
