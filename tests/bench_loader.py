"""Load a script of ``bench/`` as a module, so tests and benchmark share one
copy of an oracle: the file is only read, and no bytecode cache is written
next to it."""

import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name: str) -> types.ModuleType:
    """Run ``bench/<name>.py`` in a fresh module object."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module
