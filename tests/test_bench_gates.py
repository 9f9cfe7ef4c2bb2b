"""The traced benchmark's gates, run as one traced worker pass per workload:
every wrap target resolves and every span that ``bench/run.py`` expects a
workload to move has calls.  Without this, a deleted or bypassed mover shows
only in a traced benchmark run.

A traced ``certify`` pass takes about 4 s on a 2 vCPU VM (Python 3.11), the
largest of the three."""

import json
import os
import subprocess
import sys

import pytest
from bench_loader import BENCH, load_bench

import eck


@pytest.mark.parametrize("workload", ["genus", "table", "certify"])
def test_traced_pass_moves_every_mover(workload, tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "oracles", load_bench("oracles"))  # run.py imports it
    movers = load_bench("run").MOVERS[workload]
    src = os.path.dirname(os.path.dirname(eck.__file__))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        PYTHONDONTWRITEBYTECODE="1",
    )
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, "1", str(tmp_path / "spans.json")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    trace = json.loads(proc.stdout.splitlines()[-1])["trace"]
    assert trace["missing"] == []
    assert [span for span in movers if not trace["stats"].get(span, {}).get("calls")] == []
