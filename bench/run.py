"""The eck benchmark: closed-loop, one workload pass per fresh interpreter.

    python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run from the root of a checkout (the directory holding ``src/eck``).  Every
pass is a new ``python3 bench/worker.py`` process started after the previous
one ended, so no cache survives between passes and no two passes overlap.

``--trace 0`` runs passes until ``--seconds`` would be exceeded by one more
pass (at least one pass) and reports the end-to-end metrics:

* ``wall_s``       median over passes of the pass wall time (after import)
* ``setup_s``      median time from process start to ``import eck`` done
* ``peak_rss_mb``  median over passes of the pass process's peak RSS

``--trace 1`` ignores ``--seconds`` and runs one untraced pass and two traced
passes with the same seed; it reports the per-layer metrics, the tracing
overhead, and fails when the two traced passes count differently or when a
layer has no calls on a workload it should move.

Every operation is checked by ``oracles``; ``failed / attempted`` on the
result line is the share of wrong or raising operations.  The last line of
standard output is the JSON result; details go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles

BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"
#: every run ends well inside the 180 s limit, pass processes included
DEADLINE_S = 165.0
SETUP_PROBES = 10

OPS = {"table": 13, "certify": 16, "genus": 38}
RUNGS = {
    "certify": ("CQ_8", "CQ_9", "CCQ_8", "CCQ_9"),
    "genus": ("P_8", "Q_9", "X_8", "Qc_9", "Xc_8"),
}
#: spans that must have calls on the workload whose wall time they move
MOVERS = {
    "table": (
        "algebra.poly_add",
        "algebra.div_by_one_minus",
        "algebra.poly_eval",
        "algebra.reduced",
        "algebra.equivalent",
        "algebra.apply_map",
        "hirzebruch.affine_class",
        "hirzebruch.projective_class",
        "hirzebruch.sum_of_products",
        "identities.verify",
        "specialize.biseries_mul",
        "specialize.biseries_inverse",
        "specialize.diagonalize",
        "specialize.csm",
        "specialize.multidegree",
        "suite.run_all",
        "cli.run",
    ),
    "certify": (
        "algebra.poly_mul",
        "algebra.poly_add",
        "algebra.equivalent",
        "hirzebruch.affine_class",
        "positivity.to_positive_form",
        "positivity.to_ratexpr",
        "positivity.check_nonnegative",
    ),
    "genus": (
        "algebra.poly_shift",
        "algebra.div_by_one_minus",
        "algebra.ratexpr_add",
        "algebra.reduced",
        "hirzebruch.projective_class",
        "hirzebruch.sum_of_products",
        "identities.integrate_projective",
    ),
}
#: (span, fields reported); a field is "calls", "self_s", "distinct" or a
#: counter recorded by the span's hook in ``tracing.TARGETS``
LAYERS = (
    ("algebra.poly_mul", ("calls", "self_s", "out_terms")),
    ("algebra.poly_add", ("calls", "self_s")),
    ("algebra.poly_shift", ("calls", "self_s")),
    ("algebra.div_by_one_minus", ("calls", "self_s", "not_divisible")),
    ("algebra.poly_eval", ("calls", "self_s")),
    ("algebra.ratexpr_add", ("calls", "self_s", "den_len_max", "num_terms_max")),
    ("algebra.reduced", ("calls", "self_s")),
    ("algebra.equivalent", ("calls", "self_s", "false")),
    ("algebra.apply_map", ("calls", "self_s")),
    ("hirzebruch.affine_class", ("calls", "distinct", "self_s")),
    ("hirzebruch.projective_class", ("calls", "distinct", "self_s")),
    ("hirzebruch.sum_of_products", ("calls", "self_s", "terms")),
    ("identities.verify", ("calls", "self_s")),
    ("identities.integrate_projective", ("calls", "self_s")),
    ("positivity.to_positive_form", ("calls", "self_s", "terms")),
    ("positivity.to_ratexpr", ("calls", "self_s", "num_terms")),
    ("positivity.check_nonnegative", ("self_s",)),
    ("specialize.biseries_mul", ("calls", "self_s")),
    ("specialize.biseries_inverse", ("calls", "self_s")),
    ("specialize.diagonalize", ("self_s",)),
    ("specialize.csm", ("self_s",)),
    ("specialize.multidegree", ("self_s",)),
    ("suite.run_all", ("self_s",)),
    ("cli.run", ("self_s",)),
    ("render", ("self_s",)),
)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts worker processes one at a time, never past the run deadline."""

    def __init__(self, root: Path, deadline: float) -> None:
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def launch(self, *args: str) -> tuple[dict | None, str | None, float]:
        """(report, error, process seconds); ``report["setup_s"]`` is the
        time from process start to ``import eck`` done."""
        started = _now()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), *args],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "timed out at the run deadline", _now() - started
        seconds = _now() - started
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or ["no message"]
            return None, f"worker exited {proc.returncode}: {tail[0]}", seconds
        report = json.loads(out.strip().splitlines()[-1])
        report["setup_s"] = report["ready"] - started
        return report, None, seconds


# -- checking ----------------------------------------------------------------------


def check_pass(workload: str, report: dict | None, error: str | None, certify_oracle) -> tuple[dict, dict]:
    """(failures by operation, criterion seconds for the table workload)."""
    if report is None:
        return {f"operation_{k}": error for k in range(OPS[workload])}, {}
    ops = {op["op"]: op for op in report["ops"]}
    if workload == "table":
        op = ops.get("table")
        if op is None or "error" in op:
            reason = "no result" if op is None else op["error"]
            return {f"criterion_{k}": reason for k in range(1, 14)}, {}
        timings, failures = oracles.table_operations(json.loads(op["result"]))
        return failures, timings
    failures = {}
    check = certify_oracle.check if workload == "certify" else oracles.check_genus
    for name, op in ops.items():
        reason = op.get("error") or check(name, json.loads(op["result"]))
        if reason:
            failures[name] = reason
    for k in range(OPS[workload] - len(ops)):
        failures[f"missing_{k}"] = "operation not run"
    return failures, {}


# -- statistics ----------------------------------------------------------------------


def percentile_rule(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"none ({n} samples; a percentile needs ten beyond it)"
    rank = n - 10  # nearest rank: ten samples lie above this one
    return f"p{100 * rank // n}={sorted(samples)[rank - 1]}"


def layer_metrics(stats: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-span metrics, counts from the first traced pass, self times as the
    median over the traced passes."""
    first = stats[0]
    out: dict[str, tuple[float, str]] = {}
    for span, fields in LAYERS:
        entry = first.get(span, {"calls": 0, "counts": {}, "distinct": 0})
        for field in fields:
            if field == "self_s":
                value = statistics.median(s.get(span, {}).get("self_s", 0.0) for s in stats)
                out[f"{span}.self_s"] = (value, "s")
            elif field in ("calls", "distinct"):
                out[f"{span}.{field}"] = (entry[field], "count")
            else:
                out[f"{span}.{field}"] = (entry["counts"].get(field, 0), "count")
    reduced = first.get("algebra.reduced", {}).get("counts", {})
    factors_in = reduced.get("factors_in", 0)
    out["algebra.reduced.cancel_ratio"] = (
        reduced.get("factors_cancelled", 0) / factors_in if factors_in else 0.0,
        "ratio",
    )
    calls = distinct = 0
    for span in ("hirzebruch.affine_class", "hirzebruch.projective_class"):
        calls += first.get(span, {}).get("calls", 0)
        distinct += first.get(span, {}).get("distinct", 0)
    out["hirzebruch.class_reuse_ratio"] = (1.0 - distinct / calls if calls else 0.0, "ratio")
    return out


def counted(stats: dict) -> dict:
    """The deterministic part of a traced pass: calls, distinct keys, sizes."""
    return {span: (s["calls"], s["distinct"], s["counts"]) for span, s in stats.items()}


# -- the run -------------------------------------------------------------------------


def environment(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "eck").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (root / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
            sha = done.stdout.strip() or None
        except OSError:  # no git program: the source digest still identifies the code
            pass
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def run(workload: str, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    start = _now()
    runner = Runner(root, start + DEADLINE_S)
    OUT.mkdir(exist_ok=True)
    setups = []
    for _ in range(SETUP_PROBES):
        report, error, _ = runner.launch("setup")
        if report is None:
            raise RuntimeError(f"setup probe failed: {error}")
        setups.append(report["setup_s"])

    certify_oracle = oracles.CertifyOracle(seed)
    passes = []  # (label, report, failures, criterion seconds)

    def one_pass(label: str, spans: str) -> tuple[dict | None, float]:
        report, error, process_s = runner.launch(workload, str(seed), spans)
        failures, criteria = check_pass(workload, report, error, certify_oracle)
        passes.append((label, report, failures, criteria))
        if report is not None:
            setups.append(report["setup_s"])
        return report, process_s

    if trace:
        one_pass("untraced", "-")
        for k in (1, 2):
            one_pass(f"traced_{k}", str(OUT / f"spans-{workload}-seed{seed}-{k}.tsv"))
    else:
        loop_start, durations = _now(), []
        while True:
            report, process_s = one_pass("untraced", "-")
            durations.append(process_s)
            typical = statistics.median(durations)
            if report is None or _now() - loop_start + typical > seconds or _now() + typical > runner.deadline:
                break

    untraced = [r for label, r, _, _ in passes if label == "untraced" and r is not None]
    if not untraced:
        raise RuntimeError("no pass finished: " + "; ".join(str(f) for _, _, f, _ in passes))
    walls = [r["wall_s"] for r in untraced]
    problems = [f"{label}: {op}: {why}" for label, _, failures, _ in passes for op, why in failures.items()]
    attempted = OPS[workload] * len(passes)
    failed = sum(len(failures) for _, _, failures, _ in passes)

    if not trace:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in untraced) / 1024.0, "MB"),
        }
    else:
        traced = [r for label, r, _, _ in passes if label.startswith("traced") and r is not None]
        if len(traced) != 2:
            raise RuntimeError("a traced pass did not finish")
        stats = [r["trace"]["stats"] for r in traced]
        if counted(stats[0]) != counted(stats[1]):
            differing = sorted(s for s in stats[0] if counted(stats[0]).get(s) != counted(stats[1]).get(s))
            problems.append(f"traced passes counted differently at {differing}")
        metrics = layer_metrics(stats)
        for span in MOVERS[workload]:
            if not stats[0].get(span, {}).get("calls"):
                problems.append(f"span {span} has no calls on {workload}, the workload it should move")
        for span, s in stats[0].items():
            if s["counts"].get("hook_errors"):
                problems.append(f"span {span}: size counter failed {s['counts']['hook_errors']} times")
        missing = traced[0]["trace"]["missing"]
        metrics["trace.missing_targets"] = (len(missing), "count")
        problems.extend(f"wrap target missing: {path}" for path in missing)
        _, base, _, criteria = passes[0]
        for k in range(1, 14):
            metrics[f"suite.criterion_{k}_s"] = (criteria.get(f"criterion_{k}", 0.0), "s")
        times = {op["op"]: op["s"] for op in base["ops"]} if base is not None else {}
        for wl, rungs in RUNGS.items():
            for rung in rungs:
                metrics[f"{wl}.{rung}_s"] = (times.get(rung, 0.0) if wl == workload else 0.0, "s")
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.wall_s_untraced"] = (walls[0], "s")
        metrics["trace.wall_s_traced"] = (traced_wall, "s")
        metrics["trace.overhead"] = (traced_wall / walls[0], "ratio")

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "environment": environment(root),
        "passes": len(passes),
        "wall_s_samples": walls,
        "wall_s_percentile": percentile_rule(walls),
        "setup_s_samples": setups,
        "elapsed_s": _now() - start,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "eck" / "__init__.py").is_file():
        print(f"error: no eck sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=2))
    env = result["environment"]
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {result['passes']} passes, "
        f"wall_s samples {result['wall_s_samples']}, percentile rule: {result['wall_s_percentile']}; "
        f"python {env['python']}, nproc {env['nproc']}, git {env['git_sha']}, src sha256 {env['source_sha256'][:12]}"
    )
    for problem in result["problems"]:
        print(f"# FAIL {problem}")
    line = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
