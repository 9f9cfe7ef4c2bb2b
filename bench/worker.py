"""One benchmark pass, run in a fresh interpreter by ``bench/run.py``.

    python3 bench/worker.py setup
    python3 bench/worker.py <table|certify|genus> <seed> <spans-file or ->

``setup`` imports eck and reports when the import finished.  A workload pass
imports eck, runs every operation of the workload once, and prints one JSON
object: the import-done clock, per-operation times and results, the pass
wall time (sum of the operation times), and the peak resident memory of this
process.  With a spans file, every wrap target in ``tracing.TARGETS`` is
traced and the per-span aggregates are added; the raw spans are written to
the file when the pass ends.

Clock readings that cross the process boundary use CLOCK_MONOTONIC, which
is shared by all processes of the machine.
"""

import sys
import time

import eck

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

import eck.cli  # noqa: E402
import tracing  # noqa: E402

#: certify workload: both positive-form kinds, n = 2..9
CERTIFY_OPS = tuple((kind, n) for kind in ("CQ", "CCQ") for n in range(2, 10))
#: genus workload: every projective kind from its smallest valid n to 8,
#: plus n = 9 for Q and Qc
GENUS_OPS = tuple(
    (kind, n)
    for kind in eck.PROJECTIVE_KINDS
    for n in range(1 if kind == "P" else 2, (10 if kind in ("Q", "Qc") else 9))
)
TABLE_ARGV = ("table", "--max-n", "8", "--format", "json", "--timings")


def _table_call(seed: int):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = eck.cli.run([*TABLE_ARGV, "--seed", str(seed)])
    return {"exit_code": code, "stdout": out.getvalue()}


def _certificate(cert) -> dict:
    sp = cert.spoly
    return {
        "nonnegative": cert.nonnegative,
        "roundtrip_ok": cert.roundtrip_ok,
        "weights": [list(w.coeffs) for w in sp.weights],
        "den": [list(w.coeffs) for w in sp.den],
        "terms": [[list(key), str(c)] for key, c in sp.terms.items()],
    }


def _genus(poly) -> dict:
    return {"coeffs": {str(p): str(c) for p, c in poly.y_coefficients().items()}}


def operations(workload: str, seed: int) -> list:
    """``(name, call, summarize)`` per operation: ``call`` is the timed eck
    call, ``summarize`` turns its result into JSON outside the timing.  The
    seed fixes the operation order."""
    if workload == "table":
        return [("table", lambda: _table_call(seed), lambda result: result)]
    if workload == "certify":
        ops = list(CERTIFY_OPS)
        random.Random(seed).shuffle(ops)
        return [(f"{k}_{n}", lambda k=k, n=n: eck.certify(k, n, seed=seed), _certificate) for k, n in ops]
    ops = list(GENUS_OPS)
    random.Random(seed).shuffle(ops)
    return [(f"{k}_{n}", lambda k=k, n=n: eck.chi_y(k, n), _genus) for k, n in ops]


def run_pass(workload: str, seed: int, spans_path: str | None) -> dict:
    tracer = None
    if spans_path is not None:
        tracer = tracing.Tracer(run_id=f"{workload}-{seed}")
        tracing.install(tracer)
    ops = []
    for name, call, summarize in operations(workload, seed):
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raising operation counts as failed; the pass goes on
            ops.append({"op": name, "s": time.perf_counter() - start, "error": f"{type(exc).__name__}: {exc}"})
            continue
        elapsed = time.perf_counter() - start
        try:
            # kept as text: a string holds no objects for the collector to walk
            ops.append({"op": name, "s": elapsed, "result": json.dumps(summarize(result))})
        except Exception as exc:
            ops.append({"op": name, "s": elapsed, "error": f"{type(exc).__name__}: {exc}"})
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "ready": READY,
        "wall_s": sum(op["s"] for op in ops),
        "peak_rss_kb": rss_kb,
        "ops": ops,
    }
    if tracer is not None:
        tracer.write_spans(spans_path)
        report["trace"] = {
            "missing": tracer.missing,
            "spans": len(tracer.spans),
            "stats": {
                name: {"calls": s.calls, "self_s": s.self_s, "counts": s.counts, "distinct": len(s.keys)}
                for name, s in tracer.stats.items()
            },
        }
    return report


def main(argv: list[str]) -> int:
    if argv == ["setup"]:
        print(json.dumps({"ready": READY}))
        return 0
    if len(argv) != 3 or argv[0] not in ("table", "certify", "genus"):
        print("usage: worker.py setup | worker.py <table|certify|genus> <seed> <spans-file or ->", file=sys.stderr)
        return 2
    workload, seed, spans = argv[0], int(argv[1]), argv[2]
    print(json.dumps(run_pass(workload, seed, None if spans == "-" else spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
