"""Command-line front end: compute classes, run verification suites, emit
certificates and tables in text, LaTeX, or JSON.

Exit codes: 0 when every requested check passes, 1 when a verification or
certificate fails, 2 on usage errors (one-line diagnostic on stderr).  An
exact-arithmetic invariant that breaks inside the library (a division that
should be exact, a fixed-point sum that keeps T) prints one
``internal error: <Type>: <message>`` line on stderr and exits 1.

JSON output always has the top-level keys ``command``, ``params``,
``results`` and ``version``; results are ordered by (n, k).  Identical
invocations produce byte-identical output: wall-clock timings are only
included when ``--timings`` is passed.

The environment variable ``ECK_MAX_N`` (default 8) bounds every ``--n``
and the ``--max-n`` of ``table``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass

from . import (
    DenominatorVanishes,
    NonvanishingNegativeUPart,
    NotDivisible,
    ResidualTDependence,
    StructuralRewriteFailed,
    ZeroClass,
    __version__,
)
from .hirzebruch import AFFINE_KINDS, PROJECTIVE_KINDS, affine_class, projective_class
from .identities import FORMULAS, verify
from .positivity import certify
from .render import (
    certificate_dict,
    latex_escape,
    ratexpr_dict,
    ratexpr_latex,
    recipe_latex,
    recipe_text,
    report_dict,
    spoly_latex,
    tpoly_latex,
    tpoly_text,
)
from .specialize import csm, diagonalize
from .suite import run_all

#: broken library invariants, reported as one ``internal error:`` line
_INTERNAL_ERRORS = (
    NotDivisible,
    ResidualTDependence,
    DenominatorVanishes,
    StructuralRewriteFailed,
    NonvanishingNegativeUPart,
    ZeroClass,
)


class UsageError(Exception):
    """Invalid flags or arguments; reported as a one-line diagnostic."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Fully parsed invocation; serialized verbatim into JSON ``params``."""

    command: str
    n_lo: int | None = None
    n_hi: int | None = None
    kind: str | None = None
    formula: str | None = None
    k: int | None = None
    space: str | None = None
    order: int | None = None
    format: str = "text"
    max_n: int = 8
    seed: int = 0
    timings: bool = False
    expand: bool = False

    def params(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}


def _bound() -> int:
    raw = os.environ.get("ECK_MAX_N", "8")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"ECK_MAX_N must be an integer, got {raw!r}") from None


def _parse_range(text: str, lo_min: int, bound: int) -> tuple[int, int]:
    """Inclusive n or a..b."""
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise UsageError(f"invalid n range {text!r}; expected N or A..B") from None
    if lo > hi:
        raise UsageError(f"empty n range {text!r}")
    if lo < lo_min:
        raise UsageError(f"n must be at least {lo_min}, got {lo}")
    if hi > bound:
        raise UsageError(f"n={hi} exceeds the bound {bound} (raise ECK_MAX_N to allow it)")
    return lo, hi


def _build_parser() -> _Parser:
    parser = _Parser(prog="eck", description=__doc__, add_help=True)
    parser.add_argument("--version", action="version", version=f"eck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--format", choices=("text", "latex", "json"), default="text")
        p.add_argument("--out", metavar="FILE", default=None, help="write the report to FILE instead of stdout")
        p.add_argument("--seed", type=int, default=0, help="seed for the points that witness a failed comparison")

    p = sub.add_parser("compute", help="localized class of one space")
    p.add_argument("--kind", required=True, choices=PROJECTIVE_KINDS + AFFINE_KINDS)
    p.add_argument("--n", required=True, help="dimension or inclusive range A..B")
    p.add_argument("--expand", action="store_true", help="expand h-factor products into full numerators")
    common(p)

    p = sub.add_parser("verify", help="check one identity over an n range")
    p.add_argument("--formula", required=True, choices=FORMULAS)
    p.add_argument("--n", required=True, help="dimension or inclusive range A..B")
    p.add_argument("--k", type=int, default=None, help="degeneration level (remark_k only)")
    p.add_argument("--timings", action="store_true", help="include wall-clock timings in the report")
    common(p)

    p = sub.add_parser("certify", help="nonnegativity certificate for a cone class")
    p.add_argument("--kind", required=True, choices=("CCQ", "CQ"))
    p.add_argument("--n", required=True, help="dimension or inclusive range A..B")
    common(p)

    p = sub.add_parser("csm", help="CSM polynomial of a cone complement")
    p.add_argument("--n", required=True, help="dimension or inclusive range A..B")
    p.add_argument("--space", choices=("CCQ", "CCX"), default="CCQ")
    p.add_argument("--order", type=int, default=None, help="only checked against n + 2; the precision is read from the class")
    common(p)

    p = sub.add_parser("table", help="run the full acceptance suite")
    p.add_argument("--max-n", dest="max_n", type=int, default=8)
    p.add_argument("--timings", action="store_true", help="include wall-clock timings in the report")
    common(p)

    return parser


# -- subcommands -------------------------------------------------------------
# Each takes the run's config and one n (None for ``table``) and returns
# (rows, failed): the output lines for text or LaTeX, or the JSON result dicts.
# ``run`` loops over the n range and writes the rows.


def _cmd_compute(config: RunConfig, n: int) -> tuple[list, bool]:
    point = "p_{{{}}}" if config.format == "latex" else "p_{}"  # LaTeX braces a negative index
    if config.kind in PROJECTIVE_KINDS:
        cls = projective_class(config.kind, n)
        entries = [(point.format(i), cls.values[i], cls.recipes[i]) for i in cls.geometry.indices]
    else:
        cls = affine_class(config.kind, n)
        entries = [("origin", cls.at_origin, cls.recipes)]
    if config.format == "json":
        values = [
            {"point": label, "recipe": recipe_text(recipe), **ratexpr_dict(value)} for label, value, recipe in entries
        ]
        return [{"kind": config.kind, "n": n, "values": values}], False
    if config.format == "latex":
        return [
            rf"\mathrm{{td}}_y({config.kind}_{{{n}}})\big|_{{{label}}} = "
            + (ratexpr_latex(value) if config.expand else recipe_latex(recipe))
            + r" \\"
            for label, value, recipe in entries
        ], False
    return [f"{config.kind}_{n}:"] + [
        f"  {label}: {value if config.expand else recipe_text(recipe)}" for label, value, recipe in entries
    ], False


def _cmd_verify(config: RunConfig, n: int) -> tuple[list, bool]:
    ks = range(max(1, n // 2)) if config.formula == "remark_k" and config.k is None else [config.k]
    reports = [verify(config.formula, n, k=k, seed=config.seed) for k in ks]
    failed = not all(report.verified for report in reports)
    if config.format == "json":
        return [report_dict(report, timings=config.timings) for report in reports], failed
    rows = []
    for report in reports:
        status = "ok" if report.verified else "FAILED"
        if config.format == "latex":
            if not report.verified and report.note:
                status += f" --- {latex_escape(report.note)}"
            k = report.k if report.k is not None else ""
            rows.append(rf"\texttt{{{latex_escape(config.formula)}}} & {n} & {k} & {status} \\")
            continue
        ktag = f" k={report.k}" if report.k is not None else ""
        line = f"{config.formula} n={n}{ktag}: {status} ({len(report.per_point)} checks)"
        if config.timings:
            line += f" [{report.timing_ms:.1f} ms]"
        if report.note:
            line += f" — {report.note}"
        if not report.verified:
            line += "; failed at " + ", ".join(label for label, ok in report.per_point if not ok)
        rows.append(line)
    return rows, failed


def _cmd_certify(config: RunConfig, n: int) -> tuple[list, bool]:
    cert = certify(config.kind, n, seed=config.seed)
    good = cert.nonnegative and cert.roundtrip_ok
    if config.format == "json":
        return [certificate_dict(cert)], not good
    if good:
        msg = f"{config.kind}_{n}: nonnegative ({len(cert.spoly.terms)} terms), round trip exact"
    else:
        parts = []
        if not cert.nonnegative:
            key, coeff = cert.witness
            parts.append(f"negative coefficient {coeff} at exponents {key}")
        if not cert.roundtrip_ok:
            parts.append(f"round trip failed: back-substitution {cert.roundtrip_note}")
        msg = f"{config.kind}_{n}: " + "; ".join(parts)
    if config.format == "latex":
        body = spoly_latex(cert.spoly) if good and n == config.n_lo == config.n_hi else msg
        msg = rf"{config.kind}_{{{n}}}: {body} \\"
    return [msg], not good


def _cmd_csm(config: RunConfig, n: int) -> tuple[list, bool]:
    coeffs = csm(diagonalize(affine_class(config.space, n)), n, order=config.order)
    if config.format == "json":
        return [{"n": n, "space": config.space, "coefficients": list(coeffs), "polynomial": tpoly_text(coeffs)}], False
    if config.format == "latex":
        return [rf"c_{{SM}}(\mathrm{{{config.space}}}_{{{n}}}) = {tpoly_latex(coeffs)} \\"], False
    poly = tpoly_text(coeffs)
    return [poly if config.n_lo == config.n_hi else f"n={n}: {poly}"], False


def _cmd_table(config: RunConfig, n: None) -> tuple[list, bool]:
    """The whole acceptance suite; it takes no n and runs once."""
    outcomes = run_all(max_n=config.max_n, seed=config.seed)
    failed = any(not r.passed for r in outcomes)
    if config.format == "json":
        keys = ("number", "name", "passed", "detail") + (("timing_ms",) if config.timings else ())
        return [{key: getattr(r, key) for key in keys} for r in outcomes], failed
    rows = []
    for r in outcomes:
        status = "PASS" if r.passed else "FAIL"
        if config.format == "latex":
            if not r.passed:
                status += f" --- {latex_escape(r.detail)}"
            rows.append(rf"{r.number} & \texttt{{{latex_escape(r.name)}}} & {status} \\")
            continue
        timing = f" ({r.timing_ms:.0f} ms)" if config.timings else ""
        rows.append(f"[{status}] {r.number:2d} {r.name}{timing} — {r.detail}")
    if config.format == "text":
        rows.append(f"{sum(r.passed for r in outcomes)}/{len(outcomes)} criteria passed")
    return rows, failed


_COMMANDS = {
    "compute": _cmd_compute,
    "verify": _cmd_verify,
    "certify": _cmd_certify,
    "csm": _cmd_csm,
    "table": _cmd_table,
}

_MIN_N = {"compute": 0, "verify": 2, "certify": 2, "csm": 2}


def _config_from(args) -> RunConfig:
    bound = _bound()
    values = vars(args)
    n_lo = n_hi = None
    if "n" in values:
        n_lo, n_hi = _parse_range(args.n, _MIN_N[args.command], bound)
    max_n = values.get("max_n", 8)
    if args.command == "table" and max_n > bound:
        raise UsageError(f"--max-n {max_n} exceeds the bound {bound} (raise ECK_MAX_N to allow it)")
    if max_n < 2:
        raise UsageError("--max-n must be at least 2")
    fields = {name: values[name] for name in RunConfig.__dataclass_fields__ if name in values}
    return RunConfig(**fields, n_lo=n_lo, n_hi=n_hi)


def run(argv: list[str] | None = None) -> int:
    """Parse, dispatch, and write the report; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from(args)
        command = _COMMANDS[config.command]
        if config.n_lo is None:  # table: no n range, one run
            rows, failed = command(config, None)
        else:
            rows, failed = [], False
            for n in range(config.n_lo, config.n_hi + 1):
                try:
                    got, bad = command(config, n)
                except ValueError as exc:  # the library rejected this n
                    raise UsageError(str(exc)) from None
                rows += got
                failed = failed or bad
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _INTERNAL_ERRORS as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    if config.format == "json":
        payload = {
            "command": config.command,
            "params": config.params(),
            "results": rows,
            "version": __version__,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(rows) + "\n" if rows else ""

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
