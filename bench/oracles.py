"""Checks of each pass's results against values that do not come from the
timed path.

* table: the acceptance verdicts are known (criterion 9 is the documented
  odd-n failure), so is the computed side of criterion 9 and the exit code.
* certify: the returned S-polynomial is evaluated with plain Fractions
  (``S_w = T^w - 1``, ``delta = -1 - y``) at a seeded prime-ratio point and
  compared with the class built by ``affine_class`` and evaluated there.
* genus: closed forms.  With ``[k] = sum_{p<k} (-y)^p``: ``P_n = [n]``,
  ``Q_n = [n-1] + (-y)^((n-2)/2)`` (the extra term for even n only),
  ``X_n = 2[n-1] - [n-2]``, ``Qc = P - Q`` and ``Xc = P - X``.

``check_genus`` and ``CertifyOracle.check`` return an error string for a
wrong operation and None for a right one; ``table_operations`` returns the
errors keyed by criterion.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

TABLE_FAILING = 9
TABLE_CRITERION_9_COMPUTED = ("(1, 1, 1)", "(1, 3, 4, 2, 1)", "(1, 5, 11, 13, 9, 3, 1)")
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def table_operations(result: dict) -> tuple[dict[str, float], dict[str, str]]:
    """Criterion timings in seconds and failures for one ``eck table`` run;
    the operations are the thirteen criteria ``criterion_<k>``."""
    errors: dict[str, str] = {}
    timings: dict[str, float] = {}
    try:
        payload = json.loads(result["stdout"])
        rows = {row["number"]: row for row in payload["results"]}
    except (ValueError, KeyError, TypeError) as exc:
        return timings, {f"criterion_{k}": f"unreadable table output: {exc}" for k in range(1, 14)}
    for k in range(1, 14):
        op = f"criterion_{k}"
        row = rows.get(k)
        if row is None:
            errors[op] = "missing from the table"
            continue
        timings[op] = row.get("timing_ms", 0.0) / 1000.0
        if row["passed"] != (k != TABLE_FAILING):
            errors[op] = f"verdict {row['passed']}: {row['detail']}"
    detail = rows.get(TABLE_FAILING, {}).get("detail", "")
    absent = [v for v in TABLE_CRITERION_9_COMPUTED if f"computed={v}" not in detail]
    if absent:
        errors["criterion_9"] = f"computed values {absent} missing from: {detail}"
    if result["exit_code"] != 1:
        errors["criterion_9"] = f"exit code {result['exit_code']}, expected 1 (criterion 9 fails)"
    return timings, errors


# -- genus ---------------------------------------------------------------------


def _bracket(k: int) -> dict[int, int]:
    return {p: (-1) ** p for p in range(k)}


def _combine(*parts: tuple[int, dict[int, int]]) -> dict[int, int]:
    out: dict[int, int] = {}
    for scale, poly in parts:
        for p, c in poly.items():
            out[p] = out.get(p, 0) + scale * c
    return {p: c for p, c in out.items() if c}


def genus_closed_form(kind: str, n: int) -> dict[int, int]:
    """chi_y of a projective kind as ``{y-power: coefficient}``."""
    p = _bracket(n)
    q = _combine((1, _bracket(n - 1)), (1, {(n - 2) // 2: (-1) ** ((n - 2) // 2)} if n % 2 == 0 else {}))
    x = _combine((2, _bracket(n - 1)), (-1, _bracket(n - 2)))
    forms = {
        "P": p,
        "Q": q,
        "X": x,
        "Qc": _combine((1, p), (-1, q)),
        "Xc": _combine((1, p), (-1, x)),
    }
    return _combine((1, forms[kind]))


def check_genus(op: str, result: dict) -> str | None:
    kind, n = op.rsplit("_", 1)
    got = {int(p): Fraction(c) for p, c in result["coeffs"].items()}
    got = {p: c for p, c in got.items() if c}
    want = genus_closed_form(kind, int(n))
    if got != want:
        return f"chi_y {got} != closed form {want}"
    return None


# -- certify -------------------------------------------------------------------


def sample_point(seed: int, arity: int) -> tuple[list[Fraction], Fraction]:
    """Each T-variable a ratio of two primes, all primes distinct, so no
    ``T^w`` with ``w != 0`` equals 1; y a small rational."""
    rng = random.Random(seed)
    chosen = rng.sample(PRIMES, 2 * arity)
    tvals = [Fraction(chosen[2 * i], chosen[2 * i + 1]) for i in range(arity)]
    return tvals, Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _character_value(tvals: list[Fraction], w) -> Fraction:
    value = Fraction(1)
    for t, e in zip(tvals, w, strict=True):
        value *= t**e
    return value


def spoly_value(result: dict, tvals: list[Fraction], yval: Fraction) -> Fraction:
    """Value of ``sum c delta^a prod S_w^e / prod_{w in den} S_w``."""
    s_vals = [_character_value(tvals, w) - 1 for w in result["weights"]]
    base = [-1 - yval] + s_vals
    num = Fraction(0)
    for key, c in result["terms"]:
        term = Fraction(c)
        for b, e in zip(base, key, strict=True):
            if e:
                term *= b**e
        num += term
    den = Fraction(1)
    for w in result["den"]:
        den *= _character_value(tvals, w) - 1
    return num / den


class CertifyOracle:
    """Reference values of the cone classes at one seeded point per arity,
    computed once per benchmark run."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._reference: dict[tuple[str, int], tuple[list[Fraction], Fraction, Fraction]] = {}

    def reference(self, kind: str, n: int) -> tuple[list[Fraction], Fraction, Fraction]:
        key = (kind, n)
        if key not in self._reference:
            from eck.hirzebruch import affine_class

            cls = affine_class(kind, n).at_origin
            tvals, yval = sample_point(self.seed, cls.arity)
            self._reference[key] = (tvals, yval, Fraction(cls.evaluate(tvals, yval)))
        return self._reference[key]

    def check(self, op: str, result: dict) -> str | None:
        if not (result["nonnegative"] and result["roundtrip_ok"]):
            return f"nonnegative={result['nonnegative']} roundtrip_ok={result['roundtrip_ok']}"
        kind, n = op.rsplit("_", 1)
        tvals, yval, want = self.reference(kind, int(n))
        got = spoly_value(result, tvals, yval)
        if got != want:
            return f"S-polynomial evaluates to {got}, class to {want} at T={tvals}, y={yval}"
        return None
