"""The full acceptance suite: thirteen numbered checks, each returning a
structured result.  The CLI's ``table`` subcommand and the acceptance test
both run these; nothing here prints.

Every check is exact (rational-function or integer equality); the only
measured quantity is wall time, which check 1 bounds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .algebra import Character, Monomial, RatExpr, SparsePoly, sample_points
from .hirzebruch import PROJECTIVE_KINDS, affine_class, projective_class
from .identities import chi_y, verify
from .positivity import certify
from .specialize import csm_both, diagonalize, multidegree
from .torus import GeometryConfig


@dataclass(frozen=True, slots=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    timing_ms: float


def _failed_at(bad: list[str], note: str) -> str:
    """Detail of a failing identity criterion: where it failed, then the
    witness note of the first failing report."""
    return f"failed at {', '.join(bad)}" + (f"; {note}" if note else "")


def _verify_range(formula: str, ns, seed: int) -> tuple[bool, str]:
    bad: list[str] = []
    note = ""
    count = 0
    for n in ns:
        report = verify(formula, n, seed=seed)
        count += len(report.per_point)
        if not report.verified:
            bad.append(f"n={n}")
            note = note or report.note
    if bad:
        return False, _failed_at(bad, note)
    lo, hi = min(ns), max(ns)
    return True, f"n={lo}..{hi}, {count} pointwise identities"


def _identity(formula: str, top: Callable[[int], int] = lambda max_n: max_n):
    """Check that ``formula`` holds for n = 2..top(max_n)."""
    return lambda max_n, seed: _verify_range(formula, range(2, top(max_n) + 1), seed)


def _proj_within_budget(max_n: int, seed: int) -> tuple[bool, str]:
    """Complement/closed-quadric identity at every fixed point, both forms,
    with the 60 s budget measured over the whole range."""
    start = time.perf_counter()
    ok, detail = _verify_range("proj", range(2, max_n + 1), seed)
    within = time.perf_counter() - start < 60.0
    return ok and within, f"{detail}; within 60 s: {within}"


def _remark_levels(max_n: int, seed: int) -> tuple[bool, str]:
    bad: list[str] = []
    note = ""
    total = 0
    for n in range(4, max_n + 1):
        m = n // 2
        for k in range(m):
            report = verify("remark_k", n, k=k, seed=seed)
            total += 1
            if not report.verified:
                bad.append(f"(n={n}, k={k})")
                note = note or report.note
    if bad:
        return False, _failed_at(bad, note)
    return True, (
        f"n=4..{max_n}, all 0 <= k <= m-1 ({total} identities); "
        "k = m-1 coincides with the cone-complement identity (Y* = CCX checked per report)"
    )


def _certificates(max_n: int, seed: int) -> tuple[bool, str]:
    bad: list[str] = []
    for kind in ("CCQ", "CQ"):
        for n in range(2, max_n + 1):
            cert = certify(kind, n, seed=seed)
            if not cert.nonnegative:
                key, c = cert.witness
                bad.append(f"{kind}_{n} negative term {c} at {key}")
            elif not cert.roundtrip_ok:
                bad.append(f"{kind}_{n} round trip failed")
    if bad:
        return False, "; ".join(bad)
    return True, f"CCQ and CQ, n=2..{max_n}: all coefficients nonnegative, all round trips exact"


def _csm_limits(max_n: int, seed: int) -> tuple[bool, str]:
    parts: list[str] = []
    all_ok = True
    for n in range(2, min(7, max_n) + 1):
        both = csm_both(n)
        ok = both["family"] == both["CCQ"]
        all_ok = all_ok and ok
        if ok:
            parts.append(f"n={n} ok")
        else:
            parts.append(f"n={n} MISMATCH family={both['family']} computed={both['CCQ']}")
    return all_ok, "; ".join(parts)


def _multidegrees(max_n: int, seed: int) -> tuple[bool, str]:
    bad: list[str] = []
    for n in range(2, max_n + 1):
        got = multidegree(diagonalize(affine_class("CQ", n)), n)
        if got != (2, 1 - n):
            bad.append(f"n={n}: {got}")
    if bad:
        return False, f"bottom term wrong at {', '.join(bad)}"
    return True, f"bottom term of CQ_n at y=0 is 2*t^(1-n) for n=2..{max_n}"


def _genera(max_n: int, seed: int) -> tuple[bool, str]:
    bad: list[str] = []
    count = 0
    for kind in PROJECTIVE_KINDS:
        lo = 1 if kind == "P" else 2
        for n in range(lo, max_n + 1):
            poly = chi_y(kind, n)
            count += 1
            if not poly.is_y_only():
                bad.append(f"{kind}_{n} not a pure y-polynomial")
    for n in range(1, max_n + 1):
        if chi_y("P", n).y_coefficients() != {p: (-1) ** p for p in range(n)}:
            bad.append(f"P_{n} genus wrong")
    if chi_y("Q", 4).y_coefficients() != {0: 1, 1: -2, 2: 1}:
        bad.append("Q_4 genus != (1-y)^2")
    if bad:
        return False, "; ".join(bad)
    return True, f"{count} integrals pure in y; projective-space genus and Q_4 = (1-y)^2 both exact"


# -- property suite (criterion 13) ------------------------------------------


def _random_poly(rng: random.Random, arity: int, nterms: int = 5) -> SparsePoly:
    items = []
    for _ in range(nterms):
        char = Character(tuple(rng.randint(-2, 2) for _ in range(arity)))
        mono = Monomial(char, rng.randint(0, 2))
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if coeff:
            items.append((mono, coeff))
    return SparsePoly.from_terms(arity, items)


def _random_ratexpr(rng: random.Random, arity: int) -> RatExpr:
    num = _random_poly(rng, arity)
    den = []
    for _ in range(rng.randint(0, 3)):
        coeffs = tuple(rng.randint(-2, 2) for _ in range(arity))
        if any(coeffs):
            den.append(Character(coeffs))
    return RatExpr(num, tuple(den))


def _prop_ring_axioms(rng: random.Random) -> tuple[bool, str]:
    for _ in range(25):
        arity = rng.randint(0, 3)
        a, b, c = (_random_poly(rng, arity) for _ in range(3))
        zero = SparsePoly.zero(arity)
        one = SparsePoly.constant(arity, 1)
        checks = [
            (a + b) + c == a + (b + c),
            a + b == b + a,
            (a * b) * c == a * (b * c),
            a * b == b * a,
            a * (b + c) == a * b + a * c,
            a + zero == a,
            a * one == a,
            (a - a).is_zero,
        ]
        if not all(checks):
            return False, f"ring axiom violated (arity {arity})"
    return True, "25 random triples, arities 0..3"


def _prop_eval_homomorphism(rng: random.Random) -> tuple[bool, str]:
    for _ in range(25):
        arity = rng.randint(1, 3)
        a = _random_poly(rng, arity)
        b = _random_poly(rng, arity)
        (tvals, yval) = sample_points(arity, rng.randint(0, 10**6), rounds=1)[0]
        lhs_mul = (a * b).evaluate(tvals, yval)
        rhs_mul = a.evaluate(tvals, yval) * b.evaluate(tvals, yval)
        lhs_add = (a + b).evaluate(tvals, yval)
        rhs_add = a.evaluate(tvals, yval) + b.evaluate(tvals, yval)
        if lhs_mul != rhs_mul or lhs_add != rhs_add:
            return False, "evaluation is not a ring homomorphism"
    return True, "25 random pairs at prime-ratio points"


def _prop_reduce_idempotent(rng: random.Random) -> tuple[bool, str]:
    for _ in range(15):
        arity = rng.randint(1, 2)
        e = _random_ratexpr(rng, arity)
        r = e.reduced()
        rr = r.reduced()
        if (rr.num, rr.den) != (r.num, r.den):
            return False, "reduce is not idempotent"
        if not r.equivalent(e):
            return False, "reduce changed the rational function"
    return True, "15 random expressions: idempotent and value-preserving"


def _prop_y_minus_one_collapse(rng: random.Random) -> tuple[bool, str]:
    for _ in range(6):
        n = rng.randint(2, 6)
        p_class = projective_class("P", n)
        for i, value in p_class.values.items():
            v = value.subs_y(Fraction(-1)).reduced()
            if not (v.den == () and v.num == SparsePoly.constant(v.num.arity, 1)):
                return False, f"P_{n} at p_{i} does not collapse to 1 at y=-1"
        for kind in ("Qc", "Xc"):
            cls = projective_class(kind, n)
            for i, value in cls.values.items():
                on_removed = (kind == "Xc") or (i != 0)
                if not on_removed:
                    continue
                v = value.subs_y(Fraction(-1)).reduced()
                if not v.num.is_zero:
                    return False, f"{kind}_{n} at p_{i} does not vanish at y=-1"
    return True, "P -> 1 everywhere; complements -> 0 on the removed locus (6 random n)"


def _prop_involution_symmetry(rng: random.Random) -> tuple[bool, str]:
    for _ in range(8):
        n = rng.randint(2, 8)
        geo = GeometryConfig(n)
        for i in geo.indices:
            flipped = sorted(w.scaled(-1).coeffs for w in geo.tangent_weights(-i))
            if sorted(w.coeffs for w in geo.tangent_weights(i)) != flipped:
                return False, f"tangent weights at p_{i} (n={n}) break the involution"
    return True, "tangent multisets stable under t -> -t composed with i -> -i (8 random n)"


PROPERTY_CHECKS = (
    ("ring axioms", _prop_ring_axioms),
    ("evaluation homomorphism", _prop_eval_homomorphism),
    ("reduce idempotence", _prop_reduce_idempotent),
    ("y = -1 collapse", _prop_y_minus_one_collapse),
    ("index-involution symmetry", _prop_involution_symmetry),
)


def property_suite(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Run the randomized property checks on a fixed-seed generator each."""
    results = []
    for offset, (name, fn) in enumerate(PROPERTY_CHECKS):
        ok, detail = fn(random.Random(seed + offset))
        results.append((name, ok, detail))
    return results


def _properties(max_n: int, seed: int) -> tuple[bool, str]:
    results = property_suite(seed)
    bad = [name for name, ok, _ in results if not ok]
    if bad:
        return False, f"failed: {', '.join(bad)}"
    return True, "; ".join(f"{name}: {detail}" for name, ok, detail in results)


# -- the table -----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Criterion:
    """One row of the acceptance table.  ``check(max_n, seed)`` returns
    ``(passed, detail)``; calling the row runs the check and times it."""

    number: int
    name: str
    check: Callable[[int, int], tuple[bool, str]]

    @property
    def __name__(self) -> str:
        return f"criterion_{self.number}"

    def __call__(self, max_n: int = 8, seed: int = 0) -> CriterionResult:
        start = time.perf_counter()
        passed, detail = self.check(max_n, seed)
        return CriterionResult(self.number, self.name, passed, detail, (time.perf_counter() - start) * 1000.0)


CRITERIA = (
    Criterion(1, "quadric-complement identity (proj)", _proj_within_budget),
    Criterion(2, "cone-complement identity (con)", _identity("con")),
    Criterion(3, "closed-cone identity (dope)", _identity("dope")),
    Criterion(4, "partial-degeneration identity (remark_k)", _remark_levels),
    Criterion(5, "cone-class recursion vs additivity (expl)", _identity("expl", top=lambda max_n: max_n + 1)),
    Criterion(6, "diagonal closed forms", _identity("closed_form", top=lambda max_n: max_n + 1)),
    Criterion(7, "blowup pushforward consistency", _identity("blowup_consistency", top=lambda max_n: min(6, max_n))),
    Criterion(8, "positivity certificates", _certificates),
    Criterion(9, "CSM limit vs closed family", _csm_limits),
    Criterion(10, "multidegree of the quadric cone", _multidegrees),
    Criterion(11, "y=0 agreement of generic and special fibers", _identity("milnor_div_y")),
    Criterion(12, "chi_y integrals", _genera),
    Criterion(13, "randomized property suite", _properties),
)

#: the documented odd-n failure, checked on its own by the acceptance test
criterion_9 = CRITERIA[8]


def run_all(max_n: int = 8, seed: int = 0) -> list[CriterionResult]:
    """Run all thirteen checks in order (the default bound reproduces the
    canonical ranges)."""
    return [criterion(max_n=max_n, seed=seed) for criterion in CRITERIA]
