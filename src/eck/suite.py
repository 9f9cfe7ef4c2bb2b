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


def _timed(fn):
    start = time.perf_counter()
    passed, detail = fn()
    return passed, detail, (time.perf_counter() - start) * 1000.0


def _verify_range(formula: str, ns, seed: int) -> tuple[bool, str]:
    bad: list[str] = []
    count = 0
    for n in ns:
        report = verify(formula, n, seed=seed)
        count += len(report.per_point)
        if not report.verified:
            bad.append(f"n={n}")
    if bad:
        return False, f"failed at {', '.join(bad)}"
    lo, hi = min(ns), max(ns)
    return True, f"n={lo}..{hi}, {count} pointwise identities"


def criterion_1(max_n: int = 8, seed: int = 0) -> CriterionResult:
    """Complement/closed-quadric identity at every fixed point, both forms,
    with the 60 s budget measured over the whole range."""
    start = time.perf_counter()
    ok, detail = _verify_range("proj", range(2, max_n + 1), seed)
    elapsed = time.perf_counter() - start
    within = elapsed < 60.0
    detail += f"; within 60 s: {within}"
    return CriterionResult(1, "quadric-complement identity (proj)", ok and within, detail, elapsed * 1000.0)


def criterion_2(max_n: int = 8, seed: int = 0) -> CriterionResult:
    ok, detail, ms = _timed(lambda: _verify_range("con", range(2, max_n + 1), seed))
    return CriterionResult(2, "cone-complement identity (con)", ok, detail, ms)


def criterion_3(max_n: int = 8, seed: int = 0) -> CriterionResult:
    ok, detail, ms = _timed(lambda: _verify_range("dope", range(2, max_n + 1), seed))
    return CriterionResult(3, "closed-cone identity (dope)", ok, detail, ms)


def criterion_4(max_n: int = 8, seed: int = 0) -> CriterionResult:
    def run() -> tuple[bool, str]:
        bad: list[str] = []
        total = 0
        for n in range(4, max_n + 1):
            m = n // 2
            for k in range(m):
                report = verify("remark_k", n, k=k, seed=seed)
                total += 1
                if not report.verified:
                    bad.append(f"(n={n}, k={k})")
        if bad:
            return False, f"failed at {', '.join(bad)}"
        return True, (
            f"n=4..{max_n}, all 0 <= k <= m-1 ({total} identities); "
            "k = m-1 coincides with the cone-complement identity (Y* = CCX checked per report)"
        )

    ok, detail, ms = _timed(run)
    return CriterionResult(4, "partial-degeneration identity (remark_k)", ok, detail, ms)


def criterion_5(max_n: int = 8, seed: int = 0) -> CriterionResult:
    ok, detail, ms = _timed(lambda: _verify_range("expl", range(2, max_n + 2), seed))
    return CriterionResult(5, "cone-class recursion vs additivity (expl)", ok, detail, ms)


def criterion_6(max_n: int = 8, seed: int = 0) -> CriterionResult:
    ok, detail, ms = _timed(lambda: _verify_range("closed_form", range(2, max_n + 2), seed))
    return CriterionResult(6, "diagonal closed forms", ok, detail, ms)


def criterion_7(max_n: int = 8, seed: int = 0) -> CriterionResult:
    hi = min(6, max_n)
    ok, detail, ms = _timed(lambda: _verify_range("blowup_consistency", range(2, hi + 1), seed))
    return CriterionResult(7, "blowup pushforward consistency", ok, detail, ms)


def criterion_8(max_n: int = 8, seed: int = 0) -> CriterionResult:
    def run() -> tuple[bool, str]:
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

    ok, detail, ms = _timed(run)
    return CriterionResult(8, "positivity certificates", ok, detail, ms)


def criterion_9(max_n: int = 8, seed: int = 0) -> CriterionResult:
    def run() -> tuple[bool, str]:
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

    ok, detail, ms = _timed(run)
    return CriterionResult(9, "CSM limit vs closed family", ok, detail, ms)


def criterion_10(max_n: int = 8, seed: int = 0) -> CriterionResult:
    def run() -> tuple[bool, str]:
        bad: list[str] = []
        for n in range(2, max_n + 1):
            got = multidegree(diagonalize(affine_class("CQ", n)), n)
            if got != (2, 1 - n):
                bad.append(f"n={n}: {got}")
        if bad:
            return False, f"bottom term wrong at {', '.join(bad)}"
        return True, f"bottom term of CQ_n at y=0 is 2*t^(1-n) for n=2..{max_n}"

    ok, detail, ms = _timed(run)
    return CriterionResult(10, "multidegree of the quadric cone", ok, detail, ms)


def criterion_11(max_n: int = 8, seed: int = 0) -> CriterionResult:
    ok, detail, ms = _timed(lambda: _verify_range("milnor_div_y", range(2, max_n + 1), seed))
    return CriterionResult(11, "y=0 agreement of generic and special fibers", ok, detail, ms)


def criterion_12(max_n: int = 8, seed: int = 0) -> CriterionResult:
    def run() -> tuple[bool, str]:
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

    ok, detail, ms = _timed(run)
    return CriterionResult(12, "chi_y integrals", ok, detail, ms)


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


def criterion_13(max_n: int = 8, seed: int = 0) -> CriterionResult:
    def run() -> tuple[bool, str]:
        results = property_suite(seed)
        bad = [name for name, ok, _ in results if not ok]
        if bad:
            return False, f"failed: {', '.join(bad)}"
        return True, "; ".join(f"{name}: {detail}" for name, ok, detail in results)

    ok, detail, ms = _timed(run)
    return CriterionResult(13, "randomized property suite", ok, detail, ms)


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
    criterion_13,
)


def run_all(max_n: int = 8, seed: int = 0) -> list[CriterionResult]:
    """Run all thirteen checks in order (the default bound reproduces the
    canonical ranges)."""
    return [fn(max_n=max_n, seed=seed) for fn in CRITERIA]
