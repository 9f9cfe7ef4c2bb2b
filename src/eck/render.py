"""Plain-text and LaTeX rendering plus JSON-ready serialization.

Weights print additively ("t-t1"), monomials multiplicatively ("T*T1^-1"),
matching the conventions of the algebra kernel's own ``str``.  Everything
here is presentation only: no arithmetic, no normalization.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import Character, RatExpr, SparsePoly, _char_str, signed_join


# -- weights ----------------------------------------------------------------


def _weight_parts(w: Character, latex: bool) -> str:
    parts: list[str] = []
    for i, e in enumerate(w.coeffs):
        if e == 0:
            continue
        if i == 0:
            name = "t"
        elif latex:
            name = "t_{%d}" % i
        else:
            name = f"t{i}"
        mag = "" if abs(e) == 1 else str(abs(e))
        if not parts:
            sign = "-" if e < 0 else ""
        else:
            sign = "-" if e < 0 else "+"
        parts.append(f"{sign}{mag}{name}")
    return "".join(parts) if parts else "0"


def weight_text(w: Character) -> str:
    """Additive form of a lattice character.

    >>> weight_text(Character((1, -1)))
    't-t1'
    >>> weight_text(Character((0, 2)))
    '2t1'
    """
    return _weight_parts(w, latex=False)


def weight_latex(w: Character) -> str:
    """LaTeX additive form, subscripted variables.

    >>> weight_latex(Character((1, 0, -1)))
    't-t_{2}'
    """
    return _weight_parts(w, latex=True)


def monomial_text(w: Character) -> str:
    """Multiplicative form ``T^w`` in the T-variables.

    >>> monomial_text(Character((1, -1)))
    'T*T1^-1'
    >>> monomial_text(Character((0, 0)))
    '1'
    """
    return _char_str(w) or "1"


def monomial_latex(w: Character) -> str:
    """
    >>> monomial_latex(Character((2, -1)))
    'T^{2} T_{1}^{-1}'
    """
    parts = []
    for i, e in enumerate(w.coeffs):
        if e == 0:
            continue
        name = "T" if i == 0 else f"T_{{{i}}}"
        parts.append(name if e == 1 else f"{name}^{{{e}}}")
    return " ".join(parts) if parts else "1"


# -- polynomials and rational expressions -----------------------------------


def poly_latex(p: SparsePoly) -> str:
    """LaTeX form of a sparse Laurent polynomial in y and the T-variables."""
    return signed_join(_poly_term_latex(m.ypow, m.char, c) for m, c in p.sorted_terms())


def _poly_term_latex(ypow: int, char: Character, c) -> str:
    factors: list[str] = []
    if ypow:
        factors.append("y" if ypow == 1 else f"y^{{{ypow}}}")
    if any(char.coeffs):
        factors.append(monomial_latex(char))
    body = " ".join(factors)
    if not body:
        body = str(abs(c))
    elif abs(c) != 1:
        body = f"{abs(c)} {body}"
    return f"-{body}" if c < 0 else body


def ratexpr_latex(e: RatExpr) -> str:
    """Expanded LaTeX: numerator over the factored denominator."""
    num = poly_latex(e.num)
    if not e.den:
        return num
    den = " ".join(_den_factor_latex(e) for e in _den_multiset(e.den))
    return rf"\frac{{{num}}}{{{den}}}"


def _den_multiset(den: Sequence[Character]) -> list[tuple[Character, int]]:
    out: list[tuple[Character, int]] = []
    for w in den:
        if out and out[-1][0] == w:
            out[-1] = (w, out[-1][1] + 1)
        else:
            out.append((w, 1))
    return out


def _den_factor_latex(pair: tuple[Character, int]) -> str:
    w, e = pair
    base = rf"\left(1 - {monomial_latex(w)}\right)"
    return base if e == 1 else f"{base}^{{{e}}}"


def ratexpr_dict(e: RatExpr) -> dict:
    """JSON-ready form: numerator string plus denominator weight list."""
    return {"num": str(e.num), "den": [weight_text(w) for w in e.den]}


def ypoly_text(p: SparsePoly) -> str:
    """A y-only polynomial, e.g. a chi_y genus.

    >>> ypoly_text(SparsePoly.constant(1, 1) - SparsePoly.y_power(1))
    '1 - y'
    """
    if not p.is_y_only():
        raise ValueError("polynomial still depends on T-variables")
    return str(p)


def tpoly_text(coeffs: Sequence[int]) -> str:
    """A polynomial in t from its coefficient tuple (constant term first).

    >>> tpoly_text((1, 2, 2))
    '1 + 2t + 2t^2'
    >>> tpoly_text((1, 0, 1))
    '1 + t^2'
    """
    return _tpoly(coeffs, tick="t^", one="t")


def tpoly_latex(coeffs: Sequence[int]) -> str:
    """
    >>> tpoly_latex((1, 2, 2, 0, 1))
    '1 + 2t + 2t^{2} + t^{4}'
    """
    return _tpoly(coeffs, tick="t^{", one="t", close="}")


def _tpoly(coeffs: Sequence[int], tick: str, one: str, close: str = "") -> str:
    def term(e: int, c: int) -> str:
        if e == 0:
            body = str(abs(c))
        else:
            var = one if e == 1 else f"{tick}{e}{close}"
            body = var if abs(c) == 1 else f"{abs(c)}{var}"
        return f"-{body}" if c < 0 else body

    return signed_join(term(e, c) for e, c in enumerate(coeffs) if c)


# -- recipes (unexpanded h-factor products) ---------------------------------


def _recipe_term(c: int, ypow: int, factors, arg, hname: str, times: str) -> str:
    pieces: list[str] = []
    if ypow and c == (-1) ** (ypow % 2):
        pieces.append(f"(-y)^{ypow}" if ypow > 1 else "(-y)")
        sign = ""
    else:
        sign = "-" if c < 0 else ""
        if abs(c) != 1:
            pieces.append(str(abs(c)))
        if ypow:
            pieces.append("y" if ypow == 1 else f"y^{ypow}")
    for w, minus_one in factors:
        f = f"{hname}({arg(w)})"
        pieces.append(f"({f} - 1)" if minus_one else f)
    if not pieces:
        pieces.append("1")
    return sign + times.join(pieces)


def recipe_text(recipes) -> str:
    """Sum of unexpanded h-factor products, as stored on a class.

    >>> from .hirzebruch import affine_class
    >>> recipe_text(affine_class("CCX", 2).recipes)
    '(h(T*T1) - 1)*(h(T*T1^-1) - 1)'
    """
    return signed_join(_recipe_term(c, ypow, factors, monomial_text, "h", "*") for c, ypow, factors in recipes)


def recipe_latex(recipes) -> str:
    return signed_join(_recipe_term(c, ypow, factors, monomial_latex, "h", r" \, ") for c, ypow, factors in recipes)


# -- delta/S positive forms --------------------------------------------------


def _spoly_term_order(item):
    key, _ = item
    return (sum(key), -key[0], key[1:])


def _spoly_term(key, c, names: Sequence[str], power) -> str:
    factors: list[str] = []
    if key[0]:
        factors.append("delta" if key[0] == 1 else f"delta{power(key[0])}")
    for name, e in zip(names, key[1:]):
        if e:
            factors.append(name if e == 1 else f"{name}{power(e)}")
    if not factors:
        return str(c)
    body = "*".join(factors)
    if c == 1:
        return body
    if c == -1:
        return f"-{body}"
    return f"{c}*{body}"


def spoly_text(sp) -> str:
    """Numerator over the product of S-variables, graded order (total degree,
    then delta-power descending)."""
    names = [f"S({weight_text(w)})" for w in sp.weights]
    num = signed_join(
        _spoly_term(key, c, names, lambda e: f"^{e}") for key, c in sorted(sp.terms.items(), key=_spoly_term_order)
    )
    if not sp.den:
        return num
    den = " ".join(f"S({weight_text(w)})" for w in sp.den)
    return f"({num}) / {den}"


def spoly_latex(sp) -> str:
    names = [rf"S_{{{weight_latex(w)}}}" for w in sp.weights]
    num = signed_join(
        _spoly_term(key, c, names, lambda e: f"^{{{e}}}").replace("delta", r"\delta").replace("*", r" \, ")
        for key, c in sorted(sp.terms.items(), key=_spoly_term_order)
    )
    if not sp.den:
        return num
    den = " ".join(rf"S_{{{weight_latex(w)}}}" for w in sp.den)
    return rf"\frac{{{num}}}{{{den}}}"


# -- reports and certificates ------------------------------------------------


def report_dict(report, timings: bool = False) -> dict:
    """JSON-ready verification report; timing only on request so identical
    invocations stay byte-identical."""
    out = {
        "formula": report.formula,
        "n": report.n,
        "verified": report.verified,
        "per_point": [[label, ok] for label, ok in report.per_point],
    }
    if report.k is not None:
        out["k"] = report.k
    if report.note:
        out["note"] = report.note
    if timings:
        out["timing_ms"] = report.timing_ms
    return out


def certificate_dict(cert) -> dict:
    kind, n = cert.subject
    out = {
        "kind": kind,
        "n": n,
        "nonnegative": cert.nonnegative,
        "roundtrip_ok": cert.roundtrip_ok,
        "terms": len(cert.spoly.terms),
    }
    if cert.witness is not None:
        key, c = cert.witness
        out["witness"] = {"exponents": list(key), "coefficient": str(c)}
    if cert.roundtrip_note:
        out["roundtrip_note"] = cert.roundtrip_note
    return out
