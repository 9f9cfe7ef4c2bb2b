"""Plain-text and LaTeX rendering plus JSON-ready serialization.

Weights print additively ("t-t1"), monomials multiplicatively ("T*T1^-1").
Each object has one renderer, driven by a :class:`_Style` that fixes how
its format writes products, indexed variables, exponents and fractions;
``str`` of the kernel's polynomials and rational expressions comes from
here too.  Everything here is presentation only: no arithmetic, no
normalization.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .algebra import Character, RatExpr, SparsePoly


class _Style(NamedTuple):
    """The conventions of one output format."""

    times: str  # between the variables of a monomial
    cdot: str  # between larger factors: h-factors, S-variables
    sub: str  # an indexed variable, from (name, index)
    sup: str  # an exponent
    paren: str  # the brackets of a denominator factor
    group: str  # a sum standing as a numerator
    frac: str  # numerator over denominator
    delta: str
    svar: str  # an S-variable, from its weight

    def var(self, name: str, i: int) -> str:
        return name if i == 0 else self.sub.format(name, i)

    def power(self, base: str, e: int) -> str:
        return base if e == 1 else base + self.sup.format(e)


_TEXT = _Style("*", "*", "{}{}", "^{}", "({})", "({})", "{} / {}", "delta", "S({})")
_LATEX = _Style(
    " ", r" \, ", "{}_{{{}}}", "^{{{}}}", r"\left({}\right)", "{}", r"\frac{{{}}}{{{}}}", r"\delta", "S_{{{}}}"
)


def signed_join(terms: Iterable[str]) -> str:
    """Join rendered terms into a sum, turning a leading ``-`` into a minus
    sign; the empty sum is ``0``.

    >>> signed_join(["y", "-2*T", "1"])
    'y - 2*T + 1'
    """
    parts: list[str] = []
    for s in terms:
        if not parts:
            parts.append(s)
        elif s.startswith("-"):
            parts.append(f"- {s[1:]}")
        else:
            parts.append(f"+ {s}")
    return " ".join(parts) if parts else "0"


def _term(c, factors: Sequence[str], sep: str) -> str:
    """The coefficient ``c`` times the product of ``factors``."""
    body = sep.join(factors)
    if not body:
        return str(c)
    if c == 1:
        return body
    if c == -1:
        return f"-{body}"
    return f"{c}{sep}{body}"


def _powers(exponents: Sequence[int], style: _Style) -> list[str]:
    return [style.power(style.var("T", i), e) for i, e in enumerate(exponents) if e]


# -- weights and monomials ----------------------------------------------------


def _weight(w: Character, style: _Style) -> str:
    terms = [_term(e, [style.var("t", i)], "") for i, e in enumerate(w.coeffs) if e]
    return "".join(t if i == 0 or t.startswith("-") else f"+{t}" for i, t in enumerate(terms)) or "0"


def weight_text(w: Character) -> str:
    """Additive form of a lattice character.

    >>> weight_text(Character((1, -1)))
    't-t1'
    >>> weight_text(Character((0, 2)))
    '2t1'
    """
    return _weight(w, _TEXT)


def _monomial(w: Character, style: _Style) -> str:
    return style.times.join(_powers(w.coeffs, style)) or "1"


# -- polynomials and rational expressions -----------------------------------


def _poly_term(key: tuple[int, ...], c, style: _Style) -> str:
    """The term ``c * y^key[0] * T^key[1:]`` of a flat exponent key."""
    factors = [style.power("y", key[0])] if key[0] else []
    return _term(c, factors + _powers(key[1:], style), style.times)


def _poly(p: SparsePoly, style: _Style) -> str:
    return signed_join(_poly_term(key, c, style) for key, c in p.sorted_terms())


def poly_text(p: SparsePoly) -> str:
    """A sparse Laurent polynomial in y and the T-variables, terms in the
    kernel's canonical order; this is ``str(p)``."""
    return _poly(p, _TEXT)


def _den(den: Sequence[Character], style: _Style) -> str:
    """The factored denominator, equal factors as one power; ``den`` is
    stored sorted, so the factors keep its order."""
    return " ".join(style.power(style.paren.format(f"1 - {_monomial(w, style)}"), k) for w, k in Counter(den).items())


def _ratexpr(e: RatExpr, style: _Style) -> str:
    num = _poly(e.num, style)
    if not e.den:
        return num
    if len(e.num.terms) > 1:
        num = style.group.format(num)
    return style.frac.format(num, _den(e.den, style))


def ratexpr_text(e: RatExpr) -> str:
    """Numerator over the factored denominator; this is ``str(e)``."""
    return _ratexpr(e, _TEXT)


def ratexpr_latex(e: RatExpr) -> str:
    """Expanded LaTeX: numerator over the factored denominator."""
    return _ratexpr(e, _LATEX)


def ratexpr_dict(e: RatExpr) -> dict:
    """JSON-ready form: numerator string plus denominator weight list."""
    return {"num": poly_text(e.num), "den": [weight_text(w) for w in e.den]}


def _tpoly(coeffs: Sequence[int], style: _Style) -> str:
    return signed_join(_term(c, [style.power("t", e)] if e else [], "") for e, c in enumerate(coeffs) if c)


def tpoly_text(coeffs: Sequence[int]) -> str:
    """A polynomial in t from its coefficient tuple (constant term first).

    >>> tpoly_text((1, 2, 2))
    '1 + 2t + 2t^2'
    >>> tpoly_text((1, 0, 1))
    '1 + t^2'
    """
    return _tpoly(coeffs, _TEXT)


def tpoly_latex(coeffs: Sequence[int]) -> str:
    """
    >>> tpoly_latex((1, 2, 2, 0, 1))
    '1 + 2t + 2t^{2} + t^{4}'
    """
    return _tpoly(coeffs, _LATEX)


# -- recipes (unexpanded h-factor products) ---------------------------------


def _recipe_term(c: int, ypow: int, factors, style: _Style) -> str:
    pieces: list[str] = []
    if ypow and c == (-1) ** (ypow % 2):
        pieces.append(f"(-y)^{ypow}" if ypow > 1 else "(-y)")
        c = 1
    elif ypow:
        pieces.append(f"y^{ypow}" if ypow > 1 else "y")
    for w, minus_one in factors:
        h = f"h({_monomial(w, style)})"
        pieces.append(f"({h} - 1)" if minus_one else h)
    return _term(c, pieces, style.cdot)


def _recipe(recipes, style: _Style) -> str:
    return signed_join(_recipe_term(c, ypow, factors, style) for c, ypow, factors in recipes)


def recipe_text(recipes) -> str:
    """Sum of unexpanded h-factor products, as stored on a class.

    >>> from .hirzebruch import affine_class
    >>> recipe_text(affine_class("CCX", 2).recipes)
    '(h(T*T1) - 1)*(h(T*T1^-1) - 1)'
    """
    return _recipe(recipes, _TEXT)


def recipe_latex(recipes) -> str:
    return _recipe(recipes, _LATEX)


# -- delta/S positive forms --------------------------------------------------


def _spoly_term_order(item):
    key, _ = item
    return (sum(key), -key[0], key[1:])


def _spoly(sp, style: _Style) -> str:
    """Numerator over the product of S-variables, graded order (total degree,
    then delta-power descending)."""
    names = [style.svar.format(_weight(w, style)) for w in sp.weights]

    def term(key, c) -> str:
        factors = [style.power(style.delta, key[0])] if key[0] else []
        factors += [style.power(name, e) for name, e in zip(names, key[1:]) if e]
        return _term(c, factors, style.cdot)

    num = signed_join(term(key, c) for key, c in sorted(sp.terms.items(), key=_spoly_term_order))
    if not sp.den:
        return num
    den = " ".join(style.svar.format(_weight(w, style)) for w in sp.den)
    return style.frac.format(style.group.format(num), den)


def spoly_text(sp) -> str:
    return _spoly(sp, _TEXT)


def spoly_latex(sp) -> str:
    return _spoly(sp, _LATEX)


_LATEX_SPECIALS = str.maketrans(
    {
        "\\": r"\textbackslash{}",
        "{": r"\{",
        "}": r"\}",
        "$": r"\$",
        "&": r"\&",
        "#": r"\#",
        "_": r"\_",
        "%": r"\%",
        "^": r"\textasciicircum{}",
        "~": r"\textasciitilde{}",
    }
)


def latex_escape(text: str) -> str:
    r"""Plain text made safe to typeset: LaTeX's ten special characters are
    escaped in one pass.

    >>> print(latex_escape("p_1 differs at T=(2/3), y=-3/4: 1/2 != 3/5 & 50%"))
    p\_1 differs at T=(2/3), y=-3/4: 1/2 != 3/5 \& 50\%
    """
    return text.translate(_LATEX_SPECIALS)


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
