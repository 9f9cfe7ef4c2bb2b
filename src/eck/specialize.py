"""Specializations of the cone classes: diagonal restriction (t_i -> 0),
truncated bivariate series, the CSM limit, and multidegree extraction.
Both act on the diagonalized class, in the one variable ``T``:

* the CSM limit substitutes ``y = u - 1`` and ``T = e^{-u t}`` in (Laurent)
  bivariate series in ``u`` and ``t``, and takes the ``u^0`` row
  (``u -> 0``), after checking that all negative-``u`` rows cancel.  The
  series are exact through a tracked truncation order: every arithmetic
  operation propagates the order through valuations, so a coefficient
  below the order bound is exact, never an approximation;
* the multidegree substitutes a fixed ``y`` (0 by default) and ``T = e^{-t}``
  and reads off the bottom term exactly, with no series and no truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod
from typing import Mapping

from .algebra import Character, Coeff, RatExpr, _add_into, _norm
from .hirzebruch import LocalClass

_BIG = 10**9


class TruncationTooLow(ValueError):
    """The requested truncation order cannot represent the result."""


class NonvanishingNegativeUPart(ArithmeticError):
    """The y -> -1 limit does not exist: a negative power of u survived."""


class ZeroClass(ArithmeticError):
    """No bottom term: the class is zero."""


def _totdeg(key: tuple[int, int]) -> int:
    return key[0] + key[1]


@dataclass(frozen=True, slots=True)
class BiSeries:
    """Truncated Laurent series in (u, t): ``terms[(a, b)]`` is the exact
    coefficient of ``u^a t^b``; every term with total degree < ``order`` is
    stored, so the series is exact through total degree ``order - 1``."""

    terms: Mapping[tuple[int, int], Coeff]
    order: int

    @classmethod
    def make(cls, terms: Mapping[tuple[int, int], Coeff], order: int) -> BiSeries:
        kept = {k: _norm(c) for k, c in terms.items() if c != 0 and _totdeg(k) < order}
        return cls(kept, order)

    @classmethod
    def zero(cls, order: int) -> BiSeries:
        return cls({}, order)

    @classmethod
    def one(cls, order: int) -> BiSeries:
        return cls.make({(0, 0): 1}, order)

    def valuation(self) -> int:
        return min((_totdeg(k) for k in self.terms), default=_BIG)

    def __add__(self, other: BiSeries) -> BiSeries:
        order = min(self.order, other.order)
        out = dict(self.terms)
        _add_into(out, other.terms)
        return BiSeries.make(out, order)

    def __neg__(self) -> BiSeries:
        return BiSeries({k: -c for k, c in self.terms.items()}, self.order)

    def __sub__(self, other: BiSeries) -> BiSeries:
        return self + (-other)

    def __mul__(self, other: BiSeries) -> BiSeries:
        order = min(self.order + other.valuation(), other.order + self.valuation())
        order = min(order, _BIG)
        out: dict = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                if _totdeg(k) >= order:
                    continue
                nc = out.get(k, 0) + c1 * c2
                if nc:
                    out[k] = nc
                else:
                    del out[k]
        return BiSeries.make(out, order)

    def scaled(self, c: Coeff) -> BiSeries:
        if c == 0:
            return BiSeries.zero(self.order)
        return BiSeries({k: _norm(v * c) for k, v in self.terms.items()}, self.order)

    def inverse(self) -> BiSeries:
        """Invert a series whose lowest-total-degree part is one monomial.

        Exactness drops by twice the leading valuation (factor out the
        leading monomial, then a geometric series in the positive-degree
        remainder)."""
        if not self.terms:
            raise ZeroDivisionError("inverse of the zero series")
        v = self.valuation()
        leads = [k for k in self.terms if _totdeg(k) == v]
        if len(leads) != 1:
            raise ValueError("leading part is not a single monomial")
        la, lb = leads[0]
        lc = self.terms[(la, lb)]
        rem_order = self.order - v
        neg = BiSeries.make(
            {(a - la, b - lb): _norm(Fraction(-c, 1) / lc) for (a, b), c in self.terms.items() if (a, b) != (la, lb)},
            rem_order,
        )
        acc = BiSeries.one(rem_order)
        power = BiSeries.one(rem_order)
        while power.terms:
            power = BiSeries.make((power * neg).terms, rem_order)
            acc = acc + power
        shifted = {(a - la, b - lb): _norm(Fraction(c, 1) / lc) for (a, b), c in acc.terms.items()}
        return BiSeries.make(shifted, rem_order - v)

    def u_coefficients(self, a: int) -> dict[int, Coeff]:
        """The row of t-coefficients of ``u^a``."""
        return {b: c for (ua, b), c in self.terms.items() if ua == a}


def exp_ut(c: int, order: int) -> BiSeries:
    """``exp(c * u * t)`` through the truncation order."""
    terms: dict = {}
    r = 0
    while 2 * r < order:
        terms[(r, r)] = Fraction(c**r, factorial(r))
        r += 1
    return BiSeries.make(terms, order)


def _char_exponent(w: Character) -> int:
    """The single exponent k of a diagonal character (T^w = T^k)."""
    if w.arity != 1:
        raise ValueError("series expansion expects a diagonalized (single-variable) expression")
    return w.coeffs[0]


def _csm_series(expr: RatExpr, order: int) -> BiSeries:
    """Expand ``expr`` (in T, y) under ``y = u - 1``, ``T = e^{-u t}``."""
    num = BiSeries.zero(order)
    for mono, c in expr.num.sorted_terms():
        k = _char_exponent(mono.char)
        part = exp_ut(-k, order).scaled(c)
        # (u - 1)^ypow, expanded exactly
        if mono.ypow:
            u_poly = BiSeries.make(
                {(i, 0): comb(mono.ypow, i) * (-1) ** (mono.ypow - i) for i in range(mono.ypow + 1)},
                order,
            )
            part = part * u_poly
        num = num + part
    den = BiSeries.one(order)
    for w in expr.den:
        k = _char_exponent(w)
        den = den * (BiSeries.one(order) - exp_ut(-k, order))
    return num * den.inverse()


def csm(diag: RatExpr, n: int, order: int | None = None) -> tuple[Coeff, ...]:
    """CSM class of a cone (complement) from its diagonalized class.

    Substitutes ``y = u - 1`` and ``T = e^{-ut}``, takes the ``u^0`` row
    (the limit ``y -> -1``), and multiplies by the Euler class ``t^n`` of
    the origin.  Returns the coefficient tuple ``(c_0, ..., c_d)`` of the
    resulting polynomial in t.

    The default truncation order is ``n + 4``; orders below ``n + 2`` leave
    no guard terms and are rejected.
    """
    if order is None:
        order = n + 4
    if order < n + 2:
        raise TruncationTooLow(f"truncation order {order} < n + 2 = {n + 2}")
    guard = order - n
    work = guard + 1 + 4 * len(diag.den) + 2
    series = _csm_series(diag, work)
    if series.order <= guard:
        raise TruncationTooLow(
            f"working precision {series.order} did not reach the guard zone {guard}"
        )
    for (a, b), c in sorted(series.terms.items()):
        if a < 0:
            raise NonvanishingNegativeUPart(f"u^{a} t^{b} survives with coefficient {c}")
    row = series.u_coefficients(0)
    for b, c in sorted(row.items()):
        if b > 0:
            raise TruncationTooLow(f"guard coefficient t^{b} = {c} is nonzero after scaling by t^{n}")
    coeffs = [0] * (n + 1)
    for b, c in row.items():
        if b <= 0:
            coeffs[b + n] = c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def multidegree(diag: RatExpr, n: int, y: Coeff = 0) -> tuple[Coeff, int]:
    """Bottom term of the diagonalized class under ``T = e^{-t}`` at a fixed
    ``y`` (0 by default, where the bottom term is the equivariant
    fundamental class divided by ``eu(0) = t^n``).

    Returns ``(coefficient, degree)``; for the quadratic cone at y = 0 this
    is ``(2, 1 - n)``.  Exact, with no series: each ``1 - e^{-kt}`` starts
    with ``kt``, so the bottom term is the first nonzero
    ``a_j = sum c (-k)^j / j!`` of the numerator ``sum c e^{-kt}`` over
    ``prod k``, in degree ``j - len(den)``; with distinct ``k``, only the
    zero sum has ``a_j = 0`` for all ``j < #terms`` (Vandermonde).
    """
    fixed = diag.subs_y(y)
    terms = [(_char_exponent(mono.char), c) for mono, c in fixed.num.sorted_terms()]
    scale = prod(_char_exponent(w) for w in fixed.den)
    for j in range(len(terms)):
        a = sum(Fraction(c) * (-k) ** j for k, c in terms)
        if a:
            return (_norm(a / (factorial(j) * scale)), j - len(fixed.den))
    raise ZeroClass("the class is zero")


def diagonalize(cls: LocalClass) -> RatExpr:
    """Restrict an affine (cone) class to the diagonal circle: the lattice
    map ``t_i -> 0`` onto the single-variable lattice spanned by ``t``.

    >>> from .hirzebruch import affine_class
    >>> diagonalize(affine_class("CCX", 2))
    (T^2 + 2*y*T^2 + y^2*T^2) / (1 - T)^2
    """
    if cls.is_projective:
        raise ValueError("the diagonal specialization applies to affine (cone) classes")
    arity = cls.geometry.arity
    images = [Character.basis(1, 0)] + [Character.zero(1)] * (arity - 1)
    return cls.at_origin.apply_map(images).reduced()


def csm_closed_family(n: int) -> tuple[int, ...]:
    """The displayed CSM polynomials:
    ``sum_{i=0}^{m-1} t^{2i} (1+t)^{2(m-i-1)}`` for n = 2m, plus ``t^{2m}``
    when n = 2m + 1.

    For even ``n`` this is the CSM polynomial of the quadric-cone complement
    ``CCQ_n``.  For odd ``n`` it is not: it misses the linear coefficient
    ``n - 2`` that the cone's multidegree forces.  ``csm_both`` reports both
    values side by side.

    >>> csm_closed_family(4)
    (1, 2, 2)
    >>> csm_closed_family(5)
    (1, 2, 2, 0, 1)
    """
    m = n // 2
    coeffs: dict[int, int] = {}
    for i in range(m):
        for j in range(2 * (m - i - 1) + 1):
            e = 2 * i + j
            coeffs[e] = coeffs.get(e, 0) + comb(2 * (m - i - 1), j)
    if n % 2:
        coeffs[2 * m] = coeffs.get(2 * m, 0) + 1
    top = max(coeffs)
    return tuple(coeffs.get(e, 0) for e in range(top + 1))


def csm_both(n: int) -> dict:
    """CSM limits of both cone complements (the quadric cone and the
    hyperplane-pair cone), against the closed family of polynomials.

    The family matches the quadric-cone complement for even ``n``; the
    hyperplane-pair complement comes out as ``(1 + t)^{n-2}`` and agrees
    only at ``n = 2``.  For odd ``n`` the family matches neither limit:
    the quadric-cone complement's limit is
    ``t^{2m} + sum_{i=0}^{m-1} t^{2i} (1+t)^{2(m-i)-1}``
    (the exponent ``2(m-i)-1`` where the family has ``2(m-i-1)``), which
    is also forced by the cone's fundamental class ``2t``.  The report
    states which one agrees rather than asserting either.
    """
    from .hirzebruch import affine_class

    family = csm_closed_family(n)
    ccq = csm(diagonalize(affine_class("CCQ", n)), n)
    ccx = csm(diagonalize(affine_class("CCX", n)), n)
    matches = [kind for kind, got in (("CCQ", ccq), ("CCX", ccx)) if got == family]
    return {"CCQ": ccq, "CCX": ccx, "family": family, "matches_family": matches}
