"""Nonnegativity certificates in the variables delta = -1 - y and
S_w = T^w - 1 (one S-variable per weight w of the C^n representation).

In these variables the two per-weight building blocks become

    h(T^w)     = (S_w + delta*(S_w + 1)) / S_w
    h(T^w) - 1 = delta*(S_w + 1) / S_w

so every class assembled from them is a polynomial in delta and the S_w
divided by the product of the S_w.  The certificates are built structurally,
factor by factor — never by generic inversion, which would be ill-posed
because the ambient weights are linearly dependent — and then every
coefficient is scanned.  A certificate is only accepted together with an
exact round trip: substituting S_w = T^w - 1, delta = -1 - y must reproduce
the original class as a rational function.

Every block (``1 + delta``, h, h - 1, a lift ``S_w``) has at most three
monomials, so the forms are built by shift-and-add on flat exponent keys
with the class-assembly steps of :mod:`eck.algebra`; no two general
polynomials are multiplied.

* CCQ (and any other class recipe): :func:`recipe_form` translates each
  recipe term c * y^k * prod(h or h - 1) into c * (-1)^k * (1 + delta)^k
  times the numerators of its blocks, lifted by the S_w of the weights its
  factors leave out, so all terms share the denominator prod S_w.
* CQ: the recursion CQ_n = (1+delta)*CQ_{n-2}
  + C^{n-2} * delta*(T^2 - 1)/(S_{t+t_m} S_{t-t_m}), where T^2 - 1 is
  rewritten through ambient weights: (S_t + 1)^2 - 1 = S_t^2 + 2 S_t when
  the zero coordinate exists (odd n), else
  (S_{t+t_m}+1)(S_{t-t_m}+1) - 1 = S_a S_b + S_a + S_b; C^{n-2} times it
  is delta * (p * prod (1 + S) - p), p the numerator of C^{n-2}.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Iterable, Mapping, Sequence

from .algebra import (
    Character,
    Coeff,
    Flat,
    PackedBox,
    RatExpr,
    SparsePoly,
    _add_into,
    _norm,
    _shifted,
    _times_binomial,
    _times_two_monomials,
    weight_box,
)
from .hirzebruch import ProductTerm, affine_class
from .torus import GeometryConfig, ambient_weights

SKey = tuple[int, ...]  # (delta exponent, S-exponent per weight)


class StructuralRewriteFailed(ArithmeticError):
    """A monomial T^v was not a nonnegative combination of ambient weights."""


@dataclass(frozen=True, slots=True)
class SPolynomial:
    """Exact polynomial in delta and the S-variables over a simple
    denominator ``prod S_w``.

    ``weights`` fixes the S-variable order; term keys are exponent vectors
    ``(delta, S_1, ..., S_len(weights))``; ``den`` is the multiset of
    weights whose S-variables divide the expression.
    """

    weights: tuple[Character, ...]
    terms: Mapping[SKey, Coeff]
    den: tuple[Character, ...] = ()

    def __post_init__(self) -> None:
        width = 1 + len(self.weights)
        for key, c in self.terms.items():
            if len(key) != width:
                raise ValueError(f"exponent vector {key} has width != {width}")
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in numerator term {key}")
            if c == 0:
                raise ValueError("zero coefficient stored")

    def sorted_terms(self) -> list[tuple[SKey, Coeff]]:
        return sorted(self.terms.items())

    def negative_terms(self) -> list[tuple[SKey, Coeff]]:
        return [(k, c) for k, c in self.sorted_terms() if c < 0]

    def to_ratexpr(self, arity: int | None = None) -> RatExpr:
        """Back-substitute S_w = T^w - 1 and delta = -1 - y.

        The denominator ``prod S_w = prod (T^w - 1)`` contributes a sign
        (-1)^len(den) against the stored form ``prod (1 - T^w)``.
        """
        if arity is None:
            if not self.weights and not self.den:
                raise ValueError("arity needed for a weight-free polynomial")
            arity = (self.weights + self.den)[0].arity
        delta = SparsePoly.constant(arity, -1) - SparsePoly.y_power(arity)
        bases = [delta] + [SparsePoly.monomial(w, 0, 1) - 1 for w in self.weights]
        rows = []  # rows[i][e] = bases[i]^e, one product per entry
        for i, base in enumerate(bases):
            row = [SparsePoly.one(arity)]
            for _ in range(max((key[i] for key in self.terms), default=0)):
                row.append(row[-1] * base)
            rows.append(row)
        num: Flat = {}
        for key, c in self.terms.items():
            part = SparsePoly.constant(arity, c)
            for row, e in zip(rows, key):
                if e:
                    part = part * row[e]
            _add_into(num, part.terms)
        sign = -1 if len(self.den) % 2 else 1
        return RatExpr(SparsePoly(arity, {k: _norm(sign * c) for k, c in num.items()}), self.den)

    def to_ratexpr_horner(self, arity: int) -> RatExpr:
        """The back-substitution of :meth:`to_ratexpr`, nested by Horner's
        rule over the exponent vectors in the packed ring of
        :class:`~eck.algebra.PackedBox`, so no power of a variable is ever
        expanded.

        A term ``c delta^a prod S_w^e`` equals ``c (-1)^(a + sum e)
        (1 + y)^a prod (1 - T^w)^e``, so after that sign (and the sign
        ``(-1)^len(den)`` of :meth:`to_ratexpr`) each Horner step is a key
        shift and an addition (``1 + y``) or a subtraction (``1 - T^w``).
        The box is each S-variable's largest exponent times
        ``[min(0, w), max(0, w)]``, and ``ystride`` is 1 + the largest delta
        exponent; every term of the result lies in it.  Packing is a ring
        homomorphism that is injective on the box, so unpacking the packed
        result gives the numerator exactly: the same terms as
        :meth:`to_ratexpr`, with integral coefficients as ints.

        >>> print(to_positive_form("CQ", 2).to_ratexpr_horner(2))
        (1 - T^2 + y*T*T1^-1 + y*T*T1 - 2*y*T^2) / (1 - T*T1^-1) (1 - T*T1)
        """
        if not self.terms:
            return RatExpr(SparsePoly.zero(arity), self.den)
        tops = [max(e) for e in zip(*self.terms)]
        box = PackedBox(
            *weight_box((w for w, e in zip(self.weights, tops[1:]) for _ in range(e)), arity),
            1 + tops[0],
        )
        steps = [(1, 1)] + [(box.key(w.coeffs), -1) for w in self.weights]
        parity = len(self.den)

        def nest(terms: list[tuple[SKey, Coeff]], j: int) -> dict[int, Coeff]:
            # every key in ``terms`` agrees on the exponents before index j
            if len(terms) == 1:
                ((key, c),) = terms
                out = {0: -c if (sum(key) + parity) % 2 else c}
                for (step, sign), e in zip(steps[j:], key[j:]):
                    for _ in range(e):
                        out = _times_binomial(out, step, sign)
                return out
            groups: dict[int, list] = {}
            for key, c in terms:
                groups.setdefault(key[j], []).append((key, c))
            step, sign = steps[j]
            out: dict[int, Coeff] = {}
            for e in range(max(groups), -1, -1):
                if out:
                    out = _times_binomial(out, step, sign)
                if e in groups:
                    _add_into(out, nest(groups[e], j + 1))
            return out

        return RatExpr(box.unpack(nest(list(self.terms.items()), 0)), self.den)

    def __str__(self) -> str:
        from .render import spoly_text

        return spoly_text(self)

    __repr__ = __str__


@dataclass(frozen=True, slots=True)
class Certificate:
    """Nonnegativity verdict for one positive form, with round-trip proof.

    ``witness`` is the lexicographically first negative term (exponent
    vector, coefficient) when the verdict fails; ``roundtrip_ok`` records
    whether back-substitution reproduced the reference class exactly, and
    ``roundtrip_note`` where the two first differ when it did not.
    """

    subject: tuple[str, int]
    spoly: SPolynomial
    nonnegative: bool
    witness: tuple[SKey, Coeff] | None
    roundtrip_ok: bool
    roundtrip_note: str = ""


def _s_key(weights: Sequence[Character], *ws: Character) -> SKey:
    """The exponent key of ``prod S_w`` over ``ws`` (the unit key for none)."""
    key = [0] * (1 + len(weights))
    for w in ws:
        if w not in weights:
            raise StructuralRewriteFailed(f"weight {w.coeffs} is not an ambient S-variable")
        key[1 + weights.index(w)] += 1
    return tuple(key)


def _times_block(part: Flat, delta: SKey, s: SKey, minus_one: bool) -> Flat:
    """``part`` times the numerator over S_w of h (``delta + S_w + delta*S_w``)
    or of h - 1 (``delta + delta*S_w``), ``s`` the key of S_w."""
    ds = tuple(map(add, delta, s))
    if minus_one:
        return _times_two_monomials(part, delta, ds)
    out = _times_two_monomials(part, delta, s)
    _add_into(out, _shifted(part, ds))
    return out


def _times_one_plus_s(part: Flat, weights: Sequence[Character], combo: Mapping[Character, int]) -> Flat:
    """``part * prod (1 + S_w)^{e_w}``, one two-monomial step per factor;
    a negative multiplicity raises StructuralRewriteFailed."""
    for w, e in combo.items():
        if e < 0:
            raise StructuralRewriteFailed(f"negative multiplicity {e} for weight {w.coeffs}")
        s = _s_key(weights, w)
        for _ in range(e):
            part = _times_two_monomials(part, None, s)
    return part


def recipe_form(recipes: Iterable[ProductTerm], weights: Sequence[Character]) -> dict:
    """Numerator over ``prod S_w`` (w over ``weights``) of a class recipe
    ``sum c * y^k * prod(h or h - 1)``.

    Each term becomes ``c * (-1)^k * (1 + delta)^k`` times the numerators of
    its blocks, lifted by the S-variables of the weights its factors leave
    out.  Raises StructuralRewriteFailed for a factor whose weight is not
    among ``weights``.  Zero and cancelling terms add nothing: the lift is
    one shift, which drops zeros.

    >>> t = GeometryConfig(1).affine_weight(0)
    >>> recipe_form([(1, 0, ((t, False),))], (t,))
    {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    >>> recipe_form([(1, 0, ((t, True),))], (t,))
    {(1, 0): 1, (1, 1): 1}
    """
    delta = (1,) + (0,) * len(weights)
    total: dict = {}
    for c, k, factors in recipes:
        part = {_s_key(weights): c * (-1) ** k}
        for _ in range(k):
            part = _times_two_monomials(part, None, delta)
        left_out = list(weights)
        for w, minus_one in factors:
            part = _times_block(part, delta, _s_key(weights, w), minus_one)
            left_out.remove(w)
        _add_into(total, _shifted(part, _s_key(weights, *left_out)))  # lift to prod S_w
    return total


def product_of_weights_minus_one(weights: tuple[Character, ...], combo: Mapping[Character, int]) -> dict:
    """Rewrite ``T^v - 1`` where ``T^v = prod T^{w}^{e_w}`` with nonnegative
    multiplicities: expands ``prod (S_w + 1)^{e_w} - 1``.  Raises
    StructuralRewriteFailed on a negative multiplicity (the monomial would
    not be a nonnegative combination of ambient weights)."""
    one = _s_key(weights)
    out = _times_one_plus_s({one: 1}, weights, combo)
    _add_into(out, {one: -1})
    return out


def cq_step_correction(n: int) -> SPolynomial:
    """The displayed correction term of the CQ recursion,
    ``delta (S_t^2 + 2 S_t) / (S_{t+t_m} S_{t-t_m})``, in the single
    S-variable S_t (equal to -(1+y)(T^2-1) over the same denominator).  No
    runtime code calls it: it is the displayed form that the tests check
    the recursion's correction (``_times_correction``) against.

    >>> print(cq_step_correction(4))
    (2*delta*S(t) + delta*S(t)^2) / S(t+t2) S(t-t2)
    """
    geo = GeometryConfig(n)
    if geo.m < 1:
        raise ValueError("the recursion step needs n >= 2")
    num = _shifted(product_of_weights_minus_one((geo.t,), {geo.t: 2}), (1, 0))
    return SPolynomial((geo.t,), num, (geo.affine_weight(geo.m), geo.affine_weight(-geo.m)))


def _times_correction(p: Flat, geo: GeometryConfig, weights: tuple[Character, ...], msub: int) -> Flat:
    """``p`` times the level-msub correction numerator ``delta * (T^2 - 1)``,
    as ``delta * (p * prod (1 + S_w) - p)``: T^2 is S_t twice when t is a
    weight (odd n), else the top-pair weights t + t_msub and t - t_msub."""
    if geo.odd:
        combo = {geo.affine_weight(0): 2}
    else:
        combo = {geo.affine_weight(msub): 1, geo.affine_weight(-msub): 1}
    out = _times_one_plus_s(p, weights, combo)
    _add_into(out, _shifted(p, _s_key(weights), -1))
    return _shifted(out, (1,) + (0,) * len(weights))


def _cq_spoly_num(geo: GeometryConfig, weights: tuple[Character, ...], nsub: int) -> dict:
    """pos2 recursion for the numerator of CQ_nsub over ``prod S_w`` (w
    ranging over the weights of C^nsub): the cone-point bases are 1 and, for
    the odd chain, the origin of the x_0 line."""
    delta = (1,) + (0,) * len(weights)
    if nsub == 0:
        return {_s_key(weights): 1}
    if nsub == 1:
        return {_s_key(weights, geo.affine_weight(0)): 1}
    msub = nsub // 2
    inner = _times_two_monomials(_cq_spoly_num(geo, weights, nsub - 2), None, delta)
    total = _shifted(inner, _s_key(weights, geo.affine_weight(msub), geo.affine_weight(-msub)))
    cnum = {_s_key(weights): 1}
    for j in geo.indices_for(nsub - 2):
        cnum = _times_block(cnum, delta, _s_key(weights, geo.affine_weight(j)), False)
    _add_into(total, _times_correction(cnum, geo, weights, msub))
    return total


def to_positive_form(kind: str, n: int) -> SPolynomial:
    """Build the structural delta/S form of CCQ_n or CQ_n over the common
    denominator ``prod S_w`` (w over all n ambient weights).

    >>> print(to_positive_form("CQ", 2))
    (delta*S(t+t1) + delta*S(t-t1) + S(t-t1)*S(t+t1) + 2*delta*S(t-t1)*S(t+t1)) / S(t-t1) S(t+t1)
    """
    if kind not in ("CCQ", "CQ"):
        raise ValueError(f"positive forms cover kinds CCQ and CQ, not {kind!r}")
    if n < 2:
        raise ValueError("positive forms need n >= 2")
    weights = tuple(ambient_weights(n))
    if kind == "CCQ":
        num = recipe_form(affine_class("CCQ", n).recipes, weights)
    else:
        num = _cq_spoly_num(GeometryConfig(n), weights, n)
    return SPolynomial(weights, num, weights)


def check_nonnegative(
    spoly: SPolynomial,
    subject: tuple[str, int] = ("adhoc", 0),
    original: RatExpr | None = None,
    seed: int = 0,
) -> Certificate:
    """Scan every coefficient and round-trip against the reference class.

    The verdict is purely syntactic (no numeric evidence); when ``original``
    is given, ``roundtrip_ok`` is the exact rational-function comparison of
    the back-substituted polynomial against it; when that fails,
    ``roundtrip_note`` names the first point drawn from ``seed`` where the
    two differ.
    """
    negatives = spoly.negative_terms()
    witness = negatives[0] if negatives else None
    roundtrip_ok, note = True, ""
    if original is not None:
        back = spoly.to_ratexpr(original.arity)
        roundtrip_ok = back.equivalent(original)
        if not roundtrip_ok:
            note = back.witness(original, seed)
    return Certificate(
        subject=subject,
        spoly=spoly,
        nonnegative=not negatives,
        witness=witness,
        roundtrip_ok=roundtrip_ok,
        roundtrip_note=note,
    )


def certify(kind: str, n: int, seed: int = 0) -> Certificate:
    """Positive form of CCQ_n or CQ_n, checked and round-tripped.

    >>> cert = certify("CQ", 4)
    >>> cert.nonnegative and cert.roundtrip_ok
    True
    """
    spoly = to_positive_form(kind, n)
    original = affine_class(kind, n).at_origin
    return check_nonnegative(spoly, subject=(kind, n), original=original, seed=seed)
