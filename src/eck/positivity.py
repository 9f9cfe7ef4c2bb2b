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

* CCQ (and any other class recipe): :func:`recipe_form` translates each
  recipe term c * y^k * prod(h or h - 1) into c * (-1)^k * (1 + delta)^k
  times the numerators of its blocks, lifted by the S_w of the weights its
  factors leave out, so all terms share the denominator prod S_w.
* CQ: the recursion CQ_n = (1+delta)*CQ_{n-2}
  + C^{n-2} * delta*(T^2 - 1)/(S_{t+t_m} S_{t-t_m}), where T^2 - 1 is
  rewritten through ambient weights: (S_t + 1)^2 - 1 = S_t^2 + 2 S_t when
  the zero coordinate exists (odd n), else
  (S_{t+t_m}+1)(S_{t-t_m}+1) - 1 = S_a S_b + S_a + S_b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .algebra import Character, Coeff, RatExpr, SparsePoly, _norm
from .hirzebruch import ProductTerm, affine_class
from .torus import GeometryConfig, ambient_weights

SKey = tuple[int, ...]  # (delta exponent, S-exponent per weight)


class StructuralRewriteFailed(ArithmeticError):
    """A monomial T^v was not a nonnegative combination of ambient weights."""


def _dict_add(a: dict, b: Mapping) -> dict:
    out = dict(a)
    for k, c in b.items():
        nc = out.get(k, 0) + c
        if nc:
            out[k] = nc
        else:
            out.pop(k, None)
    return out


def _dict_mul(a: Mapping, b: Mapping) -> dict:
    out: dict = {}
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    for ka, ca in small.items():
        for kb, cb in large.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            nc = out.get(k, 0) + ca * cb
            if nc:
                out[k] = nc
            else:
                del out[k]
    return out


def _dict_scale(a: Mapping, c: Coeff) -> dict:
    return {} if c == 0 else {k: _norm(v * c) for k, v in a.items()}


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
        svars = [SparsePoly.monomial(w, 0, 1) - 1 for w in self.weights]
        powers: dict[tuple[int, int], SparsePoly] = {}

        def power(i: int, e: int) -> SparsePoly:
            base = delta if i < 0 else svars[i]
            got = powers.get((i, e))
            if got is None:
                got = powers[(i, e)] = base**e
            return got

        num = SparsePoly.zero(arity)
        for key, c in self.terms.items():
            part = SparsePoly.constant(arity, c)
            if key[0]:
                part = part * power(-1, key[0])
            for i, e in enumerate(key[1:]):
                if e:
                    part = part * power(i, e)
            num = num + part
        if len(self.den) % 2:
            num = -num
        return RatExpr(num, self.den)

    def to_ratexpr_horner(self, arity: int) -> RatExpr:
        """The back-substitution of :meth:`to_ratexpr`, nested by Horner's
        rule over the exponent vectors: multiplying by S_w = T^w - 1 is a
        shift and a subtraction, and by delta = -1 - y it is -(p + y p), so
        no power of a variable is ever expanded.

        >>> print(to_positive_form("CQ", 2).to_ratexpr_horner(2))
        (1 - T^2 + y*T*T1^-1 + y*T*T1 - 2*y*T^2) / (1 - T*T1^-1) (1 - T*T1)
        """
        zero = Character.zero(arity)
        steps = [lambda p: -(p + p.shifted(zero, 1))]
        steps += [lambda p, w=w: p.shifted(w) - p for w in self.weights]

        def nest(terms: list[tuple[SKey, Coeff]], j: int) -> SparsePoly:
            # every key in ``terms`` agrees on the exponents before index j
            if j == len(steps):
                return SparsePoly.constant(arity, terms[0][1])
            groups: dict[int, list] = {}
            for key, c in terms:
                groups.setdefault(key[j], []).append((key, c))
            out = SparsePoly.zero(arity)
            for e in range(max(groups), -1, -1):
                out = steps[j](out)
                if e in groups:
                    out = out + nest(groups[e], j + 1)
            return out

        num = nest(list(self.terms.items()), 0) if self.terms else SparsePoly.zero(arity)
        if len(self.den) % 2:
            num = -num
        return RatExpr(num, self.den)

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


def _one(width: int) -> dict:
    return {(0,) * width: 1}


def _h_num(width: int, i: int) -> dict:
    """Numerator of h over S_{w_i}: delta + (1 + delta) S_{w_i}.

    >>> t = GeometryConfig(1).affine_weight(0)
    >>> print(SPolynomial((t,), _h_num(2, 0), (t,)))
    (delta + S(t) + delta*S(t)) / S(t)
    """
    d = tuple(1 if j == 0 else 0 for j in range(width))
    s = tuple(1 if j == 1 + i else 0 for j in range(width))
    ds = tuple(x + y for x, y in zip(d, s))
    return {d: 1, s: 1, ds: 1}


def _h_minus_one_num(width: int, i: int) -> dict:
    """Numerator of h - 1 over S_{w_i}: delta (1 + S_{w_i}).

    >>> t = GeometryConfig(1).affine_weight(0)
    >>> print(SPolynomial((t,), _h_minus_one_num(2, 0), (t,)))
    (delta + delta*S(t)) / S(t)
    """
    d = tuple(1 if j == 0 else 0 for j in range(width))
    s = tuple(1 if j == 1 + i else 0 for j in range(width))
    ds = tuple(x + y for x, y in zip(d, s))
    return {d: 1, ds: 1}


def _s_var(width: int, i: int) -> dict:
    return {tuple(1 if j == 1 + i else 0 for j in range(width)): 1}


def _one_plus_delta_power(width: int, k: int) -> dict:
    base = {(0,) * width: 1, tuple(1 if j == 0 else 0 for j in range(width)): 1}
    out = _one(width)
    for _ in range(k):
        out = _dict_mul(out, base)
    return out


def _weight_index(weights: tuple[Character, ...], w: Character) -> int:
    for i, cand in enumerate(weights):
        if cand == w:
            return i
    raise StructuralRewriteFailed(f"weight {w.coeffs} is not an ambient S-variable")


def recipe_form(recipes: Iterable[ProductTerm], weights: Sequence[Character]) -> dict:
    """Numerator over ``prod S_w`` (w over ``weights``) of a class recipe
    ``sum c * y^k * prod(h or h - 1)``.

    Each term becomes ``c * (-1)^k * (1 + delta)^k`` times the numerators of
    its blocks, lifted by the S-variables of the weights its factors leave
    out.  Raises StructuralRewriteFailed for a factor whose weight is not
    among ``weights``.

    >>> t = GeometryConfig(1).affine_weight(0)
    >>> recipe_form([(1, 0, ((t, False),))], (t,))
    {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    >>> recipe_form([(1, 0, ((t, True),))], (t,))
    {(1, 0): 1, (1, 1): 1}
    """
    width = 1 + len(weights)
    total: dict = {}
    for c, k, factors in recipes:
        part = _dict_scale(_one_plus_delta_power(width, k), c * (-1) ** k)
        left_out = list(weights)
        for w, minus_one in factors:
            i = _weight_index(weights, w)
            left_out.remove(w)
            part = _dict_mul(part, _h_minus_one_num(width, i) if minus_one else _h_num(width, i))
        for w in left_out:  # lift to the common denominator prod S_w
            part = _dict_mul(part, _s_var(width, _weight_index(weights, w)))
        total = _dict_add(total, part)
    return total


def product_of_weights_minus_one(weights: tuple[Character, ...], combo: Mapping[Character, int]) -> dict:
    """Rewrite ``T^v - 1`` where ``T^v = prod T^{w}^{e_w}`` with nonnegative
    multiplicities: expands ``prod (S_w + 1)^{e_w} - 1``.

    Raises StructuralRewriteFailed on a negative multiplicity (the monomial
    would not be a nonnegative combination of ambient weights).
    """
    width = 1 + len(weights)
    out = _one(width)
    for w, e in combo.items():
        if e < 0:
            raise StructuralRewriteFailed(f"negative multiplicity {e} for weight {w.coeffs}")
        i = _weight_index(weights, w)
        s_plus_1 = _dict_add(_s_var(width, i), _one(width))
        for _ in range(e):
            out = _dict_mul(out, s_plus_1)
    return _dict_add(out, _dict_scale(_one(width), -1))


def cq_step_correction(n: int) -> SPolynomial:
    """The displayed correction term of the CQ recursion,
    ``delta (S_t^2 + 2 S_t) / (S_{t+t_m} S_{t-t_m})``, in the single
    S-variable S_t (equal to -(1+y)(T^2-1) over the same denominator).

    >>> print(cq_step_correction(4))
    (2*delta*S(t) + delta*S(t)^2) / S(t+t2) S(t-t2)
    """
    geo = GeometryConfig(n)
    if geo.m < 1:
        raise ValueError("the recursion step needs n >= 2")
    t = geo.t
    st = _s_var(2, 0)
    num = _dict_mul({(1, 0): 1}, _dict_add(_dict_mul(st, st), _dict_scale(st, 2)))
    return SPolynomial((t,), num, (geo.affine_weight(geo.m), geo.affine_weight(-geo.m)))


def _correction_num(geo: GeometryConfig, weights: tuple[Character, ...], msub: int) -> dict:
    """Numerator ``delta * (T^2 - 1)`` of the level-msub correction, rewritten
    through ambient weights only: via S_t twice when t is a weight (odd n),
    else via the top-pair weights a = t + t_msub, b = t - t_msub."""
    width = 1 + len(weights)
    if geo.odd:
        combo = {geo.affine_weight(0): 2}
    else:
        combo = {geo.affine_weight(msub): 1, geo.affine_weight(-msub): 1}
    delta = {tuple(1 if j == 0 else 0 for j in range(width)): 1}
    return _dict_mul(delta, product_of_weights_minus_one(weights, combo))


def _cq_spoly_num(geo: GeometryConfig, weights: tuple[Character, ...], nsub: int) -> dict:
    """pos2 recursion for the numerator of CQ_nsub over ``prod S_w`` (w
    ranging over the weights of C^nsub): the cone-point bases are 1 and, for
    the odd chain, the origin of the x_0 line."""
    width = 1 + len(weights)
    if nsub == 0:
        return _one(width)
    if nsub == 1:
        return _s_var(width, _weight_index(weights, geo.affine_weight(0)))
    msub = nsub // 2
    a = geo.affine_weight(msub)
    b = geo.affine_weight(-msub)
    sa = _s_var(width, _weight_index(weights, a))
    sb = _s_var(width, _weight_index(weights, b))
    inner = _cq_spoly_num(geo, weights, nsub - 2)
    term1 = _dict_mul(_dict_mul(_one_plus_delta_power(width, 1), inner), _dict_mul(sa, sb))
    cnum = _one(width)
    for j in geo.indices_for(nsub - 2):
        cnum = _dict_mul(cnum, _h_num(width, _weight_index(weights, geo.affine_weight(j))))
    term2 = _dict_mul(cnum, _correction_num(geo, weights, msub))
    return _dict_add(term1, term2)


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
