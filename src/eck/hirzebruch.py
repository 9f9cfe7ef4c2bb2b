"""Localized chi_y classes at torus fixed points.

The localized class of a smooth invariant subvariety Y at a fixed point p is
the product of ``h(T^w) = (1 + y T^w)/(1 - T^w)`` over the tangent weights w
of Y at p (``T^w = e^{-w}``); it does not depend on the ambient space, so
classes of subvarieties of different ambient spaces can be compared in one
lattice.  Singular and open invariant subvarieties get classes by
additivity.  Each factor of a punctured line C* contributes ``h(T^w) - 1``.

Spaces handled here, for the quadric ``Q_n = {q = 0}`` in P^{n-1} and its
degeneration ``X_n = {x_{-m} x_m = 0}``:

* projective: ``P`` (projective space), ``Q``, ``X``, and the open
  complements ``Qc = P \\ Q``, ``Xc = P \\ X``; values are stored per fixed
  point, with 0 at points off a subvariety.
* affine (value at the cone point): ``Cn`` (C^n itself), the cones
  ``CQ``/``CX`` over Q/X, their complements ``CCQ = C^n \\ CQ`` and
  ``CCX = C^n \\ CX``, and ``Cstar`` ((C*)^n).

Every class is assembled as an integer combination ``sum c * y^k * prod(h or
h-1)``; the combination (a "recipe") is kept alongside the evaluated
rational expression so output can render unexpanded products.  Each product
is built by shift-and-add: every factor's numerator is a sum of two unit
monomials, so multiplying by it adds two shifted copies of a dict keyed by
flat ``(ypow, e_0, ..., e_m)`` exponent tuples, and no generic polynomial
product is formed.

:func:`projective_class` and :func:`affine_class` build each class once per
process: the result is cached on the normalized ``(kind, n, geometry)``,
returned to every caller as the same read-only object, and its monomials
share one table of :class:`Character` objects with every other cached class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import add
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .algebra import (
    Character,
    DivisionByZero,
    Monomial,
    RatExpr,
    SparsePoly,
    hfactor_minus_one_expr,
)
from .torus import GeometryConfig

PROJECTIVE_KINDS = ("P", "Q", "X", "Qc", "Xc")
AFFINE_KINDS = ("Cn", "CQ", "CX", "CCQ", "CCX", "Cstar")


#: one summand of a class: (integer coefficient, y-power, h-factors);
#: each factor is (weight, minus_one?) meaning h(T^w) or h(T^w) - 1.
ProductTerm = tuple[int, int, tuple[tuple[Character, bool], ...]]


def _product(arity: int, c: int, k: int, factors: Iterable[tuple[Character, bool]]) -> RatExpr:
    """One recipe term ``c * y^k * prod(h or h-1)``, built by shift-and-add.

    Over a sign-canonical weight ``w``, ``h(T^w)`` maps a numerator ``p`` to
    ``p + y T^w p`` and ``h - 1`` maps it to ``T^w p + y T^w p``.  Any other
    weight is flipped on the spot (``1/(1 - T^w) = -T^-w/(1 - T^-w)``): ``h``
    becomes ``-(y + T^-w)`` and ``h - 1`` becomes ``-(1 + y)`` over ``1 - T^-w``,
    so the denominator is canonical as built.  Every step adds two copies
    with coefficient +1, so nothing cancels and the signs are applied once at
    the end.  A zero ``c`` keeps the denominator with a zero numerator.
    """
    if k < 0:
        raise ValueError("y admits only nonnegative exponents")
    zero = (0,) * arity
    unit_y = (1,) + zero
    acc = {(k,) + zero: 1} if c else {}
    scale = c
    den = []
    for w, minus_one in factors:
        if w.is_zero():
            raise DivisionByZero("h-factor of the zero weight")
        if w.is_sign_canonical():
            shifts = ((0,) + w.coeffs if minus_one else None, (1,) + w.coeffs)
        else:
            w = -w
            scale = -scale
            shifts = (None, unit_y) if minus_one else (unit_y, (0,) + w.coeffs)
        den.append(w)
        out: dict[tuple[int, ...], int] = {}
        for shift in shifts:
            for key, v in acc.items():
                if shift is not None:
                    key = tuple(map(add, key, shift))
                out[key] = out.get(key, 0) + v
        acc = out
    num = {Monomial(Character(key[1:]), key[0]): scale * v for key, v in acc.items()}
    return RatExpr(SparsePoly(arity, num), tuple(den))


def sum_of_products(arity: int, terms: Iterable[ProductTerm]) -> RatExpr:
    """Evaluate a recipe ``sum c * y^k * prod(h(+/-1))`` to a RatExpr.

    Each term is built by shift-and-add over flat exponent keys (see
    :func:`_product`), one ``SparsePoly`` and one ``RatExpr`` per term; the
    terms are added over a common denominator and the sum is reduced once.
    """
    terms = tuple(terms)
    out = RatExpr.zero(arity)
    for c, k, factors in terms:
        out = out + _product(arity, c, k, factors)
    # A single term is already reduced: the lowest y-coefficient of its
    # numerator c y^k prod(1 + y T^w or (1 + y) T^w) is the unit monomial
    # c T^v, and a factor 1 - T^w free of y dividing the numerator would
    # divide that coefficient too.
    return out.reduced() if len(terms) > 1 else out


#: one object per distinct character among the values of the cached classes
_CHARACTERS: dict[Character, Character] = {}


def _shared(expr: RatExpr) -> RatExpr:
    """``expr`` with every character taken from the shared table, so that the
    cached classes hold one :class:`Character` per distinct character; the
    terms and the denominator keep their order."""
    share = _CHARACTERS.setdefault
    num = {Monomial(share(m.char, m.char), m.ypow): c for m, c in expr.num.terms.items()}
    return RatExpr(SparsePoly(expr.arity, num), tuple(share(w, w) for w in expr.den))


def _cache_clear(build) -> Callable[[], None]:
    """Empty the cache of ``build`` and the shared character table."""

    def cache_clear() -> None:
        build.cache_clear()
        _CHARACTERS.clear()

    return cache_clear


@dataclass(frozen=True, slots=True)
class LocalClass:
    """A class localized at torus fixed points.

    Projective classes store one value per fixed point of P^{n-1}; affine
    (cone) classes store the single value at the origin.  ``recipes`` holds
    the unevaluated product combinations used to build each value.
    Instances are immutable and safe to share: the class constructors return
    ``values`` and per-point ``recipes`` as read-only ``MappingProxyType``
    views.
    """

    geometry: GeometryConfig
    space: str
    n: int
    values: Mapping[int, RatExpr] | None = None
    at_origin: RatExpr | None = None
    recipes: Mapping[int, tuple[ProductTerm, ...]] | tuple[ProductTerm, ...] | None = None

    @property
    def is_projective(self) -> bool:
        return self.values is not None


# -- projective classes ----------------------------------------------------


def _tangent_product(geo: GeometryConfig, sub: tuple[int, ...], i: int, excluded: frozenset[int]) -> tuple:
    wi = geo.proj_weight(i)
    return tuple(
        (geo.proj_weight(j) - wi, False) for j in sub if j != i and j not in excluded
    )


def _projective_terms(kind: str, geo: GeometryConfig, nsub: int, i: int) -> list[ProductTerm]:
    """Recipe for the localized class of `kind` (for the quadric family in
    P^{nsub-1}, embedded in P^{geo.n-1}) at the fixed point p_i."""
    sub = geo.indices_for(nsub)
    msub = nsub // 2
    if i not in sub:
        return []  # p_i lies off the subspace P^{nsub-1}
    none = frozenset()
    p_term: ProductTerm = (1, 0, _tangent_product(geo, sub, i, none))
    if kind == "P":
        return [p_term]

    if kind in ("Q", "Qc"):
        if nsub == 0:
            qc_terms: list[ProductTerm] = []  # Q_0 = empty in P^{-1} = empty
        elif i == 0:
            # p_0 is off the quadric (the form restricts to x_0^2 = 1 there),
            # so the complement's class is the full ambient class.
            qc_terms = [p_term]
        else:
            normal = geo.proj_weight(-i) - geo.proj_weight(i)  # -2 t_i
            rest = _tangent_product(geo, sub, i, frozenset({-i}))
            qc_terms = [(1, 0, ((normal, True),) + rest)]
        if kind == "Qc":
            return qc_terms
        # Q = P - Qc by additivity.
        return [p_term] + [(-c, k, fs) for c, k, fs in qc_terms]

    if kind in ("X", "Xc"):
        if msub < 1:
            raise ValueError(f"{kind} needs n >= 2")
        top = msub
        if abs(i) == top:
            # p_i lies on exactly one of the two hyperplanes of X.
            x_terms: list[ProductTerm] = [(1, 0, _tangent_product(geo, sub, i, frozenset({i, -i})))]
        else:
            # inclusion-exclusion over the two hyperplanes and their meet
            x_terms = [
                (1, 0, _tangent_product(geo, sub, i, frozenset({top}))),
                (1, 0, _tangent_product(geo, sub, i, frozenset({-top}))),
                (-1, 0, _tangent_product(geo, sub, i, frozenset({top, -top}))),
            ]
        if kind == "X":
            return x_terms
        return [p_term] + [(-c, k, fs) for c, k, fs in x_terms]

    raise ValueError(f"unknown projective kind {kind!r}")


@cache
def _build_projective(kind: str, n: int, geo: GeometryConfig) -> LocalClass:
    values: dict[int, RatExpr] = {}
    recipes: dict[int, tuple[ProductTerm, ...]] = {}
    for i in geo.indices:
        terms = tuple(_projective_terms(kind, geo, n, i))
        recipes[i] = terms
        values[i] = _shared(sum_of_products(geo.arity, terms))
    return LocalClass(
        geometry=geo,
        space=kind,
        n=n,
        values=MappingProxyType(values),
        recipes=MappingProxyType(recipes),
    )


def projective_class(kind: str, n: int, ambient: GeometryConfig | None = None) -> LocalClass:
    """Localized class of a projective space `kind` for the quadric family
    in P^{n-1}.

    With ``ambient`` given (a GeometryConfig for a larger n of the same
    parity) the space is embedded in P^{ambient.n - 1} via the first
    coordinates; its class takes the value 0 at fixed points off the
    subspace.

    The class is built once per process and shared, read-only, by every
    caller; ``projective_class.cache_clear()`` frees the cache.
    """
    if kind not in PROJECTIVE_KINDS:
        raise ValueError(f"unknown projective kind {kind!r}; expected one of {PROJECTIVE_KINDS}")
    floor = {"P": 1, "Q": 0, "Qc": 0, "X": 2, "Xc": 2}[kind]
    if n < floor:
        raise ValueError(f"kind {kind} needs n >= {floor}")
    return _build_projective(kind, n, ambient if ambient is not None else GeometryConfig(n))


projective_class.cache_clear = _cache_clear(_build_projective)


# -- affine (cone) classes ---------------------------------------------------


def ccx_product(geo: GeometryConfig, pair_list: tuple[int, ...], with_zero: bool) -> tuple:
    """h-factors of the complement of the cone over {x_{-M} x_M = 0} inside
    the coordinate subspace using the given pairs (M = last pair); the
    complement splits off C* x C* in the two degenerate directions."""
    if not pair_list:
        raise ValueError("CCX-type product needs at least one pair")
    top = pair_list[-1]
    factors = [(geo.affine_weight(top), True), (geo.affine_weight(-top), True)]
    for j in pair_list[:-1]:
        factors.append((geo.affine_weight(j), False))
        factors.append((geo.affine_weight(-j), False))
    if with_zero:
        factors.append((geo.affine_weight(0), False))
    return tuple(factors)


def ccq_terms(geo: GeometryConfig, pair_list: tuple[int, ...], with_zero: bool) -> list[ProductTerm]:
    """Recipe for the complement of the quadric cone over the given pairs
    (plus the x_0 direction when ``with_zero``): peeling one pair at a time
    gives ``sum_k (-y)^k CCX(first r-k pairs)`` with a C* base term in the
    odd case."""
    r = len(pair_list)
    terms: list[ProductTerm] = []
    for k in range(r):
        terms.append(((-1) ** k, k, ccx_product(geo, pair_list[: r - k], with_zero)))
    if with_zero:
        terms.append(((-1) ** r, r, ((geo.affine_weight(0), True),)))
    return terms


def _affine_terms(kind: str, geo: GeometryConfig, nsub: int) -> list[ProductTerm]:
    sub = geo.indices_for(nsub)
    pair_list = tuple(range(1, nsub // 2 + 1))
    with_zero = nsub % 2 == 1
    cn_term: ProductTerm = (1, 0, tuple((geo.affine_weight(j), False) for j in sub))
    if kind == "Cn":
        return [cn_term]
    if kind == "Cstar":
        return [(1, 0, tuple((geo.affine_weight(j), True) for j in sub))]
    if kind in ("CCX", "CX"):
        if nsub < 2:
            raise ValueError(f"{kind} needs n >= 2")
        ccx_terms = [(1, 0, ccx_product(geo, pair_list, with_zero))]
        if kind == "CCX":
            return ccx_terms
        return [cn_term] + [(-c, k, fs) for c, k, fs in ccx_terms]
    if kind in ("CCQ", "CQ"):
        terms = ccq_terms(geo, pair_list, with_zero)
        if kind == "CCQ":
            return terms
        return [cn_term] + [(-c, k, fs) for c, k, fs in terms]
    raise ValueError(f"unknown affine kind {kind!r}")


@cache
def _build_affine(kind: str, n: int, geo: GeometryConfig) -> LocalClass:
    terms = tuple(_affine_terms(kind, geo, n))
    return LocalClass(
        geometry=geo,
        space=kind,
        n=n,
        at_origin=_shared(sum_of_products(geo.arity, terms)),
        recipes=terms,
    )


def affine_class(kind: str, n: int, ambient: GeometryConfig | None = None) -> LocalClass:
    """Localized class (at the origin) of an affine `kind` for the quadric
    cone family in C^n, optionally embedded in C^{ambient.n}.

    Conventions for the degenerate sizes: CQ_0 and CQ_1 are the origin
    (class 1), CCQ_0 is empty (class 0), CCQ_1 is C* in the x_0 line.

    The class is built once per process and shared, read-only, by every
    caller; ``affine_class.cache_clear()`` frees the cache.
    """
    if kind not in AFFINE_KINDS:
        raise ValueError(f"unknown affine kind {kind!r}; expected one of {AFFINE_KINDS}")
    if n < 0 or (kind in ("CCX", "CX") and n < 2):
        raise ValueError(f"kind {kind} needs n >= {2 if kind in ('CCX', 'CX') else 0}")
    return _build_affine(kind, n, ambient if ambient is not None else GeometryConfig(n))


affine_class.cache_clear = _cache_clear(_build_affine)


def cone_pushforward(cls: LocalClass) -> RatExpr:
    """Push the class of an open subvariety Y' of P^{n-1} down the blowup of
    the cone: the value at the cone point is
    ``sum_i (h(T^{t + t_i}) - 1) * values[i]``.

    The factor comes from localizing ``td(O(-1)) - c_1(O(-1))`` on the
    exceptional divisor; the pushforward is linear and sends the zero class
    to zero.
    """
    if not cls.is_projective:
        raise ValueError("cone_pushforward applies to projective classes")
    geo = cls.geometry
    out = RatExpr.zero(geo.arity)
    for i in geo.indices:
        out = out + hfactor_minus_one_expr(geo.affine_weight(i)) * cls.values[i]
    return out.reduced()
