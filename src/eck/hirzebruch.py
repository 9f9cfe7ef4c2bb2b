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
rational expression so output can render unexpanded products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .algebra import (
    Character,
    RatExpr,
    SparsePoly,
    hfactor_expr,
    hfactor_minus_one_expr,
)
from .torus import GeometryConfig

PROJECTIVE_KINDS = ("P", "Q", "X", "Qc", "Xc")
AFFINE_KINDS = ("Cn", "CQ", "CX", "CCQ", "CCX", "Cstar")


#: one summand of a class: (integer coefficient, y-power, h-factors);
#: each factor is (weight, minus_one?) meaning h(T^w) or h(T^w) - 1.
ProductTerm = tuple[int, int, tuple[tuple[Character, bool], ...]]


def smooth_local(weights: Iterable[Character], arity: int) -> RatExpr:
    """Localized class of a smooth germ with the given tangent weights."""
    out = RatExpr.one(arity)
    for w in weights:
        out = out * hfactor_expr(w)
    return out


def sum_of_products(arity: int, terms: Iterable[ProductTerm]) -> RatExpr:
    """Evaluate a recipe ``sum c * y^k * prod(h(+/-1))`` to a RatExpr."""
    terms = tuple(terms)
    out = RatExpr.zero(arity)
    for c, k, factors in terms:
        part = RatExpr(SparsePoly.y_power(arity, k, c))
        for w, minus_one in factors:
            part = part * (hfactor_minus_one_expr(w) if minus_one else hfactor_expr(w))
        out = out + part
    # A single term is already reduced: the lowest y-coefficient of its
    # numerator c y^k prod(1 + y T^w or (1 + y) T^w) is the unit monomial
    # c T^v, and a factor 1 - T^w free of y dividing the numerator would
    # divide that coefficient too.
    return out.reduced() if len(terms) > 1 else out


@dataclass(frozen=True, slots=True)
class LocalClass:
    """A class localized at torus fixed points.

    Projective classes store one value per fixed point of P^{n-1}; affine
    (cone) classes store the single value at the origin.  ``recipes`` holds
    the unevaluated product combinations used to build each value.
    Instances are immutable and safe to share.
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

    def value_at(self, point: int) -> RatExpr:
        if not self.is_projective:
            raise ValueError("affine class has a single value at the origin")
        return self.values[point]


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


def projective_class(kind: str, n: int, ambient: GeometryConfig | None = None) -> LocalClass:
    """Localized class of a projective space `kind` for the quadric family
    in P^{n-1}.

    With ``ambient`` given (a GeometryConfig for a larger n of the same
    parity) the space is embedded in P^{ambient.n - 1} via the first
    coordinates; its class takes the value 0 at fixed points off the
    subspace.
    """
    if kind not in PROJECTIVE_KINDS:
        raise ValueError(f"unknown projective kind {kind!r}; expected one of {PROJECTIVE_KINDS}")
    floor = {"P": 1, "Q": 0, "Qc": 0, "X": 2, "Xc": 2}[kind]
    if n < floor:
        raise ValueError(f"kind {kind} needs n >= {floor}")
    geo = ambient if ambient is not None else GeometryConfig(n)
    values: dict[int, RatExpr] = {}
    recipes: dict[int, tuple[ProductTerm, ...]] = {}
    for i in geo.indices:
        terms = tuple(_projective_terms(kind, geo, n, i))
        recipes[i] = terms
        values[i] = sum_of_products(geo.arity, terms)
    return LocalClass(geometry=geo, space=kind, n=n, values=values, recipes=recipes)


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


def affine_class(kind: str, n: int, ambient: GeometryConfig | None = None) -> LocalClass:
    """Localized class (at the origin) of an affine `kind` for the quadric
    cone family in C^n, optionally embedded in C^{ambient.n}.

    Conventions for the degenerate sizes: CQ_0 and CQ_1 are the origin
    (class 1), CCQ_0 is empty (class 0), CCQ_1 is C* in the x_0 line.
    """
    if kind not in AFFINE_KINDS:
        raise ValueError(f"unknown affine kind {kind!r}; expected one of {AFFINE_KINDS}")
    if n < 0 or (kind in ("CCX", "CX") and n < 2):
        raise ValueError(f"kind {kind} needs n >= {2 if kind in ('CCX', 'CX') else 0}")
    geo = ambient if ambient is not None else GeometryConfig(n)
    terms = tuple(_affine_terms(kind, geo, n))
    return LocalClass(
        geometry=geo,
        space=kind,
        n=n,
        at_origin=sum_of_products(geo.arity, terms),
        recipes=terms,
    )


def cone_pushforward(cls: LocalClass) -> RatExpr:
    """Push the class of an open subvariety Y' of P^{n-1} down the blowup of
    the cone: the value at the cone point is
    ``sum_i (h(T^{t + t_i}) - 1) * value_at(p_i)``.

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
