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
product is formed.  The h-factors that every term of a recipe shares are
factored out before the terms are added: only the leftover products are
summed and reduced, and the shared numerators are multiplied back after the
reduction (see :func:`sum_of_products`).

:func:`projective_class` and :func:`affine_class` build each class once per
process: the result is cached on the normalized ``(kind, n, geometry)``,
returned to every caller as the same read-only object, and its flat
exponent keys and denominator characters are interned in one table shared
with every other cached class.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from operator import add, sub
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .algebra import (
    Character,
    DivisionByZero,
    Flat,
    NotDivisible,
    RatExpr,
    SparsePoly,
    _add_into,
    _flat_over_one_minus,
    _norm,
    _shifted,
    _times_two_monomials,
)
from .render import weight_text
from .torus import GeometryConfig, _clear_tables

PROJECTIVE_KINDS = ("P", "Q", "X", "Qc", "Xc")
AFFINE_KINDS = ("Cn", "CQ", "CX", "CCQ", "CCX", "Cstar")


#: one summand of a class: (integer coefficient, y-power, h-factors);
#: each factor is (weight, minus_one?) meaning h(T^w) or h(T^w) - 1.
ProductTerm = tuple[int, int, tuple[tuple[Character, bool], ...]]

def _product(
    arity: int,
    c: int,
    k: int,
    factors: Iterable[tuple[Character, bool]],
    start: SparsePoly | None = None,
) -> RatExpr:
    """One recipe term ``c * y^k * prod(h or h-1)``, built by shift-and-add;
    with ``start`` given, the product starts from ``c * y^k * start`` in
    place of ``c * y^k``.

    Over a sign-canonical weight ``w``, ``h(T^w)`` maps a numerator ``p`` to
    ``p + y T^w p`` and ``h - 1`` maps it to ``T^w p + y T^w p``.  Any other
    weight is flipped on the spot (``1/(1 - T^w) = -T^-w/(1 - T^-w)``): ``h``
    becomes ``-(y + T^-w)`` and ``h - 1`` becomes ``-(1 + y)`` over ``1 - T^-w``,
    so the denominator is canonical as built.  Every step adds two copies, so
    from a unit monomial nothing cancels; a ``start`` with several terms may
    cancel, and zero coefficients are dropped.  The signs are applied once
    at the end.  A zero ``c`` keeps the denominator with a zero numerator.
    """
    if k < 0:
        raise ValueError("y admits only nonnegative exponents")
    zero = (0,) * arity
    unit_y = (1,) + zero
    if start is None:
        acc = {(k,) + zero: 1} if c else {}
    else:
        acc = _shifted(start.terms, (k,) + zero) if c else {}
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
        acc = _times_two_monomials(acc, *shifts)
    return RatExpr(SparsePoly(arity, {key: _norm(scale * v) for key, v in acc.items() if v}), tuple(den))


def sum_of_products(arity: int, terms: Iterable[ProductTerm]) -> RatExpr:
    """Evaluate a recipe ``sum c * y^k * prod(h(+/-1))`` to a RatExpr.

    Each term is built by shift-and-add over flat exponent keys (see
    :func:`_product`), one ``SparsePoly`` and one ``RatExpr`` per term; a
    single term is returned as built (no term gives zero), and several are
    added over a common denominator and the sum is reduced once.

    Of several terms, the h-factors that every term shares (the same
    ``(weight, minus_one)`` pair, counted with multiplicity; possibly none)
    are factored out first: only the leftover inner terms are built and
    added, the inner sum is reduced over its own denominator together with
    the shared denominators, and the shared numerators are multiplied back
    into the reduced numerator by shift-and-add.  Every term's denominator
    holds the shared weights, so the full sum's common denominator is theirs
    together with the inner one, and its numerator is the shared product
    times the inner sum.  The reduction then ends at the same result, term
    for term and factor for factor.  Each shared numerator, ``1 + y T^w``,
    ``(1 + y) T^w``, ``-(y + T^-w)`` or ``-(1 + y)``, has degree one in y and
    no factor free of y but units, so it is coprime to every ``1 - T^v``:
    such a factor divides the full numerator exactly when it divides the
    inner one, and the quotients differ by the same shared product.  At
    ``T = 1`` each shared numerator is ``+/-(1 + y)``, so the full numerator
    vanishes there exactly when the inner one does.  Hence every trial
    division of ``reduced()``, and every ``_nonzero_at_one`` test, decides
    the same way on the inner numerator as on the full one, in the same
    order.
    """
    terms = tuple(terms)
    if len(terms) <= 1:
        # A single term is already reduced: the lowest y-coefficient of its
        # numerator c y^k prod(1 + y T^w or (1 + y) T^w) is the unit monomial
        # c T^v, and a factor 1 - T^w free of y dividing the numerator would
        # divide that coefficient too.
        return _product(arity, *terms[0]) if terms else RatExpr.zero(arity)
    shared = Counter(terms[0][2])
    for _, _, factors in terms[1:]:
        shared &= Counter(factors)
    common = tuple(shared.elements())
    inner = RatExpr.zero(arity)
    for c, k, factors in terms:
        rest = list(factors)
        for f in common:
            rest.remove(f)
        inner = inner + _product(arity, c, k, rest)
    inner = RatExpr(inner.num, inner.den + _product(arity, 0, 0, common).den).reduced()
    return RatExpr(_product(arity, 1, 0, common, inner.num).num, inner.den)


#: one object per distinct flat key and per distinct denominator character
#: among the values of the cached classes
_INTERNED: dict = {}


def _shared(expr: RatExpr) -> RatExpr:
    """``expr`` with every flat key and denominator character taken from the
    interning table, so that the cached classes hold one object per distinct
    key; the terms and the denominator keep their order."""
    share = _INTERNED.setdefault
    num = {share(key, key): c for key, c in expr.num.terms.items()}
    return RatExpr(SparsePoly(expr.arity, num), tuple(share(w, w) for w in expr.den))


def _cache_clear(build) -> Callable[[], None]:
    """Empty the cache of ``build``, the interning table, the memo of
    :func:`_tangent_product` and the per-``n`` tables of the torus layer."""

    def cache_clear() -> None:
        build.cache_clear()
        _INTERNED.clear()
        _tangent_product.cache_clear()
        _clear_tables()

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


@cache
def _tangent_product(geo: GeometryConfig, sub: tuple[int, ...], i: int, excluded: frozenset[int]) -> tuple:
    """The h-factors ``h(T^(t_j - t_i))`` over ``j`` in ``sub``, ``j != i``,
    less the ``excluded`` indices; memoized, since the recipes of a kind and
    of its complement share them."""
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

    # X or Xc; projective_class has checked the kind and n >= 2.
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
        ccx_terms = [(1, 0, ccx_product(geo, pair_list, with_zero))]
        if kind == "CCX":
            return ccx_terms
        return [cn_term] + [(-c, k, fs) for c, k, fs in ccx_terms]
    # CCQ or CQ; affine_class has checked the kind and the floor.
    terms = ccq_terms(geo, pair_list, with_zero)
    if kind == "CCQ":
        return terms
    return [cn_term] + [(-c, k, fs) for c, k, fs in terms]


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


def _restriction_factors(cls: LocalClass, i: int) -> tuple[tuple[int, ...], int, list[tuple[int, ...]]]:
    """``(shift, sign, others)`` on exponent tuples with ``g_i = sign *
    T^shift * num_i * prod_{t_j in others} (x_i - x_j)``, ``num_i`` the
    numerator of ``values[i]``, for the ``g_i`` of :func:`_restriction`.
    The weights ``t_j`` are distinct, so the one ``j`` that can take a
    denominator factor ``v`` as ``v = t_j - t_i`` or as ``v = t_i - t_j`` is
    found by lookup; canonical factors ``v != v'`` never compete for a
    ``j``."""
    geo = cls.geometry
    index = {geo.proj_weight(j).coeffs: j for j in geo.indices}
    weights = {j: w for w, j in index.items()}
    ti = weights.pop(i)
    sign, left = 1, []
    for v in cls.values[i].den:
        j = index.get(tuple(map(add, ti, v.coeffs)))
        if j in weights:
            del weights[j]
            left.append(ti)
        elif (j := index.get(tuple(map(sub, ti, v.coeffs)))) in weights:
            left.append(weights.pop(j))
            sign = -sign
        else:
            raise ValueError(
                f"{cls.space} (n={cls.n}) at p_{i}: denominator factor 1 - T^({weight_text(v)}) "
                f"is not a tangent weight of P^{geo.n - 1} there"
            )
    return tuple(map(sum, zip(*left))) if left else (0,) * geo.arity, sign, list(weights.values())


def _restriction(cls: LocalClass, i: int) -> Flat:
    """``g_i = values[i] * prod_{j != i} (x_i - x_j)`` with ``x_j = T^{t_j}``,
    on flat exponent keys: the class restricted to ``p_i`` (the value times
    ``prod (1 - T^w)`` over the tangent weights ``w``) times ``x_i^{n-1}``.

    With ``w = t_j - t_i``, ``x_i - x_j = x_i (1 - T^w) = -x_j (1 - T^{-w})``.
    Each factor ``1 - T^v`` of the value's (sign-canonical) denominator is
    taken by the one ``j`` with ``v = w``, which leaves the monomial ``x_i``,
    or ``v = -w``, which leaves ``-x_j``; every other ``j`` multiplies by
    ``x_i - x_j`` (:func:`_restriction_factors`).  Nothing is divided.  A
    denominator factor that no tangent weight takes raises ValueError naming
    the point.
    """
    shift, sign, others = _restriction_factors(cls, i)
    ti = (0,) + cls.geometry.proj_weight(i).coeffs
    acc = cls.values[i].num.terms
    for tj in others:
        acc = _times_two_monomials(acc, ti, (0,) + tj, -1)
    return _shifted(acc, (0,) + shift, sign)


def cone_pushforward(cls: LocalClass) -> RatExpr:
    """Push the class of an open subvariety Y' of P^{n-1} down the blowup of
    the cone: the value at the cone point is
    ``sum_i (h(T^{t + t_i}) - 1) * values[i]``.

    The factor comes from localizing ``td(O(-1)) - c_1(O(-1))`` on the
    exceptional divisor; the pushforward is linear and sends the zero class
    to zero.  Precondition: the values form a class on P^{n-1}, that is,
    each value's denominator factors are tangent weights at its point and
    the values restrict one equivariant K-theory class.  Input that is not
    a class raises.

    The sum is taken through Newton divided differences at the nodes
    ``x_j = T^{t_j}``, ``j`` in index order, with ``c = T^t``
    (Anderson-Fulton; Knutson-Rosu):

    * **Restriction.** ``1 - T^{t_j - t_i} = (x_i - x_j)/x_i``, so
      ``values[i] = g_i / prod_{j != i} (x_i - x_j)`` for the Laurent
      polynomial ``g_i`` of :func:`_restriction`, and ``sum_i values[i]``
      is the top divided difference ``g[x_1..x_n]``.
    * **Divided differences.** ``K_T(P^{n-1}) = R(T)[L] / prod_j (L - x_j)``
      with ``L`` restricting to ``x_j`` at ``p_j``, so ``g_i = P(x_i)`` for
      one ``P`` in ``R(T)[L]``.  Each divided difference of ``L^k`` is a
      complete symmetric polynomial in its nodes, so every entry
      ``g[x_a..x_b]`` is a Laurent polynomial.  The table is built in
      place, nodes in index order:
      ``g[x_a..x_b] = (g[x_{a+1}..x_b] - g[x_a..x_{b-1}]) / (x_b - x_a)``
      with ``x_b - x_a = x_b (1 - T^{t_a - t_b})``, i.e. a shift by
      ``-t_b`` and one exact division by ``1 - T^{t_a - t_b}``.  For
      values that are not a class a step leaves a remainder, and
      NotDivisible names the space and the step's end nodes.
    * **Leibniz.** ``h(T^{t + t_i}) - 1 = (1 + y)(psi(x_i) - 1)`` with
      ``psi(L) = 1/(1 - cL)``, whose divided differences are
      ``psi[x_k..x_n] = c^{n-k} / prod_{j>=k} (1 - c x_j)``.  By Leibniz'
      rule ``(g psi)[x_1..x_n] = sum_k G_k psi[x_k..x_n]`` with the Newton
      coefficients ``G_k = g[x_1..x_k]``, so the pushforward is
      ``(1 + y)(sum_k G_k psi[x_k..x_n] - G_n)``.
    * **Horner.** Over ``prod_j (1 - c x_j) = prod_j (1 - T^{t + t_j})``
      its numerator is ``(1 + y) [sum_{k<n} G_k c^{n-k} prod_{j<k}
      (1 - c x_j) + G_n c x_n prod_{j<n} (1 - c x_j)]`` (the ``k = n`` term
      less ``G_n`` times the denominator).  From ``G_n c x_n``, each step
      multiplies by ``1 - c x_k`` and adds ``G_k c^{n-k}``, for
      ``k = n-1, ..., 1``; then the sum is multiplied by ``1 + y``.  Only
      two-monomial products occur.

    So the restriction and Horner's rule divide nothing, every division of
    the table is exact or raises, and the final ``reduced()`` only cancels
    factors that divide the numerator exactly.
    """
    if not cls.is_projective:
        raise ValueError("cone_pushforward applies to projective classes")
    geo = cls.geometry
    nodes = geo.indices
    n = len(nodes)
    weights = [geo.proj_weight(j) for j in nodes]
    table = [_restriction(cls, i) for i in nodes]
    for level in range(1, n):
        for b in range(n - 1, level - 1, -1):
            a = b - level
            back = (0,) + (-weights[b]).coeffs
            step = _shifted(table[b], back)
            _add_into(step, _shifted(table[b - 1], back, -1))
            try:
                table[b] = _flat_over_one_minus(step, (weights[a] - weights[b]).coeffs)
            except NotDivisible:
                raise NotDivisible(
                    f"{cls.space} (n={cls.n}): the divided difference over p_{nodes[a]}..p_{nodes[b]} "
                    "leaves a remainder; the values are not a class"
                ) from None
    cx = [(0,) + geo.affine_weight(j).coeffs for j in nodes]
    acc = _shifted(table[-1], cx[-1]) if table else {}  # the empty space (Q_0, Qc_0) pushes forward to 0
    for k in range(n - 2, -1, -1):
        acc = _times_two_monomials(acc, None, cx[k], -1)
        _add_into(acc, _shifted(table[k], (0,) + geo.t.scaled(n - 1 - k).coeffs))
    acc = _times_two_monomials(acc, None, (1,) + (0,) * geo.arity)
    return RatExpr(SparsePoly.from_terms(geo.arity, acc.items()), tuple(geo.affine_weight(j) for j in nodes)).reduced()
