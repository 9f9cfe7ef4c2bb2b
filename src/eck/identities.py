"""Identity verification for the localized class calculus.

Every formula is checked fixed point by fixed point: restriction to the
fixed-point set is injective for these spaces, so equality of the localized
values (as rational functions, decided by cross-multiplication) proves
equality of the classes.  Affine identities have a single value at the cone
point; projective identities produce one comparison per fixed point of
P^{n-1}.

Formulas:

* ``proj``   Xc_n - Qc_n = y * Qc_{n-2} and Q_n - X_n = y * Qc_{n-2},
             pointwise in P^{n-1} (Qc_{n-2} embedded via the inner pairs,
             contributing 0 at p_{+-m}).
* ``con``    CCX_n - CCQ_n = y * CCQ_{n-2} at the origin.
* ``dope``   CQ_n - CX_n = y * (C^{n-2} - CQ_{n-2}).
* ``expl``   the CCQ peeling recursion equals the independent computation
             C^n - CQ_n, with CQ_n built by the dope-style recursion from
             CX classes only.
* ``remark_k``  CCQ_n - Y*_k = (-y)^{m-k} * CCQ_{2k+eps} where Y_k is the
             special fiber keeping the quadratic form on the outer pairs
             k+1..m and Y*_k its cone complement.
* ``closed_form``  the diagonal specialization (t_i -> 0) of CCQ_n equals
             the single-variable displayed sums.
* ``milnor_div_y``  at y = 0 the Q- and X-classes agree pointwise (and
             CQ/CX at the origin): the class difference is divisible by y.
* ``blowup_consistency``  the blowup pushforward of Qc_n / Xc_n equals the
             direct CCQ_n / CCX_n classes.

:func:`integrate_projective` sums the localized values over the fixed points
to the chi_y polynomial in one packed variable with one cancel step (add
over the common denominator, divide out each factor that divides), run per
antipodal pair ``p_i``, ``p_{-i}`` and once more to merge the pairs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .algebra import (
    Character,
    Coeff,
    Monomial,
    PackedBox,
    RatExpr,
    SparsePoly,
    _add_into,
    _over_one_minus,
    _times_binomial,
    weight_box,
)
from .hirzebruch import (
    LocalClass,
    ProductTerm,
    affine_class,
    ccq_terms,
    cone_pushforward,
    projective_class,
    sum_of_products,
)
from .torus import GeometryConfig

FORMULAS = (
    "proj",
    "con",
    "dope",
    "expl",
    "remark_k",
    "closed_form",
    "milnor_div_y",
    "blowup_consistency",
)


#: ``same(label, lhs, rhs)``: decide one comparison, noting a witness on a miss
Compare = Callable[[str, RatExpr, RatExpr], bool]


class ResidualTDependence(ArithmeticError):
    """A fixed-point sum failed to cancel its T-dependence (internal bug)."""


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Outcome of one formula check: one equality flag per comparison site,
    in index order, plus their conjunction and the wall-clock time."""

    formula: str
    n: int
    k: int | None
    per_point: tuple[tuple[str, bool], ...]
    verified: bool
    timing_ms: float
    note: str = ""


def _y(arity: int, power: int = 1) -> RatExpr:
    return RatExpr.from_poly(SparsePoly.y_power(arity, power))


def _point_label(i: int) -> str:
    return f"p_{i}"


def _check_proj(n: int, same: Compare) -> tuple[list[tuple[str, bool]], str]:
    geo = GeometryConfig(n)
    y = _y(geo.arity)
    classes = {kind: projective_class(kind, n) for kind in ("Q", "X", "Qc", "Xc")}
    small = projective_class("Qc", n - 2, ambient=geo)
    rows = []
    for i in geo.indices:
        rhs = y * small.values[i]
        label = _point_label(i)
        open_form = same(f"{label} (Xc - Qc)", classes["Xc"].values[i] - classes["Qc"].values[i], rhs)
        closed_form = same(f"{label} (Q - X)", classes["Q"].values[i] - classes["X"].values[i], rhs)
        rows.append((label, open_form and closed_form))
    note = "n=2 relies on the conventions Q_0 = empty, td_y(empty) = 0" if n == 2 else ""
    return rows, note


def _check_con(n: int, same: Compare) -> tuple[list[tuple[str, bool]], str]:
    geo = GeometryConfig(n)
    y = _y(geo.arity)
    lhs = affine_class("CCX", n).at_origin - affine_class("CCQ", n).at_origin
    rhs = y * affine_class("CCQ", n - 2, ambient=geo).at_origin
    return [("origin", same("origin", lhs, rhs))], ""


def _check_dope(n: int, same: Compare) -> tuple[list[tuple[str, bool]], str]:
    geo = GeometryConfig(n)
    y = _y(geo.arity)
    lhs = affine_class("CQ", n).at_origin - affine_class("CX", n).at_origin
    rhs = y * (
        affine_class("Cn", n - 2, ambient=geo).at_origin
        - affine_class("CQ", n - 2, ambient=geo).at_origin
    )
    return [("origin", same("origin", lhs, rhs))], ""


def _cq_via_dope(geo: GeometryConfig, nsub: int) -> RatExpr:
    """CQ_{nsub} (embedded) by the dope rearrangement
    CQ_n = -y*CQ_{n-2} + CX_n + y*C^{n-2}, grounded at the cone-point bases
    CQ_0 = CQ_1 = 1; independent of the CCQ peeling recursion."""
    if nsub <= 1:
        return RatExpr.one(geo.arity)
    y = _y(geo.arity)
    cx = affine_class("CX", nsub, ambient=geo).at_origin
    cn2 = affine_class("Cn", nsub - 2, ambient=geo).at_origin
    return cx + y * cn2 - y * _cq_via_dope(geo, nsub - 2)


def _check_expl(n: int, same: Compare) -> tuple[list[tuple[str, bool]], str]:
    geo = GeometryConfig(n)
    lhs = affine_class("CCQ", n).at_origin
    rhs = affine_class("Cn", n).at_origin - _cq_via_dope(geo, n)
    return [("origin", same("origin", lhs, rhs))], "recursion vs additivity through CX classes"


def ystar_terms(geo: GeometryConfig, k: int) -> tuple[ProductTerm, ...]:
    """Recipe for the cone complement of the k-th special fiber
    (the form keeps the outer pairs k+1..m): the inner coordinates split off
    a plain C^{2k+eps} factor, the outer block degenerates like a CCQ of its
    own size without a zero coordinate."""
    inner = geo.indices_for(2 * k + (1 if geo.odd else 0))
    prefix = tuple((geo.affine_weight(j), False) for j in inner)
    outer_pairs = tuple(range(k + 1, geo.m + 1))
    return tuple((c, yp, prefix + factors) for c, yp, factors in ccq_terms(geo, outer_pairs, False))


def _check_remark(n: int, k: int, same: Compare) -> tuple[list[tuple[str, bool]], str]:
    geo = GeometryConfig(n)
    if not 0 <= k <= geo.m - 1:
        raise ValueError(f"k must satisfy 0 <= k <= m-1 = {geo.m - 1}, got {k}")
    lhs = affine_class("CCQ", n).at_origin
    ystar = sum_of_products(geo.arity, ystar_terms(geo, k))
    nsmall = 2 * k + (1 if geo.odd else 0)
    small = affine_class("CCQ", nsmall, ambient=geo).at_origin
    rhs = ystar + _y(geo.arity, geo.m - k) * ((-1) ** (geo.m - k) * small)
    rows = [("origin", same("origin", lhs, rhs))]
    note = ""
    if k == geo.m - 1:
        label = "Y* = CCX (k=m-1)"
        rows.append((label, same(label, ystar, affine_class("CCX", n).at_origin)))
        note = "k = m-1: the special fiber is X_n, so the statement coincides with con"
    return rows, note


def closed_form_expr(n: int) -> RatExpr:
    """The displayed diagonal sums in the single variable T = e^{-t}:

    for n = 2m      (1+y)^2 T^2 sum_{i=1..m} (-y)^{m-i} (1+yT)^{2i-2}/(1-T)^{2i}
    for n = 2m+1    (-y)^m (1+y)T/(1-T)
                    + (1+y)^2 T^2 sum_{i=1..m} (-y)^{m-i} (1+yT)^{2i-1}/(1-T)^{2i+1}
    """
    if n < 2:
        raise ValueError("closed forms displayed for n >= 2")
    m, odd = n // 2, n % 2 == 1
    t = Character.basis(1, 0)
    one_plus_yt = SparsePoly.one(1) + SparsePoly.monomial(t, 1)  # 1 + y*T
    t2 = SparsePoly.monomial(t.scaled(2))  # T^2
    one_plus_y_sq = (SparsePoly.one(1) + SparsePoly.y_power(1)) ** 2
    total = RatExpr.zero(1)
    for i in range(1, m + 1):
        ypart = SparsePoly.y_power(1, m - i, (-1) ** (m - i))
        expo = 2 * i - 1 if odd else 2 * i - 2
        num = one_plus_y_sq * t2 * ypart * one_plus_yt**expo
        total = total + RatExpr(num, (t,) * (expo + 2))
    if odd:
        num = SparsePoly.y_power(1, m, (-1) ** m) * (SparsePoly.y_power(1) + 1) * SparsePoly.monomial(t)
        total = total + RatExpr(num, (t,))
    return total


def _check_closed_form(n: int, same: Compare) -> tuple[list[tuple[str, bool]], str]:
    from .specialize import diagonalize  # local import: specialize builds on this module's siblings only

    diag = diagonalize(affine_class("CCQ", n))
    return [("diagonal", same("diagonal", diag, closed_form_expr(n)))], ""


def _check_milnor(n: int, same: Compare) -> tuple[list[tuple[str, bool]], str]:
    geo = GeometryConfig(n)
    q = projective_class("Q", n)
    x = projective_class("X", n)
    rows = [
        (_point_label(i), same(_point_label(i), q.values[i].subs_y(0), x.values[i].subs_y(0)))
        for i in geo.indices
    ]
    cq = affine_class("CQ", n).at_origin.subs_y(0)
    cx = affine_class("CX", n).at_origin.subs_y(0)
    rows.append(("origin", same("origin", cq, cx)))
    return rows, "Todd classes (y = 0) of generic and special fibers agree"


def _check_blowup(n: int, same: Compare) -> tuple[list[tuple[str, bool]], str]:
    rows = []
    for open_kind, cone_kind in (("Qc", "CCQ"), ("Xc", "CCX")):
        push = cone_pushforward(projective_class(open_kind, n))
        direct = affine_class(cone_kind, n).at_origin
        label = f"{open_kind}->{cone_kind}"
        rows.append((label, same(label, push, direct)))
    return rows, ""


_CHECKS = {
    "proj": _check_proj,
    "con": _check_con,
    "dope": _check_dope,
    "expl": _check_expl,
    "closed_form": _check_closed_form,
    "milnor_div_y": _check_milnor,
    "blowup_consistency": _check_blowup,
}


def verify(formula: str, n: int, k: int | None = None, seed: int = 0) -> VerificationReport:
    """Check one formula at one size; see the module docstring for the list.

    Every comparison is decided exactly.  For each one that fails, the note
    gets its label and the first of the points :func:`sample_points` draws
    from ``seed`` where the two sides differ, with both values, e.g.
    ``p_1 differs at T=(2/3, 5/7), y=-3/4: 1/2 != 3/5``; ``proj`` labels its
    two forms ``p_i (Xc - Qc)`` and ``p_i (Q - X)``.  Passing checks leave the
    note as it is.

    >>> verify("con", 2).verified
    True
    >>> verify("proj", 4).per_point
    (('p_-2', True), ('p_-1', True), ('p_1', True), ('p_2', True))
    """
    if formula not in FORMULAS:
        raise ValueError(f"unknown formula {formula!r}; expected one of {FORMULAS}")
    if n < 2:
        raise ValueError(f"formula {formula} needs n >= 2")
    if formula == "remark_k":
        if k is None:
            raise ValueError("remark_k needs the degeneration index k")
    elif k is not None:
        raise ValueError(f"formula {formula} takes no k")
    misses: list[str] = []

    def same(label: str, lhs: RatExpr, rhs: RatExpr) -> bool:
        if lhs.equivalent(rhs):
            return True
        misses.append(f"{label} {lhs.witness(rhs, seed)}")
        return False

    start = time.perf_counter()
    if formula == "remark_k":
        rows, note = _check_remark(n, k, same)
    else:
        rows, note = _CHECKS[formula](n, same)
    elapsed = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        formula=formula,
        n=n,
        k=k,
        per_point=tuple(rows),
        verified=all(flag for _, flag in rows),
        timing_ms=elapsed,
        note="; ".join(filter(None, [note, *misses])),
    )


def _union(dens: Iterable[Sequence[Character]]) -> list[Character]:
    """The common denominator of ``dens``: each weight at its largest
    multiplicity, in character order."""
    common: dict[Character, int] = {}
    for den in dens:
        for w in set(den):
            common[w] = max(common.get(w, 0), den.count(w))
    return sorted((w for w, k in common.items() for _ in range(k)), key=lambda w: w.coeffs)


def _without(factors: list[Character], den: Iterable[Character]) -> list[Character]:
    """``factors`` less one copy of each weight of ``den``."""
    rest = list(factors)
    for w in den:
        rest.remove(w)
    return rest


def integrate_projective(cls: LocalClass) -> SparsePoly:
    """Sum the localized values over all fixed points of P^{n-1}.

    The sum is the pushforward to a point, so all T-dependence must cancel;
    the result is the chi_y polynomial of the space.

    The sum runs in one variable through the packed ring of
    :class:`~eck.algebra.PackedBox`, sized from the data.  Let ``L`` be the
    common denominator (each weight at its largest multiplicity over the
    points), ``D = prod_{w in L} (1 - T^w)`` and
    ``N = sum_i num_i * prod_{w in L - den_i} (1 - T^w)``, so the sum is
    ``N / D``.  A per-coordinate box holding 0 and every monomial of ``D``
    and of each summand of ``N`` is read off the weights and numerators
    (:func:`~eck.algebra.weight_box`) without expanding anything, and
    ``ystride`` exceeds every y-power.

    One cancel step does the work: it lifts packed numerators to their
    common denominator by shift-and-subtract, adds them, and divides out,
    in character order, each factor of that denominator that divides the
    sum with no quotient key past the packed top of the box (a factor that
    fails is not retried).  Each antipodal pair ``p_i``, ``p_{-i}`` of two
    nonzero values goes through it first (the Atiyah-Bott/GKM order: the
    poles a pair shares cancel as soon as its two points are added); then
    the reduced pairs and any single point (``p_0`` for odd n, or a pair
    with one zero value) go through it together.
    :class:`ResidualTDependence` is raised unless that leaves no factor and
    only ``s^0``.

    The top bound refuses no division that holds over the full torus: such
    a quotient lies in its dividend's Newton polytope, and if
    ``N / D = P(y)``, each quotient of the last step is ``P`` times the
    factors still to come.  A pair's factor it refuses waits for the last
    step.  The check is exactly as strong as summing over the full torus.
    Every step is an identity in the one-variable Laurent ring, so if it
    passes with result ``P(y)``, then ``phi(N) = P * phi(D)``, so
    ``phi(N - P*D) = 0``; ``N - P*D`` lives in the box, where ``phi`` is
    injective, hence ``N = P*D``.

    >>> integrate_projective(projective_class("Q", 2))
    2
    >>> integrate_projective(projective_class("P", 2))
    1 - y
    """
    if not cls.is_projective:
        raise ValueError("integration over fixed points applies to projective classes")
    geo = cls.geometry
    arity = geo.arity
    pairs = [(0,)] if geo.odd else []
    pairs += [(-i, i) for i in range(1, geo.m + 1)]
    groups = [[cls.values[i] for i in pair if not cls.values[i].is_zero] for pair in pairs]
    groups = [group for group in groups if group]
    values = [v for group in groups for v in group]
    factors = _union(v.den for v in values)
    lo, hi = weight_box(factors, arity)
    for v in values:
        rlo, rhi = weight_box(_without(factors, v.den), arity)
        for m in v.num.terms:
            for k, e in enumerate(m.char.coeffs):
                lo[k] = min(lo[k], e + rlo[k])
                hi[k] = max(hi[k], e + rhi[k])
    ystride = 1 + max((m.ypow for v in values for m in v.num.terms), default=0)
    box = PackedBox(lo, hi, ystride)
    key = box.key
    top = key(tuple(hi)) + ystride - 1

    def cancel(parts: list[tuple[dict[int, Coeff], Sequence[Character]]]) -> tuple[dict[int, Coeff], list[Character]]:
        """Sum the packed numerators ``parts`` (each over its denominator)
        over their common denominator and divide out each factor that
        divides; return the quotient and the factors left."""
        common = _union(den for _, den in parts)
        total: dict[int, Coeff] = {}
        for part, den in parts:
            for w in _without(common, den):
                part = _times_binomial(part, key(w.coeffs), -1)
            _add_into(total, part)
        left: list[Character] = []
        for w in common:
            quotient = None if w in left else _over_one_minus(total, key(w.coeffs), top)
            if quotient is None:
                left.append(w)
            else:
                total = quotient
        return total, left

    reduced = []
    for group in groups:
        parts = [({key(m.char.coeffs) + m.ypow: c for m, c in v.num.terms.items()}, v.den) for v in group]
        reduced.append(cancel(parts) if len(parts) == 2 else parts[0])
    total, left = cancel(reduced)
    if left:
        raise ResidualTDependence(
            f"fixed-point sum of {cls.space}_{cls.n} kept T-dependence: "
            f"the factor (1 - {SparsePoly.monomial(left[0])}) of the common denominator did not cancel"
        )
    leftover = [(k, c) for k, c in sorted(total.items()) if not 0 <= k < ystride]
    if leftover:
        k, c = leftover[0]
        m = box.monomial(k)
        raise ResidualTDependence(
            f"fixed-point sum of {cls.space}_{cls.n} kept T-dependence: "
            f"leftover term {SparsePoly.monomial(m.char, m.ypow, c)}"
        )
    return SparsePoly.from_terms(arity, [(Monomial(Character.zero(arity), k), c) for k, c in total.items()])


def chi_y(kind: str, n: int) -> SparsePoly:
    """chi_y genus of a projective-space kind, via fixed-point summation."""
    return integrate_projective(projective_class(kind, n))
