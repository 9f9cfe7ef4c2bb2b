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
to the chi_y polynomial as the top entry of the packed Newton
divided-difference table of :func:`~eck.hirzebruch._newton_table`, keyed on
T alone; its docstring gives the box and why the result is exactly the
full-torus sum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import lcm
from typing import Callable

from .algebra import Character, NotDivisible, PackedBox, RatExpr, SparsePoly, weight_box
from .hirzebruch import (
    LocalClass,
    ProductTerm,
    _newton_table,
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
    """A fixed-point sum kept T-dependence, or its values are not a class
    (internal bug)."""


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
    one_plus_y = SparsePoly.one(1) + SparsePoly.y_power(1)
    one_plus_y_sq = one_plus_y * one_plus_y
    power = one_plus_yt if odd else SparsePoly.one(1)  # (1 + yT)^expo, expo = 2i - 1 or 2i - 2
    total = RatExpr.zero(1)
    for i in range(1, m + 1):
        ypart = SparsePoly.y_power(1, m - i, (-1) ** (m - i))
        expo = 2 * i - 1 if odd else 2 * i - 2
        num = one_plus_y_sq * t2 * ypart * power
        total = total + RatExpr(num, (t,) * (expo + 2))
        power = power * one_plus_yt * one_plus_yt
    if odd:
        num = SparsePoly.y_power(1, m, (-1) ** m) * one_plus_y * SparsePoly.monomial(t)
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


def _balanced_digits(r: int, width: int) -> dict[int, int]:
    """The nonzero digits ``d_k`` of ``r = sum_k d_k 2^(width*k)`` with
    ``-2^(width-1) <= d_k < 2^(width-1)``, by ascending ``k``.

    >>> _balanced_digits(3 - (2 << 8), 8)
    {0: 3, 1: -2}
    """
    half, mask = 1 << (width - 1), (1 << width) - 1
    digits: dict[int, int] = {}
    k = 0
    while r:
        d = ((r + half) & mask) - half
        if d:
            digits[k] = d
        r = (r - d) >> width
        k += 1
    return digits


def integrate_projective(cls: LocalClass) -> SparsePoly:
    """Sum the localized values over all fixed points of P^{n-1}.

    The sum is the pushforward to a point, so all T-dependence must cancel;
    the result is the chi_y polynomial of the space.

    The sum is the top entry ``g[x_1..x_n]`` of the packed Newton table of
    :func:`~eck.hirzebruch._newton_table`: nodes ``x_j = T^{t_j}`` in index
    order, inputs ``g_i = values[i] * prod_{j != i} (x_i - x_j)``.  Here the
    packed ring of :class:`~eck.algebra.PackedBox` keys T alone, sized from
    the data, with y kept in the coefficient.  Let ``L`` be
    the common denominator (each weight at its largest multiplicity over the
    points), ``D = prod_{w in L} (1 - T^w)`` and
    ``N = sum_i num_i * prod_{w in L - den_i} (1 - T^w)``, so the sum is
    ``N / D``.  The box is the Newton box of ``D``
    (:func:`~eck.algebra.weight_box`) widened in each coordinate by the
    extent of 0 and of every numerator character, and to at least
    ``[-1, 1]`` in every pair coordinate, so it holds every node weight
    ``t_j`` and every monomial of ``D`` and of each summand of ``N`` without
    expanding anything.  Each T-monomial's y-polynomial ``sum_k c_k y^k`` is
    one integer ``sum_k c_k 2^(B*k)`` (Kronecker substitution for y): with
    ``M`` the sum of ``|c|`` over every numerator (cleared of denominators)
    and ``|L|`` factors, the slot width is
    ``B = bitlen(M * (2^|L| + 4^|L|)) + 1``.

    For a class every step of the table divides over the full torus, and
    packing keeps an exact division exact, so a step that leaves a
    remainder, like a denominator factor that is no tangent weight at its
    point, raises :class:`ResidualTDependence`: the values are not a class.
    It is raised as well unless the top entry is the key 0 alone, whose
    balanced base-``2^B`` digits are the coefficients of ``P(y)``.

    A returned ``P(y)`` is exactly the full-torus sum.  Let ``psi`` map
    ``T^e y^k`` to ``2^(B*k) z^phi(e)``.  The packed table's top entry ``R``
    equals ``psi(N) / psi(D)`` when the node keys ``phi(t_j)`` are pairwise
    distinct, as the box makes them, so ``psi(N) = R psi(D)``.  The lowest
    key of ``psi(D)`` has coefficient ``+-1``; ``phi`` is injective on the
    box, so the lowest key of ``psi(N)`` carries one T-monomial of ``N``,
    whose y-coefficients are at most ``M 2^|L| < 2^(B-1)``.  Hence the
    balanced digits of ``R`` are the coefficients of ``P``, with
    ``|p_k| <= M 2^|L|``, and every y-coefficient of ``N - P*D`` is below
    ``M 2^|L| + M 4^|L| < 2^(B-1)``.  ``psi`` is injective on such
    polynomials with T-support in the box, and ``psi(N - P*D) = 0``, hence
    ``N = P*D``.

    >>> integrate_projective(projective_class("Q", 2))
    2
    >>> integrate_projective(projective_class("P", 2))
    1 - y
    """
    if not cls.is_projective:
        raise ValueError("integration over fixed points applies to projective classes")
    geo = cls.geometry
    arity = geo.arity
    most: dict[Character, int] = {}  # each weight at its largest multiplicity
    chars: set[tuple[int, ...]] = set()
    scale, total = 1, 0
    for value in cls.values.values():
        if value.is_zero:
            continue
        for w, run in groupby(value.den):  # the denominator is stored sorted
            k = len(tuple(run))
            if k > most.get(w, 0):
                most[w] = k
        for key, c in value.num.terms.items():
            chars.add(key[1:])
            if type(c) is not int:
                scale = lcm(scale, c.denominator)
            total += abs(c)
    factors = [w for w, k in most.items() for _ in range(k)]
    lo, hi = weight_box(factors, arity)
    for k, column in enumerate(zip(*chars)):
        lo[k] += min(0, *column)
        hi[k] += max(0, *column)
    for k in range(1, arity):
        lo[k], hi[k] = min(lo[k], -1), max(hi[k], 1)
    box = PackedBox(lo, hi, 1)
    mass = int(scale * total)
    width = (mass * (2 ** len(factors) + 4 ** len(factors))).bit_length() + 1
    packed = {e: box.key(e) for e in chars}

    def pack(terms: dict, sign: int) -> dict[int, int]:
        """``sign`` times a numerator times ``scale``, y-powers in
        ``width``-bit slots."""
        part: dict[int, int] = {}
        for key, c in terms.items():
            k = packed[key[1:]]
            part[k] = part.get(k, 0) + (int(sign * c * scale) << width * key[0])
        return part

    try:
        table = _newton_table(cls, box, pack)
    except (NotDivisible, ValueError) as err:
        raise ResidualTDependence(str(err)) from None
    total = table[-1] if table else {}  # the empty space (Q_0, Qc_0) integrates to 0
    leftover = min((k for k in total if k), default=0)
    if leftover:
        ypow, c = next(iter(_balanced_digits(total[leftover], width).items()))
        raise ResidualTDependence(
            f"fixed-point sum of {cls.space}_{cls.n} kept T-dependence: "
            f"leftover term {SparsePoly.monomial(Character(box.monomial(leftover)[1:]), ypow, Fraction(c, scale))}"
        )
    zero = (0,) * arity
    digits = _balanced_digits(total.get(0, 0), width)
    return SparsePoly.from_terms(arity, [((k,) + zero, Fraction(c, scale)) for k, c in digits.items()])


def chi_y(kind: str, n: int) -> SparsePoly:
    """chi_y genus of a projective-space kind, via fixed-point summation."""
    return integrate_projective(projective_class(kind, n))
