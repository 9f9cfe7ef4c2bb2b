"""Localized classes: fixed-point values of the projective family and the
origin values of the cone family, with the frozen per-point product forms,
and the process-wide cache that shares each built class."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfactors import hfactor_expr, hfactor_minus_one_expr

from eck.algebra import Character, DivisionByZero, NotDivisible, RatExpr, SparsePoly
from eck.hirzebruch import (
    AFFINE_KINDS,
    PROJECTIVE_KINDS,
    affine_class,
    cone_pushforward,
    projective_class,
    sum_of_products,
)
from eck.cli import run
from eck.identities import ystar_terms
from eck.torus import GeometryConfig


def ch(*coeffs: int) -> Character:
    return Character(tuple(coeffs))


def smooth_germ(weights, arity: int) -> RatExpr:
    """Localized class of a smooth germ: the one-term recipe prod h(T^w)."""
    return sum_of_products(arity, [(1, 0, tuple((w, False) for w in weights))])


# -- building blocks ---------------------------------------------------------


def test_smooth_local_point():
    assert smooth_germ((), 1).equivalent(RatExpr.one(1))


def test_smooth_local_single_line():
    t = ch(1)
    got = smooth_germ((t,), 1)
    assert got.equivalent(hfactor_expr(t))


def test_smooth_local_pair():
    a, b = ch(1, 1), ch(1, -1)
    assert smooth_germ((a, b), 2).equivalent(hfactor_expr(a) * hfactor_expr(b))


def test_smooth_local_rejects_zero_weight():
    with pytest.raises(DivisionByZero):
        smooth_germ((ch(0, 0),), 2)


def test_hfactor_collapses_at_y_minus_one():
    v = hfactor_expr(ch(1)).subs_y(Fraction(-1)).reduced()
    assert v.den == () and v.num == SparsePoly.one(1)


# -- projective classes: frozen point values --------------------------------


def test_quadric_complement_n4_at_p1():
    # (h(T_1^{-2}) - 1) * h(T_2 T_1^{-1}) * h(T_2^{-1} T_1^{-1})
    cls = projective_class("Qc", 4)
    expect = (
        hfactor_minus_one_expr(ch(0, -2, 0))
        * hfactor_expr(ch(0, -1, 1))
        * hfactor_expr(ch(0, -1, -1))
    )
    assert cls.values[1].equivalent(expect)


def test_pair_complement_n4_at_p1():
    # h(T_1^{-2}) * (h(T_2 T_1^{-1}) - 1) * (h(T_2^{-1} T_1^{-1}) - 1)
    cls = projective_class("Xc", 4)
    expect = (
        hfactor_expr(ch(0, -2, 0))
        * hfactor_minus_one_expr(ch(0, -1, 1))
        * hfactor_minus_one_expr(ch(0, -1, -1))
    )
    assert cls.values[1].equivalent(expect)


def test_pair_complement_n4_at_top_point():
    # at p_2 the variety is one hyperplane through the point: h(T_2^{-2}) - 1
    # survives from the x_{-2} hyperplane and the other tangent factors remain
    cls = projective_class("Xc", 4)
    expect = (
        hfactor_minus_one_expr(ch(0, 0, -2))
        * hfactor_expr(ch(0, 1, -1))
        * hfactor_expr(ch(0, -1, -1))
    )
    assert cls.values[2].equivalent(expect)


def test_closed_quadric_n2_is_two_reduced_points():
    cls = projective_class("Q", 2)
    for i in (-1, 1):
        assert cls.values[i].equivalent(RatExpr.one(2))


def test_closed_quadric_matches_smooth_tangent_product():
    # additivity value at a quadric point == product over the quadric's own
    # tangent weights {t_j - t_i : j != +-i}
    for n in (4, 5, 6):
        geo = GeometryConfig(n)
        cls = projective_class("Q", n)
        for i in geo.indices:
            if i == 0:
                continue  # p_0 (odd n) is off the quadric
            wi = geo.proj_weight(i)
            weights = tuple(
                geo.proj_weight(j) - wi for j in geo.indices if j not in (i, -i)
            )
            assert cls.values[i].equivalent(smooth_germ(weights, geo.arity))


def test_odd_center_point_off_quadric():
    for n in (3, 5):
        assert projective_class("Q", n).values[0].num.is_zero
        p = projective_class("P", n)
        qc = projective_class("Qc", n)
        assert qc.values[0].equivalent(p.values[0])


def test_additivity_closure_pointwise():
    for n in (2, 3, 4, 5):
        p = projective_class("P", n)
        for closed, opened in (("Q", "Qc"), ("X", "Xc")):
            a = projective_class(closed, n)
            b = projective_class(opened, n)
            for i in p.geometry.indices:
                assert (a.values[i] + b.values[i]).equivalent(p.values[i])


def test_y_minus_one_collapse():
    for n in (3, 4):
        p = projective_class("P", n)
        for i, v in p.values.items():
            r = v.subs_y(Fraction(-1)).reduced()
            assert r.den == () and r.num == SparsePoly.one(r.num.arity)
        qc = projective_class("Qc", n)
        for i, v in qc.values.items():
            if i == 0:
                continue  # off the quadric the complement restricts to 1
            assert v.subs_y(Fraction(-1)).reduced().num.is_zero
        xc = projective_class("Xc", n)
        for v in xc.values.values():  # every fixed point lies on the pair
            assert v.subs_y(Fraction(-1)).reduced().num.is_zero


def test_subspace_class_vanishes_off_subspace():
    ambient = GeometryConfig(4)
    cls = projective_class("Qc", 2, ambient)
    assert cls.values[2].num.is_zero and cls.values[-2].num.is_zero
    assert not cls.values[1].num.is_zero


def test_ambient_independence_of_subspace_values():
    # the same product form, placed in the bigger variable ring
    small = projective_class("Qc", 2)
    big = projective_class("Qc", 2, GeometryConfig(4))
    embed = [Character.basis(3, 0), Character.basis(3, 1)]
    for i in (-1, 1):
        assert small.values[i].apply_map(embed).equivalent(big.values[i])


def test_projective_floors():
    with pytest.raises(ValueError):
        projective_class("P", 0)
    with pytest.raises(ValueError):
        projective_class("X", 1)
    with pytest.raises(ValueError):
        projective_class("banana", 4)


# -- affine classes ----------------------------------------------------------


def test_pair_cone_complement_n4():
    # (h(TT_2)-1)(h(TT_2^{-1})-1) h(TT_1) h(TT_1^{-1})
    expect = (
        hfactor_minus_one_expr(ch(1, 0, 1))
        * hfactor_minus_one_expr(ch(1, 0, -1))
        * hfactor_expr(ch(1, 1, 0))
        * hfactor_expr(ch(1, -1, 0))
    )
    assert affine_class("CCX", 4).at_origin.equivalent(expect)


def test_punctured_line_class():
    assert affine_class("Cstar", 1).at_origin.equivalent(hfactor_minus_one_expr(ch(1)))


def test_quadric_cone_complement_n2():
    expect = hfactor_minus_one_expr(ch(1, 1)) * hfactor_minus_one_expr(ch(1, -1))
    got = affine_class("CCQ", 2)
    assert got.at_origin.equivalent(expect)
    assert got.at_origin.equivalent(affine_class("CCX", 2).at_origin)


def test_quadric_cone_complement_n3_has_axis_term():
    # k=0 pair term plus (-y)(h(T) - 1) for the x_0 axis
    a, b, t = ch(1, 1), ch(1, -1), ch(1, 0)
    y = SparsePoly.y_power(2)
    pair = hfactor_minus_one_expr(a) * hfactor_minus_one_expr(b) * hfactor_expr(t)
    axis = hfactor_minus_one_expr(t)
    expect = pair + RatExpr.from_poly(SparsePoly.zero(2) - y) * axis
    assert affine_class("CCQ", 3).at_origin.equivalent(expect)


def test_whole_space_class():
    geo = GeometryConfig(3)
    expect = smooth_germ(tuple(geo.affine_weight(j) for j in geo.indices), geo.arity)
    assert affine_class("Cn", 3).at_origin.equivalent(expect)


def test_cone_additivity():
    for n in (2, 3, 4):
        cn = affine_class("Cn", n).at_origin
        for closed, opened in (("CQ", "CCQ"), ("CX", "CCX")):
            a = affine_class(closed, n).at_origin
            b = affine_class(opened, n).at_origin
            assert (a + b).equivalent(cn)


def test_cone_bases():
    assert affine_class("CCQ", 0).at_origin.num.is_zero
    assert affine_class("CCQ", 1).at_origin.equivalent(hfactor_minus_one_expr(ch(1)))
    assert affine_class("CQ", 0).at_origin.equivalent(RatExpr.one(1))
    assert affine_class("CQ", 1).at_origin.equivalent(
        affine_class("Cn", 1).at_origin - hfactor_minus_one_expr(ch(1))
    )


def test_affine_guards():
    with pytest.raises(ValueError):
        affine_class("CCX", 1)  # needs at least one hyperbolic pair
    with pytest.raises(ValueError):
        affine_class("banana", 4)


# -- cone pushforward --------------------------------------------------------


def _zero_projective(n: int):
    from eck.hirzebruch import LocalClass

    geo = GeometryConfig(n)
    return LocalClass(
        geometry=geo,
        space="zero",
        n=n,
        values={i: RatExpr.zero(geo.arity) for i in geo.indices},
        recipes={i: () for i in geo.indices},
    )


def test_class_values_are_reduced():
    """Single-term recipes skip reduced(); every stored value must still be
    fully reduced, so reducing again changes nothing."""
    for n in range(2, 7):
        for kind in PROJECTIVE_KINDS:
            for v in projective_class(kind, n).values.values():
                assert str(v.reduced()) == str(v), (kind, n)
        for kind in AFFINE_KINDS:
            v = affine_class(kind, n).at_origin
            assert str(v.reduced()) == str(v), (kind, n)


def test_pushforward_of_zero():
    assert cone_pushforward(_zero_projective(3)).num.is_zero


def test_pushforward_quadric_complement_n2():
    got = cone_pushforward(projective_class("Qc", 2))
    assert got.equivalent(affine_class("CCQ", 2).at_origin)


def test_pushforward_pair_complement_n4():
    got = cone_pushforward(projective_class("Xc", 4))
    assert got.equivalent(affine_class("CCX", 4).at_origin)


def test_pushforward_linearity():
    from eck.hirzebruch import LocalClass

    n = 3
    geo = GeometryConfig(n)
    a = projective_class("Qc", n)
    b = projective_class("Xc", n)
    combined = LocalClass(
        geometry=geo,
        space="sum",
        n=n,
        values={i: a.values[i] + b.values[i] for i in geo.indices},
        recipes={i: () for i in geo.indices},
    )
    lhs = cone_pushforward(combined)
    rhs = cone_pushforward(a) + cone_pushforward(b)
    assert lhs.equivalent(rhs)


def _pushforward_point_by_point(cls) -> RatExpr:
    """The pushforward as a plain fold: every fixed point's term added in
    index order, one reduction at the end."""
    geo = cls.geometry
    out = RatExpr.zero(geo.arity)
    for i in geo.indices:
        out = out + hfactor_minus_one_expr(geo.affine_weight(i)) * cls.values[i]
    return out.reduced()


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("kind", PROJECTIVE_KINDS)
def test_paired_pushforward_equals_the_point_by_point_fold(kind, n):
    cls = projective_class(kind, n)
    paired, folded = cone_pushforward(cls), _pushforward_point_by_point(cls)
    assert str(paired) == str(folded)
    assert paired.equivalent(folded)


@pytest.mark.parametrize("n", [4, 5])
def test_paired_pushforward_with_one_end_of_a_pair_zero(n):
    """Xc with the value at p_-1 zeroed is not a class, so a divided
    difference leaves a remainder: one line names the space and the two end
    nodes of the step.  The table's first level runs from the last node
    down, so that is the step from p_-1 to the node after it."""
    from eck.hirzebruch import LocalClass

    geo = GeometryConfig(n)
    values = dict(projective_class("Xc", n).values)
    values[-1] = RatExpr.zero(geo.arity)
    cls = LocalClass(geometry=geo, space="Xc off p_-1", n=n, values=values, recipes={i: () for i in geo.indices})
    ends = {4: "p_-1..p_1", 5: "p_-1..p_0"}[n]
    with pytest.raises(NotDivisible) as err:
        cone_pushforward(cls)
    assert str(err.value) == (
        f"Xc off p_-1 (n={n}): the divided difference over {ends} leaves a remainder; the values are not a class"
    )


@pytest.mark.parametrize("n", range(2, 12))
def test_pushforward_is_the_direct_cone_complement_class(n):
    for open_kind, cone_kind in (("Qc", "CCQ"), ("Xc", "CCX")):
        got = cone_pushforward(projective_class(open_kind, n))
        assert got.equivalent(affine_class(cone_kind, n).at_origin), (open_kind, n)


def _perturbed(seed: int):
    """A projective class with one value changed, drawn from ``seed``: the
    value zeroed, ``y^k T^e`` or ``y^k (T^e - T^e')`` over a subset of the
    point's tangent weights added, or another point's value added.  The
    result may or may not be a class."""
    from eck.hirzebruch import LocalClass

    rng = random.Random(seed)
    kind, n = rng.choice(PROJECTIVE_KINDS), rng.randint(3, 6)
    geo = GeometryConfig(n)
    values = dict(projective_class(kind, n).values)
    i = rng.choice(geo.indices)
    how = rng.randrange(4)
    if how == 0:
        values[i] = RatExpr.zero(geo.arity)
    elif how == 3:
        values[i] = values[i] + values[rng.choice([j for j in geo.indices if j != i])]
    else:
        num, k = SparsePoly.zero(geo.arity), rng.randint(0, 2)
        for sign in (1, -1)[:how]:
            e = Character((0,) + tuple(rng.randint(-2, 2) for _ in range(geo.arity - 1)))
            num = num + SparsePoly.monomial(e, k, sign)
        tangent = tuple(w for w in geo.tangent_weights(i) if rng.random() < 0.5)
        values[i] = values[i] + RatExpr(num, tangent)
    return LocalClass(geometry=geo, space=f"{kind} perturbed", n=n, values=values, recipes={j: () for j in geo.indices})


@pytest.mark.parametrize("seed", range(300))
def test_pushforward_raises_or_is_the_fold_on_perturbed_values(seed):
    """Input that is not a class raises: ``cone_pushforward`` either raises
    NotDivisible or ValueError or returns the point-by-point fold, as it
    must when the perturbed values are still a class.  Seeds 48, 151, 254,
    273 and 292 are refused only by the decode check: there every packed
    division succeeds."""
    cls = _perturbed(seed)
    try:
        got = cone_pushforward(cls)
    except (NotDivisible, ValueError):
        return
    assert got.equivalent(_pushforward_point_by_point(cls))


def test_a_newton_coefficient_outside_the_box_is_refused():
    """``(T2 - T1) / (1 - T1^2)`` added to P_4 at p_1 is not a class (on flat
    keys the step over p_-1..p_1 leaves a remainder), yet every packed
    division succeeds, so the whole table is built; the decoded ``G_3``
    leaves the box of a class."""
    from eck.hirzebruch import LocalClass

    geo = GeometryConfig(4)
    values = dict(projective_class("P", 4).values)
    values[1] = values[1] + RatExpr(SparsePoly.monomial(ch(0, 0, 1)) - SparsePoly.monomial(ch(0, 1, 0)), (ch(0, 2, 0),))
    cls = LocalClass(geometry=geo, space="P off p_1", n=4, values=values, recipes={i: () for i in geo.indices})
    with pytest.raises(NotDivisible) as err:
        cone_pushforward(cls)
    assert str(err.value) == (
        "P off p_1 (n=4): the divided difference over p_-2..p_1 leaves the box of a class; the values are not a class"
    )


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", PROJECTIVE_KINDS)
def test_restriction_over_the_tangent_weights_is_the_value(kind, n):
    """The packed restriction ``g_i``, read back from the Newton table by
    Newton's formula ``g_i = sum_k G_k prod_{j<k} (x_i - x_j)``, over
    ``x_i^{n-1} prod (1 - T^w)`` (tangent weights w at p_i) gives back the
    value at p_i.  The box is generous: every ``G_k`` lies in it."""
    from eck.algebra import PackedBox
    from eck.hirzebruch import _newton_table

    cls = projective_class(kind, n)
    geo = cls.geometry
    box = PackedBox([0] + [-4 * n] * (geo.arity - 1), [0] + [4 * n] * (geo.arity - 1), n + 1)
    table = _newton_table(cls, box, lambda terms, sign: {box.key(k[1:]) + k[0]: sign * c for k, c in terms.items()})
    newton = [box.unpack(entry) for entry in table]
    nodes = [SparsePoly.monomial(geo.proj_weight(j)) for j in geo.indices]
    for i, xi in zip(geo.indices, nodes):
        restricted, basis = SparsePoly.zero(geo.arity), SparsePoly.one(geo.arity)
        for coeff, xj in zip(newton, nodes):
            restricted = restricted + coeff * basis
            basis = basis * (xi - xj)
        lowered = restricted.shifted(geo.proj_weight(i).scaled(1 - n))
        assert RatExpr(lowered, geo.tangent_weights(i)).equivalent(cls.values[i]), (kind, n, i)


def test_restriction_names_a_point_whose_denominator_is_not_tangent():
    from eck.hirzebruch import LocalClass

    n = 4
    geo = GeometryConfig(n)
    values = dict(projective_class("P", n).values)
    values[2] = values[2] * hfactor_expr(geo.t)
    cls = LocalClass(geometry=geo, space="P times h(T)", n=n, values=values, recipes={i: () for i in geo.indices})
    with pytest.raises(ValueError) as err:
        cone_pushforward(cls)
    assert str(err.value) == "P times h(T) (n=4) at p_2: denominator factor 1 - T^(t) is not a tangent weight of P^3 there"


# -- shift-and-add products against RatExpr multiplication ---------------------


def _multiplied(arity: int, terms) -> RatExpr:
    """A recipe evaluated by the generic route: each product multiplies the
    h-factor expressions as RatExprs, then the same sum and one reduction."""
    terms = tuple(terms)
    out = RatExpr.zero(arity)
    for c, k, factors in terms:
        part = RatExpr(SparsePoly.y_power(arity, k, c))
        for w, minus_one in factors:
            part = part * (hfactor_minus_one_expr(w) if minus_one else hfactor_expr(w))
        out = out + part
    return out.reduced() if len(terms) > 1 else out


def _assert_same_value(arity: int, terms) -> None:
    got, want = sum_of_products(arity, terms), _multiplied(arity, terms)
    assert got.den == want.den, terms
    assert got.num.terms == want.num.terms, terms


_FLOORS = {"P": 1, "Q": 0, "Qc": 0, "X": 2, "Xc": 2}


@pytest.mark.parametrize("kind", PROJECTIVE_KINDS)
def test_projective_recipes_match_multiplied_products(kind):
    for n in range(_FLOORS[kind], 9):
        cls = projective_class(kind, n)
        for i in cls.geometry.indices:
            _assert_same_value(cls.geometry.arity, cls.recipes[i])


@pytest.mark.parametrize("kind", AFFINE_KINDS)
def test_affine_recipes_match_multiplied_products(kind):
    for n in range(2 if kind in ("CX", "CCX") else 0, 9):
        cls = affine_class(kind, n)
        _assert_same_value(cls.geometry.arity, cls.recipes)


def test_special_fiber_recipes_match_multiplied_products():
    for n in range(4, 9):
        geo = GeometryConfig(n)
        for k in range(geo.m):
            _assert_same_value(geo.arity, ystar_terms(geo, k))


@st.composite
def _recipes(draw):
    """Random recipes: weights of either sign (so some are not
    sign-canonical), both factor kinds, and zero coefficients."""
    arity = draw(st.integers(1, 3))
    weight = st.tuples(*[st.integers(-2, 2)] * arity).filter(any).map(Character)
    term = st.tuples(
        st.integers(-3, 3),
        st.integers(0, 2),
        st.lists(st.tuples(weight, st.booleans()), max_size=4).map(tuple),
    )
    return arity, draw(st.lists(term, max_size=4))


@settings(max_examples=100, deadline=None)
@given(_recipes())
def test_random_recipes_match_multiplied_products(recipe):
    _assert_same_value(*recipe)


@st.composite
def _shared_recipes(draw):
    """Random recipes of two to four terms that all carry one random factor
    list (repeats allowed) at shuffled positions among their own factors, so
    ``sum_of_products`` takes its factored route."""
    arity = draw(st.integers(1, 3))
    weight = st.tuples(*[st.integers(-2, 2)] * arity).filter(any).map(Character)
    factor = st.tuples(weight, st.booleans())
    shared = draw(st.lists(factor, min_size=1, max_size=3))
    terms = []
    for _ in range(draw(st.integers(2, 4))):
        own = draw(st.lists(factor, max_size=3))
        factors = draw(st.permutations(shared + own))
        terms.append((draw(st.integers(-3, 3)), draw(st.integers(0, 2)), tuple(factors)))
    return arity, terms


@settings(max_examples=200, deadline=None)
@given(_shared_recipes())
def test_recipes_with_shared_factors_match_multiplied_products(recipe):
    _assert_same_value(*recipe)


def test_zero_weight_is_rejected_even_with_a_zero_coefficient():
    """Also when every term shares the zero weight, so it is factored out."""
    zero = (ch(0, 0), True)
    for c in (0, 1):
        for recipe in ([(c, 0, ((ch(1, 0), False), zero))], [(c, 0, ((ch(1, 0), False), zero)), (1, 1, (zero,))]):
            with pytest.raises(DivisionByZero, match="h-factor of the zero weight"):
                sum_of_products(2, recipe)


# -- the class cache ---------------------------------------------------------


def _clear_caches() -> None:
    projective_class.cache_clear()
    affine_class.cache_clear()


def _points(cls) -> dict:
    return dict(cls.values) if cls.is_projective else {"origin": cls.at_origin}


def _assert_same_terms(got: RatExpr, want: RatExpr) -> None:
    assert list(got.num.terms.items()) == list(want.num.terms.items())
    assert got.den == want.den


def test_calls_share_one_cached_class():
    """Positional, keyword and ``ambient=None`` calls are one cache key."""
    for build, kind, n in ((projective_class, "Qc", 4), (affine_class, "CCQ", 5)):
        first = build(kind, n)
        assert build(kind=kind, n=n) is first
        assert build(kind, n, None) is first
        assert build(kind, n, ambient=None) is first
        assert build(kind, n, ambient=GeometryConfig(n)) is first


def test_cached_classes_are_read_only():
    cls = projective_class("Q", 4)
    with pytest.raises(TypeError):
        cls.values[1] = RatExpr.zero(cls.geometry.arity)
    with pytest.raises(TypeError):
        cls.recipes[1] = ()
    with pytest.raises(TypeError):
        affine_class("CQ", 4).recipes[0] = ()


_CACHE_CASES = (
    [(projective_class, kind, n, None) for kind in PROJECTIVE_KINDS for n in range(_FLOORS[kind], 7)]
    + [(affine_class, kind, n, None) for kind in AFFINE_KINDS for n in range(2 if kind in ("CX", "CCX") else 0, 7)]
    + [(projective_class, "Qc", 4, GeometryConfig(6)), (affine_class, "CCQ", 3, GeometryConfig(5))]
)


def test_cold_builds_equal_cached_classes():
    """A build after ``cache_clear()`` equals the cached class term by term,
    and both equal the unshared evaluation of the class's own recipes."""
    warm = [build(kind, n, ambient) for build, kind, n, ambient in _CACHE_CASES]
    _clear_caches()
    for (build, kind, n, ambient), cached in zip(_CACHE_CASES, warm):
        cold = build(kind, n, ambient)
        assert cold is not cached and cold == cached, (kind, n)
        recipes = cached.recipes if cached.is_projective else {"origin": cached.recipes}
        for point, value in _points(cached).items():
            _assert_same_terms(_points(cold)[point], value)
            _assert_same_terms(value, sum_of_products(cached.geometry.arity, recipes[point]))


def test_cached_values_share_keys():
    """Equal flat keys and denominator characters across the values of the
    cached classes are one object, Q and X at n = 5 have keys in common, and
    clearing the cache empties the interning table."""
    from eck import hirzebruch

    seen: dict = {}
    keys = {}
    for cls in (projective_class("Q", 5), projective_class("X", 5), projective_class("Xc", 5), affine_class("CQ", 5)):
        keys[cls.space] = {key for value in _points(cls).values() for key in value.num.terms}
        for value in _points(cls).values():
            for key in list(value.num.terms) + list(value.den):
                assert seen.setdefault(key, key) is key
    assert keys["Q"] & keys["X"]
    assert hirzebruch._INTERNED
    projective_class.cache_clear()
    assert not hirzebruch._INTERNED


@pytest.mark.parametrize("build, kind, n", [(projective_class, "Xc", 6), (affine_class, "CCQ", 5)])
def test_cache_clear_empties_the_per_n_tables(build, kind, n):
    """``cache_clear()`` of either class builder also empties the memo of
    tangent products and the per-``n`` index and weight tables of the
    torus layer, and the class built again has the same values, term for
    term."""
    from eck import hirzebruch, torus

    tables = (hirzebruch._tangent_product, torus._indices, torus._weights)
    warm = build(kind, n)
    projective_class("Qc", 4)  # an affine class builds no tangent product
    assert all(table.cache_info().currsize for table in tables)
    build.cache_clear()
    assert not any(table.cache_info().currsize for table in tables)
    assert not hirzebruch._INTERNED
    cold = build(kind, n)
    assert cold is not warm
    for point, value in _points(warm).items():
        _assert_same_terms(_points(cold)[point], value)


def _table_json(capsys) -> dict:
    run(["table", "--max-n", "6", "--format", "json", "--timings"])
    out = json.loads(capsys.readouterr().out)
    for entry in out["results"]:
        del entry["timing_ms"]
    return out


def test_table_output_is_the_same_from_a_cold_and_a_warm_cache(capsys):
    _clear_caches()
    cold = _table_json(capsys)
    assert _table_json(capsys) == cold
