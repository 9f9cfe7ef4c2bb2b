"""Kernel tests: exact sparse-polynomial and rational-expression arithmetic.

The two nontrivial frozen identities (the cleared three-factor identity and
the two-line-bundle sum) are each checked twice: once through the kernel and
once through an independent plain-Fraction evaluation that shares no code
with the kernel.
"""

from fractions import Fraction
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st
import pytest

from eck.algebra import (
    ArityMismatch,
    Character,
    DenominatorVanishes,
    DivisionByZero,
    Monomial,
    NotDivisible,
    RatExpr,
    SparsePoly,
    _norm,
    _over_one_minus,
    _times_binomial,
    hfactor_expr,
    hfactor_minus_one_expr,
    sample_points,
)
from eck.hirzebruch import (
    AFFINE_KINDS,
    PROJECTIVE_KINDS,
    affine_class,
    projective_class,
)


def mono(*coeffs: int) -> SparsePoly:
    return SparsePoly.monomial(Character(tuple(coeffs)))


def yvar(arity: int) -> SparsePoly:
    return SparsePoly.y_power(arity)


# -- polynomial arithmetic ---------------------------------------------------


def test_mul_distributes_over_y_terms():
    T = mono(1)
    y = yvar(1)
    got = (1 + y * T) * (1 - T)
    expect = 1 - T + y * T - y * T * T
    assert got == expect


def test_difference_of_squares():
    T = mono(1)
    assert (1 - T) * (1 + T) == 1 - T * T


def test_arity_mismatch_rejected():
    with pytest.raises(ArityMismatch):
        mono(1) + mono(1, 0)


def test_y_stays_polynomial():
    with pytest.raises(ValueError):
        SparsePoly.y_power(1, -1)


def test_canonical_no_zero_terms():
    T = mono(1)
    assert (T - T).is_zero
    assert (T - T).terms == {}


# -- the cleared three-factor identity --------------------------------------
# At a middle fixed point the difference of the generic- and special-fiber
# classes, cleared of denominators, collapses to a single punctured-line
# block times y.


def test_cleared_identity_expands_to_zero():
    # arity 2: variable 0 carries T_i, variable 1 carries T_m
    Ti_m2 = mono(-2, 0)  # T_i^{-2}
    TmTi = mono(-1, 1)  # T_m T_i^{-1}
    TmiTi = mono(-1, -1)  # T_m^{-1} T_i^{-1}
    y = yvar(2)
    lhs = (1 + y * Ti_m2) * ((y + 1) * TmTi) * ((y + 1) * TmiTi) - ((y + 1) * Ti_m2) * (
        1 + y * TmTi
    ) * (1 + y * TmiTi)
    rhs = y * (y + 1) * Ti_m2 * (1 - TmTi) * (1 - TmiTi)
    assert (lhs - rhs).is_zero


def test_cleared_identity_fraction_oracle():
    # independent route: no kernel arithmetic, plain Fractions at 20 points
    rng = random.Random(20240814)
    for _ in range(20):
        ti = Fraction(rng.randint(1, 9), rng.randint(1, 9)) + 1  # nonzero
        tm = Fraction(rng.randint(1, 9), rng.randint(1, 9)) + 2
        yv = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        Ti_m2 = ti**-2
        TmTi = tm / ti
        TmiTi = 1 / (tm * ti)
        lhs = (1 + yv * Ti_m2) * ((yv + 1) * TmTi) * ((yv + 1) * TmiTi) - (
            (yv + 1) * Ti_m2
        ) * (1 + yv * TmTi) * (1 + yv * TmiTi)
        rhs = yv * (yv + 1) * Ti_m2 * (1 - TmTi) * (1 - TmiTi)
        assert lhs == rhs


# -- exact division ----------------------------------------------------------


def test_div_exact_binomial():
    T = mono(1)
    assert (1 - T * T).div_by_one_minus(Character((1,))) == 1 + T


def test_div_exact_with_y():
    T = mono(1)
    y = yvar(1)
    p = (y + 1) * T - (y + 1) * T * T
    assert p.div_by_one_minus(Character((1,))) == (y + 1) * T


def test_div_exact_not_divisible():
    # the y^0 line divides, the y^1 line leaves a remainder
    T = mono(1)
    with pytest.raises(NotDivisible):
        (1 - T + yvar(1) * T).div_by_one_minus(Character((1,)))


def test_div_by_zero():
    T = mono(1)
    with pytest.raises(DivisionByZero):
        (1 - T).div_by_one_minus(Character((0,)))


def test_div_by_one_minus_gives_the_known_quotient():
    # (1 - T T1^-1) (T + 3y) = T + 3y - T^2 T1^-1 - 3y T T1^-1
    y = yvar(2)
    p = mono(1, 0) + 3 * y - mono(2, -1) - 3 * y * mono(1, -1)
    assert p.div_by_one_minus(Character((1, -1))) == mono(1, 0) + 3 * y


# -- rational expressions ----------------------------------------------------


def test_two_fixed_point_sum_gives_genus_of_line():
    # h(S) + h(S^{-1}) = 1 - y: the two-point localization of the projective line
    s = Character((1,))
    total = (hfactor_expr(s) + hfactor_expr(-s)).reduced()
    assert total.den == ()
    assert total.num == 1 - yvar(1)


def test_punctured_line_square():
    t = Character((1,))
    got = (hfactor_minus_one_expr(t) * hfactor_minus_one_expr(t)).reduced()
    y = yvar(1)
    T = mono(1)
    expect = RatExpr((1 + y) * (1 + y) * T * T, (t, t))
    assert got.equivalent(expect)
    assert got.num == expect.num and got.den == expect.den


def test_subtract_self_is_zero():
    e = hfactor_expr(Character((1, 1)))
    assert (e - e).num.is_zero


def test_add_uses_max_multiset_union():
    t = Character((1,))
    a = RatExpr(SparsePoly.one(1), (t, t))
    b = RatExpr(SparsePoly.one(1), (t,))
    assert (a + b).den == (t, t)


def test_supporting_identity_of_the_positive_rewrite():
    # h(T T_m) + h(T T_m^{-1}) - 1 + y == -(1+y)(T^2 - 1) / ((1 - T T_m^{-1})(1 - T T_m))
    a = Character((1, 1))
    b = Character((1, -1))
    y = yvar(2)
    lhs = hfactor_expr(a) + hfactor_expr(b) + RatExpr.from_poly(y - 1)
    num = (1 + y) * (1 - mono(2, 0))  # -(1+y)(T^2-1)
    rhs = RatExpr(num, (a, b))
    assert lhs.equivalent(rhs)


def test_supporting_identity_fraction_oracle():
    rng = random.Random(77)
    for _ in range(20):
        T = Fraction(rng.randint(2, 9), rng.randint(10, 19))
        Tm = Fraction(rng.randint(2, 9), rng.randint(10, 19)) + 1
        yv = Fraction(rng.randint(-9, 9), rng.randint(1, 9))

        def h(x: Fraction) -> Fraction:
            return (1 + yv * x) / (1 - x)

        lhs = h(T * Tm) + h(T / Tm) - 1 + yv
        rhs = -(1 + yv) * (T**2 - 1) / ((1 - T / Tm) * (1 - T * Tm))
        assert lhs == rhs


def test_equal_after_multiplying_representative():
    t = Character((1,))
    y = yvar(1)
    T = mono(1)
    a = RatExpr(1 + y * T, (t,))
    b = RatExpr((1 + y * T) * (1 - T * T), (t, Character((2,))))
    assert a.equivalent(b)


def test_h_not_equal_h_minus_one():
    t = Character((1,))
    assert not hfactor_expr(t).equivalent(hfactor_minus_one_expr(t))


def test_denominator_zero_character_rejected():
    with pytest.raises(DivisionByZero):
        RatExpr(SparsePoly.one(1), (Character((0,)),))


# -- reduce -------------------------------------------------------------------


def test_reduce_cancels_shared_factor():
    t = Character((1,))
    T = mono(1)
    y = yvar(1)
    e = RatExpr((1 - T) * (1 + y * T), (t, t))
    r = e.reduced()
    assert r.num == 1 + y * T and r.den == (t,)


def test_reduce_clears_denominator_entirely():
    t = Character((1,))
    T = mono(1)
    r = RatExpr(1 - T * T, (t,)).reduced()
    assert r.num == 1 + T and r.den == ()


def test_reduce_idempotent_on_reduced_input():
    t = Character((1,))
    e = hfactor_expr(t).reduced()
    again = e.reduced()
    assert e.num == again.num and e.den == again.den


# -- substitution -------------------------------------------------------------


def test_point_evaluation():
    t = Character((1,))
    assert hfactor_expr(t).evaluate([Fraction(1, 2)], Fraction(2)) == 4


def test_point_evaluation_denominator_vanishes():
    t = Character((1,))
    with pytest.raises(DenominatorVanishes):
        hfactor_expr(t).evaluate([Fraction(1)], Fraction(2))


def test_diagonal_map_on_pair_complement():
    # the two-variable punctured-pair class collapses to (1+y)^2 T^2/(1-T)^2
    from eck.hirzebruch import affine_class

    cls = affine_class("CCX", 2)
    images = [Character((1,)), Character.zero(1)]
    got = cls.at_origin.apply_map(images).reduced()
    y = yvar(1)
    T = mono(1)
    expect = RatExpr((1 + y) * (1 + y) * T * T, (Character((1,)), Character((1,))))
    assert got.equivalent(expect)


def test_ill_formed_map_rejected():
    from eck.algebra import IllFormedMap

    with pytest.raises(IllFormedMap):
        mono(1, 0).apply_map([Character((1,))])


# -- randomized properties ----------------------------------------------------


def _random_poly(rng: random.Random, arity: int, nterms: int = 6) -> SparsePoly:
    items = []
    for _ in range(nterms):
        char = Character(tuple(rng.randint(-2, 2) for _ in range(arity)))
        items.append((Monomial(char, rng.randint(0, 2)), Fraction(rng.randint(-6, 6), rng.randint(1, 4))))
    return SparsePoly.from_terms(arity, items)


def test_ring_axioms_randomized():
    rng = random.Random(1)
    for _ in range(40):
        arity = rng.randint(0, 3)
        a, b, c = (_random_poly(rng, arity) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero


def test_div_mul_roundtrip_randomized():
    rng = random.Random(2)
    for _ in range(30):
        arity = rng.randint(1, 2)
        q = _random_poly(rng, arity)
        ws = [Character(tuple(rng.randint(-2, 2) for _ in range(arity))) for _ in range(rng.randint(1, 3))]
        ws = [w for w in ws if not w.is_zero()]
        p = q
        for w in ws:
            p = p.mul_one_minus(w)
        for w in ws:  # not the reverse: each quotient is exact, in any order
            p = p.div_by_one_minus(w)
        assert p == q


def test_evaluation_homomorphism_randomized():
    rng = random.Random(3)
    for _ in range(30):
        arity = rng.randint(1, 3)
        a = _random_poly(rng, arity)
        b = _random_poly(rng, arity)
        tvals, yval = sample_points(arity, rng.randint(0, 10**6), rounds=1)[0]
        assert (a * b).evaluate(tvals, yval) == a.evaluate(tvals, yval) * b.evaluate(tvals, yval)
        assert (a + b).evaluate(tvals, yval) == a.evaluate(tvals, yval) + b.evaluate(tvals, yval)


def test_equivalence_agrees_with_twenty_evaluations():
    rng = random.Random(4)
    t = Character((1, -1))
    for _ in range(10):
        num = _random_poly(rng, 2)
        e = RatExpr(num, (t,))
        same = RatExpr(num * (1 - mono(0, 1)), (t, Character((0, 1))))
        diff = RatExpr(num + 1, (t,))
        assert e.equivalent(same)
        assert not e.equivalent(diff)
        agree_same = agree_diff = True
        for tvals, yval in sample_points(2, rng.randint(0, 10**6), rounds=20):
            agree_same &= e.evaluate(tvals, yval) == same.evaluate(tvals, yval)
            agree_diff &= e.evaluate(tvals, yval) == diff.evaluate(tvals, yval)
        assert agree_same and not agree_diff


def test_reduce_preserves_equality_randomized():
    rng = random.Random(5)
    for _ in range(20):
        num = _random_poly(rng, 2)
        den = []
        for _ in range(rng.randint(0, 3)):
            coeffs = (rng.randint(-2, 2), rng.randint(-2, 2))
            if any(coeffs):
                den.append(Character(coeffs))
        e = RatExpr(num, tuple(den))
        r = e.reduced()
        rr = r.reduced()
        assert (rr.num, rr.den) == (r.num, r.den)
        assert r.equivalent(e)


# -- exactness of the cheaper exact primitives -----------------------------
#
# The two copies below are the division and the reduction loop as they were
# before lines were grouped on tuple keys and before reduced() skipped
# attempts that cannot succeed; the new code must agree with them exactly.


def _div_by_one_minus_before(p: SparsePoly, w: Character) -> SparsePoly:
    j = next(i for i, a in enumerate(w.coeffs) if a)
    wj = w.coeffs[j]
    lines: dict = {}
    for m, c in p.terms.items():
        k = m.char.coeffs[j] // wj
        rep = m.char - w.scaled(k)
        lines.setdefault((m.ypow, rep), {})[k] = c
    out: dict = {}
    for (ypow, rep), coeffs in lines.items():
        lo, hi = min(coeffs), max(coeffs)
        running = 0
        for k in range(lo, hi):
            running += coeffs.get(k, 0)
            if running:
                out[Monomial(rep + w.scaled(k), ypow)] = _norm(running)
        if running + coeffs[hi] != 0:
            raise NotDivisible(f"remainder on line {rep.coeffs} (y^{ypow})")
    return SparsePoly(p.arity, out)


def _greedy_reduced(e: RatExpr) -> RatExpr:
    if e.num.is_zero:
        return RatExpr(e.num, ())
    num = e.num
    den = list(e.den)
    progress = True
    while progress:
        progress = False
        for w in sorted(set(den), key=lambda w: w.coeffs):
            try:
                num = _div_by_one_minus_before(num, w)
            except NotDivisible:
                continue
            den.remove(w)
            progress = True
    return RatExpr(num, tuple(den))


def _unreduced_sum(arity: int, terms) -> RatExpr:
    """A class recipe summed over the common denominator, not reduced."""
    out = RatExpr.zero(arity)
    for c, k, factors in terms:
        part = RatExpr(SparsePoly.y_power(arity, k, c))
        for w, minus_one in factors:
            part = part * (hfactor_minus_one_expr(w) if minus_one else hfactor_expr(w))
        out = out + part
    return out


def _same(a: RatExpr, b: RatExpr) -> bool:
    """Identical values, term order of the numerator included."""
    return list(a.num.terms.items()) == list(b.num.terms.items()) and a.den == b.den


def test_reduced_matches_greedy_loop_on_class_sums():
    checked = 0
    for n in range(0, 7):
        recipes = []
        for kind in PROJECTIVE_KINDS + AFFINE_KINDS:
            try:
                cls = projective_class(kind, n) if kind in PROJECTIVE_KINDS else affine_class(kind, n)
            except ValueError:
                continue
            arity = cls.geometry.arity
            recipes += [(arity, r) for r in (cls.recipes.values() if cls.is_projective else [cls.recipes])]
        for arity, terms in recipes:
            if len(terms) < 2:
                continue
            e = _unreduced_sum(arity, terms)
            assert _same(e.reduced(), _greedy_reduced(e)), (n, terms)
            checked += 1
    assert checked > 50


def test_reduced_keeps_the_pass_order():
    u = Character((1,))
    T = mono(1)
    e = RatExpr((1 - T) * (1 - T**2), (u, u, u.scaled(2)))
    r = e.reduced()
    assert str(r) == "1 / (1 - T)"
    assert _same(r, _greedy_reduced(e))
    # dividing by u as often as possible first would stop elsewhere
    by_u_first = RatExpr(e.num.div_by_one_minus(u).div_by_one_minus(u), (u.scaled(2),))
    assert str(by_u_first) == "(1 + T) / (1 - T^2)" and by_u_first.equivalent(r)


def test_reduced_gives_up_when_the_numerator_survives_t_equal_one():
    t = Character((1, 0))
    e = RatExpr(1 + yvar(2) * mono(1, 0), (t, Character((0, 1)), Character((1, 1))))
    r = e.reduced()
    assert _same(r, e) and _same(r, _greedy_reduced(e))


_exponent = st.integers(-3, 3)


@st.composite
def _polys(draw, arity: int):
    items = draw(
        st.lists(
            st.tuples(
                st.tuples(*[_exponent] * arity),
                st.integers(0, 2),
                st.fractions(min_value=-5, max_value=5, max_denominator=4),
            ),
            max_size=8,
        )
    )
    return SparsePoly.from_terms(arity, [(Monomial(Character(e), k), c) for e, k, c in items])


@st.composite
def _poly_and_weight(draw):
    arity = draw(st.integers(1, 3))
    w = draw(st.tuples(*[_exponent] * arity).filter(any))
    return draw(_polys(arity)), Character(w)


@settings(max_examples=100, deadline=None)
@given(_poly_and_weight())
def test_div_by_one_minus_undoes_mul_one_minus(pw):
    p, w = pw
    assert p.mul_one_minus(w).div_by_one_minus(w) == p


@settings(max_examples=200, deadline=None)
@given(_poly_and_weight(), st.booleans())
def test_div_by_one_minus_agrees_with_the_line_by_line_division(pw, multiple):
    """Same quotient, term order included, on multiples; on anything else
    the same NotDivisible message."""
    p, w = pw
    if multiple:
        p = p.mul_one_minus(w)
    try:
        want = _div_by_one_minus_before(p, w)
    except NotDivisible as exc:
        with pytest.raises(NotDivisible) as got:
            p.div_by_one_minus(w)
        assert str(got.value) == str(exc)
    else:
        got = p.div_by_one_minus(w)
        assert list(got.terms.items()) == list(want.terms.items())


def test_not_divisible_message_is_unchanged():
    with pytest.raises(NotDivisible, match=r"^remainder on line \(0,\) \(y\^0\)$"):
        (1 - mono(1)).div_by_one_minus(Character((2,)))


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(-20, 20), st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool), max_size=8),
    st.integers(-6, 6).filter(bool),
)
def test_packed_division_undoes_times_one_minus(f, step):
    """Either sign of step, with the top bound at the top key of ``f``."""
    assert _over_one_minus(_times_binomial(f, step, -1), step, max(f, default=0)) == f


@pytest.mark.parametrize("sign", [1, -1])
def test_packed_division_refuses_a_remainder(sign):
    assert _over_one_minus({0: 1, 1: 1}, 2 * sign, 10) is None  # 1 + z over 1 - z^{+-2}


@pytest.mark.parametrize("sign", [1, -1])
def test_packed_division_refuses_a_quotient_past_top(sign):
    """``(1 - z^2) / (1 - z^{+-1})`` is ``1 + z`` or ``-z - z^2``."""
    quotient = _over_one_minus({0: 1, 2: -1}, sign, 3)
    assert quotient == ({0: 1, 1: 1} if sign > 0 else {1: -1, 2: -1})
    assert _over_one_minus({0: 1, 2: -1}, sign, max(quotient) - 1) is None


def test_equivalent_does_not_depend_on_the_sample_points():
    """The difference vanishes at every seeded point (it is a multiple of
    (y - y1)(y - y2)(y - y3) for the three seeded y values), yet the two sides
    differ, and only the exact comparison can tell."""
    seed = 0
    t = Character((1, -1))
    a = RatExpr(1 + yvar(2) * mono(1, -1), (t,))
    gap = SparsePoly.one(2)
    for _, yval in sample_points(2, seed):
        gap = gap * (yvar(2) - yval)
    b = a + RatExpr(gap * mono(0, 1), (t,))
    assert not a.equivalent(b)
    assert a.witness(b, seed) == "differs; no witness among the seeded points"


def test_witness_reports_the_first_separating_point():
    t = Character((1,))
    a = hfactor_expr(t)
    b = hfactor_minus_one_expr(t)
    assert not a.equivalent(b)
    tvals, yval = sample_points(1, 7)[0]
    mine, theirs = a.evaluate(tvals, yval), b.evaluate(tvals, yval)
    assert mine != theirs
    assert a.witness(b, seed=7) == f"differs at T=({tvals[0]}), y={yval}: {mine} != {theirs}"


@st.composite
def _map_case(draw):
    """Two polynomials over a lattice of rank 1..3 and images of its basis in
    a lattice of rank 1..3, entries in -2..2 (zero images included)."""
    arity = draw(st.integers(1, 3))
    target = draw(st.integers(1, 3))
    images = [Character(draw(st.tuples(*[st.integers(-2, 2)] * target))) for _ in range(arity)]
    return draw(_polys(arity)), draw(_polys(arity)), images


@settings(max_examples=100, deadline=None)
@given(_map_case())
def test_apply_map_is_a_ring_homomorphism(case):
    a, b, images = case
    assert (a + b).apply_map(images) == a.apply_map(images) + b.apply_map(images)
    assert (a * b).apply_map(images) == a.apply_map(images) * b.apply_map(images)


@st.composite
def _ratexpr_pair(draw, arity: int):
    """Two rational expressions over one lattice, denominators of up to three
    weights each."""
    weight = st.tuples(*[_exponent] * arity).filter(any).map(Character)
    return tuple(RatExpr(draw(_polys(arity)), tuple(draw(st.lists(weight, max_size=3)))) for _ in range(2))


@st.composite
def _ratexpr_case(draw):
    """A rational expression, an independent one over the same lattice, a
    weight to multiply top and bottom by, a nonzero monomial to perturb it
    with, and a witness seed."""
    arity = draw(st.integers(1, 3))
    weight = st.tuples(*[_exponent] * arity).filter(any).map(Character)
    e, b = draw(_ratexpr_pair(arity))
    shift = Character(draw(st.tuples(*[_exponent] * arity)))
    bump = SparsePoly.monomial(shift, 0, draw(st.fractions(-5, 5, max_denominator=4).filter(bool)))
    return e, b, draw(weight), bump, draw(st.integers(0, 10**6))


@settings(max_examples=100, deadline=None)
@given(_ratexpr_case())
def test_equivalent_agrees_with_evaluation(case):
    """Equal expressions agree at every seeded point; adding a monomial free
    of y over the same denominator changes the value at every point, so the
    first seeded point is the witness.  Against an independent expression,
    equivalence forces agreement at every seeded point, and a point where
    the values differ rules it out and is the witness."""
    e, b, w, bump, seed = case
    same = RatExpr(e.num.mul_one_minus(w), e.den + (w,))
    other = e + RatExpr(bump, e.den)
    assert e.equivalent(same) and same.equivalent(e)
    points = sample_points(e.arity, seed)
    assert all(e.evaluate(tvals, yval) == same.evaluate(tvals, yval) for tvals, yval in points)
    assert not e.equivalent(other)
    tvals, yval = points[0]
    mine, theirs = e.evaluate(tvals, yval), other.evaluate(tvals, yval)
    assert mine != theirs
    assert e.witness(other, seed) == f"differs at T=({', '.join(map(str, tvals))}), y={yval}: {mine} != {theirs}"
    assert e.equivalent(e + b - b)
    for other in (b, e + b - b):
        values = [(e.evaluate(tvals, yval), other.evaluate(tvals, yval)) for tvals, yval in points]
        if e.equivalent(other):
            assert all(mine == theirs for mine, theirs in values)
        elif any(mine != theirs for mine, theirs in values):
            i = next(i for i, (mine, theirs) in enumerate(values) if mine != theirs)
            (tvals, yval), (mine, theirs) = points[i], values[i]
            assert e.witness(other, seed) == f"differs at T=({', '.join(map(str, tvals))}), y={yval}: {mine} != {theirs}"


@st.composite
def _ratexpr_map_case(draw):
    """Two rational expressions and a lattice map that sends no denominator
    weight of either to 0."""
    arity = draw(st.integers(1, 3))
    target = draw(st.integers(1, 3))
    a, b = draw(_ratexpr_pair(arity))
    images = [Character(draw(st.tuples(*[st.integers(-2, 2)] * target))) for _ in range(arity)]
    for w in a.den + b.den:
        assume(any(sum(e * img.coeffs[i] for e, img in zip(w.coeffs, images)) for i in range(target)))
    return a, b, images


@settings(max_examples=100, deadline=None)
@given(_ratexpr_map_case())
def test_ratexpr_apply_map_is_a_ring_homomorphism(case):
    """On rational expressions, with denominators, the map respects sums and
    products as rational functions."""
    a, b, images = case
    assert (a + b).apply_map(images).equivalent(a.apply_map(images) + b.apply_map(images))
    assert (a * b).apply_map(images).equivalent(a.apply_map(images) * b.apply_map(images))
