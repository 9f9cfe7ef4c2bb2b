"""Structural positivity certificates: delta/S rewrites, coefficient scans,
and exact round-trips back to the rational-function classes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfactors import hfactor_expr

from eck.algebra import Character, RatExpr, SparsePoly
from eck.hirzebruch import AFFINE_KINDS, PROJECTIVE_KINDS, affine_class, projective_class
from eck.positivity import (
    SPolynomial,
    StructuralRewriteFailed,
    _cq_spoly_num,
    certify,
    check_nonnegative,
    cq_step_correction,
    product_of_weights_minus_one,
    recipe_form,
    to_positive_form,
)
from eck.torus import GeometryConfig, ambient_weights


def _t(arity: int) -> Character:
    return Character((1,) + (0,) * (arity - 1))


# -- building blocks ---------------------------------------------------------


def test_h_block_terms():
    # one-factor recipes: h and h - 1 over S_t, and y = -(1 + delta)
    t = _t(1)
    assert recipe_form([(1, 0, ((t, False),))], (t,)) == {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert recipe_form([(1, 0, ((t, True),))], (t,)) == {(1, 0): 1, (1, 1): 1}
    assert recipe_form([(2, 1, ())], ()) == {(0,): -2, (1,): -2}
    # a weight the term leaves out lifts it by its S-variable
    u = Character((2,))
    assert recipe_form([(1, 0, ((t, True),))], (t, u)) == {(1, 0, 1): 1, (1, 1, 1): 1}
    # a zero term and a pair of terms that cancel add nothing
    assert recipe_form([(0, 0, ((t, False),))], (t,)) == {}
    assert recipe_form([(1, 1, ((t, False),)), (-1, 1, ((t, False),))], (t,)) == {}


def test_h_block_needs_ambient_weight():
    t = _t(1)
    with pytest.raises(StructuralRewriteFailed):
        recipe_form([(1, 0, ((t.scaled(2), False),))], (t,))


def test_pair_monomial_minus_one_expansion():
    geo = GeometryConfig(4)
    a, b = geo.affine_weight(2), geo.affine_weight(-2)
    weights = (a, b)
    got = product_of_weights_minus_one(weights, {a: 1, b: 1})
    # (S_a + 1)(S_b + 1) - 1 = S_a S_b + S_a + S_b
    assert got == {(0, 1, 1): 1, (0, 1, 0): 1, (0, 0, 1): 1}


def test_negative_multiplicity_rejected():
    geo = GeometryConfig(4)
    a = geo.affine_weight(2)
    with pytest.raises(StructuralRewriteFailed):
        product_of_weights_minus_one((a,), {a: -1})


def test_spolynomial_validation():
    t = _t(1)
    with pytest.raises(ValueError):
        SPolynomial((t,), {(1,): 1})  # width must be 1 + len(weights)
    with pytest.raises(ValueError):
        SPolynomial((t,), {(0, -1): 1})
    with pytest.raises(ValueError):
        SPolynomial((t,), {(0, 1): 0})


# -- the recursion's correction term -----------------------------------------


def test_correction_term_structure():
    got = cq_step_correction(4)
    geo = GeometryConfig(4)
    assert got.weights == (geo.t,)
    assert dict(got.terms) == {(1, 1): 2, (1, 2): 1}
    assert got.den == (geo.affine_weight(2), geo.affine_weight(-2))


def test_correction_term_backsubstitutes_to_cleared_form():
    # delta (S_t^2 + 2 S_t) = (1 + y)(1 - T^{2t})
    geo = GeometryConfig(4)
    one_plus_y = SparsePoly.one(3) + SparsePoly.y_power(3)
    num = one_plus_y * (SparsePoly.one(3) - SparsePoly.monomial(geo.t.scaled(2)))
    expect = RatExpr(num, (geo.affine_weight(2), geo.affine_weight(-2)))
    assert cq_step_correction(4).to_ratexpr().equivalent(expect)


def test_correction_term_equals_h_sum_form():
    # h(T^{t+t_m}) + h(T^{t-t_m}) - 1 + y collapses to the correction term
    for n in (4, 5):
        geo = GeometryConfig(n)
        a, b = geo.affine_weight(geo.m), geo.affine_weight(-geo.m)
        shift = RatExpr.from_poly(SparsePoly.y_power(geo.arity) - 1)
        lhs = hfactor_expr(a) + hfactor_expr(b) + shift
        assert lhs.equivalent(cq_step_correction(n).to_ratexpr())


# -- positive forms ----------------------------------------------------------


def test_positive_form_guards():
    with pytest.raises(ValueError):
        to_positive_form("Cn", 4)
    with pytest.raises(ValueError):
        to_positive_form("CCQ", 1)


def test_positive_form_denominator_is_full_weight_set():
    for kind in ("CCQ", "CQ"):
        for n in (2, 3, 4, 5):
            spoly = to_positive_form(kind, n)
            assert len(spoly.weights) == n
            assert sorted(w.coeffs for w in spoly.den) == sorted(
                w.coeffs for w in spoly.weights
            )


def test_delta_zero_parts():
    # at y = -1 the cone complement vanishes and the closed cone is the
    # full-space class; structurally: no delta-free terms vs one such term
    for n in (2, 3, 4, 5):
        assert not [k for k in to_positive_form("CCQ", n).terms if k[0] == 0]
        kept = {k: c for k, c in to_positive_form("CQ", n).terms.items() if k[0] == 0}
        ((key, coeff),) = kept.items()
        assert coeff == 1 and key[0] == 0 and all(e == 1 for e in key[1:])


def test_delta_zero_matches_y_substitution():
    for n in (2, 3, 4):
        arity = GeometryConfig(n).arity
        ccq = affine_class("CCQ", n).at_origin.subs_y(Fraction(-1)).reduced()
        assert ccq.num.is_zero
        cq = affine_class("CQ", n).at_origin.subs_y(Fraction(-1))
        assert cq.equivalent(RatExpr.one(arity))


def test_roundtrip_reproduces_reference_class():
    for kind in ("CCQ", "CQ"):
        for n in (2, 3, 4):
            got = to_positive_form(kind, n).to_ratexpr()
            assert got.equivalent(affine_class(kind, n).at_origin)


def _same_back_substitution(nested: RatExpr, expanded: RatExpr) -> None:
    """Same denominator, numerator terms, printed form and coefficient types:
    ``str`` prints ``Fraction(3)`` and ``3`` alike, so the types are
    compared term by term."""
    assert nested.den == expanded.den
    assert nested.num.terms == expanded.num.terms
    assert str(nested) == str(expanded)
    assert {m: type(c) for m, c in nested.num.terms.items()} == {m: type(c) for m, c in expanded.num.terms.items()}


@pytest.mark.parametrize("kind", ["CCQ", "CQ"])
def test_horner_backsubstitution_equals_the_expanded_route(kind):
    # two routes to the same numerator: expanded powers and packed Horner nesting
    for n in range(2, 8):
        spoly = to_positive_form(kind, n)
        arity = GeometryConfig(n).arity
        _same_back_substitution(spoly.to_ratexpr_horner(arity), spoly.to_ratexpr(arity))


def test_horner_packing_keeps_colliding_monomials_apart():
    """T^2 and T1 share the key of a line such as t_1 -> 2 t; the packed box
    keeps them apart, also beside a weight negative in every coordinate and
    with Fraction coefficients."""
    weights = (Character((2, 0)), Character((0, 1)), Character((-1, -2)))
    terms = {(0, 1, 0, 0): 1, (0, 0, 1, 0): -1, (1, 2, 1, 1): Fraction(3, 2), (2, 0, 3, 2): Fraction(-1, 2), (0, 0, 0, 0): 2}
    for den in ((), weights, weights[1:]):
        spoly = SPolynomial(weights, terms, den)
        _same_back_substitution(spoly.to_ratexpr_horner(2), spoly.to_ratexpr(2))
    # S(2t) - S(t1) = T^2 - T1 must not cancel to 0
    diff = SPolynomial(weights, {(0, 1, 0, 0): 1, (0, 0, 1, 0): -1}).to_ratexpr_horner(2)
    assert str(diff) == "-T1 + T^2"


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_cq_recipe_form_equals_the_recursion_at_even_n(n):
    # two routes to CQ_n: the paper's recursion and additivity CQ = Cn - CCQ
    weights = tuple(ambient_weights(n))
    recipe = recipe_form(affine_class("CQ", n).recipes, weights)
    assert recipe == _cq_spoly_num(GeometryConfig(n), weights, n)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_cq_routes_differ_at_odd_n_and_both_certify(n):
    # the recursion rewrites T^2 - 1 through S_t twice, additivity does not
    geo = GeometryConfig(n)
    weights = tuple(ambient_weights(n))
    original = affine_class("CQ", n).at_origin
    recipe = recipe_form(affine_class("CQ", n).recipes, weights)
    recursion = _cq_spoly_num(geo, weights, n)
    assert recipe != recursion
    for num in (recipe, recursion):
        spoly = SPolynomial(weights, num, weights)
        assert not spoly.negative_terms()
        assert spoly.to_ratexpr_horner(geo.arity).equivalent(original)


@pytest.mark.parametrize("n", range(2, 7))
def test_every_class_recipe_has_a_positive_form(n):
    # affine kinds over the ambient weights; projective kinds at every point
    # where they do not vanish, over that point's tangent weights
    geo = GeometryConfig(n)
    cases = []
    for kind in AFFINE_KINDS:
        cls = affine_class(kind, n)
        cases.append(((kind, "origin"), cls.recipes, tuple(ambient_weights(n)), cls.at_origin))
    for kind in PROJECTIVE_KINDS:
        cls = projective_class(kind, n)
        for i, value in cls.values.items():
            if not value.num.is_zero:
                cases.append(((kind, i), cls.recipes[i], geo.tangent_weights(i), value))
    for subject, recipe, weights, value in cases:
        spoly = SPolynomial(weights, recipe_form(recipe, weights), weights)
        assert spoly.terms and all(c > 0 for c in spoly.terms.values()), subject
        assert spoly.to_ratexpr_horner(geo.arity).equivalent(value), subject


# -- the forms against a general product --------------------------------------
#
# Shift-and-add builds the forms; a general product of two forms rebuilds
# them block by block.  The weights are dependent, so the values alone do
# not fix the representation; the two builds must agree as dicts.


def _dict_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _blocks(weights):
    """The unit, delta, and the S_w key of every weight, on ``(delta, S...)`` keys."""
    width = 1 + len(weights)
    unit = [tuple(int(i == j) for i in range(width)) for j in range(width)]
    return (0,) * width, unit[0], {w: unit[1 + i] for i, w in enumerate(weights)}


def _h(delta, s, minus_one=False):
    ds = tuple(x + y for x, y in zip(delta, s))
    return {delta: 1, ds: 1} if minus_one else {delta: 1, s: 1, ds: 1}


def _recipe_form_by_products(recipes, weights) -> dict:
    one, delta, s = _blocks(weights)
    total: dict = {}
    for c, k, factors in recipes:
        part = {one: c * (-1) ** k}
        for _ in range(k):
            part = _dict_mul(part, {one: 1, delta: 1})
        left_out = list(weights)
        for w, minus_one in factors:
            left_out.remove(w)
            part = _dict_mul(part, _h(delta, s[w], minus_one))
        for w in left_out:
            part = _dict_mul(part, {s[w]: 1})
        for key, v in part.items():
            total[key] = total.get(key, 0) + v
    return {key: v for key, v in total.items() if v}


def _cq_num_by_products(geo, weights, nsub) -> dict:
    one, delta, s = _blocks(weights)
    if nsub < 2:
        return {one: 1} if nsub == 0 else {s[geo.affine_weight(0)]: 1}
    sa, sb = s[geo.affine_weight(nsub // 2)], s[geo.affine_weight(-(nsub // 2))]
    inner = _dict_mul({one: 1, delta: 1}, _cq_num_by_products(geo, weights, nsub - 2))
    total = _dict_mul(inner, {tuple(x + y for x, y in zip(sa, sb)): 1})
    cnum = {one: 1}
    for j in geo.indices_for(nsub - 2):
        cnum = _dict_mul(cnum, _h(delta, s[geo.affine_weight(j)]))
    if geo.odd:  # T^2 - 1 = S_t^2 + 2 S_t
        st = s[geo.t]
        t2 = {tuple(2 * e for e in st): 1, st: 2}
    else:  # T^2 - 1 = S_a S_b + S_a + S_b
        t2 = {tuple(x + y for x, y in zip(sa, sb)): 1, sa: 1, sb: 1}
    for key, v in _dict_mul(cnum, _dict_mul({delta: 1}, t2)).items():
        total[key] = total.get(key, 0) + v
    return {key: v for key, v in total.items() if v}


@pytest.mark.parametrize("n", range(2, 9))
def test_recipe_forms_equal_the_general_product(n):
    # every affine kind at n = 2..8, every nonzero projective point at n <= 6
    geo = GeometryConfig(n)
    weights = tuple(ambient_weights(n))
    cases = [(kind, affine_class(kind, n).recipes, weights) for kind in AFFINE_KINDS]
    if n <= 6:
        for kind in PROJECTIVE_KINDS:
            cls = projective_class(kind, n)
            for i, value in cls.values.items():
                if not value.num.is_zero:
                    cases.append(((kind, i), cls.recipes[i], geo.tangent_weights(i)))
    for subject, recipe, ws in cases:
        assert recipe_form(recipe, ws) == _recipe_form_by_products(recipe, ws), subject


@pytest.mark.parametrize("n", range(2, 11))
def test_cq_recursion_equals_the_general_product(n):
    geo = GeometryConfig(n)
    weights = tuple(ambient_weights(n))
    got = _cq_spoly_num(geo, weights, n)
    assert got == _cq_num_by_products(geo, weights, n)
    assert dict(to_positive_form("CQ", n).terms) == got


@st.composite
def _spolynomials(draw):
    """Random delta/S forms: repeated and negative weights, exponents up to
    3, coefficients of both signs, and an odd or even denominator."""
    arity = draw(st.integers(1, 3))
    weight = st.tuples(*[st.integers(-2, 2)] * arity).filter(any).map(Character)
    weights = tuple(draw(st.lists(weight, max_size=3)))
    key = st.tuples(*[st.integers(0, 3)] * (1 + len(weights)))
    coeff = st.fractions(-4, 4, max_denominator=3).filter(bool)
    terms = draw(st.dictionaries(key, coeff, max_size=6))
    den = tuple(w for w in weights if draw(st.booleans()))
    return arity, SPolynomial(weights, terms, den)


@settings(max_examples=100, deadline=None)
@given(_spolynomials())
def test_random_horner_backsubstitution_equals_the_expanded_route(case):
    arity, spoly = case
    _same_back_substitution(spoly.to_ratexpr_horner(arity), spoly.to_ratexpr(arity))


# -- certificates ------------------------------------------------------------


def test_certificates_all_pass():
    for kind in ("CCQ", "CQ"):
        for n in range(2, 7):
            cert = certify(kind, n)
            assert cert.subject == (kind, n)
            assert cert.nonnegative, (kind, n, cert.witness)
            assert cert.roundtrip_ok, (kind, n)
            assert cert.witness is None


def test_negative_coefficient_is_witnessed():
    t = _t(1)
    bad = SPolynomial((t,), {(0, 1): 2, (1, 1): -3}, (t,))
    cert = check_nonnegative(bad, subject=("adhoc", 1))
    assert not cert.nonnegative
    assert cert.witness == ((1, 1), -3)
    assert cert.roundtrip_ok  # vacuous without a reference class


def test_roundtrip_failure_is_reported():
    t = _t(1)
    spoly = SPolynomial((t,), {(0, 1): 1}, (t,))  # S_t / S_t = 1
    cert = check_nonnegative(spoly, original=RatExpr.from_poly(SparsePoly.constant(1, 2)))
    assert cert.nonnegative and not cert.roundtrip_ok
    assert cert.roundtrip_note.startswith("differs at T=(") and cert.roundtrip_note.endswith(": 1 != 2")


def test_passing_roundtrip_has_no_note():
    assert certify("CQ", 3).roundtrip_note == ""
