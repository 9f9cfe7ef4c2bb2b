"""Structural positivity certificates: delta/S rewrites, coefficient scans,
and exact round-trips back to the rational-function classes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eck.algebra import Character, RatExpr, SparsePoly, hfactor_expr
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


@pytest.mark.parametrize("kind", ["CCQ", "CQ"])
def test_horner_backsubstitution_equals_the_expanded_route(kind):
    # two routes to the same numerator: expanded powers and Horner nesting
    for n in range(2, 8):
        spoly = to_positive_form(kind, n)
        arity = GeometryConfig(n).arity
        expanded, nested = spoly.to_ratexpr(arity), spoly.to_ratexpr_horner(arity)
        assert nested.den == expanded.den
        assert nested.num.terms == expanded.num.terms, (kind, n)


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
    expanded, nested = spoly.to_ratexpr(arity), spoly.to_ratexpr_horner(arity)
    assert nested.den == expanded.den
    assert nested.num.terms == expanded.num.terms


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
