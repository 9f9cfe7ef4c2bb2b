"""Series specialization: the y -> -1 limit that lands on characteristic-class
polynomials, and the y = 0 multidegree of the stable envelope of the class."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eck.algebra import Character, RatExpr, SparsePoly
from eck.hirzebruch import affine_class, projective_class
from eck.identities import verify
from eck.specialize import (
    BiSeries,
    NonvanishingNegativeUPart,
    TruncationTooLow,
    ZeroClass,
    _csm_series,
    csm,
    csm_both,
    csm_closed_family,
    diagonalize,
    multidegree,
)
from quadric_route import classical_ccq_csm


def _binomial_row(n: int) -> tuple[int, ...]:
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return tuple(row)


# -- series kernel -----------------------------------------------------------


def test_biseries_inverse_roundtrip():
    s = BiSeries.make({(0, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(-1)}, order=6)
    prod = s * s.inverse()
    assert prod.u_coefficients(0) == BiSeries.one(6).u_coefficients(0)
    for a in (1, 2, 3):
        assert not any(prod.u_coefficients(a).values())


def test_biseries_inverse_guards():
    with pytest.raises(ZeroDivisionError):
        BiSeries.zero(4).inverse()
    two_leads = BiSeries.make({(1, 0): Fraction(1), (0, 1): Fraction(1)}, order=4)
    with pytest.raises(ValueError):
        two_leads.inverse()


def test_biseries_laurent_inverse_shifts_valuation():
    s = BiSeries.make({(1, 0): Fraction(1), (1, 1): Fraction(1)}, order=4)
    inv = s.inverse()
    assert inv.valuation() == -1
    prod = s * inv
    assert prod.u_coefficients(0) == {0: Fraction(1)}


@st.composite
def _invertible_series(draw):
    """A truncated series whose lowest total degree holds one monomial (of
    either sign of degree), with random terms of higher degree."""
    la, lb = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    order = la + lb + draw(st.integers(1, 6))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    terms = {(la, lb): draw(coeff.filter(bool))}
    for _ in range(draw(st.integers(0, 6))):
        da, db = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        if da + db:
            terms[(la + da, lb + db)] = draw(coeff)
    return BiSeries.make(terms, order)


@settings(max_examples=150, deadline=None)
@given(_invertible_series())
def test_biseries_inverse_times_the_series_is_one(s):
    """Through the order the product tracks, which is the series' order less
    its valuation, the product with the inverse is exactly 1."""
    prod = s * s.inverse()
    assert prod.order == s.order - s.valuation()
    assert prod.terms == {(0, 0): 1}


# -- diagonal substitution ---------------------------------------------------


def test_diagonalize_pair_cone_complement():
    got = diagonalize(affine_class("CCX", 2))
    y = SparsePoly.y_power(1)
    num = (SparsePoly.one(1) + y) * (SparsePoly.one(1) + y) * SparsePoly.monomial(Character((2,)))
    t = Character((1,))
    assert got.equivalent(RatExpr(num, (t, t)))


def test_diagonalize_rejects_projective_classes():
    with pytest.raises(ValueError):
        diagonalize(projective_class("Q", 4))


# -- CSM limits --------------------------------------------------------------


def test_full_space_limit_is_binomial_row():
    for n in range(1, 6):
        got = csm(diagonalize(affine_class("Cn", n)), n)
        assert got == _binomial_row(n)


def test_pair_cone_complement_limit():
    # (1 + t)^{n-2}; trailing zero coefficients are trimmed
    for n in range(2, 7):
        got = csm(diagonalize(affine_class("CCX", n)), n)
        assert got == _binomial_row(n - 2)


def test_quadric_cone_complement_limits():
    assert csm(diagonalize(affine_class("CCQ", 2)), 2) == (1,)
    assert csm(diagonalize(affine_class("CCQ", 4)), 4) == (1, 2, 2)
    # odd case: linear coefficient is n - 2, forced by the cone class 2t
    assert csm(diagonalize(affine_class("CCQ", 3)), 3) == (1, 1, 1)
    assert csm(diagonalize(affine_class("CCQ", 5)), 5) == (1, 3, 4, 2, 1)


def _readme_odd_form(n: int) -> tuple[int, ...]:
    # t^{2m} + sum_{i<m} t^{2i} (1+t)^{2(m-i)-1} for n = 2m + 1
    m = n // 2
    coeffs = [0] * (2 * m + 1)
    coeffs[2 * m] = 1
    for i in range(m):
        for j, c in enumerate(_binomial_row(2 * (m - i) - 1)):
            coeffs[2 * i + j] += c
    return tuple(coeffs)


@pytest.mark.parametrize("n", range(2, 13))
def test_classical_route_self_check(n):
    # the two necessary conditions: multidegree 2 forces the linear
    # coefficient n - 2 (n = 2: trimmed away), chi(CCQ) = 0 kills t^n
    got = classical_ccq_csm(n)
    assert got[0] == 1 and len(got) <= n
    assert (got[1] if len(got) > 1 else 0) == n - 2
    if n % 2:
        assert got == _readme_odd_form(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_quadric_cone_complement_matches_classical_route(n):
    assert csm(diagonalize(affine_class("CCQ", n)), n) == classical_ccq_csm(n)


def test_limits_are_nonnegative_integers():
    for kind in ("CCQ", "CCX", "CQ", "CX"):
        for n in range(2, 8):
            for c in csm(diagonalize(affine_class(kind, n)), n):
                assert isinstance(c, int) and c >= 0


def test_order_guard():
    """``order`` only validates: below ``n + 2`` it is rejected, and any
    order at or above it gives the default's tuple."""
    diag = diagonalize(affine_class("CCQ", 4))
    with pytest.raises(TruncationTooLow):
        csm(diag, 4, order=5)
    for order in (6, 12, 40):
        assert csm(diag, 4, order=order) == csm(diag, 4)


def _limit_part(series):
    """The terms the limit reads: ``u <= 0`` and total degree below 1."""
    return {(a, b): c for (a, b), c in series.terms.items() if a <= 0 and a + b < 1}


@pytest.mark.parametrize("kind", ["Cn", "Cstar", "CQ", "CCQ", "CX", "CCX"])
def test_working_precision_holds_the_limit(kind):
    """The argument of ``csm``'s docstring as assertions: at precision
    ``1 + 4 len(den)`` the series is exact through total degree 0, its
    ``u <= 0`` part below degree 1 is what ten more degrees of precision
    give, and no ``u^0`` term of positive t-degree exists."""
    for n in range(2 if kind in ("CX", "CCX") else 0, 11):
        diag = diagonalize(affine_class(kind, n))
        work = 1 + 4 * len(diag.den)
        low, high = _csm_series(diag, work), _csm_series(diag, work + 10)
        assert low.order >= 1
        assert _limit_part(low) == _limit_part(high)
        assert not any(b > 0 for b in high.u_coefficients(0))


def test_csm_rejects_an_n_below_the_class():
    """CCQ_4 read with n = 2 has a term of degree -2 after scaling by t^2;
    it is named, not written to a wrapped index."""
    with pytest.raises(ValueError, match=r"^term t\^-2 = 1 has negative degree after scaling by t\^2$"):
        csm(diagonalize(affine_class("CCQ", 4)), 2)


def test_zero_class_handling():
    zero = diagonalize(affine_class("CCQ", 0))
    assert csm(zero, 0) == ()
    with pytest.raises(ZeroClass):
        multidegree(zero)


def test_limit_requires_vanishing_principal_part():
    # 1/(1-T) alone is not a localized class of a closed cone germ
    t = Character((1,))
    with pytest.raises(NonvanishingNegativeUPart):
        csm(RatExpr(SparsePoly.one(1), (t,)), 0)


# -- the closed family and the comparison report -----------------------------


def test_closed_family_values():
    assert csm_closed_family(2) == (1,)
    assert csm_closed_family(4) == (1, 2, 2)
    assert csm_closed_family(6) == (1, 4, 7, 6, 3)
    assert csm_closed_family(3) == (1, 0, 1)
    assert csm_closed_family(5) == (1, 2, 2, 0, 1)


def test_family_comparison_report():
    r2 = csm_both(2)
    assert r2["matches_family"] == ["CCQ", "CCX"]
    r4 = csm_both(4)
    assert r4["matches_family"] == ["CCQ"]
    assert r4["CCX"] == (1, 2, 1)
    r3 = csm_both(3)
    assert r3["matches_family"] == []
    assert r3["CCQ"] == (1, 1, 1) and r3["family"] == (1, 0, 1)


def test_even_closed_forms_verify():
    assert verify("closed_form", 5).verified
    assert verify("closed_form", 6).verified


# -- multidegree -------------------------------------------------------------


def test_quadric_cone_multidegree():
    for n in range(2, 7):
        assert multidegree(diagonalize(affine_class("CQ", n))) == (2, 1 - n)


def test_full_space_multidegree():
    assert multidegree(diagonalize(affine_class("Cn", 3))) == (1, -3)


def test_multidegree_at_other_y():
    # 2 h(T) - 1 = (1 + 3T)/(1 - T) at y = 1: leading coefficient 4, shift -1
    assert multidegree(diagonalize(affine_class("CQ", 2)), y=Fraction(1)) == (4, -1)


def test_multidegree_takes_y_by_keyword_only():
    """A call that still passes ``n`` fails instead of reading it as ``y``."""
    with pytest.raises(TypeError):
        multidegree(diagonalize(affine_class("CQ", 3)), 3)


def test_multidegree_past_the_first_order():
    """``(1 - T)^3 / (1 - T^2)`` at ``T = e^{-t}`` is ``t^3 (1 + ...) / (2t (1 + ...))``:
    the numerator vanishes to order three, and the bottom term is ``t^2 / 2``."""
    t = Character((1,))
    cube = SparsePoly.one(1).mul_one_minus(t).mul_one_minus(t).mul_one_minus(t)
    assert multidegree(RatExpr(cube, (t.scaled(2),))) == (Fraction(1, 2), 2)
