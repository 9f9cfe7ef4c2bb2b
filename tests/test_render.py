"""Text/LaTeX/JSON presentation layer: frozen strings for each renderer."""

from fractions import Fraction

from eck.algebra import Character, RatExpr, SparsePoly
from eck.hirzebruch import affine_class, projective_class
from eck.identities import verify
from eck.positivity import SPolynomial, certify, check_nonnegative, to_positive_form
from eck.render import (
    _LATEX,
    _TEXT,
    _monomial,
    certificate_dict,
    ratexpr_dict,
    ratexpr_latex,
    recipe_latex,
    recipe_text,
    report_dict,
    spoly_text,
    tpoly_latex,
    tpoly_text,
    weight_text,
)


def test_weight_strings():
    assert weight_text(Character((1, 0))) == "t"
    assert weight_text(Character((1, -1))) == "t-t1"
    assert weight_text(Character((0, 2))) == "2t1"
    assert weight_text(Character((0, -1, 1))) == "-t1+t2"


def test_monomial_strings():
    """The ``T^w`` of denominator factors and h-factors, in both styles."""
    assert _monomial(Character((1, -1)), _TEXT) == "T*T1^-1"
    assert _monomial(Character((0, 0)), _TEXT) == "1"
    assert _monomial(Character((0, 2)), _TEXT) == "T1^2"
    assert _monomial(Character((2, -1)), _LATEX) == "T^{2} T_{1}^{-1}"


def test_t_polynomial_strings():
    assert tpoly_text((1, 2, 2)) == "1 + 2t + 2t^2"
    assert tpoly_text((1, 0, 1)) == "1 + t^2"
    assert tpoly_text(()) == "0"
    assert tpoly_latex((1, 2, 2, 0, 1)) == "1 + 2t + 2t^{2} + t^{4}"


def test_rational_strings():
    cstar = affine_class("Cstar", 1).at_origin
    assert str(cstar) == "(T + y*T) / (1 - T)"
    assert ratexpr_latex(cstar) == r"\frac{T + y T}{\left(1 - T\right)}"
    assert ratexpr_dict(cstar) == {"num": "T + y*T", "den": ["t"]}


def test_rational_strings_with_fractions_and_repeated_factors():
    """A fraction and a negative coefficient, y^2, a negative T-exponent and
    a repeated denominator factor, pinned in both forms."""
    num = SparsePoly.from_terms(
        2,
        [
            ((0, 0, 0), Fraction(5, 3)),
            ((0, 2, 1), 3),
            ((1, 0, 0), -1),
            ((2, 0, -1), Fraction(-1, 2)),
        ],
    )
    e = RatExpr(num, (Character((1, 0)), Character((0, 1)), Character((1, 0))))
    assert str(e) == "(5/3 + 3*T^2*T1 - y - 1/2*y^2*T1^-1) / (1 - T1) (1 - T)^2"
    assert ratexpr_latex(e) == (
        r"\frac{5/3 + 3 T^{2} T_{1} - y - 1/2 y^{2} T_{1}^{-1}}"
        r"{\left(1 - T_{1}\right) \left(1 - T\right)^{2}}"
    )


def test_recipe_strings():
    assert (
        recipe_text(affine_class("CCQ", 3).recipes)
        == "(h(T*T1) - 1)*(h(T*T1^-1) - 1)*h(T) + (-y)*(h(T) - 1)"
    )
    assert (
        recipe_text(projective_class("Qc", 4).recipes[1])
        == "(h(T1^-2) - 1)*h(T1^-1*T2^-1)*h(T1^-1*T2)"
    )
    assert (
        recipe_latex(affine_class("CCX", 2).recipes)
        == r"(h(T T_{1}) - 1) \, (h(T T_{1}^{-1}) - 1)"
    )


def test_positive_form_string():
    assert spoly_text(to_positive_form("CQ", 2)) == (
        "(delta*S(t+t1) + delta*S(t-t1) + S(t-t1)*S(t+t1)"
        " + 2*delta*S(t-t1)*S(t+t1)) / S(t-t1) S(t+t1)"
    )


def test_report_dict_shapes():
    plain = report_dict(verify("con", 2))
    assert plain == {
        "formula": "con",
        "n": 2,
        "verified": True,
        "per_point": [["origin", True]],
    }
    timed = report_dict(verify("con", 2), timings=True)
    assert set(timed) == {"formula", "n", "verified", "per_point", "timing_ms"}
    assert timed["timing_ms"] >= 0
    with_k = report_dict(verify("remark_k", 4, k=1))
    assert with_k["k"] == 1 and with_k["note"]


def test_certificate_dict_shapes():
    ok = certificate_dict(certify("CCQ", 2))
    assert ok == {
        "kind": "CCQ",
        "n": 2,
        "nonnegative": True,
        "roundtrip_ok": True,
        "terms": 4,
    }
    t = Character((1,))
    bad = check_nonnegative(SPolynomial((t,), {(0, 1): -1}, (t,)), subject=("adhoc", 1))
    d = certificate_dict(bad)
    assert d["nonnegative"] is False
    assert d["witness"]


def test_certificate_dict_carries_a_failed_round_trip_note():
    t = Character((1,))
    spoly = SPolynomial((t,), {(0, 1): 1}, (t,))
    cert = check_nonnegative(spoly, original=RatExpr.from_poly(SparsePoly.constant(1, 2)))
    d = certificate_dict(cert)
    assert d["roundtrip_ok"] is False and d["roundtrip_note"] == cert.roundtrip_note != ""
