"""Every class value against a route that shares no code with
``eck.algebra``: each recipe ``sum c * y^k * prod(h or h - 1)`` is built as
a sympy expression with ``h = (1 + y T^w) / (1 - T^w)``, each computed value
``num / prod (1 - T^w)`` is read term by term into sympy, and
``sympy.cancel`` must take their difference to 0.  The multidegree is
checked the same way: the diagonalized class, read into sympy at
``T = e^{-t}``, must have the bottom term of sympy's series in ``t``.  Only
the plain data of a value (its term dict, denominator characters and their
entries) crosses over; no ``eck`` arithmetic runs on the sympy side."""

from fractions import Fraction

import pytest

from eck.hirzebruch import AFFINE_KINDS, PROJECTIVE_KINDS, affine_class, projective_class
from eck.specialize import diagonalize, multidegree

sympy = pytest.importorskip("sympy")

Y = sympy.Symbol("y")
t = sympy.Symbol("t")


def _tpow(ts, coeffs):
    return sympy.Mul(*(t**e for t, e in zip(ts, coeffs)))


def _rational(c):
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


def _recipe(ts, recipe):
    total = sympy.Integer(0)
    for c, k, factors in recipe:
        term = c * Y**k
        for w, minus_one in factors:
            tw = _tpow(ts, w.coeffs)
            h = (1 + Y * tw) / (1 - tw)
            term *= h - 1 if minus_one else h
        total += term
    return total


def _value(ts, value):
    terms = value.num.terms.items()
    num = sum((_rational(c) * _tpow(ts, key[1:]) * Y ** key[0] for key, c in terms), sympy.Integer(0))
    return num / sympy.Mul(*(1 - _tpow(ts, w.coeffs) for w in value.den))


def _agree(value, recipe):
    ts = sympy.symbols(f"T0:{value.arity}")
    return sympy.cancel(_value(ts, value) - _recipe(ts, recipe)) == 0


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", PROJECTIVE_KINDS)
def test_projective_values_match_sympy(kind, n):
    cls = projective_class(kind, n)
    for i, value in cls.values.items():
        assert _agree(value, cls.recipes[i]), f"{kind}_{n} at p_{i}"


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", AFFINE_KINDS)
def test_affine_values_match_sympy(kind, n):
    cls = affine_class(kind, n)
    assert _agree(cls.at_origin, cls.recipes)


@pytest.mark.parametrize("y", [0, 1])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", AFFINE_KINDS)
def test_multidegree_matches_the_sympy_series(kind, n, y):
    diag = diagonalize(affine_class(kind, n))
    ts = sympy.symbols("T0:1")
    series = _value(ts, diag).subs({Y: y, ts[0]: sympy.exp(-t)})
    assert multidegree(diag, y=y) == series.leadterm(t)
