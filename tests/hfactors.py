"""The h-factors of a weight as rational expressions, built straight from
their definition: the independent reference that the tests check class
assembly against.  A zero weight raises DivisionByZero in ``RatExpr``."""

from eck.algebra import Character, RatExpr, SparsePoly


def hfactor_expr(w: Character) -> RatExpr:
    """The multiplicative factor ``h(T^w) = (1 + y T^w) / (1 - T^w)`` of a
    tangent weight ``w``."""
    num = SparsePoly.from_terms(w.arity, [((1,) + w.coeffs, 1), ((0,) * (w.arity + 1), 1)])
    return RatExpr(num, (w,))


def hfactor_minus_one_expr(w: Character) -> RatExpr:
    """``h(T^w) - 1 = (1 + y) T^w / (1 - T^w)``, the factor of a punctured
    line C*."""
    num = SparsePoly.from_terms(w.arity, [((1,) + w.coeffs, 1), ((0,) + w.coeffs, 1)])
    return RatExpr(num, (w,))
