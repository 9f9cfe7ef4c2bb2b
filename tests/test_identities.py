"""Formula verification reports and fixed-point integration to genus
polynomials, with frozen small-case values."""

import re
from fractions import Fraction

import pytest
from bench_loader import load_bench

from eck import hirzebruch, identities

from eck.algebra import Character, RatExpr, SparsePoly
from eck.hirzebruch import PROJECTIVE_KINDS, LocalClass, affine_class, cone_pushforward, projective_class
from eck.identities import (
    FORMULAS,
    ResidualTDependence,
    chi_y,
    integrate_projective,
    verify,
)
from eck.torus import GeometryConfig

genus_closed_form = load_bench("oracles").genus_closed_form


def test_formula_registry():
    assert FORMULAS == (
        "proj",
        "con",
        "dope",
        "expl",
        "remark_k",
        "closed_form",
        "milnor_div_y",
        "blowup_consistency",
    )


# -- verification reports ----------------------------------------------------


def test_projective_report_shape():
    r = verify("proj", 4)
    assert r.formula == "proj" and r.n == 4 and r.k is None
    assert [label for label, _ in r.per_point] == ["p_-2", "p_-1", "p_1", "p_2"]
    assert all(flag for _, flag in r.per_point)
    assert r.verified


def test_cone_formula_small():
    r = verify("con", 2)
    assert r.verified and r.per_point and all(flag for _, flag in r.per_point)


def test_truncated_sum_formula_with_k():
    r = verify("remark_k", 6, k=1)
    assert r.k == 1 and r.verified


def test_top_k_coincides_with_pair_cone_complement():
    r = verify("remark_k", 6, k=2)
    assert r.verified
    labels = [label for label, _ in r.per_point]
    assert "Y* = CCX (k=m-1)" in labels
    assert dict(r.per_point)["Y* = CCX (k=m-1)"]
    assert r.note


def test_smallest_case_carries_note():
    r = verify("proj", 2)
    assert r.verified and r.note


def test_all_formulas_n4():
    for formula in FORMULAS:
        if formula == "remark_k":
            r = verify(formula, 4, k=0)
        else:
            r = verify(formula, 4)
        assert r.verified, formula
        assert r.timing_ms >= 0


def test_blowup_consistency_past_the_table_range():
    assert verify("blowup_consistency", 9).verified


def test_argument_guards():
    with pytest.raises(ValueError):
        verify("banana", 4)
    with pytest.raises(ValueError):
        verify("proj", 1)
    with pytest.raises(ValueError):
        verify("remark_k", 6)  # k required
    with pytest.raises(ValueError):
        verify("remark_k", 6, k=3)  # 0 <= k <= m-1 = 2
    with pytest.raises(ValueError):
        verify("con", 4, k=1)  # k only meaningful for the truncated sum


# -- integration -------------------------------------------------------------


def test_projective_space_genus_polynomials():
    for n in (1, 2, 3, 4, 5):
        got = integrate_projective(projective_class("P", n))
        assert got.y_coefficients() == {p: (-1) ** p for p in range(n)}
        assert chi_y("P", n).y_coefficients() == got.y_coefficients()


def test_two_point_quadric():
    assert chi_y("Q", 2).y_coefficients() == {0: 2}


def test_quadric_surface():
    assert chi_y("Q", 4).y_coefficients() == {0: 1, 1: -2, 2: 1}


def test_even_quadric_middle_class():
    # dimension 6 quadric: extra middle cohomology doubles the cubic term
    assert chi_y("Q", 8).y_coefficients() == {
        0: 1,
        1: -1,
        2: 1,
        3: -2,
        4: 1,
        5: -1,
        6: 1,
    }


def test_odd_quadric():
    assert chi_y("Q", 5).y_coefficients() == {0: 1, 1: -1, 2: 1, 3: -1}


def test_open_complement_genus():
    # chi_y(Qc_4) = chi_y(P^3) - chi_y(Q_4); top term reaches degree n-1
    assert chi_y("Qc", 4).y_coefficients() == {1: 1, 3: -1}


def test_genus_additivity_all_n():
    for n in range(2, 9):
        p = chi_y("P", n).y_coefficients()
        for closed, opened in (("Q", "Qc"), ("X", "Xc")):
            a = chi_y(closed, n).y_coefficients()
            b = chi_y(opened, n).y_coefficients()
            total: dict[int, object] = {}
            for src in (a, b):
                for k, v in src.items():
                    total[k] = total.get(k, 0) + v
            assert {k: v for k, v in total.items() if v} == p


def test_closed_subvariety_degree_bound():
    # closed subvarieties of P^{n-1} have genus degree <= dim = n-2
    for n in range(2, 9):
        for kind in ("Q", "X"):
            coeffs = chi_y(kind, n).y_coefficients()
            assert max(coeffs) <= n - 2
        assert max(chi_y("P", n).y_coefficients()) == n - 1


def test_integration_must_clear_denominators():
    n = 3
    geo = GeometryConfig(n)
    base = projective_class("P", n)
    broken = LocalClass(
        geometry=geo,
        space="broken",
        n=n,
        values={
            i: (RatExpr.zero(geo.arity) if i == 0 else base.values[i])
            for i in geo.indices
        },
        recipes={i: () for i in geo.indices},
    )
    message = r"^broken \(n=3\): the divided difference over p_0\.\.p_1 leaves a remainder; the values are not a class$"
    with pytest.raises(ResidualTDependence, match=message):
        integrate_projective(broken)


def _full_torus_sum(cls: LocalClass) -> RatExpr:
    """The fixed-point sum over a common denominator in all torus variables."""
    return sum(cls.values.values(), RatExpr.zero(cls.geometry.arity)).reduced()


def test_integration_keeps_full_torus_strength():
    """A P_5 class whose p_1 value gains T1^2 - T2 does not integrate.

    The full-torus fold rejects it as well: its sum keeps T1^2 - T2.  The
    one-parameter line t_i -> 2^(i-1) s sends T1^2 - T2 to 0 and returns
    1 - y + y^2 - y^3 + y^4, the genus of P^4, with no error; the injective
    map keeps the check exact.
    """
    base = projective_class("P", 5)
    extra = SparsePoly.monomial(Character((0, 2, 0))) - SparsePoly.monomial(Character((0, 0, 1)))
    values = {i: v + extra if i == 1 else v for i, v in base.values.items()}
    broken = LocalClass(geometry=base.geometry, space="broken", n=5, values=values, recipes=base.recipes)
    with pytest.raises(ResidualTDependence, match="broken_5"):
        integrate_projective(broken)
    assert not _full_torus_sum(broken).num.is_y_only()

    line = [Character((0,)), Character((1,)), Character((2,))]  # t -> 0, t_i -> 2^(i-1) s
    restricted = sum((v.apply_map(line) for v in broken.values.values()), RatExpr.zero(1)).reduced()
    assert not restricted.den and restricted.num.y_coefficients() == {p: (-1) ** p for p in range(5)}


def _p5_with(changes: dict[int, SparsePoly]) -> LocalClass:
    """The P_5 class with a polynomial added to the values at some points."""
    base = projective_class("P", 5)
    values = {i: v + changes[i] if i in changes else v for i, v in base.values.items()}
    return LocalClass(geometry=base.geometry, space="broken", n=5, values=values, recipes=base.recipes)


_EXTRA = SparsePoly.monomial(Character((0, 2, 0))) - SparsePoly.monomial(Character((0, 0, 1)))  # T1^2 - T2


def test_integration_cancels_a_perturbation_across_a_pair():
    """T1^2 - T2 added at p_1 and taken away at p_-1 leaves the sum, and so
    the genus of P^4, unchanged, although neither point of the pair is the
    class value any more."""
    got = integrate_projective(_p5_with({1: _EXTRA, -1: -_EXTRA}))
    assert got.y_coefficients() == {p: (-1) ** p for p in range(5)}


@pytest.mark.parametrize("point", [-1, 0, 2])
def test_integration_rejects_a_perturbation_at_any_point(point):
    """The corruption of ``test_integration_keeps_full_torus_strength``, at
    the other end of the first pair, at the unpaired point ``p_0`` and in
    the second pair."""
    broken = _p5_with({point: _EXTRA})
    with pytest.raises(ResidualTDependence, match="broken_5"):
        integrate_projective(broken)
    assert not _full_torus_sum(broken).num.is_y_only()


def test_integration_rejects_a_perturbation_the_pair_step_divides():
    """``(1 + T1)(T1^2 - T2)`` added at ``p_1``: a perturbation that an
    antipodal pair ``p_1``, ``p_-1`` still divides by ``1 + T^{t_1}``, so
    only the whole sum shows it.  The Newton table rejects it, as the
    full-torus fold does."""
    broken = _p5_with({1: (SparsePoly.one(3) + SparsePoly.monomial(Character((0, 1, 0)))) * _EXTRA})
    with pytest.raises(ResidualTDependence, match="broken_5"):
        integrate_projective(broken)
    assert not _full_torus_sum(broken).num.is_y_only()


def _recorded_divisions(monkeypatch) -> list[tuple[int, bool]]:
    """Record the packed divisions ``integrate_projective`` makes, in order,
    as ``(dividend size, refused)``: its Newton table, in ``hirzebruch``,
    looks up ``_over_one_minus`` there."""
    calls: list[tuple[int, bool]] = []
    divide = hirzebruch._over_one_minus

    def recorded(f, step):
        quotient = divide(f, step)
        calls.append((len(f), quotient is None))
        return quotient

    monkeypatch.setattr(hirzebruch, "_over_one_minus", recorded)
    return calls


def test_pair_step_tries_only_the_pair_curve(monkeypatch):
    """A work-count guard: each step of the Newton table divides once, by
    ``1 - z^(k_a - k_b)`` along the T-curve of its own pair of nodes
    ``p_a``, ``p_b``, ``n (n - 1) / 2`` divisions in all, and none is
    refused."""
    calls = _recorded_divisions(monkeypatch)
    assert chi_y("Qc", 9).y_coefficients() == genus_closed_form("Qc", 9)
    assert len(calls) == 36 and not any(refused for _, refused in calls)


def test_lift_keeps_y_in_the_coefficient(monkeypatch):
    """A work-count guard: the packed ring keys T alone and carries each
    T-monomial's y-polynomial in one integer, so the largest dividend of a
    Qc_9 integration stays small (196 keys)."""
    calls = _recorded_divisions(monkeypatch)
    assert chi_y("Qc", 9).y_coefficients() == genus_closed_form("Qc", 9)
    assert 0 < max(size for size, _ in calls) <= 400, calls


def test_chi_y_builds_characters_once_per_geometry(monkeypatch):
    """A work-count guard: the index set and the weights for ``n`` are built
    once and shared, and a tangent product once per recipe, so ``chi_y`` of
    Q_9 from cleared caches constructs 227 characters (566 when every
    weight lookup built its own)."""
    from eck.hirzebruch import affine_class

    projective_class.cache_clear()
    affine_class.cache_clear()
    built = []
    post_init = Character.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Character, "__post_init__", counted)
    assert chi_y("Q", 9).y_coefficients() == genus_closed_form("Q", 9)
    assert 0 < len(built) <= 400, len(built)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_integration_keeps_the_node_keys_apart(n):
    """The value 1 at ``p_1`` and 0 elsewhere sums to 1.  It has no
    denominator and no T in its numerator, so only the box's ``[-1, 1]`` in
    every pair coordinate keeps the node keys ``phi(t_j)`` distinct; packing
    two nodes alike returns 0 at n = 4 and 5."""
    geo = GeometryConfig(n)
    values = {i: RatExpr.one(geo.arity) if i == 1 else RatExpr.zero(geo.arity) for i in geo.indices}
    lone = LocalClass(geometry=geo, space="lone", n=n, values=values, recipes={i: () for i in geo.indices})
    assert integrate_projective(lone) == SparsePoly.one(geo.arity)


def test_integration_names_what_kept_t_dependence():
    """The messages of the Newton table.  ``1 / (1 - T1)`` at ``p_1`` of
    P^1 has a denominator factor that is no tangent weight there, named
    with its point; the perturbed P_5 sum divides at every step and keeps a
    term, named with the coefficient of its lowest y-power when it carries
    y."""
    geo = GeometryConfig(2)
    one_pole = RatExpr(SparsePoly.one(geo.arity), (Character.basis(geo.arity, 1),))
    values = {i: one_pole if i == 1 else RatExpr.zero(geo.arity) for i in geo.indices}
    broken = LocalClass(geometry=geo, space="broken", n=2, values=values, recipes={i: () for i in geo.indices})
    with pytest.raises(ResidualTDependence, match=r"^broken \(n=2\) at p_1: denominator factor 1 - T\^\(t1\) is not a tangent weight of P\^1 there$"):
        integrate_projective(broken)
    with pytest.raises(ResidualTDependence, match=r"^fixed-point sum of broken_5 kept T-dependence: leftover term T1\^2$"):
        integrate_projective(_p5_with({1: _EXTRA}))
    y = SparsePoly.y_power(3)
    carrying_y = y * _EXTRA - SparsePoly.monomial(Character((0, 1, 0)), 3, 2)  # y*T1^2 - y*T2 - 2*y^3*T1
    for point in (1, 0, -2):
        with pytest.raises(ResidualTDependence, match=r"^fixed-point sum of broken_5 kept T-dependence: leftover term -2\*y\^3\*T1$"):
            integrate_projective(_p5_with({point: carrying_y}))


@pytest.mark.parametrize("scale", [10**40, -(10**40), Fraction(1, 3)])
def test_integration_is_exact_past_any_fixed_slot(scale):
    """Every numerator of the P_5 class times ``scale`` integrates to exactly
    ``scale`` times the genus of P^4: the y-slot width grows with the
    coefficients, and denominators are cleared first."""
    base = projective_class("P", 5)
    values = {i: RatExpr(v.num * scale, v.den) for i, v in base.values.items()}
    scaled = LocalClass(geometry=base.geometry, space="scaled", n=5, values=values, recipes=base.recipes)
    assert integrate_projective(scaled).y_coefficients() == {p: (-1) ** p * scale for p in range(5)}


@pytest.mark.parametrize("kind", PROJECTIVE_KINDS)
def test_integration_matches_full_torus_fold(kind):
    for n in range(1 if kind == "P" else 2, 8):
        cls = projective_class(kind, n)
        got = integrate_projective(cls)
        want = _full_torus_sum(cls)
        assert not want.den and got.terms == want.num.terms and str(got) == str(want.num), (kind, n)


@pytest.mark.parametrize("kind", PROJECTIVE_KINDS)
def test_genus_closed_forms(kind):
    for n in range(1 if kind == "P" else 2, 13):
        assert chi_y(kind, n).y_coefficients() == genus_closed_form(kind, n), (kind, n)


@pytest.mark.parametrize("kind, n, want", [("P", 1, "1"), ("Q", 0, "0"), ("Qc", 0, "0"), ("X", 2, "2"), ("Xc", 2, "-1 - y")])
def test_every_kind_at_its_floor(kind, n, want):
    """``chi_y`` at the least ``n`` each projective kind accepts; the empty
    space Q_0 = Qc_0 has no fixed point, integrates to 0 and pushes forward
    to 0, the class of CCQ_0 at the origin."""
    assert str(chi_y(kind, n)) == want
    if n == 0:
        assert chi_y(kind, n) == SparsePoly.zero(1)
        assert cone_pushforward(projective_class(kind, n)) == RatExpr.zero(1) == affine_class("CCQ", 0).at_origin


def test_chi_guards():
    with pytest.raises(ValueError):
        chi_y("CCQ", 4)  # open cones have no finite integral here
    with pytest.raises(ValueError):
        chi_y("P", 0)


def test_failed_comparison_names_a_witness(monkeypatch):
    """A broken right-hand side (2y in place of y) fails con at the origin; the
    note gives the first seeded point where the sides differ and both values."""
    monkeypatch.setattr(identities, "_y", lambda arity, power=1: RatExpr.from_poly(SparsePoly.y_power(arity, power, 2)))
    report = verify("con", 4, seed=3)
    assert not report.verified and report.per_point == (("origin", False),)
    match = re.fullmatch(r"origin differs at T=\((.*)\), y=(\S+): (\S+) != (\S+)", report.note)
    assert match, report.note
    assert all("/" in v for v in match.group(1).split(", "))
    assert match.group(3) != match.group(4)


def test_passing_reports_carry_no_witness():
    for formula in ("con", "dope", "blowup_consistency"):
        assert verify(formula, 4, seed=5).note == ""
