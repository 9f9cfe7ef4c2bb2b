"""The acceptance table itself: its rows and how a failing row reports."""

from eck import identities
from eck.algebra import RatExpr, SparsePoly
from eck.suite import CRITERIA


def test_criteria_table_is_numbered_in_order():
    assert [f.__name__ for f in CRITERIA] == [f"criterion_{k}" for k in range(1, 14)]
    assert [r.number for r in CRITERIA] == list(range(1, 14))
    from eck.suite import criterion_9

    assert criterion_9 is CRITERIA[8]


def test_failing_identity_criterion_names_its_witness(monkeypatch):
    def doubled_y(arity: int, power: int = 1) -> RatExpr:
        return RatExpr.from_poly(SparsePoly.y_power(arity, power, 2))

    monkeypatch.setattr(identities, "_y", doubled_y)
    r = CRITERIA[1](max_n=4)
    assert not r.passed
    assert r.detail.startswith("failed at n=")
    assert "differs at T=" in r.detail
