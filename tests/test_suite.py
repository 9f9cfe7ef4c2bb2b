"""The acceptance table itself: its rows and how a failing row reports."""

from eck import identities
from eck.algebra import RatExpr, SparsePoly
from eck.identities import verify
from eck.suite import CRITERIA


def test_criteria_table_is_numbered_in_order():
    assert [f.__name__ for f in CRITERIA] == [f"criterion_{k}" for k in range(1, 14)]
    assert [r.number for r in CRITERIA] == list(range(1, 14))
    from eck.suite import criterion_9

    assert criterion_9 is CRITERIA[8]


def _doubled_y(arity: int, power: int = 1) -> RatExpr:
    return RatExpr.from_poly(SparsePoly.y_power(arity, power, 2))


def test_failing_identity_criterion_names_its_witness(monkeypatch):
    monkeypatch.setattr(identities, "_y", _doubled_y)
    r = CRITERIA[1](max_n=4)
    assert not r.passed
    assert r.detail.startswith("failed at n=")
    assert "differs at T=" in r.detail


def test_failing_remark_criterion_names_its_witness(monkeypatch):
    monkeypatch.setattr(identities, "_y", _doubled_y)
    r = CRITERIA[3](max_n=5)
    assert not r.passed
    assert r.detail.startswith("failed at (n=4, k=1)")
    assert "differs at T=(" in r.detail


def test_failing_proj_criterion_names_each_form_once(monkeypatch):
    monkeypatch.setattr(identities, "_y", _doubled_y)
    r = CRITERIA[0](max_n=4)
    assert not r.passed
    lines = r.detail.split("; ")
    assert len(lines) == len(set(lines)), r.detail
    assert any(line.startswith("p_0 (Xc - Qc) differs at T=(") for line in lines), r.detail
    assert any(line.startswith("p_0 (Q - X) differs at T=(") for line in lines), r.detail
    report = verify("proj", 4)
    assert [label for label, _ in report.per_point] == ["p_-2", "p_-1", "p_1", "p_2"]
    assert "p_1 (Xc - Qc) differs" in report.note and "p_1 (Q - X) differs" in report.note
