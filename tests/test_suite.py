"""The acceptance table itself: its rows, how a failing row reports, and
criterion 8's Horner round trips against the certify() route."""

from eck import identities, positivity, suite
from eck.algebra import RatExpr, SparsePoly
from eck.identities import verify
from eck.positivity import SPolynomial, certify, to_positive_form
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


# -- criterion 8: Horner round trips against certify() ------------------------


def _certify_loop(max_n: int, seed: int) -> tuple[bool, str]:
    """Criterion 8 as ``eck certify`` decides it: certify() with the expanded
    back-substitution."""
    bad: list[str] = []
    for kind in ("CCQ", "CQ"):
        for n in range(2, max_n + 1):
            cert = certify(kind, n, seed=seed)
            if not cert.nonnegative:
                key, c = cert.witness
                bad.append(f"{kind}_{n} negative term {c} at {key}")
            elif not cert.roundtrip_ok:
                bad.append(f"{kind}_{n} round trip failed: back-substitution {cert.roundtrip_note}")
    if bad:
        return False, "; ".join(bad)
    return True, f"CCQ and CQ, n=2..{max_n}: all coefficients nonnegative, all round trips exact"


def test_certificates_match_the_certify_loop():
    assert suite._certificates(6, 0) == _certify_loop(6, 0)


def test_certificate_failures_come_back_in_task_order(monkeypatch):
    """A positive form with a negative term at n = 4 and a form that no
    longer equals its class at odd n: both routes report the same lines."""

    def flawed(kind, n):
        spoly = to_positive_form(kind, n)
        terms = dict(spoly.terms)
        if n == 4:
            terms[min(terms)] = -1
        elif n % 2:
            terms[max(terms)] += 1
        return SPolynomial(spoly.weights, terms, spoly.den)

    monkeypatch.setattr(suite, "to_positive_form", flawed)
    monkeypatch.setattr(positivity, "to_positive_form", flawed)
    got = suite._certificates(5, 0)
    assert got == _certify_loop(5, 0)
    assert got == (
        False,
        "CCQ_3 round trip failed: back-substitution differs at T=(17/37, 2/11), y=7/8: "
        "-404062347/43160576 != -119556597/43160576; "
        "CCQ_4 negative term -1 at (2, 0, 1, 1, 0); "
        "CCQ_5 round trip failed: back-substitution differs at T=(43/17, 41/2, 11/23), y=6/7: "
        "55377147341549/1727300617637 != 93535928101012/1727300617637; "
        "CQ_3 round trip failed: back-substitution differs at T=(17/37, 2/11), y=7/8: "
        "-2933911/674384 != -2438911/674384; "
        "CQ_4 negative term -1 at (0, 1, 1, 1, 1); "
        "CQ_5 round trip failed: back-substitution differs at T=(43/17, 41/2, 11/23), y=6/7: "
        "36377147371/6018469051 != -6142149871716/246757231091",
    )
