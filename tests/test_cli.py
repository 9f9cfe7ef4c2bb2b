"""Command-line interface: frozen outputs, JSON envelope, exit codes,
the dimension cap, and determinism."""

import json

import pytest

from eck import cli, identities
from eck.algebra import DenominatorVanishes, NotDivisible, RatExpr, SparsePoly
from eck.cli import run
from eck.identities import ResidualTDependence
from eck.positivity import StructuralRewriteFailed
from eck.specialize import NonvanishingNegativeUPart, ZeroClass


def _json_out(capsys):
    out = capsys.readouterr().out
    return json.loads(out), out


def test_csm_frozen_text(capsys):
    assert run(["csm", "--n", "4", "--format", "text"]) == 0
    assert capsys.readouterr().out == "1 + 2t + 2t^2\n"


def test_csm_range_prefixes(capsys):
    assert run(["csm", "--n", "2..4", "--space", "CCX"]) == 0
    out = capsys.readouterr().out
    assert out == "n=2: 1\nn=3: 1 + t\nn=4: 1 + 2t + t^2\n"


def test_verify_json_envelope(capsys):
    assert run(["verify", "--formula", "con", "--n", "2", "--format", "json"]) == 0
    doc, raw = _json_out(capsys)
    assert set(doc) == {"command", "params", "results", "version"}
    assert doc["command"] == "verify"
    assert doc["params"]["formula"] == "con" and doc["params"]["n_lo"] == 2
    first = doc["results"][0]
    assert first["formula"] == "con" and first["n"] == 2 and first["verified"] is True
    assert raw.endswith("\n")


def test_json_runs_are_byte_identical(capsys):
    run(["verify", "--formula", "dope", "--n", "2..4", "--format", "json", "--seed", "5"])
    first = capsys.readouterr().out
    run(["verify", "--formula", "dope", "--n", "2..4", "--format", "json", "--seed", "5"])
    second = capsys.readouterr().out
    assert first == second


def test_timings_only_on_request(capsys):
    run(["verify", "--formula", "con", "--n", "2", "--format", "json"])
    doc, _ = _json_out(capsys)
    assert "timing_ms" not in doc["results"][0]
    run(["verify", "--formula", "con", "--n", "2", "--format", "json", "--timings"])
    doc, _ = _json_out(capsys)
    assert doc["results"][0]["timing_ms"] >= 0


def test_usage_errors_are_one_line(capsys):
    assert run(["verify", "--formula", "proj", "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error:" in err

    assert run(["frobnicate"]) == 2
    assert "error:" in capsys.readouterr().err

    assert run(["verify", "--formula", "con", "--n", "4", "--k", "1"]) == 2
    assert "error:" in capsys.readouterr().err

    assert run(["csm", "--n", "3..2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_dimension_cap(capsys, monkeypatch):
    monkeypatch.delenv("ECK_MAX_N", raising=False)
    assert run(["compute", "--kind", "P", "--n", "9"]) == 2
    assert "ECK_MAX_N" in capsys.readouterr().err

    monkeypatch.setenv("ECK_MAX_N", "9")
    assert run(["compute", "--kind", "P", "--n", "9"]) == 0
    capsys.readouterr()

    monkeypatch.setenv("ECK_MAX_N", "4")
    assert run(["csm", "--n", "6"]) == 2
    capsys.readouterr()

    monkeypatch.setenv("ECK_MAX_N", "banana")
    assert run(["csm", "--n", "2"]) == 2
    assert "ECK_MAX_N" in capsys.readouterr().err


def test_failed_latex_verify_row_carries_its_escaped_witness(capsys, monkeypatch):
    monkeypatch.setattr(identities, "_y", lambda arity, power=1: RatExpr.from_poly(SparsePoly.y_power(arity, power, 2)))
    assert run(["verify", "--formula", "proj", "--n", "3", "--format", "latex"]) == 1
    (row,) = capsys.readouterr().out.splitlines()
    assert row.startswith(r"\texttt{proj} & 3 &  & FAILED --- p\_0 (Xc - Qc) differs at T=(")
    assert r"; p\_0 (Q - X) differs at T=(" in row and row.endswith(r" \\")
    assert "p_0" not in row


def test_compute_latex_forms(capsys):
    assert run(["compute", "--kind", "CCQ", "--n", "2", "--format", "latex"]) == 0
    unexpanded = capsys.readouterr().out
    assert "h(T T_{1})" in unexpanded and "\\frac" not in unexpanded

    assert run(["compute", "--kind", "CCQ", "--n", "2", "--format", "latex", "--expand"]) == 0
    expanded = capsys.readouterr().out
    assert "\\frac" in expanded


def test_compute_json_lists_every_point(capsys):
    assert run(["compute", "--kind", "Qc", "--n", "3", "--format", "json"]) == 0
    doc, _ = _json_out(capsys)
    points = doc["results"][0]["values"]
    assert [p["point"] for p in points] == ["p_-1", "p_0", "p_1"]
    for p in points:
        assert set(p) == {"point", "recipe", "num", "den"}


def test_certify_paths(capsys):
    assert run(["certify", "--kind", "CCQ", "--n", "2..4"]) == 0
    out = capsys.readouterr().out
    assert out.count("nonnegative") == 3 or out.count("PASS") == 3

    assert run(["certify", "--kind", "CQ", "--n", "3", "--format", "json"]) == 0
    doc, _ = _json_out(capsys)
    cert = doc["results"][0]
    assert cert["nonnegative"] is True and cert["roundtrip_ok"] is True


def test_remark_without_k_runs_every_level(capsys):
    assert run(["verify", "--formula", "remark_k", "--n", "6", "--format", "json"]) == 0
    doc, _ = _json_out(capsys)
    assert [r["k"] for r in doc["results"]] == [0, 1, 2]
    assert all(r["verified"] for r in doc["results"])


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert run(["verify", "--formula", "con", "--n", "2", "--format", "json", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "verify"


def test_table_reports_the_failing_criterion(capsys):
    assert run(["table", "--max-n", "4"]) == 1
    out = capsys.readouterr().out
    assert "12/13 criteria passed" in out
    fail_lines = [line for line in out.splitlines() if "FAIL" in line]
    assert len(fail_lines) == 1 and "9" in fail_lines[0]
    assert "n=3" in out  # the mismatch detail names the first odd case


def test_table_json_envelope(capsys):
    assert run(["table", "--max-n", "4", "--format", "json"]) == 1
    doc, _ = _json_out(capsys)
    rows = doc["results"]
    assert len(rows) == 13
    assert [r["number"] for r in rows] == list(range(1, 14))
    assert sum(1 for r in rows if not r["passed"]) == 1


def test_table_runs_are_byte_identical(capsys):
    """Without --timings no wall-clock figure reaches the table, criterion 1's
    60 s budget included."""
    for fmt in ("text", "json"):
        outputs = []
        for _ in range(2):
            assert run(["table", "--max-n", "4", "--format", fmt]) == 1
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], fmt
        assert " ms" not in outputs[0]


@pytest.mark.parametrize(
    "error",
    [
        NotDivisible,
        ResidualTDependence,
        DenominatorVanishes,
        StructuralRewriteFailed,
        NonvanishingNegativeUPart,
        ZeroClass,
    ],
)
def test_internal_errors_are_one_line(capsys, monkeypatch, error):
    def broken(config):
        raise error("remainder on line (0,) (y^0)")

    monkeypatch.setitem(cli._COMMANDS, "compute", broken)
    assert run(["compute", "--kind", "P", "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {error.__name__}: remainder on line (0,) (y^0)\n"


def test_csm_order_round_trips_through_params(capsys):
    assert run(["csm", "--n", "4", "--order", "12", "--format", "json"]) == 0
    doc, first = _json_out(capsys)
    params = doc["params"]
    assert params["order"] == 12
    argv = [params["command"], "--n", f"{params['n_lo']}..{params['n_hi']}", "--space", params["space"]]
    argv += ["--order", str(params["order"]), "--format", params["format"], "--seed", str(params["seed"])]
    assert run(argv) == 0
    assert capsys.readouterr().out == first

    assert run(["csm", "--n", "4", "--format", "json"]) == 0
    doc, _ = _json_out(capsys)
    assert "order" not in doc["params"]


def test_unwritable_out_is_one_line(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    assert run(["csm", "--n", "4", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
