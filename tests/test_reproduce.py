"""The reproduce claims: pinned as a whole, and reported (not raised) when a
regression takes away a number a claim reads."""

import hashlib
from dataclasses import replace

import pytest

from qbaglab import reproduce
from qbaglab.cli import main
from qbaglab.errors import UnknownFixtureError
from qbaglab.fixtures import fixture
from qbaglab.principles import MatrixCell, MatrixReport
from qbaglab.reproduce import ReproduceReport, run_claims, run_some
from qbaglab.verdicts import Principle, Status

CLAIMS_SHA256 = "015370d1baf7a9809fa554ff5e55e65d7403ceb115df7ef8119654bb39b589b3"


def test_every_claim_is_pinned():
    claims = run_claims()
    text = "\n".join(c.render() for c in claims)
    assert len(claims) == 267
    assert hashlib.sha256(text.encode()).hexdigest() == CLAIMS_SHA256


def test_a_satisfied_exists_verdict_fails_its_claims(monkeypatch, capsys):
    real = reproduce.check_quantitative_contribution_existence

    def satisfied(fn, g, sem, a, mode="All", **kw):
        v = real(fn, g, sem, a, mode=mode, **kw)
        if mode != "Exists":
            return v
        values = {"sum over blocks": 0.0, "sigma(a)-tau(a)": 0.0}  # no margin
        return replace(v, status=Status.SATISFIED, witness=replace(v.witness, values=values))

    monkeypatch.setattr(reproduce, "check_quantitative_contribution_existence", satisfied)
    report = run_some(["fig5"])
    assert report.claims and not any(c.passed for c in report.claims)
    assert report.ok is False
    assert main(["reproduce", "fig5"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("FAILED fig5: QE: gradient-max sums miss sigma-tau")
    assert out[-2:] == ["claims: 0/10 reproduced", "reproduce: FAILED"]


def test_a_missing_pipeline_row_fails_its_cells(monkeypatch):
    real = reproduce.report_contributions

    def dropped(model, focus, **kw):
        report = real(model, focus, **kw)
        return replace(report, rows=tuple(r for r in report.rows if r.label != "NOV"))

    monkeypatch.setattr(reproduce, "report_contributions", dropped)
    report = run_some(["fig8"])
    failed = [c.name for c in report.claims if not c.passed]
    assert failed == [f"pipeline {col} of NOV prints as {want}" for col, want in
                      (("removal", "0.120"), ("shapley", "0.210"), ("gradient-max", "0.200"))]
    assert len(report.claims) == 28
    assert report.ok is False


def test_render_lists_each_mismatched_cell():
    cells = (
        MatrixCell("shapley", "QE", Principle.CONSISTENCY, False, "MISMATCH",
                   "fig6-shapley-qe", checked=3),
        MatrixCell("removal", "EB", Principle.DIRECTIONALITY, True, "PASS", checked=10),
        MatrixCell("intrinsic", "EBT", Principle.MONOTONICITY, True, "MISMATCH", checked=7),
    )
    report = ReproduceReport(claims=(), matrix=MatrixReport(cells))
    assert report.render().splitlines() == [
        "claims: 0/0 reproduced",
        "verdict matrix: 3 cells, 2 mismatch(es)",
        "MISMATCH shapley x QE x Consistency: MISMATCH",
        "MISMATCH intrinsic x EBT x Monotonicity: MISMATCH",
        "reproduce: FAILED",
    ]


@pytest.mark.parametrize("caught", [UnknownFixtureError, KeyError])
def test_an_unknown_fixture_id_is_an_unknown_fixture_error(caught):
    with pytest.raises(caught, match=r"^unknown fixture id 'fig99'; known ids: fig1a, "):
        fixture("fig99")
