import pytest

from qbaglab.contributions import intrinsic_removal, partition_shapley, removal
from qbaglab.errors import (
    ContributorError,
    GraphFormatError,
    StrengthRangeError,
    UnknownArgumentError,
)
from qbaglab.fixtures import FIG8_MANIFEST, fixture
from qbaglab.graph import qbag
from qbaglab.review import (
    EXCLUDED,
    Polarity,
    aspect_model,
    build_decision_graph,
    evaluate_text_layer,
    normalize_aspect,
    report_contributions,
)
from qbaglab.semantics import PRESETS, evaluate


def fig8_model():
    return aspect_model(fixture("fig8"), FIG8_MANIFEST)


def test_text_layer_strengths():
    sigma = evaluate_text_layer(fig8_model())
    expected = {"NOV": 0.8, "CMP": 0.15, "APR": 0.8, "IMP": 0.25,
                "CLA": 0.0, "EMP": 0.0, "SUB": 0.0}
    assert set(sigma) == set(expected)
    for a, want in expected.items():
        assert abs(sigma[a] - want) <= 1e-12


def test_normalize_aspect_cases():
    assert normalize_aspect(0.8) == (0.6000000000000001, Polarity.SUPPORT)
    assert normalize_aspect(0.15) == (0.7, Polarity.ATTACK)
    assert normalize_aspect(0.5) is EXCLUDED
    with pytest.raises(StrengthRangeError):
        normalize_aspect(1.2)
    with pytest.raises(StrengthRangeError):
        normalize_aspect(-0.01)


def test_decision_graph_matches_bundled_fixture():
    dg = build_decision_graph(fig8_model())
    t4 = fixture("table4")
    assert dg.arguments == t4.arguments
    assert dg.attacks == t4.attacks
    assert dg.supports == t4.supports
    for a in dg.arguments:
        assert abs(dg.initial_strength[a] - t4.initial_strength[a]) <= 1e-12


def test_aspects_without_text_edges_are_dropped():
    dg = build_decision_graph(fig8_model())
    for silent in ("CLA", "EMP", "SUB"):
        assert silent not in dg.arguments


def test_neutral_aspect_is_excluded_from_decision_graph():
    g = qbag(
        {"t1": 0.0, "t2": 0.9, "X": 0.5, "Y": 0.2},
        attacks=[("t1", "X")],
        supports=[("t2", "Y")],
    )
    model = aspect_model(g, {"aspects": ["X", "Y"], "decision_tau": 0.5})
    sigma = evaluate_text_layer(model)
    assert sigma["X"] == 0.5  # attacked by a zero-strength comment
    dg = build_decision_graph(model)
    assert "X" not in dg.arguments
    assert "Y" in dg.arguments


def test_manifest_validation():
    g = fixture("fig8")
    with pytest.raises(GraphFormatError):
        aspect_model(g, {})
    with pytest.raises(UnknownArgumentError):
        aspect_model(g, {"aspects": ["NOV", "QQQ"]})
    with pytest.raises(GraphFormatError):
        aspect_model(g, {"aspects": ["NOV", "NOV"]})
    with pytest.raises(StrengthRangeError):
        aspect_model(g, {"aspects": ["NOV"], "decision_tau": 1.5})


def test_layering_enforced():
    crossing = qbag({"x": 0.5, "A": 0.5, "B": 0.5}, attacks=[("x", "A"), ("A", "B")])
    with pytest.raises(GraphFormatError):
        aspect_model(crossing, {"aspects": ["A", "B"]})
    stray = qbag({"x": 0.5, "y": 0.5, "A": 0.5}, attacks=[("x", "y"), ("x", "A")])
    with pytest.raises(GraphFormatError):
        aspect_model(stray, {"aspects": ["A"]})


def test_decision_id_clash_rejected():
    g = qbag({"t": 0.5, "D": 0.5}, attacks=[("t", "D")])
    with pytest.raises(GraphFormatError):
        aspect_model(g, {"aspects": ["D"]})


def test_report_rows_and_sigma():
    report = report_contributions(fig8_model(), ("NOV", "IMP"))
    assert [r.label for r in report.rows] == [
        "{NOV,IMP}", "NOV", "IMP", "CMP", "APR", "CMP+APR+{NOV,IMP}"]
    assert abs(report.sigma_decision - 0.495) <= 5e-4
    expected = {
        "{NOV,IMP}": (0.045, 0.0475, 0.2),
        "NOV": (0.12, 0.21, 0.2),
        "IMP": (-0.075, -0.1625, -0.15),
        "CMP": (-0.175, -0.2625, -0.25),
        "APR": (0.12, 0.21, 0.2),
        "CMP+APR+{NOV,IMP}": (-0.01, -0.005, 0.15),
    }
    for row in report.rows:
        want = expected[row.label]
        assert abs(row.removal - want[0]) <= 1e-12
        assert abs(row.shapley - want[1]) <= 1e-10
        assert abs(row.gradient_max - want[2]) <= 1e-12


def test_sum_row_adds_focus_and_other_singletons():
    report = report_contributions(fig8_model(), ("NOV", "IMP"))
    rows = {r.label: r for r in report.rows}
    for col in ("removal", "shapley", "gradient_max"):
        total = (getattr(rows["{NOV,IMP}"], col) + getattr(rows["CMP"], col)
                 + getattr(rows["APR"], col))
        assert abs(getattr(rows["CMP+APR+{NOV,IMP}"], col) - total) <= 1e-12


def test_intrinsic_equals_removal_on_decision_graph():
    dg = build_decision_graph(fig8_model())
    sem = PRESETS["DFQuAD"]
    for members in (("NOV", "IMP"), ("NOV",), ("IMP",), ("CMP",), ("APR",)):
        r = removal(dg, sem, members, "D").value
        i = intrinsic_removal(dg, sem, members, "D").value
        assert abs(r - i) <= 1e-12


def test_partition_shapley_efficiency_on_decision_graph():
    dg = build_decision_graph(fig8_model())
    sem = PRESETS["DFQuAD"]
    blocks = (("NOV", "IMP"), ("CMP",), ("APR",))
    total = sum(partition_shapley(dg, sem, b, blocks, "D").value for b in blocks)
    delta = evaluate(dg, sem)["D"] - dg.initial_strength["D"]
    assert abs(total - delta) <= 1e-9


def test_csv_layout():
    report = report_contributions(fig8_model(), ("NOV", "IMP"))
    lines = report.to_csv().splitlines()
    assert lines[0] == ("contributors,removal,shapley,gradient_max,"
                        "removal_exact,shapley_exact,gradient_max_exact")
    assert len(lines) == 7
    assert lines[1].startswith('"{NOV,IMP}",0.045,')
    assert lines[4].startswith("CMP,-0.175,-0.263,-0.250,")


def test_focus_validation():
    model = fig8_model()
    with pytest.raises(ContributorError):
        report_contributions(model, ())
    with pytest.raises(UnknownArgumentError):
        report_contributions(model, ("NOV", "CLA"))  # CLA has no text edges
    with pytest.raises(GraphFormatError):
        report_contributions(model, ("NOV", "NOV"))


def test_custom_decision_id_and_tau():
    g = qbag({"t1": 0.9, "A": 0.2}, supports=[("t1", "A")])
    model = aspect_model(
        g, {"aspects": ["A"], "decision_tau": 0.25, "decision_id": "verdict"})
    dg = build_decision_graph(model)
    assert "verdict" in dg.arguments
    assert dg.initial_strength["verdict"] == 0.25
    report = report_contributions(model, ("A",))
    assert report.decision_id == "verdict"
