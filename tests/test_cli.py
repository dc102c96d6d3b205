import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

import qbaglab
from qbaglab import reproduce
from qbaglab.cli import main
from qbaglab.fixtures import fixture
from qbaglab.principles import TABLE_PRINCIPLES, run_check, topics_of


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def schema():
    text = resources.files("qbaglab").joinpath(
        "schemas/cli_output.schema.json").read_text()
    return json.loads(text)


def check_json(payload):
    jsonschema.validate(json.loads(payload), schema())


def test_eval_human(capsys):
    code, out, _ = run(capsys, "eval", "fig1a", "--semantics", "QE")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "semantics: QE"
    assert lines[1] == "a: 0.3 -> 0.39  (0.3875178986219915)"
    assert "f: 0.6 -> 0.60  (0.6)" in lines


def test_eval_json_schema(capsys):
    code, out, _ = run(capsys, "eval", "fig1a", "--semantics", "QE", "--json")
    assert code == 0
    check_json(out)
    payload = json.loads(out)
    assert payload["final"]["b"] == 0.9512950502477631
    assert payload["initial"]["c"] == 0.1


def test_eval_csv(capsys):
    code, out, _ = run(capsys, "eval", "fig1a", "--semantics", "QE", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "argument,initial,display,final"
    assert lines[1] == "a,0.3,0.39,0.3875178986219915"
    assert len(lines) == 7


def test_eval_inline_semantics_spec(capsys):
    spec = '{"aggregation": "sum", "influence": {"kind": "pmax", "p": 2, "k": 1}}'
    code, out, _ = run(capsys, "eval", "fig1a", "--semantics", spec, "--json")
    assert code == 0
    assert json.loads(out)["final"]["a"] == 0.3875178986219915


@pytest.mark.parametrize("influence", ['{"kind": "pmax", "k": "abc"}',
                                       '{"kind": "pmax", "p": 2.5}'])
def test_eval_bad_influence_parameter_is_a_semantics_error(capsys, influence):
    spec = f'{{"aggregation": "sum", "influence": {influence}}}'
    code, out, err = run(capsys, "eval", "fig1a", "--semantics", spec)
    assert code == 3
    assert out == "" and "Traceback" not in err


def test_eval_cyclic_file(capsys, tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({
        "arguments": [{"id": "a", "initial_strength": 0.5},
                      {"id": "b", "initial_strength": 0.5}],
        "attacks": [["a", "b"], ["b", "a"]],
        "supports": [],
    }))
    code, out, err = run(capsys, "eval", str(path), "--semantics", "QE")
    assert code == 2
    assert "cycle: [a,b]" in err


def test_eval_strength_out_of_range_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "arguments": [{"id": "a", "initial_strength": 0.5},
                      {"id": "b", "initial_strength": 1.5}],
        "attacks": [["b", "a"]],
    }))
    code, out, err = run(capsys, "eval", str(path), "--semantics", "QE")
    assert (code, out) == (2, "")
    assert "initial strength of 'b' is 1.5, outside [0, 1]" in err


def test_eval_unknown_semantics(capsys):
    code, _, err = run(capsys, "eval", "fig1a", "--semantics", "qe")
    assert code == 3
    assert "QE" in err  # the error names the known presets


def test_eval_missing_file(capsys):
    code, _, err = run(capsys, "eval", "no-such-fixture.json", "--semantics", "QE")
    assert code == 2


def test_contrib_value_and_json(capsys):
    code, out, _ = run(capsys, "contrib", "table4", "--function", "shapley",
                       "--set", "NOV,IMP", "--topic", "D",
                       "--semantics", "DFQuAD", "--json")
    assert code == 0
    check_json(out)
    payload = json.loads(out)
    assert abs(payload["value"] - 0.0475) <= 1e-10
    assert payload["members"] == ["IMP", "NOV"]
    assert payload["std_error"] is None
    assert payload["evaluations"] == 8


@pytest.mark.parametrize("flags, lines", [
    (("table4", "--function", "shapley", "--set", "NOV,IMP", "--topic", "D",
      "--semantics", "DFQuAD"),
     ["shapley({IMP,NOV}) -> D under DFQuAD", "value: 0.04749999999999998",
      "evaluations: 8"]),
    (("fig1a", "--function", "shapley", "--set", "d", "--topic", "a",
      "--semantics", "QE", "--monte-carlo", "--samples", "200", "--seed", "3"),
     ["shapley({d}) -> a under QE", "value: -0.004208784127492968",
      "evaluations: 32", "std_error: 0.0012101518790063196"]),
], ids=["exact", "monte-carlo"])
def test_contrib_human(capsys, flags, lines):
    code, out, _ = run(capsys, "contrib", *flags)
    assert code == 0
    assert out.splitlines() == lines


def test_contrib_topic_in_set(capsys):
    code, _, err = run(capsys, "contrib", "fig1a", "--function", "removal",
                       "--set", "a,d", "--topic", "a", "--semantics", "QE")
    assert code == 4


def test_contrib_budget_exhausted(capsys):
    code, _, err = run(capsys, "contrib", "fig1a", "--function", "shapley",
                       "--set", "d", "--topic", "a", "--semantics", "QE",
                       "--budget", "4")
    assert code == 5
    assert "Monte-Carlo" in err


def test_contrib_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("QBAGLAB_EVAL_BUDGET", "4")
    code, _, err = run(capsys, "contrib", "fig1a", "--function", "shapley",
                       "--set", "d", "--topic", "a", "--semantics", "QE")
    assert code == 5


def test_contrib_budget_env_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("QBAGLAB_EVAL_BUDGET", "abc")
    code, out, err = run(capsys, "contrib", "fig1a", "--function", "removal",
                         "--set", "d", "--topic", "a", "--semantics", "QE")
    assert (code, out, err) == (
        2, "", "error: QBAGLAB_EVAL_BUDGET must be an integer, got 'abc'\n")


def test_contrib_monte_carlo(capsys):
    code, out, _ = run(capsys, "contrib", "fig1a", "--function", "shapley",
                       "--set", "d", "--topic", "a", "--semantics", "QE",
                       "--monte-carlo", "--samples", "200", "--seed", "3",
                       "--json")
    assert code == 0
    check_json(out)
    payload = json.loads(out)
    assert payload["std_error"] is not None
    assert abs(payload["value"] - (-0.013)) < 0.02


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_contrib_monte_carlo_rejects_fewer_than_one_sample(capsys, samples):
    code, out, err = run(capsys, "contrib", "fig1a", "--function", "shapley",
                         "--set", "d", "--topic", "a", "--monte-carlo",
                         "--samples", samples)
    assert code == 2 and out == ""
    assert f"got {samples}" in err


@pytest.mark.parametrize("flags", [("--samples", "0", "--seed", "5"),
                                   ("--samples", "100"), ("--seed", "5")])
def test_contrib_sampling_flags_need_monte_carlo(capsys, flags):
    code, out, err = run(capsys, "contrib", "fig1a", "--function", "removal",
                         "--set", "d", "--topic", "a", *flags)
    assert code == 2 and out == ""
    assert "--monte-carlo" in err


def test_contrib_monte_carlo_defaults_are_shapleys(capsys):
    code, out, _ = run(capsys, "contrib", "fig1a", "--function", "shapley",
                       "--set", "d", "--topic", "a", "--monte-carlo", "--json")
    assert code == 0
    want = qbaglab.shapley(fixture("fig1a"), "QE", ("d",), "a", monte_carlo=True)
    assert json.loads(out)["value"] == want.value


def test_contrib_partition_rejects_monte_carlo(capsys):
    code, out, err = run(capsys, "contrib", "table4", "--function", "shapley",
                         "--set", "NOV,IMP", "--topic", "D",
                         "--partition", "NOV,IMP|CMP|APR",
                         "--monte-carlo", "--samples", "50")
    assert code == 2 and out == ""
    assert "--monte-carlo" in err


def test_contrib_partition(capsys):
    code, out, _ = run(capsys, "contrib", "table4", "--function", "shapley",
                       "--set", "NOV,IMP", "--topic", "D",
                       "--semantics", "DFQuAD",
                       "--partition", "NOV,IMP|CMP|APR", "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 0.0475) <= 1e-10


def test_contrib_partition_needs_shapley(capsys):
    code, _, err = run(capsys, "contrib", "table4", "--function", "removal",
                       "--set", "NOV,IMP", "--topic", "D",
                       "--semantics", "DFQuAD", "--partition", "NOV,IMP|CMP|APR")
    assert code == 2


def test_contrib_monte_carlo_needs_shapley(capsys):
    code, _, _ = run(capsys, "contrib", "fig1a", "--function", "removal",
                     "--set", "d", "--topic", "a", "--semantics", "QE",
                     "--monte-carlo")
    assert code == 2


def test_principles_violation_and_exit6(capsys):
    code, out, _ = run(capsys, "principles", "fig3", "--principle", "ce",
                       "--function", "gradient-max", "--semantics", "DFQuAD",
                       "--topic", "a")
    assert code == 0
    assert "ViolatedOnInstance" in out
    code, _, _ = run(capsys, "principles", "fig3", "--principle", "ce",
                     "--function", "gradient-max", "--semantics", "DFQuAD",
                     "--topic", "a", "--expect-satisfied")
    assert code == 6


def test_principles_satisfied(capsys):
    code, out, _ = run(capsys, "principles", "fig3", "--principle", "ce",
                       "--function", "gradient-max", "--semantics", "QE",
                       "--topic", "a", "--expect-satisfied")
    assert code == 0
    assert "SatisfiedOnInstance" in out


def test_principles_json_schema(capsys):
    code, out, _ = run(capsys, "principles", "fig3", "--principle", "ce",
                       "--function", "gradient-max", "--semantics", "DFQuAD",
                       "--topic", "a", "--json")
    assert code == 0
    check_json(out)
    results = json.loads(out)["results"]
    assert results[0]["status"] == "ViolatedOnInstance"
    assert results[0]["witness"]["values"]["margin"] == 0.5


def test_principles_unknown_name(capsys):
    code, _, err = run(capsys, "principles", "fig3", "--principle", "bogus",
                       "--function", "removal", "--semantics", "QE")
    assert code == 2
    assert "Consistency" in err  # message lists the known names


def test_principles_random_corpus(capsys):
    code, out, _ = run(capsys, "principles", "--random", "seed=7,n=5",
                       "--principle", "directionality", "--function", "removal",
                       "--semantics", "QE", "--expect-satisfied")
    assert code == 0
    assert "satisfied over corpus" in out


@pytest.mark.parametrize("n", ["0", "-3"])
def test_principles_random_rejects_an_empty_corpus(capsys, n):
    code, out, err = run(capsys, "principles", "--random", f"seed=1,n={n}",
                         "--expect-satisfied")
    assert code == 2 and out == ""
    assert f"n={n}" in err


@pytest.mark.parametrize("argv, message", [
    (("principles", "--random", "seed"), "--random expects key=value pairs, got 'seed'"),
    (("principles", "--random", "seed=x"),
     "--random values must be integers: invalid literal for int() with base 10: 'x'"),
    (("principles", "--random", "n=1.5"),
     "--random values must be integers: invalid literal for int() with base 10: '1.5'"),
    (("principles", "--random", "seed=1,m=3"),
     "--random supports seed=... and n=..., got ['m']"),
    (("signmap", "fig1a", "--topic", "a", "--sweep", "d"),
     "--sweep needs exactly two arguments, got 'd'"),
    (("signmap", "fig1a", "--topic", "a", "--sweep", "d,f,b"),
     "--sweep needs exactly two arguments, got 'd,f,b'"),
    (("reproduce", "--all", "fig1a"), "--all does not take fixture ids"),
], ids=["random-no-value", "random-seed-not-int", "random-n-not-int", "random-unknown-key",
        "sweep-one-id", "sweep-three-ids", "reproduce-all-with-ids"])
def test_malformed_invocations_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_principles_needs_input(capsys):
    code, _, _ = run(capsys, "principles", "--principle", "ce",
                     "--function", "removal", "--semantics", "QE")
    assert code == 2


def test_principles_generalization_pairs_gradient_min_with_the_single_gradient(capsys):
    # gradient-min of {x} is the single gradient of x, so nothing is violated
    code, out, _ = run(capsys, "principles", "fig1a", "--principle", "generalization",
                       "--function", "gradient-min", "--topic", "a",
                       "--expect-satisfied")
    assert code == 0
    assert out.splitlines() == [
        "fig1a topic=a CtrbGeneralization: SatisfiedOnInstance (checked 30)",
        "no violation found",
    ]


def test_principles_generalization_respects_budget(capsys):
    code, _, err = run(capsys, "principles", "fig1a", "--principle", "generalization",
                       "--function", "shapley", "--topic", "a", "--budget", "2")
    assert code == 5
    assert "budget is 2" in err


@pytest.mark.parametrize("principle,name,checked", [
    ("generalization", "CtrbGeneralization", 30), ("stability", "Stability", 2)])
def test_principles_whole_graph_checks_run_once(capsys, principle, name, checked):
    # without --topic, a whole-graph principle gives one result, topic "*"
    code, out, _ = run(capsys, "principles", "fig1a", "--principle", principle,
                       "--function", "shapley")
    assert code == 0
    assert out.splitlines() == [
        f"fig1a topic=* {name}: SatisfiedOnInstance (checked {checked})",
        "no violation found",
    ]
    code, out, _ = run(capsys, "principles", "fig1a", "--principle", principle,
                       "--function", "shapley", "--json")
    check_json(out)
    results = json.loads(out)["results"]
    assert [(r["topic"], r["principle"], r["checked"]) for r in results] == [
        ("*", name, checked)]


def test_signmap_stdout(capsys):
    code, out, _ = run(capsys, "signmap", "fig1a", "--function", "removal",
                       "--semantics", "QE", "--topic", "a",
                       "--sweep", "d,f", "--step", "0.05",
                       "--sets", "d|f|d,f")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == 'eps1,eps2,d,f,"d,f"'
    assert len(lines) == 1 + 21 * 21
    base = [l for l in lines[1:] if l.startswith("0.55,0.6,")]
    assert base == ["0.55,0.6,-1,-1,1"]


def test_signmap_default_sets(capsys):
    code, out, _ = run(capsys, "signmap", "fig1a", "--function", "removal",
                       "--semantics", "QE", "--topic", "a",
                       "--sweep", "d,f", "--step", "0.25")
    assert code == 0
    assert out.splitlines()[0] == 'eps1,eps2,d,f,"d,f"'


def test_signmap_bad_step(capsys):
    code, _, _ = run(capsys, "signmap", "fig1a", "--function", "removal",
                     "--semantics", "QE", "--topic", "a",
                     "--sweep", "d,f", "--step", "0")
    assert code == 2
    code, _, _ = run(capsys, "signmap", "fig1a", "--function", "removal",
                     "--semantics", "QE", "--topic", "a",
                     "--sweep", "d,f", "--step", "0.6")
    assert code == 2


def test_signmap_output_file(capsys, tmp_path):
    dest = tmp_path / "map.csv"
    code, out, _ = run(capsys, "signmap", "fig1a", "--function", "removal",
                       "--semantics", "QE", "--topic", "a",
                       "--sweep", "d,f", "--step", "0.25", "-o", str(dest))
    assert code == 0
    assert dest.read_text().splitlines()[0] == 'eps1,eps2,d,f,"d,f"'


def test_pipeline_csv_and_json(capsys):
    code, out, _ = run(capsys, "pipeline", "fig8", "--focus", "NOV,IMP", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("contributors,removal,shapley,gradient_max")
    assert lines[1] == ('"{NOV,IMP}",0.045,0.048,0.200,0.044999999999999984,'
                        "0.047500000000000014,0.19999999999999996")
    code, out, _ = run(capsys, "pipeline", "fig8", "--json")
    assert code == 0
    check_json(out)
    payload = json.loads(out)
    assert payload["decision"] == "D"
    assert payload["rows"][0]["contributors"] == "{NOV,IMP}"


def test_pipeline_human_header(capsys):
    code, out, _ = run(capsys, "pipeline", "fig8")
    assert code == 0
    assert out.splitlines()[0] == "decision D: tau 0.5 -> sigma 0.49500000000000005"


def test_pipeline_needs_manifest_for_files(capsys, tmp_path):
    from qbaglab.fixtures import fixture
    from qbaglab.graph import dump_graph

    path = tmp_path / "review.json"
    dump_graph(fixture("fig8"), path)
    code, _, _ = run(capsys, "pipeline", str(path))
    assert code == 2
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "aspects": ["NOV", "CMP", "APR", "IMP", "CLA", "EMP", "SUB"],
        "decision_tau": 0.5,
    }))
    code, out, _ = run(capsys, "pipeline", str(path),
                       "--manifest", str(manifest), "--csv")
    assert code == 0
    assert '"{NOV,IMP}",0.045,0.048,0.200' in out


def test_reproduce_single_fixture(capsys):
    code, out, _ = run(capsys, "reproduce", "fig1a")
    assert code == 0
    lines = out.splitlines()
    assert all(l.startswith("REPRODUCED fig1a:") for l in lines[:-2])
    assert lines[-2].startswith("claims: 12/12 reproduced")
    assert lines[-1] == "reproduce: OK"


def test_reproduce_unknown_fixture(capsys):
    code, _, _ = run(capsys, "reproduce", "fig99")
    assert code == 2


def test_reproduce_reports_a_key_error_inside_a_builder_as_a_fault(capsys, monkeypatch):
    def broken():
        raise KeyError("margin")

    monkeypatch.setattr(reproduce, "_claims_fig1a", broken)
    with pytest.raises(KeyError, match="margin"):
        main(["reproduce", "fig1a"])
    assert "error:" not in capsys.readouterr().err


def test_reproduce_needs_target(capsys):
    code, _, _ = run(capsys, "reproduce")
    assert code == 2


@pytest.mark.parametrize("fixture_id,function", [("fig1a", "shapley"), ("fig3", "removal")])
def test_principles_all_matches_run_check(capsys, fixture_id, function):
    # one game is shared by every table principle on a topic; the verdicts
    # must be those of one run_check call per principle
    code, out, _ = run(capsys, "principles", fixture_id, "--function", function,
                       "--semantics", "QE", "--json")
    assert code == 0
    g = fixture(fixture_id)
    expected = [
        {"graph": fixture_id, "topic": topic, "principle": p.value,
         "status": v.status.value, "checked": v.checked,
         "witness": None if v.witness is None else v.witness.to_dict()}
        for topic in topics_of(g) for p in TABLE_PRINCIPLES
        for v in [run_check(p, function, g, "QE", topic)]
    ]
    assert json.loads(out)["results"] == json.loads(json.dumps(expected))


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(qbaglab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "qbaglab", "eval", "fig1a", "--semantics", "QE"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == "a: 0.3 -> 0.39  (0.3875178986219915)"
