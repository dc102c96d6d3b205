import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

import qbaglab.graph
from qbaglab.contributions import gradient
from qbaglab.errors import CycleError, StrengthRangeError, UnknownArgumentError
from qbaglab.graph import (
    Qbag,
    can_reach,
    detach_incoming,
    dump_graph,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    influencers,
    load_graph,
    qbag,
    restrict,
    set_initial_strength,
    topological_order,
    validate,
)
from qbaglab.principles import random_qbag
from qbaglab.semantics import evaluate, evaluate_dual
import random


def small_graph():
    return qbag(
        {"a": 0.3, "b": 0.8, "c": 0.1, "d": 0.55},
        attacks=[("b", "a"), ("d", "b")],
        supports=[("c", "a")],
    )


def test_builder_basics():
    g = small_graph()
    assert g.arguments == frozenset("abcd")
    assert ("b", "a") in g.attacks and ("c", "a") in g.supports
    assert g.initial_strength["d"] == 0.55


def test_parents_sorted_with_polarity():
    g = small_graph()
    assert g.parents["a"] == (("b", -1), ("c", 1))
    assert g.parents["d"] == ()


def test_order_is_computed_once_per_graph(monkeypatch):
    calls = []
    original = qbaglab.graph.topological_order

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(qbaglab.graph, "topological_order", counted)
    g = small_graph()
    evaluate(g, "QE")
    evaluate_dual(g, "QE", "b")
    evaluate_dual(g, "QE", "c")
    gradient(g, "QE", ("b", "c"), "a")
    assert len(calls) == 1
    assert g.order == tuple(original(g)) == ("c", "d", "b", "a")
    # a strength-only copy keeps the adjacency: its edges are the same
    h = set_initial_strength(set_initial_strength(g, "b", 0.2), "c", 0.9)
    evaluate(h, "QE")
    gradient(h, "QE", ("b", "c"), "a")
    assert len(calls) == 1
    assert h.order is g.order and h.parents is g.parents
    assert h == qbag({"a": 0.3, "b": 0.2, "c": 0.9, "d": 0.55},
                     attacks=[("b", "a"), ("d", "b")], supports=[("c", "a")])


def test_dangling_edge_raises_in_every_reader():
    g = qbag({"a": 0.5, "b": 0.3}, attacks=[("b", "a"), ("z", "a")])
    for read in (lambda: evaluate(g, "QE"), lambda: topological_order(g),
                 lambda: influencers(g, "a")):
        with pytest.raises(UnknownArgumentError) as info:
            read()
        assert info.value.ids == ("z",)


def test_initial_strength_is_read_only():
    tau = {"a": 0.5, "b": 0.3}
    g = qbag(tau, attacks=[("b", "a")])
    with pytest.raises(TypeError):
        g.initial_strength["a"] = 0.9
    tau["a"] = 0.9
    assert g.initial_strength["a"] == 0.5
    assert Qbag(g.arguments, g.attacks, g.supports, tau).initial_strength is not tau


def test_validate_flags_strength_out_of_range():
    for bad in (1.5, -0.1):
        # the raw constructor accepts what the builders reject
        report = validate(Qbag(frozenset("a"), frozenset(), frozenset(), {"a": bad}))
        assert not report.ok
        assert any(v.rule == "strength-range" for v in report.violations)


@settings(max_examples=60, deadline=None)
@given(bad=st.floats().filter(lambda v: not 0.0 <= v <= 1.0),
       x=st.sampled_from("abcd"))
@example(bad=math.nan, x="a")
@example(bad=1.5, x="d")
def test_out_of_range_strength_never_reaches_evaluate(bad, x):
    tau = {**small_graph().initial_strength, x: bad}
    doc = graph_to_dict(small_graph())
    for entry in doc["arguments"]:
        if entry["id"] == x:
            entry["initial_strength"] = bad
    builders = (
        lambda: qbag(tau, attacks=[("b", "a"), ("d", "b")], supports=[("c", "a")]),
        lambda: graph_from_dict(doc),
        lambda: graph_from_json(json.dumps(doc)),
        lambda: set_initial_strength(small_graph(), x, bad),
    )
    for build in builders:
        with pytest.raises(StrengthRangeError) as info:
            evaluate(build(), "QE")
        assert info.value.arg == x


def test_validate_flags_unknown_edge_endpoint():
    report = validate(qbag({"a": 0.5}, attacks=[("a", "z")]))
    assert not report.ok
    assert any("z" in str(v.elements) for v in report.violations)


def test_validate_flags_attack_support_overlap():
    report = validate(
        qbag({"a": 0.5, "b": 0.5}, attacks=[("a", "b")], supports=[("a", "b")]))
    assert not report.ok


def test_validate_reports_all_breaches_at_once():
    g = Qbag(frozenset("ab"), frozenset({("a", "b"), ("b", "z")}), frozenset(),
             {"a": 2.0, "b": 0.5})
    report = validate(g)
    assert len(report.violations) >= 2


def test_cycle_detected_by_validate_and_toposort():
    g = Qbag(
        arguments=frozenset({"a", "b"}),
        attacks=frozenset({("a", "b"), ("b", "a")}),
        supports=frozenset(),
        initial_strength={"a": 0.5, "b": 0.5},
    )
    report = validate(g)
    assert not report.ok
    assert any("cycle" in m for m in report.messages())
    with pytest.raises(CycleError) as err:
        topological_order(g)
    assert "cycle: [" in str(err.value)


def test_topological_order_is_lexicographic_kahn():
    g = small_graph()
    order = topological_order(g)
    pos = {a: i for i, a in enumerate(order)}
    for u, v in g.edges():
        assert pos[u] < pos[v]
    # c and d are both sources; the tie breaks alphabetically
    assert order[0] == "c" and order[1] == "d"


def test_restrict_keeps_induced_edges_only():
    g = small_graph()
    h = restrict(g, {"a", "b", "c"})
    assert h.arguments == frozenset("abc")
    assert h.attacks == frozenset({("b", "a")})
    assert h.supports == frozenset({("c", "a")})
    # original untouched
    assert ("d", "b") in g.attacks


def test_detach_incoming_cuts_only_outside_edges():
    g = small_graph()
    h = detach_incoming(g, {"b"})
    assert ("d", "b") not in h.attacks
    assert ("b", "a") in h.attacks
    assert h.arguments == g.arguments


def test_set_initial_strength_returns_new_graph():
    g = small_graph()
    h = set_initial_strength(g, "a", 0.9)
    assert h.initial_strength["a"] == 0.9
    assert g.initial_strength["a"] == 0.3
    with pytest.raises(StrengthRangeError):
        set_initial_strength(g, "a", 1.1)
    with pytest.raises(UnknownArgumentError):
        set_initial_strength(g, "zz", 0.5)


def test_reachability_includes_self():
    g = small_graph()
    assert can_reach(g, "a", "a")
    assert can_reach(g, "d", "a")
    assert not can_reach(g, "a", "d")


def test_influencers_excludes_topic_by_default():
    g = small_graph()
    assert influencers(g, "a") == {"b", "c", "d"}
    assert influencers(g, "a", include_topic=True) == {"a", "b", "c", "d"}
    assert influencers(g, "d") == set()


def test_json_round_trip_bit_equal():
    g = small_graph()
    h = graph_from_json(graph_to_json(g))
    assert h == g
    for a in g.arguments:
        assert h.initial_strength[a] == g.initial_strength[a]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_hash_and_eq_agree_across_json_round_trip(seed):
    rng = random.Random(seed)
    g = random_qbag(rng, n=rng.randint(2, 7), edge_prob=0.4,
                    grid=tuple(i / 10 for i in range(11)))
    h = graph_from_json(graph_to_json(g))
    assert h == g and hash(h) == hash(g)
    assert len({g, h}) == 1
    other = set_initial_strength(g, "a", 0.05)  # off the strength grid
    assert other != g and len({g, h, other}) == 2


def test_a_strength_only_copy_hashes_to_its_own_value():
    g = small_graph()
    before = hash(g)
    h = set_initial_strength(g, "a", 0.9)
    rebuilt = qbag({**g.initial_strength, "a": 0.9},
                   attacks=g.attacks, supports=g.supports)
    assert h == rebuilt and hash(h) == hash(rebuilt) != before
    assert hash(g) == before == hash(small_graph())


def test_json_keeps_full_float_precision():
    g = qbag({"a": 0.1 + 0.2}, attacks=[], supports=[])
    h = graph_from_json(graph_to_json(g))
    assert h.initial_strength["a"] == 0.1 + 0.2


def test_dump_and_load_file(tmp_path):
    g = small_graph()
    path = tmp_path / "g.json"
    dump_graph(g, path)
    assert load_graph(path) == g


def test_malformed_payload_rejected():
    with pytest.raises(Exception):
        graph_from_json(json.dumps({"attacks": []}))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_graphs_round_trip_and_validate(seed):
    rng = random.Random(seed)
    g = random_qbag(rng, n=rng.randint(2, 7), edge_prob=0.4,
                    grid=tuple(i / 10 for i in range(11)))
    assert validate(g).ok
    assert graph_from_json(graph_to_json(g)) == g
    order = topological_order(g)
    assert sorted(order) == sorted(g.arguments)
