"""Evaluation plans: compiled once per edge structure, inherited by
strength-only copies, `restrict` and `detach_incoming` children, and by
the games a sign map swaps strengths in."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import qbaglab.graph
from qbaglab.contributions import CoalitionGame, sign, sign_map
from qbaglab.errors import CycleError, StrengthRangeError, UnknownArgumentError
from qbaglab.fixtures import fixture
from qbaglab.graph import (
    Qbag,
    detach_incoming,
    qbag,
    restrict,
    set_initial_strength,
    topological_order,
)
from qbaglab.principles import random_qbag
from qbaglab.semantics import PRESET_NAMES, evaluate, evaluate_dual

# the sign-map sources of the sweep benchmark: fixtures whose topic is
# reached by several arguments
MAP_FIXTURES = (("fig1a", "a"), ("fig6-qe", "a"), ("fig6-eb", "a"),
                ("fig6-shapley-dfquad", "a"), ("figA2", "a"), ("figA4", "a"),
                ("figA7", "a"), ("figA8", "a"), ("figA9", "a"), ("table4", "D"))
MAP_FUNCTIONS = ("removal", "intrinsic", "gradient-max")


def rebuilt(h: Qbag) -> Qbag:
    """`h` from its fields alone, so it compiles its own plan."""
    return Qbag(h.arguments, h.attacks, h.supports, h.initial_strength)


def exact(mapping) -> list:
    """The items of an `evaluate`/`evaluate_dual` result by key, each value
    as its repr, so -0.0 and 0.0 differ."""
    return sorted((a, repr(v)) for a, v in mapping.items())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_surgery_children_evaluate_as_if_rebuilt(seed):
    rng = random.Random(seed)
    grid = [0.0, -0.0, 1.0, 0.5, *(rng.random() for _ in range(3))]
    g = random_qbag(rng, rng.randint(2, 8), rng.choice((0.2, 0.4, 0.7)), grid)
    keep = {a for a in g.arguments if rng.random() < 0.7}
    x_set = {a for a in g.arguments if rng.random() < 0.4}
    for h in (restrict(g, keep), detach_incoming(g, x_set)):
        assert "plan" in h.__dict__  # inherited, not compiled
        fresh = rebuilt(h)
        for sem in PRESET_NAMES:
            assert exact(evaluate(h, sem)) == exact(evaluate(fresh, sem))
            for x in sorted(h.arguments):
                assert exact(evaluate_dual(h, sem, x)) == exact(evaluate_dual(fresh, sem, x))
    assert restrict(g, keep).order == tuple(topological_order(rebuilt(restrict(g, keep))))


def test_surgery_runs_no_kahn_and_derives_no_parents(monkeypatch):
    calls = []
    original = qbaglab.graph.topological_order
    monkeypatch.setattr(qbaglab.graph, "topological_order",
                        lambda g: calls.append(g) or original(g))
    g = rebuilt(fixture("fig1a"))  # fixtures are shared, and may be compiled already
    evaluate(g, "QE")
    assert len(calls) == 1 and "parents" in g.__dict__  # kept with the plan
    for h in (restrict(g, g.arguments - {"b"}), detach_incoming(g, {"c", "d"}),
              restrict(restrict(g, g.arguments - {"f"}), g.arguments - {"e", "f"})):
        evaluate(h, "QE")
        evaluate_dual(h, "QE", "a")
        assert {"parents", "order"}.isdisjoint(h.__dict__)
    assert len(calls) == 1
    # a strength-only copy shares the plan itself
    assert set_initial_strength(g, "b", 0.2).plan is g.plan


def test_restrict_keeping_everything_shares_the_plan():
    g = fixture("fig1a")
    assert restrict(g, g.arguments).plan is g.plan


def test_restrict_drops_a_dangling_edge_and_evaluates():
    g = qbag({"a": 0.5, "b": 0.3, "c": 0.8}, attacks=[("b", "a"), ("z", "a")],
             supports=[("c", "b")])
    with pytest.raises(UnknownArgumentError):
        evaluate(g, "QE")
    # the parent's plan cannot compile, so the child compiles its own edges
    h = restrict(g, {"a", "b"})
    assert h.attacks == {("b", "a")} and not h.supports
    assert exact(evaluate(h, "QE")) == exact(evaluate(rebuilt(h), "QE"))


def test_detach_incoming_keeps_a_dangling_edge_raising():
    g = qbag({"a": 0.5, "b": 0.3}, attacks=[("b", "a"), ("z", "b")])
    h = detach_incoming(g, {"a"})
    assert h.attacks == {("z", "b")}
    with pytest.raises(UnknownArgumentError) as info:
        evaluate(h, "QE")
    assert info.value.ids == ("z",)


def test_restrict_of_a_cyclic_graph_to_an_acyclic_part_evaluates():
    g = qbag({"a": 0.5, "b": 0.3, "c": 0.6},
             attacks=[("a", "b"), ("b", "a")], supports=[("c", "a")])
    with pytest.raises(CycleError):
        evaluate(g, "DFQuAD")
    h = restrict(g, {"a", "c"})
    assert exact(evaluate(h, "DFQuAD")) == exact(evaluate(rebuilt(h), "DFQuAD"))


def _rebuilt_rows(g, sem, topic, sets, sweep, step, function):
    """A sign map's rows the way it was computed before strength swapping:
    two `set_initial_strength` copies and a fresh game per grid point."""
    x1, x2 = sweep
    grid, i = [], 0
    while i * step <= 1.0 + 1e-9:
        grid.append(min(1.0, i * step))
        i += 1
    rows = []
    for e1 in grid:
        for e2 in grid:
            game = CoalitionGame(set_initial_strength(set_initial_strength(g, x1, e1), x2, e2),
                                 sem, topic)
            rows.append((e1, e2, tuple(sign(game.set_value(function, game._member_mask(s)))
                                       for s in sets)))
    return tuple(rows)


@pytest.mark.parametrize("k", range(len(MAP_FIXTURES)), ids=[f for f, _ in MAP_FIXTURES])
def test_sign_map_matches_the_rebuilt_graph_path(k):
    fid, topic = MAP_FIXTURES[k]
    g = fixture(fid)
    x1, x2 = sorted(g.arguments - {topic})[:2]
    sets = ((x1,), (x2,), (x1, x2))
    for j, function in enumerate(MAP_FUNCTIONS):
        sem = PRESET_NAMES[(k + j) % len(PRESET_NAMES)]
        got = sign_map(g, sem, topic, sets, (x1, x2), step=0.1, function=function)
        assert got.rows == _rebuilt_rows(g, sem, topic, sets, (x1, x2), 0.1, function)


def test_swapped_game_values_match_a_fresh_game():
    g = fixture("fig6-qe")
    base = CoalitionGame(g, "EB", "a")
    for tau in ({"b": 0.0, "c": 1.0}, {"b": 0.35}, {"d": 0.7, "e": 0.05}):
        game = base.with_strengths(tau)
        fresh = g
        for x, w in tau.items():
            fresh = set_initial_strength(fresh, x, w)
        other = CoalitionGame(fresh, "EB", "a")
        for m in range(1 << len(base.players)):
            for fn in ("removal", "intrinsic", "shapley", "gradient-max"):
                if m or fn != "gradient-max":
                    assert repr(game.set_value(fn, m)) == repr(other.set_value(fn, m))
        assert game.graph == fresh and game.computed == other.computed
        assert game._cone is base._cone


def test_with_strengths_checks_its_input():
    base = CoalitionGame(fixture("fig1a"), "QE", "a")
    with pytest.raises(UnknownArgumentError):
        base.with_strengths({"zz": 0.5})
    with pytest.raises(StrengthRangeError):
        base.with_strengths({"b": 1.5})
    unknown_topic = CoalitionGame(fixture("fig1a"), "QE", "zz")
    for read in (unknown_topic.value, lambda: unknown_topic.with_strengths({"a": 0.5})):
        with pytest.raises(UnknownArgumentError):
            read()


def test_one_sign_map_compiles_one_cone_and_builds_no_graph(monkeypatch):
    compiles, copies, builds = [], [], []
    cone = CoalitionGame._cone
    compile_cone = cone.func
    monkeypatch.setattr(cone, "func", lambda game: compiles.append(game) or compile_cone(game))
    original = qbaglab.graph.set_initial_strength
    monkeypatch.setattr(qbaglab.graph, "set_initial_strength",
                        lambda *args: copies.append(args) or original(*args))
    post_init = Qbag.__post_init__
    monkeypatch.setattr(Qbag, "__post_init__", lambda h: builds.append(h) or post_init(h))
    g = fixture("fig1a")
    for function in MAP_FUNCTIONS:
        compiles.clear()
        sign_map(g, "QE", "a", [("b",), ("c", "d")], ("b", "c"), function=function)
        assert len(compiles) == 1
    assert copies == [] and builds == []


def test_a_callable_gets_each_points_graph():
    g = fixture("fig1a")
    seen = []

    def probe(h, sem, members, topic):
        assert isinstance(h, Qbag) and h.arguments == g.arguments and h.edges() == g.edges()
        seen.append((h.initial_strength["b"], h.initial_strength["c"],
                     {a: w for a, w in h.initial_strength.items() if a not in ("b", "c")}))
        return 0.5 - h.initial_strength["b"]

    grid = sign_map(g, "QE", "a", [("d",)], ("b", "c"), step=0.25, function=probe)
    rest = {a: w for a, w in g.initial_strength.items() if a not in ("b", "c")}
    assert [(e1, e2, rest) for e1, e2, _ in grid.rows] == seen
    assert [signs for *_, signs in grid.rows] == [(sign(0.5 - e1),) for e1, _, _ in grid.rows]
