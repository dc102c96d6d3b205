import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from qbaglab.contributions import CoalitionGame, gradient, single_contribution
from qbaglab.errors import InfluenceDomainError, SemanticsError
from qbaglab.fixtures import fixture
from qbaglab.graph import qbag, restrict, influencers, set_initial_strength
from qbaglab.principles import random_qbag
from qbaglab.semantics import (
    PRESET_NAMES,
    PRESETS,
    Aggregation,
    Dual,
    Semantics,
    check_stability,
    evaluate,
    evaluate_dual,
    euler,
    linear,
    node_steps,
    pmax,
    semantics_from_spec,
)

GRID = tuple(i / 10 for i in range(11))


def rand_graph(seed, n=None, p=0.4):
    rng = random.Random(seed)
    return random_qbag(rng, n=n or rng.randint(2, 7), edge_prob=p, grid=GRID)


def test_fig1a_qe_final_strengths():
    sigma = evaluate(fixture("fig1a"), PRESETS["QE"])
    expected = {
        "a": 0.3875178986219915,
        "b": 0.9512950502477631,
        "c": 0.61248654467169,
        "d": 0.55,
        "e": 0.573286398655236,
        "f": 0.6,
    }
    for arg, want in expected.items():
        assert math.isclose(sigma[arg], want, rel_tol=0, abs_tol=1e-12)


def test_fig3_topic_strength_per_preset():
    g = fixture("fig3")
    expected = {
        "QE": 0.09999999999999998,
        "DFQuAD": 0.0,
        "SD-DFQuAD": 0.25,
        "EB": 0.29753420374977824,
        "EBT": 0.3665218026227227,
    }
    for name, want in expected.items():
        assert abs(evaluate(g, PRESETS[name])["a"] - want) <= 1e-12


def test_presets_exist_and_label():
    assert set(PRESET_NAMES) == {"QE", "DFQuAD", "SD-DFQuAD", "EB", "EBT"}
    assert PRESETS["QE"].label() == "QE"


def test_semantics_from_spec_accepts_custom_dict():
    sem = semantics_from_spec(
        {"aggregation": "sum", "influence": {"kind": "pmax", "p": 2, "k": 1}})
    g = fixture("fig1a")
    assert evaluate(g, sem) == evaluate(g, PRESETS["QE"])


def test_entry_points_accept_every_semantics_spec():
    g = fixture("fig1a")
    qe = PRESETS["QE"]
    custom = {"aggregation": "sum", "influence": {"kind": "pmax", "p": 2, "k": 1}}
    for spec in ("QE", custom, qe):
        assert evaluate(g, spec) == evaluate(g, qe)
        assert evaluate_dual(g, spec, "d") == evaluate_dual(g, qe, "d")
        verdict = check_stability(spec, g)
        assert verdict.satisfied and verdict.checked == 2


def test_semantics_from_spec_rejects_bad_influence_parameters():
    for inf in ({"kind": "pmax", "p": 2.5}, {"kind": "pmax", "k": "abc"},
                {"kind": "pmax", "p": "two"}, {"kind": "pmax", "p": True},
                {"kind": "linear", "k": None}, {"kind": "linear", "k": 0}):
        with pytest.raises(SemanticsError):
            semantics_from_spec({"aggregation": "sum", "influence": inf})
    sem = semantics_from_spec({"aggregation": "sum", "influence": {"kind": "pmax", "p": 2.0}})
    assert sem.influence == pmax(2) and type(sem.influence.p) is int


def test_equal_specs_share_one_compiled_step():
    custom = {"aggregation": "sum", "influence": {"kind": "pmax", "p": 2, "k": 1}}
    steps = node_steps("QE")
    for spec in (PRESETS["QE"], custom, Semantics(Aggregation.SUM, pmax(2.0, 1.0))):
        assert node_steps(spec) is steps
    assert node_steps("EB") is not steps


def test_semantics_from_spec_rejects_unknown():
    with pytest.raises(SemanticsError):
        semantics_from_spec("qe")  # case sensitive
    with pytest.raises(SemanticsError):
        semantics_from_spec({"aggregation": "median", "influence": {"kind": "linear"}})


def test_linear_domain_error():
    # Sum aggregation can exceed the Linear(1) domain
    g = qbag({"a": 0.5, "b": 1.0, "c": 1.0}, supports=[("b", "a"), ("c", "a")])
    sem = Semantics(Aggregation.SUM, linear(1.0))
    with pytest.raises(InfluenceDomainError):
        evaluate(g, sem)


def test_euler_influence_identity_at_zero_aggregate():
    # one supporter of strength 0 makes the Sum aggregate exactly 0
    for w in GRID:
        g = qbag({"a": w, "b": 0.0}, supports=[("b", "a")])
        assert abs(evaluate(g, PRESETS["EB"])["a"] - w) <= 1e-12


def test_euler_influence_past_the_float_range_gives_its_limit():
    # 720 full-strength supporters: e^720 exceeds the floats
    tau = {f"s{i}": 1.0 for i in range(720)}
    supports = [(x, "a") for x in tau]
    for w, limit in ((0.5, 1.0), (0.0, 0.0)):
        g = qbag({**tau, "a": w}, supports=supports)
        assert evaluate(g, "EB")["a"] == limit
        assert evaluate_dual(g, "EB", "s0")["a"] == Dual(limit, 0.0)
        assert evaluate_dual(g, "EB", "a")["a"] == Dual(limit, 0.0 if w else math.inf)
        assert CoalitionGame(g, "EB", "a").value() == limit
    # just below the overflow the formula itself is used
    g = qbag({**{f"s{i}": 1.0 for i in range(700)}, "a": 0.5},
             supports=[(f"s{i}", "a") for i in range(700)])
    assert evaluate(g, "EB")["a"] == 1.0 - (1.0 - 0.25) / (1.0 + 0.5 * math.exp(700.0))


@pytest.mark.parametrize("aggregation, p, k, n, polarity", [
    (Aggregation.SUM, 200, 1.0, 40, +1),  # 40^200 exceeds the floats
    (Aggregation.SUM, 200, 1.0, 40, -1),
    (Aggregation.SUM, 2, 1e-300, 1, +1),  # (1/k)^p exceeds the floats
    (Aggregation.SUM, 3, 1e-120, 1, +1),
    (Aggregation.TOP, 2, 1e-200, 1, +1),
    (Aggregation.SUM, 1, 1e-310, 1, +1),  # 1/k itself is infinite
])
def test_pmax_influence_past_the_float_range_gives_its_limit(aggregation, p, k, n, polarity):
    sem = Semantics(aggregation, pmax(p, k))
    tau = {f"x{i}": 1.0 for i in range(n)}
    edges = [(x, "a") for x in tau]
    g = qbag({**tau, "a": 0.5}, **{"supports" if polarity > 0 else "attacks": edges})
    limit = 1.0 if polarity > 0 else 0.0  # h -> 1 on the side that wins
    assert evaluate(g, sem)["a"] == limit
    assert evaluate_dual(g, sem, "x0")["a"] == Dual(limit, 0.0)
    assert evaluate_dual(g, sem, "a")["a"] == Dual(limit, 0.0)
    game = CoalitionGame(g, sem, "a")
    assert game.value() == limit
    # without x0, 39 full-strength parents still overflow, and a lone parent leaves a at 0.5
    assert game.removal(["x0"]).value == limit - (limit if n > 1 else 0.5)
    assert game.gradient(["x0"]).value == 0.0


@pytest.mark.parametrize("k, tau, polarity, want", [
    (1e-13, {"b": 5e-13}, -1, None),  # an absolute slack of 1e-12 exceeds k
    (1e-13, {"b": 5e-13}, +1, None),
    (1.0, {"b": 1.0, "c": 1e-12}, +1, 1.0),  # inside the slack, past k: s counts as k
    (1e-310, {"b": 1e-310}, +1, 1.0),  # (1 - w) / k overflows
    (1e-310, {"b": 5e-311}, -1, 0.5 - 0.5 * (5e-311 / 1e-310)),  # w / k overflows
])
def test_linear_influence_stays_in_the_unit_interval(k, tau, polarity, want):
    sem = Semantics(Aggregation.SUM, linear(k))
    g = qbag({"a": 0.5, **tau}, **{"supports" if polarity > 0 else "attacks":
                                   [(x, "a") for x in tau]})
    without_b = evaluate(restrict(g, g.arguments - {"b"}), sem)["a"]
    game = CoalitionGame(g, sem, "a")
    if want is None:
        for call in (lambda: evaluate(g, sem), lambda: evaluate_dual(g, sem, "b"),
                     lambda: game.removal(["b"])):
            with pytest.raises(InfluenceDomainError):
                call()
        return
    assert evaluate(g, sem)["a"] == want
    assert evaluate_dual(g, sem, "b")["a"].value == want
    assert game.removal(["b"]).value == want - without_b


@pytest.mark.parametrize("p, k, polarity, want", [
    (1, 1e-310, +1, 0.5 / (1.0 + 1e10) ** 2 / 1e-310),  # ds / k overflows
    (200, 1e-301, +1, 1e102),  # (1 + x^p)^2 overflows: 0.5 * 200 * 10^199 / 10^400 / k
    (200, 1e-301, -1, -1e102),
])
def test_pmax_derivative_is_finite_where_its_closed_form_is(p, k, polarity, want):
    sem = Semantics(Aggregation.SUM, pmax(p, k))
    g = qbag({"a": 0.5, "b": 1e-300}, **{"supports" if polarity > 0 else "attacks": [("b", "a")]})
    for got in (evaluate_dual(g, sem, "b")["a"].deriv,
                gradient(g, sem, ["b"], "a").value,
                single_contribution("gradient", g, sem, "b", "a").value):
        assert math.isclose(got, want, rel_tol=1e-9)


def test_empty_products_make_isolated_aggregate_zero():
    g = qbag({"a": 0.37})
    for name in PRESET_NAMES:
        assert evaluate(g, PRESETS[name])["a"] == 0.37


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), name=st.sampled_from(PRESET_NAMES))
def test_final_strengths_stay_in_unit_interval(seed, name):
    g = rand_graph(seed)
    sigma = evaluate(g, PRESETS[name])
    for v in sigma.values():
        assert -1e-12 <= v <= 1 + 1e-12


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), name=st.sampled_from(PRESET_NAMES))
def test_stability_edge_free_arguments_keep_tau(seed, name):
    g = rand_graph(seed)
    verdict = check_stability(PRESETS[name], g)
    assert verdict.satisfied


def test_stability_detects_broken_evaluator():
    g = qbag({"a": 0.4, "b": 0.5}, attacks=[("b", "a")])

    def broken(graph, sem):
        sigma = evaluate(graph, sem)
        return {k: min(1.0, v + 0.25) if not graph.parents[k] else v
                for k, v in sigma.items()}

    verdict = check_stability(PRESETS["QE"], g, evaluator=broken)
    assert verdict.violated
    assert verdict.witness is not None


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), name=st.sampled_from(PRESET_NAMES))
def test_locality_topic_value_survives_restriction_to_influencers(seed, name):
    g = rand_graph(seed)
    topic = sorted(g.arguments)[0]
    keep = influencers(g, topic, include_topic=True)
    full = evaluate(g, PRESETS[name])[topic]
    local = evaluate(restrict(g, keep), PRESETS[name])[topic]
    assert full == local


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), name=st.sampled_from(PRESET_NAMES))
def test_evaluation_is_deterministic(seed, name):
    g = rand_graph(seed)
    assert evaluate(g, PRESETS[name]) == evaluate(g, PRESETS[name])


def test_dual_matches_known_gradients():
    assert evaluate_dual(fixture("figA11"), PRESETS["SD-DFQuAD"], "b")["a"].deriv == -0.25
    for name in ("EB", "EBT"):
        d = evaluate_dual(fixture("figA12"), PRESETS[name], "d")["b"].deriv
        assert abs(d - (-0.45304697140984085)) <= 1e-12


def test_dual_value_channel_equals_evaluate():
    g = fixture("fig1a")
    for name in PRESET_NAMES:
        duals = evaluate_dual(g, PRESETS[name], "d")
        sigma = evaluate(g, PRESETS[name])
        for arg in g.arguments:
            assert duals[arg].value == sigma[arg]


def test_dual_of_seed_argument_is_one_when_parentless():
    g = fixture("fig1a")
    duals = evaluate_dual(g, PRESETS["QE"], "d")
    assert duals["d"].deriv == 1.0


# Seeds where the topic sits on a p-Max hinge whose aggregate is exactly 0
# and moves with tau(x) (QE: p = 2; SD-DFQuAD: the product aggregate touches
# 0 with zero slope). The strength is differentiable there with the dual's
# derivative, but a central difference reads O(h) off it (h/2 for QE).
@example(seed=1302, name="QE")
@example(seed=100, name="QE")
@example(seed=1123, name="SD-DFQuAD")
@example(seed=1302, name="SD-DFQuAD")
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 5_000), name=st.sampled_from(PRESET_NAMES))
def test_dual_matches_central_difference_at_interior_points(seed, name):
    # The reference is a pair of second-order one-sided differences: each is
    # O(h^2) accurate on its own side of a hinge at t. Where they disagree,
    # the strength has a kink at t and no derivative to compare; elsewhere
    # their mean is the derivative to within ~1e-8.
    g = rand_graph(seed, p=0.5)
    sem = PRESETS[name]
    h = 1e-5
    args = sorted(g.arguments)
    base = evaluate(g, sem)
    for x in args:
        t = g.initial_strength[x]
        if t - 2 * h < 0.0 or t + 2 * h > 1.0:
            continue
        duals = evaluate_dual(g, sem, x)
        up, up2, dn, dn2 = (evaluate(set_initial_strength(g, x, t + k * h), sem)
                            for k in (1, 2, -1, -2))
        for a in args:
            forward = (4 * up[a] - up2[a] - 3 * base[a]) / (2 * h)
            backward = (3 * base[a] - 4 * dn[a] + dn2[a]) / (2 * h)
            if abs(forward - backward) > 1e-6:
                continue  # kink: strength not differentiable here
            assert abs(duals[a].deriv - (forward + backward) / 2) <= 1e-6


# --- values pinned bit for bit ---------------------------------------------------

BATTERY_SEMANTICS = (
    *PRESETS.values(),
    Semantics(Aggregation.TOP, pmax(2)),
    Semantics(Aggregation.PRODUCT, euler()),
    Semantics(Aggregation.SUM, pmax(3, 0.5)),
    Semantics(Aggregation.SUM, linear(2.0)),
)


def _battery_record(fn) -> str:
    try:
        return repr(fn())
    except InfluenceDomainError as exc:
        return f"InfluenceDomainError({exc})"


def _battery_lines():
    """repr of evaluate, evaluate_dual (each seed) and CoalitionGame.value on
    four (removed, detached) masks, on 200 seeded graphs under the presets and
    four custom semantics; half the graphs draw strengths off the 0.1 grid,
    -0.0 among them."""
    rng = random.Random(20261018)
    for i in range(200):
        grid = GRID if i % 2 else [0.0, -0.0, 1.0, *(rng.random() for _ in range(5))]
        g = random_qbag(rng, rng.randint(2, 8), rng.choice((0.2, 0.4, 0.6)), grid)
        args = sorted(g.arguments)
        n = len(args)
        masks = [(0, 0), *((rng.getrandbits(n - 1), rng.getrandbits(n - 1)) for _ in range(3))]
        for sem in BATTERY_SEMANTICS:
            yield f"{i} {sem.label()} evaluate {_battery_record(lambda: evaluate(g, sem))}"
            for x in args:
                yield f"{i} {sem.label()} dual {x} " + _battery_record(
                    lambda: [(a, d.value, d.deriv) for a, d in evaluate_dual(g, sem, x).items()])
            game = CoalitionGame(g, sem, g.order[-1])
            for removed, detached in masks:
                yield f"{i} {sem.label()} game {removed} {detached} " + _battery_record(
                    lambda: game.value(removed, detached))


def test_seeded_battery_is_pinned():
    # Recorded from the uncompiled per-node formulas. Any change to a value,
    # a derivative (the sign of a zero included) or a domain error changes it.
    lines = list(_battery_lines())
    assert len(lines) == 17487
    assert sum("InfluenceDomainError" in line for line in lines) == 89
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "fa7c31f8abedc6d049116527d366020d95c1c0c5a43c4e3f060d9e3da0205727"
