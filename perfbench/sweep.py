"""`sweep`: every op builds fresh graphs and does little coalition work.

An op is either a `sign_map` run (removal, intrinsic or gradient-max over the
default 21 x 21 grid) on a fixture or on a random 8-12 argument cone graph,
or one review pipeline: `graph_from_json` of a seeded two-layer comment
graph (5-8 aspects, 20-80 comments), `aspect_model`, `report_contributions`.
The fig8 pipeline runs once per pass and is checked against the published
table. Pipelines are 81 of the 111 ops, so the median op is a pipeline and
the slow tail is sign maps.
"""

import random

import qbaglab as qb

from common import (
    FD_TOL, TIGHT, Op, brute_shapley, close, cone_graph, fd_gradient_max,
    intrinsic_value, open_strength, removal_value, sigma, with_strength,
)

STEP = 0.05  # sign_map's default grid step, which the op leaves implicit
EDGE_PROB = 0.2
MAP_FUNCTIONS = ("removal", "intrinsic", "gradient-max")
# fixtures with a topic reached by several arguments
MAP_FIXTURES = (("fig1a", "a"), ("fig6-qe", "a"), ("fig6-eb", "a"),
                ("fig6-shapley-dfquad", "a"), ("figA2", "a"), ("figA4", "a"),
                ("figA7", "a"), ("figA8", "a"), ("figA9", "a"), ("table4", "D"))
MAP_RANDOM_SIZES = (8, 9, 10, 11, 12) * 4
# (aspects, comments); each shape runs four times, half with a silent aspect
PIPELINE_SHAPES = [(a, c) for a in (5, 6, 7, 8) for c in (20, 35, 50, 65, 80)]
PIPELINE_REPEATS = 4
REVIEW = "DFQuAD"
DECISION = "D"

# acceptance check 2: the fig8 review table at three decimals
FIG8_FOCUS = ("NOV", "IMP")
FIG8_TABLE = {
    "{NOV,IMP}": (0.045, 0.048, 0.200),
    "NOV": (0.120, 0.210, 0.200),
    "IMP": (-0.075, -0.163, -0.150),
    "CMP": (-0.175, -0.263, -0.250),
    "APR": (0.120, 0.210, 0.200),
    "CMP+APR+{NOV,IMP}": (-0.010, -0.005, 0.150),
}
FIG8_SIGMA = 0.495
DISPLAY_3DP = 5e-4 + 1e-12


def _sign(value):
    return 1 if value > TIGHT else (-1 if value < -TIGHT else 0)


def _map_op(rng, g, topic, sem, function):
    x1, x2 = rng.sample(sorted(g.arguments - {topic}), 2)
    sets = ((x1,), (x2,), (x1, x2))
    return Op("signmap", (g, sem, topic, sets, (x1, x2), function))


def _comment_graph(rng, aspects, comments, silent):
    """Comments attack or support 1-2 aspects; `silent` leaves the last
    aspect unmentioned, so the pipeline drops it."""
    aspect_ids = [f"A{i}" for i in range(aspects)]
    spoken = aspect_ids[:-1] if silent else aspect_ids
    tau = {a: 0.5 for a in aspect_ids}
    edges = set()
    for i in range(comments):
        t = f"t{i:02d}"
        tau[t] = open_strength(rng)
        targets = {spoken[i]} if i < len(spoken) else set()
        targets |= set(rng.sample(spoken, rng.randint(1, 2)))
        edges |= {(t, a) for a in targets}
    attacks, supports = [], []
    for edge in sorted(edges):
        (attacks if rng.random() < 0.5 else supports).append(edge)
    g = qb.qbag(tau, attacks=attacks, supports=supports)
    manifest = {"aspects": aspect_ids, "decision_tau": rng.uniform(0.2, 0.8)}
    focus = tuple(rng.sample(spoken, rng.randint(1, 3)))
    return g, manifest, focus


def build(seed):
    rng = random.Random(seed)
    offset = rng.randrange(len(qb.PRESET_NAMES))
    sources = [(qb.fixture(fid), topic) for fid, topic in MAP_FIXTURES]
    sources += [cone_graph(rng, n, EDGE_PROB) for n in MAP_RANDOM_SIZES]
    ops = []
    for i, (g, topic) in enumerate(sources):
        sem = qb.PRESET_NAMES[(i + offset) % len(qb.PRESET_NAMES)]
        ops.append(_map_op(rng, g, topic, sem, MAP_FUNCTIONS[i % len(MAP_FUNCTIONS)]))
    for i, (aspects, comments) in enumerate(PIPELINE_SHAPES * PIPELINE_REPEATS):
        silent = (i + i // len(PIPELINE_SHAPES)) % 2 == 1
        g, manifest, focus = _comment_graph(rng, aspects, comments, silent)
        ops.append(Op("pipeline", (qb.graph_to_json(g), manifest, focus, g)))
    fig8 = qb.fixture("fig8")
    ops.append(Op("fig8", (qb.graph_to_json(fig8), qb.FIG8_MANIFEST, FIG8_FOCUS, fig8)))
    rng.shuffle(ops)
    return ops


def run(op):
    if op.kind == "signmap":
        g, sem, topic, sets, sweep, function = op.args
        return qb.sign_map(g, sem, topic, sets, sweep, function=function)
    text, manifest, focus, _ = op.args
    model = qb.aspect_model(qb.graph_from_json(text), manifest)
    return qb.report_contributions(model, focus)


def _grid():
    points, i = [], 0
    while i * STEP <= 1.0 + 1e-9:
        points.append(min(1.0, i * STEP))
        i += 1
    return points


def _set_value(function, g, sem, members, topic):
    if function == "removal":
        return removal_value(g, sem, members, topic)
    if function == "intrinsic":
        return intrinsic_value(g, sem, members, topic)
    return max(qb.evaluate_dual(g, qb.PRESETS[sem], x)[topic].deriv for x in members)


def _map_reference(g, sem, topic, sets, sweep, function):
    x1, x2 = sweep
    rows = []
    for e1 in _grid():
        for e2 in _grid():
            g_mod = with_strength(with_strength(g, x1, e1), x2, e2)
            rows.append((e1, e2, tuple(_sign(_set_value(function, g_mod, sem, s, topic))
                                       for s in sets)))
    return rows


def _pipeline_reference(g, manifest, focus):
    """Rows (members, removal, shapley, gradient-max or None) and sigma(D),
    with the decision graph rebuilt from plain evaluation."""
    final = qb.evaluate(g, qb.PRESETS[REVIEW])
    touched = {y for _, y in g.attacks | g.supports}
    tau = {DECISION: manifest["decision_tau"]}
    attacks, supports = [], []
    for a in manifest["aspects"]:
        if a in touched and final[a] != 0.5:
            tau[a] = 2.0 * abs(final[a] - 0.5)
            (supports if final[a] > 0.5 else attacks).append((a, DECISION))
    dg = qb.qbag(tau, attacks=attacks, supports=supports)
    present = [a for a in manifest["aspects"] if a in tau]
    focus_members = tuple(a for a in present if a in focus)
    rest = [a for a in present if a not in focus_members]
    rows = [(members,
             removal_value(dg, REVIEW, members, DECISION),
             brute_shapley(dg, REVIEW, members, DECISION),
             fd_gradient_max(dg, REVIEW, members, DECISION))
            for members in [focus_members] + [(a,) for a in focus_members + tuple(rest)]]
    by_single = {r[0][0]: r for r in rows[1:]}
    parts = [rows[0]] + [by_single[a] for a in rest]
    grads = [r[3] for r in parts]
    rows.append((tuple(present), sum(r[1] for r in parts), sum(r[2] for r in parts),
                 None if None in grads else sum(grads)))
    return rows, sigma(dg, REVIEW)[DECISION]


def reference(op):
    if op.kind == "signmap":
        return _map_reference(*op.args)
    _, manifest, focus, g = op.args
    if op.kind == "fig8":
        return FIG8_TABLE, FIG8_SIGMA
    return _pipeline_reference(g, manifest, focus)


def check(op, out):
    if op.kind == "signmap":
        got = out.rows
        return len(got) == len(op.ref) and all(
            close(e1, r1, 1e-12) and close(e2, r2, 1e-12) and signs == ref_signs
            for (e1, e2, signs), (r1, r2, ref_signs) in zip(got, op.ref)), {}
    if op.kind == "fig8":
        table, sigma_d = op.ref
        return ([r.label for r in out.rows] == list(table)
                and close(out.sigma_decision, sigma_d, DISPLAY_3DP)
                and all(close(got, want, DISPLAY_3DP)
                        for r in out.rows
                        for got, want in zip((r.removal, r.shapley, r.gradient_max),
                                             table[r.label]))), {}
    rows, sigma_d = op.ref
    if len(out.rows) != len(rows) or not close(out.sigma_decision, sigma_d):
        return False, {}
    for r, (members, rem, shap, grad) in zip(out.rows, rows):
        if tuple(r.members) != members or not close(r.removal, rem) \
                or not close(r.shapley, shap):
            return False, {}
        if grad is not None and not close(r.gradient_max, grad, FD_TOL):
            return False, {}
    return True, {}
