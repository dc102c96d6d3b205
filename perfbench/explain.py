"""`explain`: a seeded stream of contribution queries, each called with no
shared cache, as `qbaglab contrib` makes them.

Graphs have 12-16 arguments under all five presets. Half are sparse (only
2-4 arguments reach the topic), half are cones (every argument reaches it),
so pruning shows where it acts. Query shapes are fixed; the seed draws the
graphs, members, topics and Monte-Carlo seeds. Fixing the shapes keeps the
op mix, and with it the latency quantiles, the same for every seed.
"""

import random

import qbaglab as qb

from common import (
    FD_TOL, TIGHT, Op, brute_shapley, close, cone_graph, fd_gradient_max,
    intrinsic_value, removal_value, sigma, sparse_graph,
)

EDGE_PROB = 0.2
MC_SAMPLES = 20_000  # the sample count `qbaglab contrib` uses by default
MC_SIGMAS = 4.0

# (arguments, members) per query; each shape runs once on a sparse graph
# and once on a cone. Exact Shapley enumerates 2^(m+1) coalitions,
# m = arguments - 1 - members: two shapes at 2^13, two at 2^12, five at 2^11
# and three below. The 12 Monte-Carlo ops and the 2^12-2^13 exact ones are
# the slowest ~15%, so the p90 op falls inside that group rather than on the
# edge between two groups.
CHEAP_SHAPES = [(12 + i % 5, 1 + i % 3) for i in range(12)]
EXACT_SHAPES = [(14, 1), (16, 3), (13, 1), (15, 3), (12, 1), (13, 2), (14, 3),
                (12, 1), (13, 2), (12, 2), (13, 3), (12, 3)]
MC_SHAPES = [(12, 1), (12, 2), (13, 2), (13, 3), (14, 2), (14, 3)]
# (arguments, blocks) for partition Shapley, every block queried.
PARTITION_SHAPES = [(12, 4), (13, 5), (14, 6), (15, 7), (16, 5), (12, 6)]


def _graph(rng, n, sparse):
    if sparse:
        return sparse_graph(rng, n, EDGE_PROB, rng.randint(2, 4))
    return cone_graph(rng, n, EDGE_PROB)


def _members(rng, g, topic, k):
    return tuple(sorted(rng.sample(sorted(g.arguments - {topic}), k)))


def _partition(rng, g, topic, blocks):
    others = sorted(g.arguments - {topic})
    rng.shuffle(others)
    groups = [[x] for x in others[:blocks]]
    for x in others[blocks:]:
        rng.choice(groups).append(x)
    return tuple(tuple(sorted(b)) for b in groups)


def build(seed):
    rng = random.Random(seed)
    shapes = [(kind, n, k) for kind in ("removal", "intrinsic", "gradient")
              for n, k in CHEAP_SHAPES]
    shapes += [("shapley", n, k) for n, k in EXACT_SHAPES]
    shapes += [("mc", n, k) for n, k in MC_SHAPES]
    shapes += [("partition", n, k) for n, k in PARTITION_SHAPES]
    offset = rng.randrange(len(qb.PRESET_NAMES))
    ops = []
    for i, (kind, n, k) in enumerate(shapes + shapes):
        sem = qb.PRESET_NAMES[(i + offset) % len(qb.PRESET_NAMES)]
        g, topic = _graph(rng, n, sparse=(i + i // len(shapes)) % 2 == 0)
        if kind == "partition":
            extra = _partition(rng, g, topic, k)
            members = ()
        else:
            members = _members(rng, g, topic, k)
            extra = rng.randrange(2 ** 31) if kind == "mc" else None
        ops.append(Op(kind, (g, sem, members, topic, extra)))
    rng.shuffle(ops)
    return ops


def run(op):
    g, sem, members, topic, extra = op.args
    if op.kind == "removal":
        return qb.removal(g, sem, members, topic)
    if op.kind == "intrinsic":
        return qb.intrinsic_removal(g, sem, members, topic)
    if op.kind == "gradient":
        return qb.gradient(g, sem, members, topic)
    if op.kind == "shapley":
        return qb.shapley(g, sem, members, topic)
    if op.kind == "mc":
        return qb.shapley(g, sem, members, topic, monte_carlo=True,
                          samples=MC_SAMPLES, seed=extra)
    if op.kind == "partition":
        return [qb.partition_shapley(g, sem, block, extra, topic) for block in extra]
    raise ValueError(f"unknown explain op {op.kind!r}")


def reference(op):
    """Expected value(s) for `op`, derived without the function under test."""
    g, sem, members, topic, extra = op.args
    if op.kind == "partition":
        return sigma(g, sem)[topic] - g.initial_strength[topic]
    ref = {}
    if op.kind == "removal":
        ref["value"] = removal_value(g, sem, members, topic)
    elif op.kind == "intrinsic":
        ref["value"] = intrinsic_value(g, sem, members, topic)
    elif op.kind == "gradient":
        ref["fd"] = fd_gradient_max(g, sem, members, topic)
        ref["value"] = max(qb.single_contribution("gradient", g, sem, x, topic).value
                           for x in members)
    elif len(members) > 1:
        ref["value"] = brute_shapley(g, sem, members, topic)
    if op.kind == "shapley":
        # coalitions that can change the value: non-members reaching the topic
        ref["useful"] = 2 ** (len(qb.influencers(g, topic) - set(members)) + 1)
    if len(members) == 1:
        kind = "shapley" if op.kind == "mc" else op.kind
        single = qb.single_contribution(kind, g, sem, members[0], topic)
        ref["single"] = single.value
        ref.setdefault("value", single.value)
    return ref


def check(op, out):
    """(passed, info) for the output of `run(op)` against `op.ref`; `info`
    carries what the traced run reports: |MC - exact| in standard errors,
    and for exact Shapley the useful and the reported evaluations."""
    if op.kind == "partition":
        blocks = op.args[4]
        total = sum(r.value for r in out)
        return len(out) == len(blocks) and close(total, op.ref), {}
    ref, value = op.ref, out.value
    if op.kind == "mc":
        gap = abs(value - ref["value"])
        err = out.std_error or 0.0
        if err > 0.0:
            return gap <= MC_SIGMAS * err, {"mc_err_se": gap / err}
        return gap <= TIGHT, {}
    ok = close(value, ref["value"])
    if "single" in ref:
        ok = ok and close(value, ref["single"])
    if ref.get("fd") is not None:
        ok = ok and close(value, ref["fd"], FD_TOL)
    if op.kind == "shapley":
        return ok, {"shapley_useful": ref["useful"], "shapley_evaluations": out.evaluations}
    return ok, {}
