"""Pieces shared by the workloads: the op record, seeded graph builders and
reference values computed by routes that avoid the contribution functions.

Inputs are built only through public constructors (`qbag`, `graph_to_json`),
so set-up time is what a caller of the package would pay. References use
`evaluate`, `restrict` and `detach_incoming` directly, one evaluation per
coalition and no memo, so they stay independent of any caching or pruning
the contribution layer does.
"""

import itertools
import math
from dataclasses import dataclass

import qbaglab as qb

# Tolerances the acceptance tests use: exact agreement, and the central
# difference step, kink detector and agreement bound of acceptance check 7.
TIGHT = 1e-9
FD_STEP = 1e-5
FD_KINK = 1e-4
FD_TOL = 1e-6


@dataclass
class Op:
    """One operation of a workload: `args` are its inputs, `ref` the value
    its output is checked against (filled in outside the timed region)."""

    kind: str
    args: tuple
    ref: object = None


def arg_ids(n):
    return [f"x{i:02d}" for i in range(n)]


def build_graph(rng, ids, edges, strength):
    """A Qbag over `ids`; each edge becomes an attack or a support at random
    and each argument gets `strength(rng)` as its initial strength."""
    attacks, supports = [], []
    for edge in sorted(edges):
        (attacks if rng.random() < 0.5 else supports).append(edge)
    tau = {a: strength(rng) for a in ids}
    return qb.qbag(tau, attacks=attacks, supports=supports)


def open_strength(rng):
    """Strengths away from 0 and 1, so partial derivatives exist."""
    return rng.uniform(0.05, 0.95)


def cone_graph(rng, n, edge_prob):
    """A DAG whose last argument (the topic) is reached by every other one."""
    order = arg_ids(n)
    rng.shuffle(order)
    edges = set()
    for i in range(n - 1):
        edges.add((order[i], order[rng.randint(i + 1, n - 1)]))
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.add((order[i], order[j]))
    return build_graph(rng, arg_ids(n), edges, open_strength), order[-1]


def sparse_graph(rng, n, edge_prob, cone):
    """A DAG where only `cone` arguments can reach the topic.

    Arguments are laid out as cone, topic, rest; every edge points forward
    and none leaves the rest, so the rest cannot reach the topic.
    """
    order = arg_ids(n)
    rng.shuffle(order)
    cone_ids, topic, rest = order[:cone], order[cone], order[cone + 1:]
    reach = cone_ids + [topic]
    edges = set()
    for i, src in enumerate(cone_ids):
        edges.add((src, reach[rng.randint(i + 1, cone)]))
        for dst in reach[i + 1:] + rest:
            if rng.random() < edge_prob:
                edges.add((src, dst))
    for i, src in enumerate(rest):
        for dst in rest[i + 1:]:
            if rng.random() < edge_prob:
                edges.add((src, dst))
    return build_graph(rng, arg_ids(n), edges, open_strength), topic


def with_strength(g, x, value):
    tau = dict(g.initial_strength)
    tau[x] = value
    return qb.qbag(tau, attacks=g.attacks, supports=g.supports)


def sigma(g, sem, removed=frozenset()):
    """Final strengths of `g` with `removed` deleted, one plain evaluation."""
    return qb.evaluate(qb.restrict(g, g.arguments - frozenset(removed)), qb.PRESETS[sem])


def removal_value(g, sem, members, topic):
    return sigma(g, sem)[topic] - sigma(g, sem, members)[topic]


def intrinsic_value(g, sem, members, topic):
    detached = qb.evaluate(qb.detach_incoming(g, members), qb.PRESETS[sem])[topic]
    return detached - sigma(g, sem, members)[topic]


def brute_shapley(g, sem, members, topic):
    """Set Shapley value by enumerating every coalition of the other players."""
    members = frozenset(members)
    others = sorted(g.arguments - members - {topic})
    m = len(others)
    total = 0.0
    for r in range(m + 1):
        weight = math.factorial(r) * math.factorial(m - r) / math.factorial(m + 1)
        for combo in itertools.combinations(others, r):
            coalition = frozenset(combo)
            total += weight * (sigma(g, sem, coalition)[topic]
                               - sigma(g, sem, coalition | members)[topic])
    return total


def fd_partial(g, sem, x, topic):
    """Central-difference d sigma(topic) / d tau(x), or None at a kink or
    where the step would leave [0, 1]."""
    t = g.initial_strength[x]
    if t - FD_STEP < 0.0 or t + FD_STEP > 1.0:
        return None
    preset = qb.PRESETS[sem]
    mid = qb.evaluate(g, preset)[topic]
    up = qb.evaluate(with_strength(g, x, t + FD_STEP), preset)[topic]
    down = qb.evaluate(with_strength(g, x, t - FD_STEP), preset)[topic]
    if abs((up - mid) - (mid - down)) / FD_STEP > FD_KINK:
        return None
    return (up - down) / (2 * FD_STEP)


def fd_gradient_max(g, sem, members, topic):
    """Max of the members' central differences, or None if any is unusable."""
    partials = [fd_partial(g, sem, x, topic) for x in sorted(members)]
    if any(p is None for p in partials):
        return None
    return max(partials)


def close(got, want, tol=TIGHT):
    return abs(got - want) <= tol
