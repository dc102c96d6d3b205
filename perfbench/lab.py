"""`lab`: one op is one `qbaglab principles -p all` action, that is
`run_check` for every table principle on every `topics_of(g)` topic of one
graph, under one set function and one preset.

The graphs are the bundled fixtures, each designated violation fixture under
every (function, preset) it witnesses, and a seeded random corpus of 2-8
arguments with strengths on the lab's 0.1 grid. The corpus has a fixed
count per size and edge density and cycles through the functions, so the
seed changes the graphs but not the mix. `fig8` (10 arguments, the review text
layer) is left out: one action on it costs as much as a hundred others, and
`sweep` covers it.
"""

import random
import string

import qbaglab as qb
from qbaglab.principles import (
    EXPECTED_VERDICTS, SET_FUNCTION_IDS, TABLE_PRINCIPLES, violation_fixture,
)

from common import TIGHT, Op, build_graph

GRID = tuple(i / 10 for i in range(11))
EDGE_PROBS = (0.2, 0.4, 0.6)
# random graphs per size. An 8-argument action costs ~3x a 7-argument one
# and ~100x a 4-argument one; the 7- and 5-argument groups are the largest
# so that p90 and p50 fall inside a group rather than between two.
CORPUS_SIZES = {2: 4, 3: 4, 4: 6, 5: 30, 6: 16, 7: 24, 8: 4}
SKIPPED_FIXTURES = ("fig8",)


def _random_graph(rng, n, p):
    ids = list(string.ascii_lowercase[:n])
    order = ids[:]
    rng.shuffle(order)
    edges = {(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p}
    return build_graph(rng, ids, edges, lambda r: r.choice(GRID))


def _designated():
    """(fixture id, function, preset) of every expected violation cell."""
    cells = set()
    for principle in TABLE_PRINCIPLES:
        for fn in SET_FUNCTION_IDS:
            for sem in qb.PRESET_NAMES:
                if not EXPECTED_VERDICTS[principle][fn][sem]:
                    fid, _ = violation_fixture(principle, fn, sem)
                    cells.add((fid, fn, sem))
    return sorted(cells)


def build(seed):
    """Functions cycle in a fixed order; the seed draws the graphs and
    shifts the presets."""
    rng = random.Random(seed)
    offset = rng.randrange(len(qb.PRESET_NAMES))

    def combo(i):
        return (SET_FUNCTION_IDS[i % len(SET_FUNCTION_IDS)],
                qb.PRESET_NAMES[(i + offset) % len(qb.PRESET_NAMES)])

    ops = [Op("designated", (qb.fixture(fid), fn, sem, fid))
           for fid, fn, sem in _designated()]
    fixtures = [fid for fid in qb.FIXTURE_IDS if fid not in SKIPPED_FIXTURES]
    ops += [Op("fixture", (qb.fixture(fid), *combo(i), fid))
            for i, fid in enumerate(fixtures)]
    for n, count in CORPUS_SIZES.items():
        for j in range(count):
            g = _random_graph(rng, n, EDGE_PROBS[j % len(EDGE_PROBS)])
            ops.append(Op("random", (g, *combo(j), None)))
    rng.shuffle(ops)
    return ops


def run(op):
    g, fn, sem, _ = op.args
    return [(principle, topic, qb.run_check(principle, fn, g, sem, topic))
            for topic in qb.topics_of(g) for principle in TABLE_PRINCIPLES]


def reference(op):
    """Principles the paper's table marks satisfied for this (function,
    preset), and the (principle, topic) cells this graph must violate."""
    _, fn, sem, fid = op.args
    satisfied = {p for p in TABLE_PRINCIPLES if EXPECTED_VERDICTS[p][fn][sem]}
    must_violate = set()
    for principle in TABLE_PRINCIPLES:
        if principle not in satisfied:
            vfid, topic = violation_fixture(principle, fn, sem)
            if vfid == fid:
                must_violate.add((principle, topic))
    return satisfied, must_violate


def check(op, out):
    satisfied, must_violate = op.ref
    seen = set()
    for principle, topic, verdict in out:
        if principle in satisfied and verdict.status is qb.Status.VIOLATED:
            return False, {}
        if (principle, topic) in must_violate:
            margin = verdict.witness.values.get("margin", 0.0) if verdict.witness else 0.0
            if verdict.status is not qb.Status.VIOLATED or not margin > TIGHT:
                return False, {}
            seen.add((principle, topic))
    return seen == must_violate, {}
