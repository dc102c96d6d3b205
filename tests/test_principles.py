import gc
import hashlib
import itertools
import json
import random
import threading
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from qbaglab import principles
from qbaglab.contributions import CoalitionGame, removal
from qbaglab.errors import (
    BudgetError,
    ContributorError,
    InfluenceDomainError,
    PartitionSpaceError,
)
from qbaglab.fixtures import FIXTURES, fixture
from qbaglab.graph import Qbag, can_reach, qbag
from qbaglab.principles import (
    EXPECTED_VERDICTS,
    MAX_PAIR_ARGS,
    MAX_PARTITION_ARGS,
    SET_FUNCTION_IDS,
    STRENGTH_GRID,
    TABLE_PRINCIPLES,
    _CHECKERS,
    SearchConfig,
    check_consistency,
    check_contribution_existence,
    check_counterfactuality,
    check_directionality,
    check_generalization,
    check_monotonicity,
    check_quantitative_contribution_existence,
    enumerate_partitions,
    partition_masks,
    principle_from_name,
    random_corpus,
    random_qbag,
    run_check,
    run_matrix,
    search_counterexample,
    topics_of,
    violation_fixture,
)
from qbaglab.semantics import PRESET_NAMES, PRESETS, Aggregation, Semantics, evaluate, linear
from qbaglab.verdicts import Principle, Status, Witness

QE = PRESETS["QE"]

BELL = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140, 9: 21147}


def test_partition_counts_match_bell_numbers():
    for n, want in BELL.items():
        base = [chr(ord("b") + i) for i in range(n)]
        assert sum(1 for _ in enumerate_partitions(base)) == want


def test_the_bell_table_counts_the_partitions():
    # the Bell triangle: each row starts with the last entry of the one before
    row, bell = [1], [1]
    for _ in range(MAX_PARTITION_ARGS):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        bell.append(row[0])
    assert principles._BELL == tuple(bell)
    for n in range(10):  # n = 10 is 115,975 partitions; the triangle covers it
        assert principles._BELL[n] == sum(1 for _ in partition_masks(n))


def test_partition_enumeration_order_is_restricted_growth():
    got = [tuple(tuple(sorted(b)) for b in p)
           for p in enumerate_partitions(["b", "c", "d"])]
    assert got[0] == (("b", "c", "d"),)
    assert got[1] == (("b", "c"), ("d",))
    assert got[-1] == (("b",), ("c",), ("d",))
    assert len(got) == len(set(got)) == 5


def test_partition_space_guard():
    with pytest.raises(PartitionSpaceError):
        list(enumerate_partitions([str(i) for i in range(11)]))


def _restricted_growth_masks(n):
    """Set partitions of the bits 0..n-1 by the classic restricted-growth loop."""
    rgs, maxes = [0] * n, [0] * n
    while True:
        blocks = [0] * (max(rgs, default=-1) + 1)
        for i, b in enumerate(rgs):
            blocks[b] |= 1 << i
        yield tuple(blocks)
        i = n - 1
        while i > 0 and rgs[i] > maxes[i - 1]:
            i -= 1
        if i <= 0:
            return
        rgs[i] += 1
        maxes[i] = max(maxes[i - 1], rgs[i])
        rgs[i + 1:] = [0] * (n - 1 - i)
        maxes[i + 1:] = [maxes[i]] * (n - 1 - i)


def test_partition_masks_are_enumerate_partitions_as_masks():
    for n in range(9):
        items = [chr(ord("b") + i) for i in range(n)]
        want = [tuple(sum(1 << items.index(x) for x in block) for block in p)
                for p in enumerate_partitions(items)]
        assert list(partition_masks(n)) == want == list(_restricted_growth_masks(n))
    with pytest.raises(PartitionSpaceError):
        next(partition_masks(MAX_PARTITION_ARGS + 1))


def test_contribution_existence_gradient_verdicts_on_designated_graph():
    g = fixture("fig3")
    for name in ("DFQuAD", "SD-DFQuAD", "EBT"):
        v = check_contribution_existence("gradient-max", g, PRESETS[name], "a")
        assert v.status is Status.VIOLATED
        assert v.witness.values["margin"] > 1e-9
    for name in ("QE", "EB"):
        v = check_contribution_existence("gradient-max", g, PRESETS[name], "a")
        assert v.status is Status.SATISFIED


def test_contribution_existence_vacuous_when_sigma_equals_tau():
    g = qbag({"a": 0.4})
    v = check_contribution_existence("removal", g, QE, "a")
    assert v.status is Status.SATISFIED
    assert v.witness is not None and "vacuous" in v.witness.note


def test_quantitative_existence_finds_designated_partition():
    v = check_quantitative_contribution_existence(
        "shapley", fixture("fig4"), QE, "a")
    assert v.status is Status.VIOLATED
    assert v.witness.sets == (("b", "c"), ("d",))


def test_weak_quantitative_existence_uses_reachability_split():
    v = check_quantitative_contribution_existence(
        "removal", fixture("fig3"), QE, "a", mode="Exists")
    assert v.status is Status.SATISFIED
    assert v.witness is not None and "reachability" in v.witness.note


def _qce_by_definition(fn, g, sem, topic):
    """All-mode QuantitativeContributionExistence by its definition, as
    (status name, checked, witness sets): every partition of the non-topic
    arguments, float-summed in block order, must come within TOL of
    sigma(a) - tau(a); the first that does not is the witness."""
    game = CoalitionGame(g, sem, topic)
    delta = game.value() - g.initial_strength[topic]
    checked = 0
    for checked, blocks in enumerate(enumerate_partitions(game.players), 1):
        masks = [sum(1 << game.players.index(x) for x in block) for block in blocks]
        total = sum([game.set_value(fn, m) for m in masks])
        if abs(total - delta) > principles.TOL:
            return "VIOLATED", checked, tuple(tuple(sorted(b)) for b in blocks)
    return "SATISFIED", checked, None


def _qce(fn, g, sem, topic):
    v = check_quantitative_contribution_existence(fn, g, sem, topic)
    return v.status.name, v.checked, v.witness.sets if v.witness is not None else None


def _planted(g, sem, topic, residuals):
    """A callable set function on (g, sem, topic): additive, its singletons
    summing to sigma(a) - tau(a), plus residuals[X] on each planted set X."""
    delta = CoalitionGame(g, sem, topic).value() - g.initial_strength[topic]
    players = sorted(g.arguments - {topic})
    weight = {x: (i + 1) / 10 for i, x in enumerate(players[:-1])}
    weight[players[-1]] = delta - sum(weight.values())

    def fn(g, sem, members, topic):
        return sum(weight[x] for x in sorted(members)) + residuals.get(members, 0.0)
    return fn


def _certificates(monkeypatch) -> list:
    """What the All-mode certificate answers from now on, in call order."""
    answers, real = [], principles._additive

    def spy(*args):
        answers.append(real(*args))
        return answers[-1]
    monkeypatch.setattr(principles, "_additive", spy)
    return answers


@pytest.mark.parametrize("planted, certify, status", [
    # one 2-set at just under and just over the certificate's budget
    ({"bc": 1 - 1e-3}, True, "SATISFIED"),
    ({"bc": 1 + 1e-3}, False, "SATISFIED"),
    # two disjoint 2-sets, each under TOL, together over it in one partition
    ({"bc": 3.5, "de": 3.5}, False, "VIOLATED"),
    # one 2-set over 2 * TOL
    ({"cf": 12.5}, False, "VIOLATED"),
    # a negative residual on the whole set and a positive one on a 2-set
    ({"bcdef": -3.0, "de": 3.0}, False, "SATISFIED"),
])
def test_quantitative_existence_near_tol_matches_the_walk(
        monkeypatch, planted, certify, status):
    # residuals in units of TOL / (n + 1), the certificate's budget per set
    g, topic = fixture("fig1a"), "a"
    unit = principles.TOL / len(g.arguments)
    fn = _planted(g, QE, topic, {frozenset(k): x * unit for k, x in planted.items()})
    answers = _certificates(monkeypatch)
    got = _qce(fn, g, QE, topic)
    assert answers == [certify]
    assert got == _qce_by_definition(fn, g, QE, topic)
    assert got[0] == status


def test_quantitative_existence_defers_when_rounding_alone_spans_tol(monkeypatch):
    # Exactly additive in floats, each set summed as the certificate sums
    # singletons, so every residual is 0; but at 1e8 a partition's float
    # sum is off by several times TOL: the rounding slack must refuse.
    g = qbag({"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5, "e": 0.5})  # sigma(a) = tau(a)
    weight = {"b": 1e8, "c": -1e8, "d": 0.1, "e": -0.1}

    def fn(g, sem, members, topic):
        total = 0.0
        for x in sorted(members, reverse=True):
            total += weight[x]
        return total
    answers = _certificates(monkeypatch)
    got = _qce(fn, g, QE, "a")
    assert answers == [False]
    assert got == _qce_by_definition(fn, g, QE, "a") and got[0] == "VIOLATED"


def test_quantitative_existence_walks_past_a_value_it_cannot_read():
    # the certificate reads {b} first, which raises; the walk never reads it
    # and finds its violation at the second partition, ({b,c,d,e}, {f})
    g, topic = fixture("fig1a"), "a"
    additive = _planted(g, QE, topic, {frozenset("bcde"): 1.0})

    def fn(g, sem, members, topic):
        if members == {"b"}:
            raise ValueError("no value for {b}")
        return additive(g, sem, members, topic)
    assert _qce(fn, g, QE, topic) == ("VIOLATED", 2, (("b", "c", "d", "e"), ("f",)))


def test_quantitative_existence_equals_its_definition_on_random_graphs(monkeypatch):
    rng = random.Random(27)
    outcomes, answers = set(), _certificates(monkeypatch)
    for _ in range(8):
        g = random_qbag(rng, rng.randint(2, 7), rng.choice((0.2, 0.4, 0.6)), STRENGTH_GRID)
        for topic, fn, name in itertools.product(
                sorted(g.arguments), SET_FUNCTION_IDS, PRESET_NAMES):
            want = _qce_by_definition(fn, g, name, topic)
            assert _qce(fn, g, name, topic) == want, (fn, name, topic)
            outcomes.add(want[0])
    assert outcomes == {"SATISFIED", "VIOLATED"} and set(answers) == {True, False}


def test_counterfactuality_verdicts():
    v = check_counterfactuality("intrinsic", fixture("figA1"), QE, "a")
    assert v.status is Status.VIOLATED
    v = check_counterfactuality("removal", fixture("figA1"), QE, "a")
    assert v.status is Status.SATISFIED


def test_quantitative_counterfactuality_of_removal_holds():
    for fid in ("fig1a", "fig3", "figA9"):
        v = check_counterfactuality("removal", fixture(fid), QE, "a",
                                    quantitative=True)
        assert v.status is Status.SATISFIED


def test_consistency_witness_on_designated_graph():
    v = check_consistency("removal", fixture("fig6-qe"), QE, "a")
    assert v.status is Status.VIOLATED
    assert v.witness.sets == (("d",), ("f",), ("d", "f"))
    assert v.witness.values["margin"] > 1e-9


def test_monotonicity_witness_on_designated_graph():
    for name in PRESET_NAMES:
        v = check_monotonicity("shapley", fixture("fig7"), PRESETS[name], "a")
        assert v.status is Status.VIOLATED


def test_directionality_satisfied_on_fixture_corpus_for_removal():
    for fid in ("fig1a", "fig3", "fig4", "figA9"):
        g = fixture(fid)
        for a in topics_of(g):
            v = check_directionality("removal", g, QE, a)
            assert v.status is Status.SATISFIED


def test_directionality_checker_catches_planted_fault():
    g = qbag({"a": 0.5, "b": 0.4, "z": 0.9}, attacks=[("b", "a")])
    assert not can_reach(g, "z", "a")

    def leaky(graph, sem, members, topic):
        return 1.0  # pretends every set matters

    v = check_directionality(leaky, g, QE, "a")
    assert v.status is Status.VIOLATED


def test_contribution_existence_checker_catches_planted_fault():
    def dead(graph, sem, members, topic):
        return 0.0

    v = check_contribution_existence(dead, fixture("fig1a"), QE, "a")
    assert v.status is Status.VIOLATED


def test_monotonicity_checker_catches_planted_fault():
    def shrinking(graph, sem, members, topic):
        return -float(len(members))

    v = check_monotonicity(shrinking, fixture("fig1a"), QE, "a")
    assert v.status is Status.VIOLATED


def _consistency_by_pairs(fn, game):
    """(status, checked, witness) of consistency over every pair of subsets."""
    bits = [1 << i for i in range(len(game.players))]
    pool = [sum(c) for r in range(1, len(bits) + 1) for c in itertools.combinations(bits, r)]
    checked = 0
    for x, y in itertools.combinations_with_replacement(pool, 2):
        vx, vy = game.set_value(fn, x), game.set_value(fn, y)
        vu = game.set_value(fn, x | y)
        checked += 1
        if vx <= 1e-9 and vy <= 1e-9 and vu > 1e-9:
            margin = vu
        elif vx >= -1e-9 and vy >= -1e-9 and vu < -1e-9:
            margin = -vu
        else:
            continue
        return Status.VIOLATED, checked, Witness(
            topic=game.topic,
            sets=(game.names(x), game.names(y), game.names(x | y)),
            values={"S(X)(a)": vx, "S(Y)(a)": vy, "S(X∪Y)(a)": vu, "margin": margin},
            graph=game.graph,
        )
    return Status.SATISFIED, checked, None


def _thirds(graph, sem, members, topic):
    """A negative control: 0, 1 or -1 by the members' letters."""
    return (0.0, 1.0, -1.0)[sum(map(ord, "".join(members))) % 3]


def _late_flip(graph, sem, members, topic):
    """A negative control that first clashes past the first set's pairs, in
    both sign classes: with p_i the i-th player, S({p1}) = 0, S({p2}) = -1
    but S({p1, p2}) = 1, and S({p3}) = 1 but S({p1, p3}) = -1."""
    p1, p2, p3 = (sorted(graph.arguments - {topic}) + [""] * 3)[1:4]
    flip = -1.0 if p1 in members else 1.0
    if p2 in members:
        return -flip
    return flip if p3 in members else 0.0


def test_consistency_matches_the_pair_walk():
    rng = random.Random(17)
    for players in range(1, 8):
        g = random_qbag(rng, players + 1, (0.3, 0.5, 0.7)[players % 3], STRENGTH_GRID)
        for topic in sorted(g.arguments):
            for name in PRESET_NAMES:
                controls = (_thirds, _late_flip) if name == "QE" else ()
                for fn in (*SET_FUNCTION_IDS, *controls):
                    v = check_consistency(fn, g, name, topic)
                    want = _consistency_by_pairs(fn, CoalitionGame(g, name, topic))
                    assert (v.status, v.checked, v.witness) == want, (players, topic, name, fn)


def test_consistency_checker_catches_planted_fault():
    def flipper(graph, sem, members, topic):
        return 1.0 if len(members) == 1 else -1.0

    v = check_consistency(flipper, fixture("fig1a"), QE, "a")
    assert v.status is Status.VIOLATED


def test_generalization_matching_and_mismatched_pairs():
    g = fixture("fig1a")
    ok = check_generalization(("removal", "removal"), g, QE)
    assert ok.status is Status.SATISFIED and ok.checked > 0
    bad = check_generalization(("removal", "shapley"), fixture("fig4"), QE)
    assert bad.status is Status.VIOLATED


def test_generalization_pairs_every_gradient_variant_with_the_single_gradient():
    g = fixture("fig1a")
    v = run_check(Principle.CTRB_GENERALIZATION, "gradient-min", g, QE, None)
    assert v.status is Status.SATISFIED
    # max-abs of {x} is |d sigma / d tau(x)|: it differs only where that is negative
    v = run_check(Principle.CTRB_GENERALIZATION, "gradient-maxabs", g, QE, None)
    assert v.status is Status.VIOLATED
    assert v.witness.note == "SingleKind.GRADIENT vs gradient-maxabs"
    assert v.witness.values["single"] < 0
    assert v.witness.values["set({x})"] == -v.witness.values["single"]


#: (status, checked, witness sets) of the table principles on the 14-argument
#: graph below, topic j (6 influencers), where contribution existence,
#: counterfactuality, consistency and monotonicity sample their sets and weak
#: quantitative existence stops after the reachability split. The literals come
#: from per-checker sampling code, so they pin the RNG calls of `_pool`.
SAMPLED_VERDICTS = {
    "removal": {
        Principle.CONTRIBUTION_EXISTENCE:
            ("SATISFIED", 1, (("a", "d", "e", "g", "h", "i", "n"),)),
        Principle.DIRECTIONALITY: ("SATISFIED", 127, None),
        Principle.COUNTERFACTUALITY: ("SATISFIED", 200, None),
        Principle.QUANTITATIVE_COUNTERFACTUALITY: ("SATISFIED", 200, None),
        Principle.WEAK_QUANTITATIVE_CONTRIBUTION_EXISTENCE:
            ("SATISFIED", 1, (("c", "f", "g", "h", "m", "n"),
                              ("a", "b", "d", "e", "i", "k", "l"))),
        Principle.CONSISTENCY: ("SATISFIED", 200, None),
        Principle.MONOTONICITY:
            ("VIOLATED", 8, (("b",), ("a", "b", "c", "d", "f", "g", "h", "i", "k", "l",
                                      "m", "n"))),
    },
    "gradient-max": {
        Principle.CONTRIBUTION_EXISTENCE:
            ("SATISFIED", 1, (("a", "d", "e", "g", "h", "i", "n"),)),
        Principle.DIRECTIONALITY: ("SATISFIED", 127, None),
        Principle.COUNTERFACTUALITY:
            ("VIOLATED", 2, (("a", "b", "c", "d", "e", "f", "g", "h", "i", "k", "l",
                              "m", "n"),)),
        Principle.QUANTITATIVE_COUNTERFACTUALITY:
            ("VIOLATED", 1, (("a", "d", "e", "g", "h", "i", "n"),)),
        Principle.WEAK_QUANTITATIVE_CONTRIBUTION_EXISTENCE: ("INCONCLUSIVE", 1, None),
        Principle.CONSISTENCY: ("SATISFIED", 200, None),
        Principle.MONOTONICITY: ("SATISFIED", 200, None),
    },
}


#: the same on a 7-argument graph, topic a (4 influencers, 2 arguments that
#: cannot reach it), where every checker enumerates in full: all 63 subsets,
#: consistency's 2016 pairs, monotonicity's X ⊂ Y pairs and every partition.
#: The literals were captured before the checkers moved to member masks, so
#: they pin the enumeration orders.
EXHAUSTIVE_VERDICTS = {
    "removal": {
        Principle.CONTRIBUTION_EXISTENCE: ("SATISFIED", 1, (("b",),)),
        Principle.QUANTITATIVE_CONTRIBUTION_EXISTENCE:
            ("VIOLATED", 3, (("b", "c", "d", "e", "g"), ("f",))),
        Principle.DIRECTIONALITY: ("SATISFIED", 3, None),
        Principle.COUNTERFACTUALITY: ("SATISFIED", 63, None),
        Principle.QUANTITATIVE_COUNTERFACTUALITY: ("SATISFIED", 63, None),
        Principle.WEAK_QUANTITATIVE_CONTRIBUTION_EXISTENCE:
            ("SATISFIED", 1, (("b", "c", "d", "f"), ("e", "g"))),
        Principle.CONSISTENCY: ("VIOLATED", 536, (("b", "f"), ("c", "f"), ("b", "c", "f"))),
        Principle.MONOTONICITY: ("VIOLATED", 52, (("b",), ("b", "f"))),
    },
    "gradient-max": {
        Principle.CONTRIBUTION_EXISTENCE: ("SATISFIED", 1, (("b",),)),
        Principle.QUANTITATIVE_CONTRIBUTION_EXISTENCE:
            ("VIOLATED", 1, (("b", "c", "d", "e", "f", "g"),)),
        Principle.DIRECTIONALITY: ("SATISFIED", 3, None),
        Principle.COUNTERFACTUALITY: ("VIOLATED", 10, (("b", "f"),)),
        Principle.QUANTITATIVE_COUNTERFACTUALITY: ("VIOLATED", 1, (("b",),)),
        Principle.WEAK_QUANTITATIVE_CONTRIBUTION_EXISTENCE:
            ("VIOLATED", 204, (("b", "c", "d", "f"), ("e", "g"))),
        Principle.CONSISTENCY: ("SATISFIED", 2016, None),
        Principle.MONOTONICITY: ("SATISFIED", 602, None),
    },
}

#: (random_qbag seed, arguments, edge probability), topic, verdicts
PINNED = {
    "sampled": ((14, 14, 0.2), "j", SAMPLED_VERDICTS),
    "exhaustive": ((56, 7, 0.4), "a", EXHAUSTIVE_VERDICTS),
}


@pytest.mark.parametrize("shape, fn", [
    *(pytest.param("sampled", fn, id=fn) for fn in sorted(SAMPLED_VERDICTS)),
    *(pytest.param("exhaustive", fn, id=f"exhaustive-{fn}")
      for fn in sorted(EXHAUSTIVE_VERDICTS)),
])
def test_sampled_branches_are_pinned(shape, fn):
    (seed, n, p), topic, verdicts = PINNED[shape]
    g = random_qbag(random.Random(seed), n, p, STRENGTH_GRID)
    for principle in TABLE_PRINCIPLES:
        if principle not in verdicts[fn]:  # All-mode QCE past MAX_PARTITION_ARGS
            with pytest.raises(PartitionSpaceError):
                run_check(principle, fn, g, QE, topic)
            continue
        v = run_check(principle, fn, g, QE, topic)
        sets = v.witness.sets if v.witness is not None else None
        assert (v.status.name, v.checked, sets) == verdicts[fn][principle], principle


@pytest.mark.parametrize("via", ["game", "run_check"])
def test_every_table_verdict_on_the_fixtures_is_pinned(via):
    # Recorded before the checkers took one shape: every table principle,
    # set function and preset on every topic of the fixtures but fig8, one
    # game per (fixture, preset, topic) shared by all its cells, as run_matrix
    # shares each instance's game under a preset. Through run_check the cells
    # of one instance come one after another, so they share its kept game.
    assert set(_CHECKERS) == set(TABLE_PRINCIPLES)
    cfg, digest, count = SearchConfig(), hashlib.sha256(), 0
    for fid in sorted(FIXTURES):
        if fid == "fig8":  # 10 arguments: about 5x the time of all the others together
            continue
        g = FIXTURES[fid]
        for name in PRESET_NAMES:
            for topic in topics_of(g):
                game = CoalitionGame(g, name, topic)
                for fn in SET_FUNCTION_IDS:
                    for principle in TABLE_PRINCIPLES:
                        if via == "game":
                            verdict = _CHECKERS[principle](principle, fn, game, cfg)
                        else:
                            verdict = run_check(principle, fn, g, name, topic, cfg=cfg)
                        digest.update(json.dumps(verdict.to_dict(), sort_keys=True).encode())
                        count += 1
    assert count == 23360
    assert digest.hexdigest() == (
        "8ddbf200c2eb41262906c39ade2cb95f980f8c1345744aea5e51a9bae8b73cc6")


def test_run_check_dispatch_and_stability():
    g = fixture("fig1a")
    v = run_check(Principle.STABILITY, "removal", g, QE, "a")
    assert v.status is Status.SATISFIED
    v = run_check(Principle.CONSISTENCY, "removal", fixture("fig6-qe"), QE, "a")
    assert v.status is Status.VIOLATED
    v = run_check(Principle.CTRB_GENERALIZATION, "removal", g, QE, "a")
    assert v.status is Status.SATISFIED


@pytest.mark.parametrize("principle", list(Principle), ids=lambda p: p.value)
def test_run_check_rejects_an_unknown_function(principle):
    # the first three instances are vacuous for Directionality and the rest
    # for ContributionExistence: they return before any table is read
    instances = [("fig3", "a"), ("fig1a", "a"), ("fig7", "a"), ("fig1a", "f"),
                 ("fig3", "b"), ("fig3", "c"), ("fig7", "b"), ("fig7", "c")]
    for fid, topic in instances:
        with pytest.raises(ContributorError, match="unknown contribution function 'nonsense'"):
            run_check(principle, "nonsense", fixture(fid), "QE", topic)
    # a callable is a set function too
    v = run_check(principle, lambda g, sem, members, topic: 0.0, fixture("fig3"), "QE", "a")
    assert v.principle is principle


def _count_games(monkeypatch) -> list:
    """Weak references to every game `principles` builds from now on."""
    built = []

    class Counted(CoalitionGame):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            built.append(weakref.ref(self))

    monkeypatch.setattr(principles, "CoalitionGame", Counted)
    return built


def _copy(g: Qbag) -> Qbag:
    """An equal graph that is another object."""
    return Qbag(g.arguments, g.attacks, g.supports, g.initial_strength)


def test_run_check_builds_one_game_per_instance(monkeypatch):
    built = _count_games(monkeypatch)
    g = _copy(fixture("fig1a"))
    for fn in SET_FUNCTION_IDS:
        for principle in TABLE_PRINCIPLES:
            run_check(principle, fn, g, QE, "a")
    assert len(built) == 1
    # the same instance: the preset by name, another seed
    run_check(Principle.CONSISTENCY, "removal", g, "QE", "a", cfg=SearchConfig(seed=7))
    assert len(built) == 1
    # another instance each: an equal graph object, semantics, topic, budget
    others = [(_copy(g), QE, "a", SearchConfig()), (g, "DFQuAD", "a", SearchConfig()),
              (g, QE, "b", SearchConfig()), (g, QE, "a", SearchConfig(budget=1 << 10))]
    for n, (h, sem, topic, cfg) in enumerate(others, 2):
        run_check(Principle.MONOTONICITY, "removal", h, sem, topic, cfg=cfg)
        assert len(built) == n


def test_run_check_keeps_the_budget_of_each_call(monkeypatch):
    built = _count_games(monkeypatch)
    g = _copy(fixture("fig1a"))  # topic a's cone holds every argument
    run_check(Principle.CONSISTENCY, "shapley", g, QE, "a")
    with pytest.raises(BudgetError):
        run_check(Principle.CONSISTENCY, "shapley", g, QE, "a", cfg=SearchConfig(budget=4))
    assert len(built) == 2


def test_run_check_shares_no_game_between_threads(monkeypatch):
    built = _count_games(monkeypatch)
    g = _copy(fixture("fig1a"))

    def check():
        run_check(Principle.MONOTONICITY, "removal", g, QE, "a")

    check()
    for _ in range(2):
        worker = threading.Thread(target=check)
        worker.start()
        worker.join()
    check()  # the main thread's game outlives the workers'
    assert len(built) == 3


def test_run_check_drops_the_game_of_the_last_instance(monkeypatch):
    built = _count_games(monkeypatch)
    g = _copy(fixture("fig1a"))
    run_check(Principle.MONOTONICITY, "removal", g, QE, "a")
    run_check(Principle.MONOTONICITY, "removal", g, QE, "b")
    # no gc.collect(): a game and its tables form no reference cycle
    assert [ref() is None for ref in built] == [True, False]


def test_run_check_on_a_game_whose_walk_raised():
    # the kept game of a call that raised mid-walk serves the next call
    g = qbag({"a": 0.5, "b": 1.0, "c": 1.0}, supports=[("b", "a"), ("c", "a")])
    sem = Semantics(Aggregation.SUM, linear(1.0))
    for _ in range(2):
        with pytest.raises(InfluenceDomainError):
            run_check(Principle.CONSISTENCY, "shapley", g, sem, "a")


def test_principle_names_accept_aliases():
    assert principle_from_name("ce") is Principle.CONTRIBUTION_EXISTENCE
    assert principle_from_name("qce") is Principle.QUANTITATIVE_CONTRIBUTION_EXISTENCE
    assert principle_from_name("wqce") is Principle.WEAK_QUANTITATIVE_CONTRIBUTION_EXISTENCE
    assert principle_from_name("counterfactuality") is Principle.COUNTERFACTUALITY
    assert principle_from_name("Monotonicity") is Principle.MONOTONICITY
    with pytest.raises(ValueError):
        principle_from_name("nonsense")


def test_expected_verdicts_cover_all_cells_and_designated_fixtures_exist():
    for principle in TABLE_PRINCIPLES:
        for fn in SET_FUNCTION_IDS:
            for name in PRESET_NAMES:
                expected = EXPECTED_VERDICTS[principle][fn][name]
                if not expected:
                    fid, topic = violation_fixture(principle, fn, name)
                    assert fid in FIXTURES
                    assert topic in fixture(fid).arguments


def test_violation_fixture_spot_checks():
    assert violation_fixture(
        Principle.CONSISTENCY, "shapley", "QE") == ("fig6-shapley-qe", "a")
    assert violation_fixture(
        Principle.COUNTERFACTUALITY, "gradient-max", "EB") == ("figA12", "b")
    assert violation_fixture(
        Principle.CONTRIBUTION_EXISTENCE, "gradient-max", "EBT") == ("fig3", "a")


def test_search_counterexample_finds_and_shrinks_deterministically():
    cfg = SearchConfig(random_graphs=80, seed=0, max_exhaustive_args=6)
    first = search_counterexample(Principle.CONSISTENCY, "removal", "QE", cfg)
    second = search_counterexample(Principle.CONSISTENCY, "removal", "QE", cfg)
    assert first.status is Status.VIOLATED
    assert first.witness is not None and first.witness.graph is not None
    assert first.witness.graph == second.witness.graph
    # shrunk witness graphs stay small enough to read
    assert len(first.witness.graph.arguments) <= 5


@pytest.mark.parametrize("principle, fn, calls, digest", [
    (Principle.CTRB_GENERALIZATION, "shapley", 30,
     "82daa9def4e47873e466dfd103e4a82426ae007f736223afec6b19a2c62d530a"),
    (Principle.CTRB_GENERALIZATION, "gradient-maxabs", 4,
     "b0963b2d9545b65c184a1057186014c546dd177011a405c39c95a8691284d2a2"),
    (Principle.STABILITY, "removal", 30,
     "ea580104b696eea5049afa60b383035e159f28770dc89b6cd7367589107af5f0"),
], ids=["generalization-shapley", "generalization-gradient-maxabs", "stability"])
def test_search_counterexample_checks_a_whole_graph_principle_once_per_graph(
        monkeypatch, principle, fn, calls, digest):
    # The verdicts were recorded when each argument of a graph was checked in
    # turn: 131, 6 and 131 calls. gradient-maxabs is violated and shrunk.
    name = ("check_generalization" if principle is Principle.CTRB_GENERALIZATION
            else "check_stability")
    real, graphs = getattr(principles, name), []

    def counted(*args, **kw):  # both take the graph second
        graphs.append(args[1])
        return real(*args, **kw)

    monkeypatch.setattr(principles, name, counted)
    v = search_counterexample(principle, fn, QE, SearchConfig(random_graphs=30, seed=1))
    assert len(graphs) == calls
    text = json.dumps(v.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_sampled_consistency_reports_the_first_clashing_pair():
    g = random_qbag(random.Random(0), 9, 0.6, STRENGTH_GRID)
    assert len(g.arguments) - 1 > MAX_PAIR_ARGS  # pairs are drawn, not enumerated
    v = check_consistency("removal", g, QE, "g")
    assert (v.status, v.checked) == (Status.VIOLATED, 12)
    assert v.witness.sets == (("a", "i"), ("a", "b", "c", "d"), ("a", "b", "c", "d", "i"))
    assert v.witness.values == {
        "S(X)(a)": 0.004628794845175421, "S(Y)(a)": 0.09261466994283446,
        "S(X∪Y)(a)": -0.02772206376265246, "margin": 0.02772206376265246}


def test_run_matrix_keeps_no_game_across_instances(monkeypatch):
    # A game and its tables form a reference cycle, so a dropped game lives
    # until the cycle collector runs: collect before each count. The objects
    # that exist already are frozen, which keeps each collection short.
    refs, alive_at_build = [], []

    def alive() -> int:
        gc.collect()
        return sum(r() is not None for r in refs)

    class Recorded(CoalitionGame):
        def __init__(self, *args, **kw):
            alive_at_build.append(alive())
            super().__init__(*args, **kw)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(principles, "CoalitionGame", Recorded)
    gc.freeze()
    try:
        report = run_matrix(SearchConfig(random_graphs=3))
        assert alive() == 0
    finally:
        gc.unfreeze()
    assert len(report.cells) == 160 and report.ok
    assert len(refs) > 5 * len(FIXTURES)
    assert max(alive_at_build) <= 1


def test_search_counterexample_reports_inconclusive_when_clean():
    cfg = SearchConfig(random_graphs=10, seed=2, max_exhaustive_args=4)
    v = search_counterexample(Principle.DIRECTIONALITY, "removal", "QE", cfg)
    assert v.status is Status.INCONCLUSIVE
    assert "no violation" in v.witness.note


def test_game_memoizes_set_values():
    g = fixture("fig1a")
    game = CoalitionGame(g, QE, "a")
    d = 1 << game.players.index("d")  # the member mask of {d}
    assert game.names(d) == ("d",)
    before = game.computed
    value = game.set_value("removal", d)
    mid = game.computed
    assert game.set_value("removal", d) == value
    assert game.computed == mid > before
    assert game.value() == evaluate(g, QE)["a"]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.sampled_from([0.2, 0.4, 0.6]))
def test_random_qbag_is_well_formed(seed, p):
    rng = random.Random(seed)
    grid = tuple(i / 10 for i in range(11))
    n = rng.randint(2, 6)
    g = random_qbag(rng, n=n, edge_prob=p, grid=grid)
    assert len(g.arguments) == n
    assert all(v in grid for v in g.initial_strength.values())
    assert not (g.attacks & g.supports)
    from qbaglab.graph import validate

    assert validate(g).ok


def test_random_corpus_is_seed_stable():
    cfg = SearchConfig(random_graphs=12, seed=9)
    a = random_corpus(cfg)
    b = random_corpus(cfg)
    assert a == b
    assert len(a) == 12
