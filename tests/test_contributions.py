import gc
import itertools
import math
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from qbaglab.contributions import (
    DEFAULT_BUDGET,
    FUNCTION_IDS,
    CoalitionGame,
    Partition,
    Psi,
    apply_set_function,
    gradient,
    intrinsic_removal,
    partition_shapley,
    removal,
    shapley,
    sign_map,
    single_contribution,
    SingleKind,
)
from qbaglab.errors import (
    BudgetError,
    ContributorError,
    InfluenceDomainError,
    TopicInSetError,
    UnknownArgumentError,
)
from qbaglab.fixtures import fixture
from qbaglab.graph import detach_incoming, influencers, qbag, restrict
from qbaglab.principles import random_qbag
from qbaglab.semantics import PRESET_NAMES, PRESETS, Aggregation, Semantics, evaluate, linear

QE = PRESETS["QE"]


def test_fig1a_removal_values():
    g = fixture("fig1a")
    assert removal(g, QE, ("d",), "a").value == -0.012530465952907854
    assert removal(g, QE, ("f",), "a").value == -0.011009024857438043
    assert removal(g, QE, ("d", "f"), "a").value == 0.008610357524313828


def test_table4_row_values():
    g = fixture("table4")
    sem = PRESETS["DFQuAD"]
    assert abs(removal(g, sem, ("NOV", "IMP"), "D").value - 0.045) < 5e-4
    assert abs(shapley(g, sem, ("NOV", "IMP"), "D").value - 0.0475) <= 1e-12
    assert gradient(g, sem, ("NOV", "IMP"), "D", psi=Psi.MAX).value == 0.2


def test_empty_set_contributes_zero_for_removal_style():
    g = fixture("fig1a")
    assert removal(g, QE, (), "a").value == 0.0
    assert intrinsic_removal(g, QE, (), "a").value == 0.0
    assert shapley(g, QE, (), "a").value == 0.0


def test_empty_set_rejected_for_gradient():
    with pytest.raises(ContributorError):
        gradient(fixture("fig1a"), QE, (), "a")


def test_topic_inside_set_rejected():
    g = fixture("fig1a")
    with pytest.raises(TopicInSetError):
        removal(g, QE, ("a", "b"), "a")


def test_unknown_member_rejected():
    with pytest.raises(UnknownArgumentError):
        shapley(fixture("fig1a"), QE, ("zz",), "a")


def test_game_is_shared_and_idempotent():
    g = fixture("fig1a")
    game = CoalitionGame(g, QE, "a")
    first = game.removal(("d",))
    computed = game.computed
    again = game.removal(("d",))
    assert game.computed == computed
    assert again.value == first.value and again.evaluations == 0
    assert game.value() == evaluate(g, QE)["a"]


def test_evaluation_counts():
    # `evaluations` counts distinct strength evaluations (dual passes included)
    g = fixture("fig1a")
    assert removal(g, QE, ("d",), "a").evaluations == 2
    assert intrinsic_removal(g, QE, ("d",), "a").evaluations == 2
    assert gradient(g, QE, ("d", "f"), "a").evaluations == 2
    assert shapley(g, QE, ("d",), "a").evaluations == 32
    assert shapley(g, QE, ("d", "f"), "a").evaluations == 16
    assert shapley(fixture("table4"), PRESETS["DFQuAD"], ("NOV", "IMP"), "D").evaluations == 8
    # z cannot reach a, so the 2^3 coalitions collapse to 4 distinct ones
    sparse = qbag({"a": 0.5, "b": 0.4, "c": 0.7, "z": 0.9},
                  attacks=[("b", "a")], supports=[("c", "a")])
    assert shapley(sparse, QE, ("b",), "a").evaluations == 4
    assert intrinsic_removal(sparse, QE, ("z",), "a").evaluations == 1


def test_game_values_equal_plain_evaluation_on_random_graphs():
    rng = random.Random(11)
    grid = tuple(i / 10 for i in range(11))
    for _ in range(120):
        g = random_qbag(rng, n=rng.randint(2, 10), edge_prob=rng.choice((0.2, 0.4, 0.6)),
                        grid=grid)
        args = sorted(g.arguments)
        for name in PRESET_NAMES:
            sem = PRESETS[name]
            topic = rng.choice(args)
            game = CoalitionGame(g, sem, topic)
            for _ in range(4):
                removed = frozenset(x for x in args if x != topic and rng.random() < 0.4)
                detached = frozenset(x for x in args if rng.random() < 0.4)
                kept = restrict(g, g.arguments - removed)
                assert game.value(game.mask(removed)) == evaluate(kept, sem)[topic]
                assert (game.value(detached=game.mask(detached))
                        == evaluate(detach_incoming(g, detached), sem)[topic])
                # one bit layout: a member mask, null players included, is a coalition
                m = sum(1 << game.players.index(x) for x in removed)
                assert game.value(m) == evaluate(kept, sem)[topic]
                assert game.mask(removed) == m & game.mask(args)


def test_linear_domain_error_on_the_game_path():
    # the graph of test_linear_domain_error: a's Sum aggregate is 2 > k = 1
    g = qbag({"a": 0.5, "b": 1.0, "c": 1.0}, supports=[("b", "a"), ("c", "a")])
    sem = Semantics(Aggregation.SUM, linear(1.0))
    with pytest.raises(InfluenceDomainError):
        removal(g, sem, ("b",), "a")
    game = CoalitionGame(g, sem, "a")
    with pytest.raises(InfluenceDomainError):
        game.value()
    with pytest.raises(InfluenceDomainError):
        game.value(detached=game.mask(("b",)))
    assert game.value(game.mask(("b",))) == 1.0  # one supporter left is in the domain


def test_a_shapley_walk_that_raised_is_walked_again():
    # the walk's first coalition, the whole graph, is outside the domain; a
    # second call must raise the same error, not read the values it never made
    g = qbag({"a": 0.5, "b": 1.0, "c": 1.0}, supports=[("b", "a"), ("c", "a")])
    game = CoalitionGame(g, Semantics(Aggregation.SUM, linear(1.0)), "a")
    for _ in range(2):
        with pytest.raises(InfluenceDomainError):
            game.shapley(["b"])


def test_a_dropped_game_is_freed_without_the_cycle_collector():
    game = CoalitionGame(fixture("fig1a"), QE, "a")
    tables = [game.table(fn) for fn in FUNCTION_IDS]
    for table in tables:
        table[1], table[3]
    ref = weakref.ref(game)
    gc.disable()
    try:
        del game
        assert ref() is None
    finally:
        gc.enable()
    # a table that outlives its game keeps its values and computes no more
    assert all(1 in table for table in tables)
    with pytest.raises(ReferenceError):
        tables[0][2]


def test_gradient_psi_variants():
    g = fixture("fig1a")
    vmax = gradient(g, QE, ("d", "f"), "a", psi=Psi.MAX).value
    vmin = gradient(g, QE, ("d", "f"), "a", psi=Psi.MIN).value
    vabs = gradient(g, QE, ("d", "f"), "a", psi=Psi.MAXABS).value
    assert vmin <= vmax
    assert vabs == max(abs(vmin), abs(vmax))


def test_shapley_monte_carlo_close_to_exact_and_seeded():
    g = fixture("fig6-qe")
    sem = QE
    exact = shapley(g, sem, ("d",), "a").value
    mc1 = shapley(g, sem, ("d",), "a", monte_carlo=True, samples=4000, seed=3)
    mc2 = shapley(g, sem, ("d",), "a", monte_carlo=True, samples=4000, seed=3)
    assert mc1.value == mc2.value
    assert mc1.std_error is not None and mc1.std_error > 0
    assert abs(mc1.value - exact) <= 5 * mc1.std_error + 1e-9


def test_shapley_budget_guard_and_monte_carlo_escape():
    taus = {f"n{i}": 0.5 for i in range(24)}
    edges = [(f"n{i+1}", f"n{i}") for i in range(23)]
    g = qbag(taus, attacks=edges)
    with pytest.raises(BudgetError) as err:
        shapley(g, QE, ("n5",), "n0")
    assert "Monte-Carlo" in str(err.value)
    mc = shapley(g, QE, ("n5",), "n0", monte_carlo=True, samples=40, seed=0)
    assert math.isfinite(mc.value)


def test_budget_counts_only_players_that_reach_the_topic():
    # 24 arguments, but only n1..n3 reach n0: 2^(2+1) coalitions for {n3}
    taus = {f"n{i}": 0.1 * (i % 9) + 0.05 for i in range(24)}
    attacks = [("n1", "n0"), ("n3", "n1")] + [(f"n{i+1}", f"n{i}") for i in range(4, 23)]
    g = qbag(taus, attacks=attacks, supports=[("n2", "n0"), ("n0", "n4")])
    r = shapley(g, QE, ("n3",), "n0", budget=DEFAULT_BUDGET)
    cone = restrict(g, {"n0", "n1", "n2", "n3"})
    assert r.value == shapley(cone, QE, ("n3",), "n0").value
    assert r.evaluations == 8
    with pytest.raises(BudgetError):
        shapley(g, QE, ("n3",), "n0", budget=7)
    # a set that cannot reach the topic is worth exactly 0, whatever the budget
    assert shapley(g, QE, ("n9", "n20"), "n0", budget=1).value == 0.0


def _enumerated_shapley(game, member_mask, players):
    """The plain enumeration: every coalition of `players`, v read one at a
    time, null players included."""
    n = len(players)
    value = 0.0
    denom = math.factorial(n + 1)
    for r in range(n + 1):
        weight = math.factorial(r) * math.factorial(n - r) / denom
        for combo in itertools.combinations(players, r):
            coalition = sum(combo)
            value += weight * (game.value(coalition) - game.value(coalition | member_mask))
    return value


def test_exact_shapley_equals_plain_enumeration_on_random_graphs():
    rng = random.Random(23)
    grid = tuple(i / 10 for i in range(11))
    seen = {True: 0, False: 0}
    for _ in range(60):
        g = random_qbag(rng, n=rng.randint(2, 8), edge_prob=rng.choice((0.2, 0.4, 0.6)),
                        grid=grid)
        args = sorted(g.arguments)
        for name in PRESET_NAMES:
            topic = rng.choice(args)
            others = [a for a in args if a != topic]
            if not others:
                continue
            members = rng.sample(others, rng.randint(1, len(others)))
            rest = sorted(set(others) - set(members))
            groups = [[] for _ in rest]
            for x in rest:
                rng.choice(groups).append(x)
            blocks = [members] + [b for b in groups if b]
            game = CoalitionGame(g, PRESETS[name], topic)
            ref = CoalitionGame(g, PRESETS[name], topic)
            # a memo holding some coalitions already: the walk mixes hits and misses
            for _ in range(3):
                game.removal(x for x in others if rng.random() < 0.5)
            queries = [
                (game.shapley(members).value, [ref.mask((x,)) for x in rest]),
                (game.partition_shapley(members, blocks).value,
                 [ref.mask(b) for b in sorted(blocks[1:], key=sorted)]),
            ]
            member_mask = ref.mask(members)
            for got, players in queries:
                want = _enumerated_shapley(ref, member_mask, players)
                no_null = member_mask != 0 and all(players)
                seen[no_null] += 1
                if no_null:
                    assert got == want
                else:
                    assert abs(got - want) <= 1e-12
    assert seen[True] >= 100 and seen[False] >= 100


def test_monte_carlo_shapley_value_is_pinned():
    r = shapley(fixture("fig6-qe"), QE, ("d",), "a", monte_carlo=True, samples=4000, seed=3)
    assert (r.value, r.std_error) == (-0.003324901170101032, 0.0002677863896768457)


def test_monte_carlo_shapley_rejects_fewer_than_one_sample():
    g = fixture("fig6-qe")
    for samples in (0, -5):
        with pytest.raises(ContributorError, match=f"got {samples}"):
            shapley(g, QE, ("d",), "a", monte_carlo=True, samples=samples)
    one = shapley(g, QE, ("d",), "a", monte_carlo=True, samples=1)
    assert math.isfinite(one.value) and one.std_error is None


def test_monte_carlo_estimate_ignores_arguments_that_cannot_reach_the_topic():
    g = fixture("fig6-qe")
    tau = {**g.initial_strength, "ab": 0.4, "b0": 0.7, "z1": 0.5, "zz": 0.2}
    wider = qbag(tau, attacks=[*g.attacks, ("d", "z1"), ("b0", "zz")],
                 supports=[*g.supports, ("ab", "z1")])
    for name in PRESET_NAMES:
        base, more = (shapley(h, PRESETS[name], ("d",), "a", monte_carlo=True,
                              samples=500, seed=3) for h in (g, wider))
        assert (more.value, more.std_error) == (base.value, base.std_error)


def test_monte_carlo_shapley_within_four_standard_errors_of_exact():
    rng = random.Random(41)
    grid = tuple(i / 10 for i in range(11))
    checked = 0
    while checked < 60:
        g = random_qbag(rng, n=rng.randint(3, 8), edge_prob=rng.choice((0.4, 0.6)), grid=grid)
        name = rng.choice(PRESET_NAMES)
        topic = rng.choice(sorted(g.arguments))
        others = sorted(g.arguments - {topic})
        members = rng.sample(others, rng.randint(1, len(others)))
        game = CoalitionGame(g, PRESETS[name], topic)
        member_mask = game.mask(members)
        players = [game.mask((x,)) for x in others if x not in members]
        marginals = {game.value(c) - game.value(c | member_mask)
                     for r in range(len(players) + 1)
                     for c in map(sum, itertools.combinations(players, r))}
        if len(marginals) < 2:  # a constant marginal has no error to estimate
            continue
        est = game.shapley(members, monte_carlo=True, samples=1000, seed=rng.randrange(2 ** 31))
        exact = game.shapley(members).value
        assert est.std_error > 0
        assert abs(est.value - exact) <= 4 * est.std_error
        checked += 1


def test_monte_carlo_shapley_of_a_constant_marginal_has_zero_std_error():
    rng = random.Random(43)
    grid = tuple(i / 10 for i in range(11))
    checked = 0
    while checked < 120:
        g = random_qbag(rng, n=rng.randint(2, 7), edge_prob=rng.choice((0.4, 0.6)), grid=grid)
        topic = rng.choice(sorted(g.arguments))
        others = sorted(g.arguments - {topic})
        game = CoalitionGame(g, PRESETS[rng.choice(PRESET_NAMES)], topic)
        if rng.random() < 0.5:  # every player that reaches the topic: k = 0
            members = [x for x in others if game.mask((x,))] or others
        else:
            members = rng.sample(others, rng.randint(1, len(others)))
        member_mask = game.mask(members)
        players = [game.mask((x,)) for x in others if x not in members]
        marginals = {game.value(c) - game.value(c | member_mask)
                     for r in range(len(players) + 1)
                     for c in map(sum, itertools.combinations(players, r))}
        if len(marginals) > 1:
            continue
        est = game.shapley(members, monte_carlo=True, samples=rng.choice((3, 7, 2000)),
                           seed=rng.randrange(2 ** 31))
        assert est.std_error == 0.0
        assert abs(est.value - game.shapley(members).value) <= 1e-9
        checked += 1


def _drawn_shapley(g, sem, members, topic, samples, seed):
    """The Monte-Carlo estimator with each draw's members in a list and each
    distinct coalition read through `value()` on a fresh game: (value,
    std_error, the coalitions evaluated)."""
    game = CoalitionGame(g, sem, topic)
    member_mask = game.mask(members)
    players = [p for p in (game.mask((x,)) for x in game.players if x not in members) if p]
    draw = random.Random(seed).random
    tally = {}
    for _ in range(samples):
        u = draw()
        coalition = sum([p for p in players if draw() < u])
        tally[coalition] = tally.get(coalition, 0) + 1
    marginals = [(game.value(c) - game.value(c | member_mask), n) for c, n in tally.items()]
    first = marginals[0][0]
    value = first + math.fsum(n * (d - first) for d, n in marginals) / samples
    err = None
    if samples > 1:
        var = math.fsum(n * (d - value) ** 2 for d, n in marginals) / (samples - 1)
        err = math.sqrt(var) / math.sqrt(samples)
    return value, err, {c | m for c in tally for m in (0, member_mask)}


def test_monte_carlo_shapley_equals_the_draw_by_draw_estimator():
    rng = random.Random(47)
    grid = tuple(i / 10 for i in range(11))
    seen = {"null player": 0, "several members": 0, "unreachable set": 0, "hits and misses": 0}
    for i in range(240):
        g = random_qbag(rng, n=rng.randint(2, 12), edge_prob=rng.choice((0.15, 0.3, 0.5)),
                        grid=grid)
        sem = PRESETS[PRESET_NAMES[i % len(PRESET_NAMES)]]
        args = sorted(g.arguments)
        topic = max(args, key=lambda a: len(influencers(g, a))) if i % 4 else rng.choice(args)
        others = sorted(g.arguments - {topic})
        if not others:
            continue
        members = rng.sample(others, rng.randint(1, min(3, len(others))))
        samples, seed = rng.choice((1, 2, 7, 2000)), rng.randrange(2 ** 31)
        game = CoalitionGame(g, sem, topic)
        if i % 3 == 1:  # a game that holds every coalition already
            game.shapley(members)
        elif i % 3 == 2:  # ... or some: the walk mixes hits and misses
            game.shapley(members, monte_carlo=True, samples=20, seed=seed + 1)
        held = set(game._values)
        got = game.shapley(members, monte_carlo=True, samples=samples, seed=seed)
        value, err, coalitions = _drawn_shapley(g, sem, members, topic, samples, seed)
        assert (got.value, got.std_error) == (value, err)
        assert got.evaluations == len(coalitions - held)
        seen["hits and misses"] += 0 < got.evaluations < len(coalitions)
        seen["null player"] += not all(game.mask((x,)) for x in others)
        seen["several members"] += len(members) > 1
        seen["unreachable set"] += game.mask(members) == 0
    assert min(seen.values()) >= 10, seen


def _cone_qbag(rng, n):
    """n arguments x00, x01, ... of which each has an edge to a later one, so
    every argument reaches the last, the topic."""
    names = [f"x{i:02d}" for i in range(n)]
    tau = {x: rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)) for x in names}
    edges = {True: [], False: []}
    for i in range(n - 1):
        later = {rng.randrange(i + 1, n)} | {j for j in range(i + 1, n) if rng.random() < 0.2}
        for j in sorted(later):
            edges[rng.random() < 0.5].append((names[i], names[j]))
    return qbag(tau, attacks=edges[True], supports=edges[False]), names[-1]


def test_monte_carlo_walk_shares_cone_prefixes():
    g, topic = _cone_qbag(random.Random(12), 12)
    game = CoalitionGame(g, QE, topic)
    game.shapley(("x05",), monte_carlo=True, samples=20_000, seed=1)
    cone_nodes = game.mask((*game.players, topic)).bit_count()
    assert cone_nodes == 12 and game.computed > 1000
    # from scratch, every evaluation updates every cone node
    assert 2 * game.node_updates <= game.computed * cone_nodes


@pytest.mark.parametrize("n,k,name,seed,want", [
    (12, 1, "QE", 5, ("-0x1.29318b0c60275p-3", "0x1.f9872b2eb8419p-11", 2048)),
    (13, 2, "DFQuAD", 6, ("0x1.37f1fd7092fdcp-2", "0x1.2ad872d995a53p-10", 2048)),
    (14, 3, "EB", 7, ("-0x1.0d4a989a79e67p-4", "0x1.6f4f8a1eaff98p-13", 2048)),
])
def test_monte_carlo_shapley_of_explain_sized_cones_is_pinned(n, k, name, seed, want):
    rng = random.Random(n)
    g, topic = _cone_qbag(rng, n)
    members = rng.sample(sorted(g.arguments - {topic}), k)
    r = shapley(g, PRESETS[name], members, topic, monte_carlo=True, samples=20_000, seed=seed)
    assert (r.value.hex(), r.std_error.hex(), r.evaluations) == want


def test_mask_rejects_unknown_names_and_accepts_the_topic():
    game = CoalitionGame(fixture("fig1a"), QE, "a")
    with pytest.raises(UnknownArgumentError, match="zz"):
        game.mask(("zz",))
    with pytest.raises(UnknownArgumentError):
        game.mask(("d", "zz"))
    assert game.mask(("a", "d")) == game.mask(("a",)) | game.mask(("d",))


def test_repeated_exact_shapley_on_one_game_evaluates_nothing():
    game = CoalitionGame(fixture("fig1a"), QE, "a")
    first = game.shapley(("d",))
    again = game.shapley(("d",))
    assert first.evaluations == 32 and again.evaluations == 0
    assert again.value == first.value


def test_partition_shapley_efficiency_and_block_lookup():
    g = fixture("fig1a")
    blocks = (("b",), ("c", "d"), ("e", "f"))
    total = sum(partition_shapley(g, QE, b, blocks, "a").value for b in blocks)
    delta = evaluate(g, QE)["a"] - g.initial_strength["a"]
    assert abs(total - delta) <= 1e-9


def test_partition_shapley_validates_blocks():
    g = fixture("fig1a")
    with pytest.raises(ContributorError):
        partition_shapley(g, QE, ("b",), (("b", "c"), ("d",)), "a")  # not a block
    with pytest.raises(ContributorError):
        partition_shapley(g, QE, ("b",), (("b",), ("c",)), "a")  # missing e, f
    with pytest.raises(ContributorError):
        partition_shapley(
            g, QE, ("b",), (("b",), ("b", "c"), ("d", "e", "f")), "a")  # overlap


def test_partition_dataclass_validation():
    with pytest.raises(ContributorError):
        Partition(blocks=(("a",), ("a", "b")))
    p = Partition(blocks=(("b", "c"), ("d",)))
    assert p.blocks


def test_singles_agree_with_singleton_sets_spot():
    g = fixture("fig4")
    for name in ("QE", "EBT"):
        sem = PRESETS[name]
        for x in sorted(g.arguments - {"a"}):
            assert (
                single_contribution(SingleKind.REMOVAL, g, sem, x, "a").value
                == removal(g, sem, (x,), "a").value
            )
            assert (
                single_contribution(SingleKind.SHAPLEY, g, sem, x, "a").value
                == shapley(g, sem, (x,), "a").value
            )
            assert (
                single_contribution(SingleKind.INTRINSIC_REMOVAL, g, sem, x, "a").value
                == intrinsic_removal(g, sem, (x,), "a").value
            )
            assert (
                single_contribution(SingleKind.GRADIENT, g, sem, x, "a").value
                == gradient(g, sem, (x,), "a", psi=Psi.MAX).value
            )


def test_single_shapley_counts_each_coalition_it_evaluates():
    # fig1a has 4 non-topic arguments besides d: 2^4 coalitions, each with and
    # without d, and no coalition comes up twice
    r = single_contribution(SingleKind.SHAPLEY, fixture("fig1a"), QE, "d", "a")
    assert r.evaluations == 32


def test_apply_set_function_covers_all_ids():
    g = fixture("fig1a")
    for fid in FUNCTION_IDS:
        r = apply_set_function(fid, g, QE, ("d",), "a")
        assert math.isfinite(r.value)
        assert r.function
    with pytest.raises(ContributorError):
        apply_set_function("bogus", g, QE, ("d",), "a")


def test_table_reads_agree_with_set_value_and_removal():
    game = CoalitionGame(fixture("fig1a"), QE, "a")
    table = game.table("removal")
    assert table is game.table("removal")
    for m in (0b11, 0b1, 0b10110):
        assert table[m] == game.set_value("removal", m) == removal(
            fixture("fig1a"), QE, game.names(m), "a").value
    assert table == {m: game.set_value("removal", m) for m in (0b11, 0b1, 0b10110)}


def test_set_value_stores_nothing_and_a_table_keeps_what_it_computed():
    game = CoalitionGame(fixture("fig1a"), QE, "a")
    value = game.set_value("shapley", 0b11)
    assert game._tables == {}
    table = game.table("shapley")
    assert table == {} and table[0b11] == value and table == {0b11: value}


def test_a_game_read_only_through_set_value_is_freed_when_dropped():
    gc.disable()  # freed by reference counting, not by the cycle collector
    try:
        game = CoalitionGame(fixture("fig1a"), QE, "a")
        game.set_value("removal", 0b11)
        ref = weakref.ref(game)
        del game
        assert ref() is None
    finally:
        gc.enable()


def _combine(psi, grads):
    """A gradient set's value from its member duals, as a list in name order."""
    if psi is Psi.MAX:
        return max(grads)
    if psi is Psi.MIN:
        return min(grads)
    return max(abs(g) for g in grads)


@pytest.mark.parametrize("seed", range(6))
def test_gradient_set_values_fold_member_duals_like_max_and_min(seed):
    rng = random.Random(seed)
    g = random_qbag(rng, n=rng.randint(2, 7), edge_prob=0.5,
                    grid=tuple(i / 10 for i in range(11)))
    for name in PRESET_NAMES:
        for topic in sorted(g.arguments):
            game = CoalitionGame(g, name, topic)
            for psi in Psi:
                for m in range(1, 1 << len(game.players)):
                    want = _combine(psi, [game.dual(x) for x in game.names(m)])
                    assert repr(game.set_value(f"gradient-{psi.value}", m)) == repr(want)
    # a tie between 0.0 and -0.0 keeps the first member's, as max and min do
    for duals in ((0.0, -0.0), (-0.0, 0.0)):
        game = CoalitionGame(fixture("fig1a"), QE, "a")
        game._duals.update(zip(game.players, duals))
        for psi in Psi:
            assert repr(game.set_value(f"gradient-{psi.value}", 0b11)) == repr(_combine(psi, duals))


def test_result_metadata():
    g = fixture("fig1a")
    r = removal(g, QE, ("f", "d"), "a")
    assert r.members == ("d", "f")
    assert r.topic == "a"
    assert r.semantics == "QE"
    assert r.evaluations >= 2
    assert r.std_error is None


def test_sign_map_shape_and_base_point():
    g = fixture("fig1a")
    grid = sign_map(g, QE, "a", (("d",), ("f",), ("d", "f")), ("d", "f"), step=0.05)
    assert len(grid.rows) == 441
    assert grid.labels == ("d", "f", "d,f")
    base = [r for r in grid.rows
            if abs(r[0] - 0.55) < 1e-9 and abs(r[1] - 0.6) < 1e-9]
    assert base and base[0][2] == (-1, -1, 1)
    csv_text = grid.to_csv()
    assert csv_text.splitlines()[0] == 'eps1,eps2,d,f,"d,f"'
    assert len(csv_text.splitlines()) == 442


def test_sign_map_unreachable_set_gives_zero_column():
    g = qbag(
        {"a": 0.5, "d": 0.4, "f": 0.6, "z": 0.9},
        attacks=[("d", "a")],
        supports=[("f", "a")],
    )
    grid = sign_map(g, QE, "a", (("z",),), ("d", "f"), step=0.25)
    assert all(r[2] == (0,) for r in grid.rows)


def test_sign_map_rejects_bad_sweep_and_step():
    g = fixture("fig1a")
    with pytest.raises(ContributorError):
        sign_map(g, QE, "a", (("d",),), ("d", "d"), step=0.05)
    with pytest.raises(ContributorError):
        sign_map(g, QE, "a", (("d",),), ("a", "f"), step=0.05)
    with pytest.raises(ContributorError):
        sign_map(g, QE, "a", (("d",),), ("d", "f"), step=0.6)


def test_sign_map_rejects_an_unknown_function():
    with pytest.raises(ContributorError,
                       match="unknown contribution function 'nope'; known: removal,"):
        sign_map(fixture("fig1a"), QE, "a", (("d",),), ("d", "f"), function="nope")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 8_000), name=st.sampled_from(PRESET_NAMES))
def test_directionality_of_removal_on_random_graphs(seed, name):
    rng = random.Random(seed)
    g = random_qbag(rng, n=rng.randint(2, 6), edge_prob=0.3,
                    grid=tuple(i / 10 for i in range(11)))
    sem = PRESETS[name]
    topic = sorted(g.arguments)[0]
    from qbaglab.graph import can_reach

    unreachable = [x for x in g.arguments - {topic} if not can_reach(g, x, topic)]
    if not unreachable:
        return
    assert removal(g, sem, unreachable, topic).value == 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 8_000))
def test_shapley_symmetry_of_interchangeable_twins(seed):
    # two parentless attackers with equal strength must earn equal shapley
    rng = random.Random(seed)
    t = rng.choice([i / 10 for i in range(11)])
    g = qbag({"a": 0.6, "x": t, "y": t}, attacks=[("x", "a"), ("y", "a")])
    for name in PRESET_NAMES:
        sem = PRESETS[name]
        sx = shapley(g, sem, ("x",), "a").value
        sy = shapley(g, sem, ("y",), "a").value
        assert abs(sx - sy) <= 1e-12
