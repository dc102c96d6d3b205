"""Principle checkers and the satisfaction/violation matrix.

A checker takes one concrete instance (a graph, a semantics, a topic) and one
contribution function, and decides whether the instance exhibits a violation
of the principle. "Satisfied" therefore always means satisfied-on-instance:
no finite tool can prove a universally quantified principle, it can only fail
to refute it. Violations, on the other hand, are hard facts and ship with a
replayable witness.

Every table checker has one shape, checker(principle, fn, game, cfg), and
`_CHECKERS` maps each of `TABLE_PRINCIPLES` to its checker; a principle and
its variant share one, told apart by `principle` (All or Exists for
quantitative existence, the sign or the value test for counterfactuality).
A checker reads its values from one `CoalitionGame` for (graph, semantics,
topic): `run_check` builds that game and keeps it, one per thread, until
its next call on another instance, so consecutive checks of one instance
(every table principle of a `qbaglab principles` topic, say) share its
tables; each public `check_*` function is `run_check` with its principle.
`run_matrix` builds one game per (graph, topic) instance under each preset,
shares it across the cells still open and drops it before the next. Every
violation is built by `_violated`, which names its witness sets by
`game.names` and attaches the topic and the graph to replay it on.

A checked set X is the game's member mask, an int (bit i is
`game.players[i]`): unions are `x | y`, values are read as `table[x]` from
the function's `game.table(fn)`, and names are built only for a witness.
Existence, directionality and counterfactuality check the sets of `_pool`:
every non-empty subset of the candidate arguments while there are at most
`MAX_SUBSET_ARGS` of them, otherwise `SAMPLE_SIZE` seeded random subsets, in
which case a checker that finds nothing reports Inconclusive instead of
Satisfied where the principle asks for a set to exist. Consistency pairs
the sets of `_pool` with `MAX_PAIR_ARGS` and `2 * SAMPLE_SIZE`; exhaustive,
it reads each subset's value once and pairs a set only with the later sets
of its sign class, the only pairs that can violate. Monotonicity walks
every pair X ⊂ Y itself, the subsets of y by `(x - 1) & y`, up to
`MAX_SUBSET_ARGS` players, and otherwise draws `SAMPLE_SIZE` seeded pairs.
The partition checks enumerate `partition_masks`, tuples of block masks,
up to `MAX_PARTITION_ARGS` players; past that, All-mode raises
`PartitionSpaceError` and Exists-mode tries only the reachability split.
All-mode first tries a certificate on the 2^n subset values instead:
every partition sums to sigma(a) - tau(a) exactly when the whole set does
and the function is additive, so residuals small enough to survive the
float sums prove Satisfied, with `checked` the Bell(n) partitions covered;
otherwise the walk decides, and its verdict is the one reported.
Values are compared with the one tolerance `TOL`.

The matrix runner crosses the four set functions with the five semantics
presets over the bundled fixture corpus plus a seeded random corpus and
compares the outcome of every (function, semantics, principle) cell against
the expected verdict pattern.
"""

from __future__ import annotations

import itertools
import random
import string
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

from .contributions import (
    DEFAULT_BUDGET,
    FUNCTION_IDS,
    SIGN_TOL,
    SINGLE_FOR_SET,
    CoalitionGame,
    SingleKind,
    sign,
    single_contribution,
    _unknown_function,
)
from .errors import PartitionSpaceError
from .fixtures import FIXTURES, SEMANTICS_SLUGS
from .graph import Qbag, qbag, restrict
from .semantics import PRESET_NAMES, check_stability, semantics_from_spec
from .verdicts import Principle, PrincipleVerdict, Status, Witness

TOL = SIGN_TOL
MAX_SUBSET_ARGS = 12
MAX_PARTITION_ARGS = 10
#: Bell(n), the number of set partitions of n players, for n <= MAX_PARTITION_ARGS
_BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975)
MAX_PAIR_ARGS = 7
#: random subsets a checker draws once exhaustive enumeration is off the table
SAMPLE_SIZE = 200
#: the initial strengths of random graphs
STRENGTH_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

SET_FUNCTION_IDS = ("removal", "intrinsic", "shapley", "gradient-max")

TABLE_PRINCIPLES = (
    Principle.CONTRIBUTION_EXISTENCE,
    Principle.QUANTITATIVE_CONTRIBUTION_EXISTENCE,
    Principle.DIRECTIONALITY,
    Principle.COUNTERFACTUALITY,
    Principle.QUANTITATIVE_COUNTERFACTUALITY,
    Principle.WEAK_QUANTITATIVE_CONTRIBUTION_EXISTENCE,
    Principle.CONSISTENCY,
    Principle.MONOTONICITY,
)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for randomized counterexample search and corpus generation."""

    max_exhaustive_args: int = 6
    random_graphs: int = 200
    seed: int = 0
    budget: int = DEFAULT_BUDGET


def _player_bits(game: CoalitionGame) -> list[int]:
    """The member mask of each player of `game` alone, in name order."""
    return [1 << i for i in range(len(game.players))]


def _subsets(bits: Sequence[int]):
    """Every non-empty union of `bits`, by size, then in combinations order."""
    for r in range(1, len(bits) + 1):
        yield from map(sum, itertools.combinations(bits, r))


def _sample(bits: Sequence[int], rng: random.Random) -> int:
    """One random non-empty union of `bits`."""
    return sum(rng.sample(bits, rng.randint(1, len(bits))))


def _pool(bits: Sequence[int], cfg: SearchConfig, limit: int = MAX_SUBSET_ARGS,
          count: int = SAMPLE_SIZE) -> tuple[Iterable[int], bool]:
    """(the member masks to check, whether they are all of them): every
    non-empty union of the player `bits` while there are at most `limit`,
    else `count` random ones drawn from `cfg.seed`. Duplicates are fine;
    determinism is what matters."""
    if len(bits) <= limit:
        return _subsets(bits), True
    rng = random.Random(cfg.seed)
    return (_sample(bits, rng) for _ in range(count)), False


def partition_masks(n: int):
    """Every set partition of the bits 0..n-1 as a tuple of block masks, in
    restricted-growth-string order: bit i joins each block that holds an
    earlier bit, in block order, then opens a block of its own."""
    if n > MAX_PARTITION_ARGS:
        raise PartitionSpaceError(n, MAX_PARTITION_ARGS)
    blocks: list[int] = []

    def place(i: int):
        if i == n:
            yield tuple(blocks)
            return
        bit = 1 << i
        for b in range(len(blocks)):
            blocks[b] |= bit
            yield from place(i + 1)
            blocks[b] ^= bit
        blocks.append(bit)
        yield from place(i + 1)
        blocks.pop()

    yield from place(0)


def enumerate_partitions(base: Iterable[str]):
    """All set partitions of `base` in restricted-growth-string order: those
    of `partition_masks`, bit i standing for the i-th element of `base`, sorted."""
    items = sorted(base)
    for blocks in partition_masks(len(items)):
        yield tuple(frozenset([x for i, x in enumerate(items) if b >> i & 1]) for b in blocks)


# --- checkers -------------------------------------------------------------------


def _violated(principle: Principle, game: CoalitionGame, checked: int, masks,
              values: dict, note: str = "") -> PrincipleVerdict:
    """The violation of `principle` found on `game` after `checked` checks:
    the witness names the member `masks` and carries the topic and graph."""
    return PrincipleVerdict(
        principle, Status.VIOLATED, checked=checked,
        witness=Witness(topic=game.topic, sets=tuple(map(game.names, masks)),
                        values=values, graph=game.graph, note=note),
    )


def check_generalization(
    fn_pair, g: Qbag, sem, *, cfg: SearchConfig | None = None,
) -> PrincipleVerdict:
    """Does the set function restricted to singletons agree with the matching
    single-argument function for every (contributor, topic) pair?"""
    single_kind, set_fn = fn_pair
    cfg = cfg or SearchConfig()
    checked = 0
    for topic in sorted(g.arguments):
        game = CoalitionGame(g, sem, topic, cfg.budget)
        for i, x in enumerate(game.players):
            single = single_contribution(
                single_kind, g, game.semantics, x, topic, cfg.budget).value
            joint = game.set_value(set_fn, 1 << i)
            checked += 1
            if abs(single - joint) > TOL:
                return _violated(
                    Principle.CTRB_GENERALIZATION, game, checked, (1 << i,),
                    {"single": single, "set({x})": joint, "gap": abs(single - joint)},
                    f"{single_kind} vs {set_fn}")
    return PrincipleVerdict(Principle.CTRB_GENERALIZATION, Status.SATISFIED, checked=checked)


def check_contribution_existence(
    fn, g: Qbag, sem, a: str, *, cfg: SearchConfig | None = None,
) -> PrincipleVerdict:
    """If the topic moved away from its initial strength, some contributor set
    must get a nonzero value."""
    return run_check(Principle.CONTRIBUTION_EXISTENCE, fn, g, sem, a, cfg=cfg)


def _contribution_existence(principle, fn, game: CoalitionGame, cfg) -> PrincipleVerdict:
    g, a = game.graph, game.topic
    sigma_a = game.value()
    delta = sigma_a - g.initial_strength[a]
    if abs(delta) <= TOL:
        return PrincipleVerdict(
            principle, Status.SATISFIED, checked=0,
            witness=Witness(topic=a, sets=(), values={"sigma(a)": sigma_a},
                            note="vacuous: final equals initial"),
        )
    pool, exhaustive = _pool(_player_bits(game), cfg)
    table = game.table(fn)
    checked, largest = 0, 0.0
    for checked, m in enumerate(pool, 1):
        value = table[m]
        largest = max(largest, abs(value))
        if abs(value) > TOL:
            return PrincipleVerdict(
                principle, Status.SATISFIED, checked=checked,
                witness=Witness(topic=a, sets=(game.names(m),),
                                values={"S(X)(a)": value, "sigma(a)-tau(a)": delta}),
            )
    if exhaustive:
        return _violated(
            principle, game, checked, (),
            {"sigma(a)": sigma_a, "tau(a)": g.initial_strength[a],
             "max |S(X)(a)|": largest, "margin": abs(delta)},
            "final strength moved but every contributor set gets 0")
    return PrincipleVerdict(principle, Status.INCONCLUSIVE, checked=checked)


def check_quantitative_contribution_existence(
    fn, g: Qbag, sem, a: str, mode: str = "All", *, cfg: SearchConfig | None = None,
) -> PrincipleVerdict:
    """All-mode: every partition of the non-topic arguments must sum to
    sigma(a) - tau(a). Exists-mode: some partition must, with the
    reachability split tried first."""
    mode = str(mode).lower()
    if mode not in ("all", "exists"):
        raise ValueError(f"mode must be 'All' or 'Exists', got {mode!r}")
    principle = (Principle.QUANTITATIVE_CONTRIBUTION_EXISTENCE if mode == "all"
                 else Principle.WEAK_QUANTITATIVE_CONTRIBUTION_EXISTENCE)
    return run_check(principle, fn, g, sem, a, cfg=cfg)


def _quantitative_contribution_existence(
    principle, fn, game: CoalitionGame, cfg,
) -> PrincipleVerdict:
    """All-mode for QuantitativeContributionExistence, Exists-mode for its
    weak variant. All-mode returns Satisfied at once when `_additive`
    certifies that every partition sums within TOL of sigma(a) - tau(a),
    counting the Bell(n) partitions that covers as checked; otherwise it
    walks the partitions, so every violation and its witness is the walk's."""
    a = game.topic
    delta = game.value() - game.graph.initial_strength[a]
    bits = _player_bits(game)
    partitions = partition_masks(len(bits))  # each block a member mask
    table = game.table(fn)

    if principle is Principle.QUANTITATIVE_CONTRIBUTION_EXISTENCE:
        n = len(bits)
        if 0 < n <= MAX_PARTITION_ARGS and _additive(table, n, delta):
            return PrincipleVerdict(principle, Status.SATISFIED, checked=_BELL[n])
        checked = 0
        for checked, blocks in enumerate(partitions, 1):
            total = sum([table[b] for b in blocks])
            if abs(total - delta) > TOL:
                return _violated(
                    principle, game, checked, blocks,
                    {"sum over blocks": total, "sigma(a)-tau(a)": delta,
                     "margin": abs(total - delta)})
        return PrincipleVerdict(principle, Status.SATISFIED, checked=checked)

    # Exists-mode: the reachability split, then (if affordable) every partition.
    reach = game.mask(game.players)  # the players that reach the topic
    split = tuple(b for b in (reach, sum(bits) - reach) if b)
    exhaustive = len(bits) <= MAX_PARTITION_ARGS
    candidates = itertools.chain([split], partitions if exhaustive else ())
    best_gap, best_blocks = None, ()
    for checked, blocks in enumerate(candidates, 1):
        total = sum([table[b] for b in blocks])
        gap = abs(total - delta)
        if best_gap is None or gap < best_gap:
            best_gap, best_blocks = gap, blocks
        if gap <= TOL:
            return PrincipleVerdict(
                principle, Status.SATISFIED, checked=checked,
                witness=Witness(
                    topic=a, sets=tuple(map(game.names, blocks)),
                    values={"sum over blocks": total, "sigma(a)-tau(a)": delta},
                    note="reachability split" if checked == 1 else "",
                ),
            )
    if not exhaustive:
        return PrincipleVerdict(principle, Status.INCONCLUSIVE, checked=checked)
    return _violated(
        principle, game, checked, best_blocks,
        {"sigma(a)-tau(a)": delta, "closest partition gap": best_gap, "margin": best_gap},
        "no partition of the non-topic arguments sums to sigma-tau; "
        "witness sets show the closest one")


def _additive(table, n: int, delta: float) -> bool:
    """Whether every partition of the n players provably sums to `delta`
    within TOL, read from 2^n values instead of Bell(n) partitions.

    With r0 = |S(N) - delta| and r(A) = |S(A) - sum of S({x}) over x in A|,
    every partition's exact sum lies within r0 + r(N) + the r of its blocks,
    at most r0 + (n + 1) * max r, of delta. The float sums the walk and this
    test compute add less than (n + 2)^3 * 2^-51 * M, M the largest |value|,
    |singleton sum| or |delta|. False as soon as a residual breaks the
    budget, or if a value cannot be read: the walk then decides, and raises
    only where it would have raised anyway."""
    full = (1 << n) - 1
    try:
        r0 = abs(table[full] - delta)
        if not r0 <= TOL:  # the walk's first partition, (N,), is violated
            return False
        limit = (TOL - r0) / (n + 1)
        sums, worst = [0.0] * (full + 1), 0.0  # the singleton sum of each mask
        for m in range(1, full + 1):
            low = m & -m
            s = sums[m] = sums[m ^ low] + table[low]
            r = abs(table[m] - s)
            if not r <= limit:  # NaN included
                return False
            if r > worst:
                worst = r
    except Exception:
        return False
    scale = max(abs(delta), max(map(abs, sums)), max(map(abs, table.values())))
    return r0 + (n + 1) * worst + (n + 2) ** 3 * 2.0 ** -51 * scale <= TOL


def check_directionality(
    fn, g: Qbag, sem, a: str, *, cfg: SearchConfig | None = None,
) -> PrincipleVerdict:
    """Sets whose members cannot reach the topic must contribute exactly zero."""
    return run_check(Principle.DIRECTIONALITY, fn, g, sem, a, cfg=cfg)


def _directionality(principle, fn, game: CoalitionGame, cfg) -> PrincipleVerdict:
    cone = game.mask(game.players)  # the players that reach the topic
    unreachable = [b for b in _player_bits(game) if not b & cone]
    if not unreachable:
        return PrincipleVerdict(
            principle, Status.SATISFIED, checked=0,
            witness=Witness(topic=game.topic, sets=(), values={},
                            note="vacuous: every other argument reaches the topic"),
        )
    pool, _ = _pool(unreachable, cfg)
    table = game.table(fn)
    checked = 0
    for checked, m in enumerate(pool, 1):
        value = table[m]
        if abs(value) > TOL:
            return _violated(
                principle, game, checked, (m,),
                {"S(X)(a)": value, "margin": abs(value)},
                "no member of X reaches the topic, yet the value is nonzero")
    return PrincipleVerdict(principle, Status.SATISFIED, checked=checked)


def check_counterfactuality(
    fn, g: Qbag, sem, a: str, quantitative: bool = False, *,
    cfg: SearchConfig | None = None,
) -> PrincipleVerdict:
    """Sign (or value, in the quantitative variant) of S(X)(a) must match the
    change in the topic's strength caused by actually removing X."""
    principle = (Principle.QUANTITATIVE_COUNTERFACTUALITY if quantitative
                 else Principle.COUNTERFACTUALITY)
    return run_check(principle, fn, g, sem, a, cfg=cfg)


def _counterfactuality(principle, fn, game: CoalitionGame, cfg) -> PrincipleVerdict:
    """The sign test for Counterfactuality, the value test for its
    quantitative variant."""
    quantitative = principle is Principle.QUANTITATIVE_COUNTERFACTUALITY
    pool, _ = _pool(_player_bits(game), cfg)
    table, removal = game.table(fn), game.table("removal")
    checked = 0
    for checked, m in enumerate(pool, 1):
        value, removal_delta = table[m], removal[m]
        margin = abs(value - removal_delta)
        if (margin > TOL if quantitative else sign(value) != sign(removal_delta)):
            return _violated(
                principle, game, checked, (m,),
                {"S(X)(a)": value, "removal delta": removal_delta, "margin": margin})
    return PrincipleVerdict(principle, Status.SATISFIED, checked=checked)


def check_consistency(
    fn, g: Qbag, sem, a: str, *, cfg: SearchConfig | None = None,
) -> PrincipleVerdict:
    """Two sets agreeing in contribution sign must not flip the sign of their
    union."""
    return run_check(Principle.CONSISTENCY, fn, g, sem, a, cfg=cfg)


def _consistency(principle, fn, game: CoalitionGame, cfg) -> PrincipleVerdict:
    table = game.table(fn)
    pool, exhaustive = _pool(_player_bits(game), cfg, MAX_PAIR_ARGS, 2 * SAMPLE_SIZE)
    if exhaustive:  # every unordered pair (with repeats) of the subsets
        checked, pair = _first_clash(list(pool), table)
    else:  # consecutive samples
        checked, pair = 0, None
        for checked, (x, y) in enumerate(zip(pool, pool), 1):
            if _clash(table[x], table[y], table[x | y]) is not None:
                pair = x, y
                break
    if pair is None:
        return PrincipleVerdict(principle, Status.SATISFIED, checked=checked)
    x, y = pair
    vx, vy, vu = table[x], table[y], table[x | y]
    return _violated(
        principle, game, checked, (x, y, x | y),
        {"S(X)(a)": vx, "S(Y)(a)": vy, "S(X∪Y)(a)": vu, "margin": _clash(vx, vy, vu)})


def _clash(vx: float, vy: float, vu: float) -> float | None:
    """How far S(X ∪ Y) = `vu` has the sign opposite to the one S(X) = `vx`
    and S(Y) = `vy` share, or None if it has not."""
    if vx <= TOL and vy <= TOL and vu > TOL:
        return vu
    if vx >= -TOL and vy >= -TOL and vu < -TOL:
        return -vu
    return None


def _first_clash(pool: list[int], table) -> tuple[int, tuple[int, int] | None]:
    """(checked, the first pair of `pool` that clashes, or None), pairs in
    itertools.combinations_with_replacement order, `checked` counting them
    up to that one; `pool` holds every union of two of its sets. The first
    set's pairs are walked one by one, which reads every value in the order
    a walk over all pairs would. After that a pair can clash only inside a
    sign class, at most TOL or at least -TOL (a value within TOL of 0 is in
    both), so each class is walked on its own, the second as -S."""
    n = len(pool)
    v = [0.0] * (1 + max(pool, default=0))  # values by mask
    x = pool[0] if pool else 0
    for j, y in enumerate(pool):
        v[y], v[x | y] = table[y], table[x | y]
        if _clash(v[x], v[y], v[x | y]) is not None:
            return j + 1, (x, y)
    first = (n, n)
    for w in (v, [-u for u in v]):  # S(X), S(Y) <= TOL < S(X ∪ Y); then the same for -S
        part = [i for i in range(1, n) if w[pool[i]] <= TOL]
        for k, i in enumerate(part):
            if i > first[0]:
                break
            j = next((j for j in part[k:] if w[pool[i] | pool[j]] > TOL), None)
            if j is not None:
                first = min(first, (i, j))
                break
    i, j = first
    if i == n:
        return n * (n + 1) // 2, None
    # pairs (0, 0..n-1), ..., (i-1, i-1..n-1), then (i, i..j)
    return i * n - i * (i - 1) // 2 + j - i + 1, (pool[i], pool[j])


def check_monotonicity(
    fn, g: Qbag, sem, a: str, *, cfg: SearchConfig | None = None,
) -> PrincipleVerdict:
    """Growing the contributor set must not shrink its contribution."""
    return run_check(Principle.MONOTONICITY, fn, g, sem, a, cfg=cfg)


def _monotonicity(principle, fn, game: CoalitionGame, cfg) -> PrincipleVerdict:
    n, table = len(game.players), game.table(fn)
    checked, pair, note = 0, None, ""
    if n <= MAX_SUBSET_ARGS:  # every pair X ⊂ Y, reading S(Y) once per Y
        note = "X ⊆ Y but S(X) > S(Y)"
        for y in range(1, 1 << n):
            vy = table[y]
            x = (y - 1) & y
            while x:
                checked += 1
                if table[x] > vy + TOL:
                    break
                x = (x - 1) & y
            if x:  # the walk stopped at a violating X
                pair = x, y
                break
    else:  # a random Y, then a random non-empty X ⊆ Y
        rng, bits = random.Random(cfg.seed), _player_bits(game)
        for checked in range(1, SAMPLE_SIZE + 1):
            y = _sample(bits, rng)
            x = _sample([b for b in bits if y & b], rng)
            if table[x] > table[y] + TOL:
                pair = x, y
                break
    if pair is None:
        return PrincipleVerdict(principle, Status.SATISFIED, checked=checked)
    vx, vy = table[pair[0]], table[pair[1]]
    return _violated(principle, game, checked, pair,
                     {"S(X)(a)": vx, "S(Y)(a)": vy, "margin": vx - vy}, note)


# --- random graphs and counterexample search --------------------------------------


def random_qbag(rng: random.Random, n: int, edge_prob: float,
                grid: Sequence[float]) -> Qbag:
    """A random acyclic graph: edges are oriented along a random permutation,
    so no cycle can appear by construction."""
    names = list(string.ascii_lowercase[:n])
    order = names[:]
    rng.shuffle(order)
    attacks, supports = [], []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edge = (order[i], order[j])
                if rng.random() < 0.5:
                    attacks.append(edge)
                else:
                    supports.append(edge)
    tau = {x: rng.choice(list(grid)) for x in names}
    return qbag(tau, attacks=attacks, supports=supports)


def random_corpus(cfg: SearchConfig) -> list[Qbag]:
    rng = random.Random(cfg.seed)
    out = []
    for _ in range(cfg.random_graphs):
        n = rng.randint(2, cfg.max_exhaustive_args)
        p = rng.choice((0.2, 0.4, 0.6))
        out.append(random_qbag(rng, n, p, STRENGTH_GRID))
    return out


#: the game-level checker of each table principle, called as
#: checker(principle, fn, game, cfg)
_CHECKERS = {
    Principle.CONTRIBUTION_EXISTENCE: _contribution_existence,
    Principle.QUANTITATIVE_CONTRIBUTION_EXISTENCE: _quantitative_contribution_existence,
    Principle.WEAK_QUANTITATIVE_CONTRIBUTION_EXISTENCE: _quantitative_contribution_existence,
    Principle.DIRECTIONALITY: _directionality,
    Principle.COUNTERFACTUALITY: _counterfactuality,
    Principle.QUANTITATIVE_COUNTERFACTUALITY: _counterfactuality,
    Principle.CONSISTENCY: _consistency,
    Principle.MONOTONICITY: _monotonicity,
}


def principle_from_name(name) -> Principle:
    if isinstance(name, Principle):
        return name
    token = str(name).replace("-", "").replace("_", "").lower()
    aliases = {
        "ce": Principle.CONTRIBUTION_EXISTENCE,
        "qce": Principle.QUANTITATIVE_CONTRIBUTION_EXISTENCE,
        "wqce": Principle.WEAK_QUANTITATIVE_CONTRIBUTION_EXISTENCE,
        "cf": Principle.COUNTERFACTUALITY,
        "qcf": Principle.QUANTITATIVE_COUNTERFACTUALITY,
        "generalization": Principle.CTRB_GENERALIZATION,
    }
    if token in aliases:
        return aliases[token]
    for p in Principle:
        if p.value.lower() == token:
            return p
    raise ValueError(
        f"unknown principle {name!r}; known: "
        + ", ".join(p.value for p in Principle)
    )


#: per thread, the game of the last table-principle `run_check`: a game is
#: not safe to share between threads
_last = threading.local()


def run_check(
    principle: Principle, fn, g: Qbag, sem, a: str | None, *,
    cfg: SearchConfig | None = None,
) -> PrincipleVerdict:
    """Dispatch one principle check on one instance.

    A table principle reads its values from the `CoalitionGame` of (g, sem,
    a) under `cfg.budget`. Each thread keeps the game of its last such call
    alive until its next call on another instance (another graph object,
    semantics, topic or budget), so consecutive checks of one instance share
    its value tables. `fn` and `cfg.seed` are not part of the instance: a
    game serves every function, and the seed only steers sampling."""
    principle = principle_from_name(principle)
    if not callable(fn) and fn not in FUNCTION_IDS:
        raise _unknown_function(fn)
    if principle is Principle.STABILITY:
        return check_stability(sem, g)
    cfg = cfg or SearchConfig()
    if principle is Principle.CTRB_GENERALIZATION:
        pair = (SINGLE_FOR_SET.get(fn, SingleKind.REMOVAL), fn)
        return check_generalization(pair, g, sem, cfg=cfg)
    if a is None:
        raise ValueError(f"principle {principle.value} needs a topic argument")
    sem = semantics_from_spec(sem)
    game = getattr(_last, "game", None)
    if game is None or not (game.graph is g and game.semantics == sem
                            and game.topic == a and game.budget == cfg.budget):
        game = _last.game = CoalitionGame(g, sem, a, cfg.budget)
    return _CHECKERS[principle](principle, fn, game, cfg)


def search_counterexample(
    principle, fn, sem, cfg: SearchConfig | None = None,
) -> PrincipleVerdict:
    """Hunt for a violation over random graphs and shrink the first hit."""
    cfg = cfg or SearchConfig()
    principle = principle_from_name(principle)
    # run_check ignores the topic of these two, so they are checked once per graph
    whole_graph = principle in (Principle.STABILITY, Principle.CTRB_GENERALIZATION)

    def violated_on(g: Qbag) -> PrincipleVerdict | None:
        for topic in [None] if whole_graph else sorted(g.arguments):
            verdict = run_check(principle, fn, g, sem, topic, cfg=cfg)
            if verdict.violated:
                return verdict
        return None

    def shrink(g: Qbag, verdict: PrincipleVerdict, smaller_graphs):
        """Take the first smaller graph that is still violated until none is."""
        improved = True
        while improved:
            improved = False
            for smaller in smaller_graphs(g):
                v2 = violated_on(smaller)
                if v2 is not None:
                    g, verdict, improved = smaller, v2, True
                    break
        return g, verdict

    for examined, g in enumerate(random_corpus(cfg), 1):
        verdict = violated_on(g)
        if verdict is None:
            continue
        # Shrink: drop arguments, then edges, while the violation persists.
        g, verdict = shrink(g, verdict, lambda h: (
            restrict(h, h.arguments - {x}) for x in sorted(h.arguments)
            if len(h.arguments) > 2))
        g, verdict = shrink(g, verdict, lambda h: (
            Qbag(h.arguments, h.attacks - {e}, h.supports - {e}, h.initial_strength)
            for e in [*sorted(h.attacks), *sorted(h.supports)]))
        return PrincipleVerdict(
            verdict.principle, verdict.status, verdict.witness,
            checked=verdict.checked + examined,
        )
    return PrincipleVerdict(
        principle, Status.INCONCLUSIVE,
        witness=Witness(
            topic=None, sets=(), values={},
            note=f"no violation in {cfg.random_graphs} random graphs (seed {cfg.seed})",
        ),
        checked=cfg.random_graphs,
    )


# --- the verdict matrix -----------------------------------------------------------


def _per_sem(value: bool) -> dict[str, bool]:
    return {name: value for name in PRESET_NAMES}


#: expected satisfaction pattern; True = satisfied, False = violated
EXPECTED_VERDICTS: dict[Principle, dict[str, dict[str, bool]]] = {
    Principle.CONTRIBUTION_EXISTENCE: {
        "removal": _per_sem(True),
        "intrinsic": _per_sem(True),
        "shapley": _per_sem(True),
        "gradient-max": {"QE": True, "DFQuAD": False, "SD-DFQuAD": False,
                         "EB": True, "EBT": False},
    },
    Principle.QUANTITATIVE_CONTRIBUTION_EXISTENCE: {
        fn: _per_sem(False) for fn in SET_FUNCTION_IDS
    },
    Principle.DIRECTIONALITY: {fn: _per_sem(True) for fn in SET_FUNCTION_IDS},
    Principle.COUNTERFACTUALITY: {
        "removal": _per_sem(True),
        "intrinsic": _per_sem(False),
        "shapley": _per_sem(False),
        "gradient-max": _per_sem(False),
    },
    Principle.QUANTITATIVE_COUNTERFACTUALITY: {
        "removal": _per_sem(True),
        "intrinsic": _per_sem(False),
        "shapley": _per_sem(False),
        "gradient-max": _per_sem(False),
    },
    Principle.WEAK_QUANTITATIVE_CONTRIBUTION_EXISTENCE: {
        "removal": _per_sem(True),
        "intrinsic": _per_sem(True),
        "shapley": _per_sem(True),
        "gradient-max": _per_sem(False),
    },
    Principle.CONSISTENCY: {
        "removal": _per_sem(False),
        "intrinsic": _per_sem(False),
        "shapley": _per_sem(False),
        "gradient-max": _per_sem(True),
    },
    Principle.MONOTONICITY: {
        "removal": _per_sem(False),
        "intrinsic": _per_sem(False),
        "shapley": _per_sem(False),
        "gradient-max": _per_sem(True),
    },
}

_CF_INTRINSIC_FIXTURE = {"QE": "figA1", "DFQuAD": "figA1", "SD-DFQuAD": "figA1",
                         "EB": "figA2", "EBT": "figA3"}
_CF_SHAPLEY_FIXTURE = {"QE": "figA4", "DFQuAD": "figA5", "SD-DFQuAD": "figA6",
                       "EB": "figA7", "EBT": "figA8"}
_CF_GRADIENT_FIXTURE = {"QE": ("figA9", "a"), "DFQuAD": ("figA10", "a"),
                        "SD-DFQuAD": ("figA11", "a"), "EB": ("figA12", "b"),
                        "EBT": ("figA12", "b")}


def violation_fixture(principle: Principle, fn: str, sem_name: str):
    """(fixture id, topic) designated to witness an expected violation."""
    if principle is Principle.CONTRIBUTION_EXISTENCE:
        return "fig3", "a"
    if principle is Principle.QUANTITATIVE_CONTRIBUTION_EXISTENCE:
        return ("fig4", "a") if fn == "shapley" else ("fig3", "a")
    if principle in (Principle.COUNTERFACTUALITY,
                     Principle.QUANTITATIVE_COUNTERFACTUALITY):
        if fn == "intrinsic":
            return _CF_INTRINSIC_FIXTURE[sem_name], "a"
        if fn == "shapley":
            return _CF_SHAPLEY_FIXTURE[sem_name], "a"
        return _CF_GRADIENT_FIXTURE[sem_name]
    if principle is Principle.WEAK_QUANTITATIVE_CONTRIBUTION_EXISTENCE:
        return "fig5", "a"
    if principle is Principle.CONSISTENCY:
        slug = next(s for s, name in SEMANTICS_SLUGS.items() if name == sem_name)
        return (f"fig6-shapley-{slug}" if fn == "shapley" else f"fig6-{slug}"), "a"
    if principle is Principle.MONOTONICITY:
        return "fig7", "a"
    raise ValueError(f"no designated violation fixture for {principle.value}")


@dataclass(frozen=True)
class MatrixCell:
    fn: str
    semantics: str
    principle: Principle
    expected_satisfied: bool
    status: str  # PASS | VIOLATION-REPRODUCED | MISMATCH
    fixture: str | None = None
    witness: Witness | None = None
    checked: int = 0

    @property
    def ok(self) -> bool:
        return self.status != "MISMATCH"


@dataclass(frozen=True)
class MatrixReport:
    cells: tuple[MatrixCell, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cells)

    def mismatches(self) -> list[MatrixCell]:
        return [c for c in self.cells if not c.ok]


def topics_of(g: Qbag) -> list[str]:
    if len(g.arguments) <= 8:
        return sorted(g.arguments)
    with_out = {src for ps in g.parents.values() for src, _ in ps}
    return sorted(g.arguments - with_out)


def run_matrix(cfg: SearchConfig | None = None) -> MatrixReport:
    """Check every (function, semantics, principle) cell against the expected
    pattern: expected violations must reproduce on their designated fixture,
    expected satisfactions must survive the bundled fixtures plus the seeded
    random corpus of `cfg` without a counterexample. Each instance gets one
    game, shared by the cells still open under its preset and then dropped."""
    cfg = cfg or SearchConfig()
    corpus = [(k, FIXTURES[k]) for k in sorted(FIXTURES)]
    corpus += [(None, g) for g in random_corpus(cfg)]
    instances = [(k, g, topic) for k, g in corpus for topic in topics_of(g)]
    cells: dict[tuple[Principle, str, str], MatrixCell] = {}
    for sem_name in PRESET_NAMES:
        checked: dict[tuple[Principle, str], int] = {}  # open expected satisfactions
        due: dict[tuple[str, str], list] = {}  # (fixture id, topic): its expected violations
        for cell in itertools.product(TABLE_PRINCIPLES, SET_FUNCTION_IDS):
            if EXPECTED_VERDICTS[cell[0]][cell[1]][sem_name]:
                checked[cell] = 0
            else:
                due.setdefault(violation_fixture(*cell, sem_name), []).append(cell)
        for fixture_id, g, topic in instances:
            game = CoalitionGame(g, sem_name, topic, cfg.budget)
            for principle, fn in due.pop((fixture_id, topic), ()):
                verdict = _CHECKERS[principle](principle, fn, game, cfg)
                status = "VIOLATION-REPRODUCED" if verdict.violated else "MISMATCH"
                cells[principle, fn, sem_name] = MatrixCell(
                    fn, sem_name, principle, False, status, fixture_id,
                    verdict.witness, verdict.checked)
            for principle, fn in list(checked):
                verdict = _CHECKERS[principle](principle, fn, game, cfg)
                checked[principle, fn] += verdict.checked
                if verdict.violated:  # the cell closes on its first counterexample
                    cells[principle, fn, sem_name] = MatrixCell(
                        fn, sem_name, principle, True, "MISMATCH",
                        witness=verdict.witness, checked=checked.pop((principle, fn)))
        for (principle, fn), count in checked.items():
            cells[principle, fn, sem_name] = MatrixCell(
                fn, sem_name, principle, True, "PASS", checked=count)
    return MatrixReport(tuple(cells[key] for key in itertools.product(
        TABLE_PRINCIPLES, SET_FUNCTION_IDS, PRESET_NAMES)))
