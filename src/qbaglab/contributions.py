"""Contribution functions: how much does a set of arguments (or a single
argument) contribute to a topic's final strength?

Four set functions are provided:

* removal: final strength as-is minus final strength with the set removed.
* intrinsic removal: like removal, but the minuend is computed on a graph
  where edges entering the set from outside were detached first, which
  controls for upstream influence on the contributors themselves.
* shapley: average marginal removal effect over coalitions, where the set
  acts as one player and every remaining argument is a singleton player.
* gradient: partial derivative of the topic's final strength with respect
  to each member's initial strength, combined with max (or min / max-abs).

plus the partition variant of the Shapley function, where the players are
the blocks of a caller-supplied partition of all non-topic arguments.

All of them read one coalition game, `CoalitionGame`: v(S) is the topic's
final strength once coalition S is removed (or detached). It compiles the
topic's ancestor cone from the graph's plan once and memoises v by bitmask,
so a caller asking several questions about one (graph, semantics, topic)
shares one game, and `with_strengths` reuses the cone for new strengths.
Inside the game a set of arguments is one int, so a contributor set's
member mask is also its coalition, and `table(fn)` holds the values of one
set function by mask; names appear only where a method takes them.
Shapley drops the null players, those outside the cone: exact (partition)
Shapley enumerates the 2^(k+1) coalitions of the k players left in
Gray-code order, and Monte-Carlo Shapley draws coalitions of those k
players (one u uniform in [0, 1), then each player joins with probability
u) and sorts the distinct ones in cone order. One walk evaluates either
list, recomputing only the cone nodes where a coalition differs from the
previous evaluation.

The single-argument functions are implemented independently of the set
functions on purpose: agreement between `single_contribution(kind, ...)`
and the matching set function on a singleton is a meaningful cross-check,
not a tautology.
"""

from __future__ import annotations

import copy
import itertools
import math
import random
import weakref
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    BudgetError,
    ContributorError,
    TopicInSetError,
    UnknownArgumentError,
)
from .graph import Qbag, _require_known, _strength, _with_tau, detach_incoming, restrict
from .semantics import (
    Semantics,
    dual_pass,
    evaluate,
    evaluate_dual,
    node_steps,
    semantics_from_spec,
)

DEFAULT_BUDGET = 2 ** 20
SIGN_TOL = 1e-9


def sign(value: float) -> int:
    if value > SIGN_TOL:
        return 1
    if value < -SIGN_TOL:
        return -1
    return 0


class Psi(str, Enum):
    """How to combine the member gradients of a set contributor."""

    MAX = "max"
    MIN = "min"
    MAXABS = "maxabs"


@dataclass(frozen=True)
class ContributionResult:
    value: float
    function: str
    semantics: str
    members: tuple[str, ...]
    topic: str
    evaluations: int
    std_error: float | None = None


@dataclass(frozen=True)
class Partition:
    """Pairwise-disjoint non-empty blocks, normally covering all non-topic
    arguments."""

    blocks: tuple[frozenset, ...]

    def __post_init__(self):
        blocks = tuple(frozenset(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if any(not b for b in blocks):
            raise ContributorError("partition blocks must be non-empty")
        total = sum(len(b) for b in blocks)
        union = frozenset().union(*blocks) if blocks else frozenset()
        if total != len(union):
            raise ContributorError("partition blocks must be pairwise disjoint")


def _result(value, function, sem, members, topic, evaluations, std_error=None):
    return ContributionResult(
        value=value,
        function=function,
        semantics=sem.label(),
        members=tuple(sorted(members)),
        topic=topic,
        evaluations=evaluations,
        std_error=std_error,
    )


# --- the coalition game ---------------------------------------------------------


class CoalitionGame:
    """v(S) for one (graph, semantics, topic): the topic's final strength once
    coalition S is removed, or once the edges entering S from outside are
    detached. Every set contribution function is read from this game.

    A set of arguments is one int: bit i is `players[i]` (the non-topic
    arguments, sorted) and bit `len(players)` the topic. So a contributor
    set's *member mask* is also its coalition, and `names(m)` gives it back
    as sorted names. The graph's plan is compiled once, on first use, into
    the *cone*: the mask of the topic and its ancestors, and its nodes in
    plan order (the topic last), each with its parents as (bit, polarity)
    pairs. The initial strengths are a separate list by bit, so a game from
    `with_strengths` shares the cone. Arguments outside the cone cannot move
    the topic, so callers pass `m & cone` to `value()` and coalitions that
    differ only in them share one memo entry. A node update is the
    semantics' compiled value step and a dual pass runs its dual step over
    the cone (`node_steps`). `computed` counts the distinct strength
    evaluations and dual passes this game has made. `set_value(fn, m)`
    computes the set function `fn` of member mask `m` from those memos;
    `table(fn)` is the one store of its values, each kept when first read.
    The methods that take names (`removal`, ...) validate them.

    Exact and Monte-Carlo Shapley read one list of players, `_others`,
    without those outside the cone (null players: their marginal
    contribution is always 0). Exact Shapley raises `BudgetError` when the
    2^(k+1) coalitions of the k players left and the set exceed
    `budget`; a set outside the cone is worth 0. It fills the memo in one
    Gray-code walk over those coalitions, then sums in the order of
    itertools.combinations, so a game with no null players gives the plain
    enumeration's value bit for bit. Monte-Carlo Shapley walks the distinct
    coalitions drawn, in cone order. `node_updates` counts the cone nodes
    recomputed.
    """

    def __init__(self, g: Qbag, sem, topic: str, budget: int = DEFAULT_BUDGET):
        self.graph = g
        #: the graph whose arguments and edges the game is played on
        self._edges = g
        self.semantics = semantics_from_spec(sem)
        self._steps = node_steps(self.semantics)
        self.topic = topic
        self.budget = budget
        #: the non-topic arguments, sorted; bit i of a mask is players[i], the topic's is last
        self.players = tuple(sorted(g.arguments - {topic}))
        self._index = {a: i for i, a in enumerate((*self.players, topic))}
        self._clear()

    def _clear(self) -> None:
        self._values: dict[int, float] = {}
        self._duals: dict[str, float] = {}
        self._tables: dict[object, dict[int, float]] = {}
        self._walked: set[frozenset] = set()
        self.computed = 0
        self.node_updates = 0

    @cached_property
    def _cone(self) -> tuple[int, list[tuple[int, tuple]]]:
        """(cone mask; (bit, parents as (bit, polarity)) per cone node in plan
        order, the topic last)."""
        order, parents = self._edges.plan
        if self.topic not in order:
            raise UnknownArgumentError([self.topic])
        t = order.index(self.topic)
        inside = [False] * t + [True]
        for i in range(t, -1, -1):  # the topic's ancestors, sinks first
            if inside[i]:
                for j, _ in parents[i]:
                    inside[j] = True
        bit = [self._index[a] for a in order]
        nodes = [(bit[i], tuple([(bit[j], pol) for j, pol in parents[i]]))
                 for i in range(t + 1) if inside[i]]
        return sum(1 << b for b, _ in nodes), nodes

    @cached_property
    def _tau(self) -> list[float]:
        """The initial strengths by bit."""
        return [self.graph.initial_strength[a] for a in self._index]

    @cached_property
    def graph(self) -> Qbag:
        """The graph; a game from `with_strengths` builds it when first read."""
        return _with_tau(self._edges, dict(zip(self._index, self._tau)))

    def with_strengths(self, tau: Mapping[str, float]) -> CoalitionGame:
        """This game over the initial strengths `tau` (id -> strength) swapped
        in: it shares the compiled cone and starts with empty memos."""
        self._cone  # compiled here, once for every game over these edges
        game = copy.copy(self)
        game._tau = list(self._tau)
        for a, w in tau.items():
            if a not in self._index:
                raise UnknownArgumentError([a])
            game._tau[self._index[a]] = _strength(a, w)
        game.__dict__.pop("graph", None)
        game._clear()
        return game

    def names(self, m: int) -> tuple[str, ...]:
        """The players in member mask `m`, sorted; one step per member."""
        out = []
        while m:
            low = m & -m
            out.append(self.players[low.bit_length() - 1])
            m ^= low
        return tuple(out)

    def _member_mask(self, members: Iterable[str]) -> int:
        """The member mask of `members`; every name known, the topic not one."""
        members = frozenset(members)
        _require_known(self._edges, members | {self.topic})
        if self.topic in members:
            raise TopicInSetError(
                f"topic {self.topic!r} must not be part of the contributor set")
        return sum(1 << self._index[x] for x in members)

    def mask(self, args: Iterable[str]) -> int:
        """The cone bits of the arguments `args`, each one in the graph."""
        out = 0
        try:
            for a in args:
                out |= 1 << self._index[a]
        except KeyError as exc:
            raise UnknownArgumentError(exc.args) from None
        return out & self._cone[0]

    def _others(self, m: int) -> list[int]:
        """The bits of the cone players outside member mask `m`, in name
        order: the Shapley players that are not null."""
        free = self._cone[0] & ~m
        return [1 << i for i in range(len(self.players)) if free >> i & 1]

    def _update(self, vals: list[float], start: int, removed: int, detached: int = 0) -> float:
        """Recompute, in `vals` by bit, the strengths of the cone nodes from
        position `start` of their order on for the coalition (`removed`,
        `detached`) and return the topic's; the nodes before hold them already."""
        nodes, step, tau = self._cone[1], self._steps[0], self._tau
        self.node_updates += len(nodes) - start
        for b, parents in nodes[start:]:
            if removed >> b & 1:
                vals[b] = 0.0  # never read: every edge out of it is cut
                continue
            vals[b] = step(tau[b], parents, vals,
                           removed | ~detached if detached >> b & 1 else removed)
        return vals[-1]

    def value(self, removed: int = 0, detached: int = 0) -> float:
        """Topic strength with the `removed` coalition deleted and the edges
        entering the `detached` coalition from outside cut (both masks)."""
        n = len(self.players) + 1
        key = removed | detached << n
        hit = self._values.get(key)
        if hit is None:
            hit = self._values[key] = self._update([0.0] * n, 0, removed, detached)
            self.computed += 1
        return hit

    def _key(self, m: int) -> int:
        """The cone-order key of mask `m`: one bit per cone node in it, the earliest highest."""
        nodes = self._cone[1]
        top = len(nodes) - 1
        return sum(1 << top - i for i, (b, _) in enumerate(nodes) if m >> b & 1)

    def _walk(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Memoise v(S) for the (`_key(S)`, S) pairs in their order. A miss
        recomputes only the cone nodes from the first one in which S differs
        from the last coalition computed; a coalition the memo holds is
        skipped."""
        values, top = self._values, len(self._cone[1])
        vals = [0.0] * (len(self.players) + 1)
        last = 1 << top  # nothing computed yet: the first miss starts at node 0
        for key, s in pairs:
            if s not in values:
                values[s] = self._update(vals, max(0, top - (key ^ last).bit_length()), s)
                self.computed += 1
                last = key

    def _fill(self, players: Sequence[int]) -> None:
        """Memoise v(S) for every coalition S of `players` (disjoint non-zero
        cone masks) in one `_walk` in Gray-code order; the player whose first
        cone node comes latest flips most often. A set of players walked in
        full before is skipped: the memo holds its coalitions already. A walk
        that raised is not marked, so the next call walks it again."""
        walk = frozenset(players)
        if walk in self._walked:
            return
        keyed = sorted((self._key(p), p) for p in players)

        def gray():
            key = removed = 0
            yield key, removed
            for t in range(1, 1 << len(keyed)):
                k, p = keyed[(t & -t).bit_length() - 1]
                key, removed = key ^ k, removed ^ p
                yield key, removed

        self._walk(gray())
        self._walked.add(walk)

    def dual(self, x: str) -> float:
        """d(topic strength) / d(tau(x)), one forward-mode pass over the cone
        per member."""
        hit = self._duals.get(x)
        if hit is None:
            ds = dual_pass(self._steps, self._cone[1], self._tau, self._index[x], len(self._index))[1]
            hit = self._duals[x] = ds[-1]
            self.computed += 1
        return hit

    def _exact_shapley(self, member_mask: int, players: Sequence[int]) -> float:
        """Shapley value of the player `member_mask` against `players` (non-zero
        cone masks), summed in itertools.combinations order."""
        if not member_mask:
            return 0.0
        n = len(players)
        needed = 2 ** (n + 1)
        if needed > self.budget:
            raise BudgetError(needed, self.budget)
        self._fill([*players, member_mask])
        values = self._values
        value = 0.0
        denom = math.factorial(n + 1)
        for r in range(n + 1):
            weight = math.factorial(r) * math.factorial(n - r) / denom
            for combo in itertools.combinations(players, r):
                coalition = sum(combo)
                value += weight * (values[coalition] - values[coalition | member_mask])
        return value

    def table(self, fn) -> dict[int, float]:
        """The values of the set function `fn` (see `set_value`) by member
        mask: a dict that computes and keeps a value when first read."""
        table = self._tables.get(fn)
        if table is None:
            table = self._tables[fn] = _Table()
            table.game, table.fn = weakref.proxy(self), fn  # weak: no game-table cycle
        return table

    def set_value(self, fn, m: int) -> float:
        """S(X)(topic) for the contributor set X with member mask `m`,
        computed, not kept (`table(fn)` keeps values). `fn` is an id from
        FUNCTION_IDS, or a callable (g, sem, members, topic) -> float for
        negative-control experiments, given X as a frozenset of names. `m`
        is not validated: the methods that take names do that."""
        if callable(fn):
            return fn(self.graph, self.semantics, frozenset(self.names(m)), self.topic)
        if fn in _GRADIENT_PSI:
            if not m:
                raise ContributorError(
                    "gradient-based contribution of the empty set is undefined "
                    "(nothing to aggregate)"
                )
            # over the member duals in bit order: of tied values the first is kept
            psi, duals = _GRADIENT_PSI[fn], map(self.dual, self.names(m))
            if psi is Psi.MIN:
                return min(duals)
            return max(map(abs, duals) if psi is Psi.MAXABS else duals)
        if fn == "removal":
            return self.value() - self.value(m & self._cone[0])
        if fn == "intrinsic":
            cone = m & self._cone[0]
            return self.value(detached=cone) - self.value(cone)
        if fn == "shapley":
            return self._exact_shapley(m & self._cone[0], self._others(m))
        raise _unknown_function(fn)

    def _result(self, value, function, m, start, std_error=None):
        return _result(value, function, self.semantics, self.names(m), self.topic,
                       self.computed - start, std_error)

    def contribution(self, fn_id: str, members: Iterable[str]) -> ContributionResult:
        """The set function named `fn_id` (one of FUNCTION_IDS) of the set
        `members`; Shapley is exact."""
        if fn_id not in FUNCTION_IDS:
            raise _unknown_function(fn_id)
        m = self._member_mask(members)
        start = self.computed
        return self._result(self.set_value(fn_id, m), fn_id, m, start)

    def removal(self, members: Iterable[str]) -> ContributionResult:
        return self.contribution("removal", members)

    def intrinsic(self, members: Iterable[str]) -> ContributionResult:
        return self.contribution("intrinsic", members)

    def gradient(self, members: Iterable[str], psi: Psi = Psi.MAX) -> ContributionResult:
        return self.contribution(f"gradient-{psi.value}", members)

    def shapley(
        self, members: Iterable[str], monte_carlo: bool = False,
        samples: int = 20_000, seed: int = 0,
    ) -> ContributionResult:
        """The set acts as one Shapley player; all other non-topic arguments
        are singleton players. Exact enumeration by default, which raises
        `BudgetError` rather than fall back to sampling; `monte_carlo=True`
        always estimates from `samples` (at least 1) seeded draws instead,
        even when enumerating would take fewer evaluations.

        A draw is a coalition S of the k non-null players (Owen's
        multilinear extension): u = random(), then each player of
        `_others` joins, in that order, when random() < u. random() returns
        multiples of 2^-53, so a player joins with probability exactly u,
        and S has its Shapley weight, the integral over u of
        u^|S| (1-u)^(k-|S|), which is |S|!(k-|S|)!/(k+1)!. The draws are
        tallied by coalition, the distinct S and S + set are evaluated in
        one `_walk` in cone order, and the mean and `std_error` are summed
        from the (marginal v(S) - v(S + set), count) pairs in draw order."""
        if not monte_carlo:
            return self.contribution("shapley", members)
        if samples < 1:
            raise ContributorError(f"Monte-Carlo Shapley needs at least 1 sample, got {samples}")
        m = self._member_mask(members)
        start = self.computed
        if not m:
            return self._result(0.0, "shapley", m, start)
        member_mask = m & self._cone[0]
        players = self._others(m)
        draw = random.Random(seed).random
        tally: dict[int, int] = {}
        for _ in range(samples):
            u = draw()
            coalition = 0
            for p in players:
                if draw() < u:
                    coalition += p
            tally[coalition] = tally.get(coalition, 0) + 1
        keys = [(p, self._key(p)) for p in players]
        member_key, pairs = self._key(member_mask), []
        for c in tally:
            key = sum([k for p, k in keys if c & p])
            pairs += (key, c), (key | member_key, c | member_mask)
        self._walk(sorted(pairs))
        values = self._values
        marginals = [(values[c] - values[c | member_mask], n) for c, n in tally.items()]
        # shifted by one drawn marginal, so a constant marginal has exactly 0 spread
        first = marginals[0][0]
        value = first + math.fsum(n * (d - first) for d, n in marginals) / samples
        err = None
        if samples > 1:
            var = math.fsum(n * (d - value) ** 2 for d, n in marginals) / (samples - 1)
            err = math.sqrt(var) / math.sqrt(samples)
        return self._result(value, "shapley", m, start, std_error=err)

    def partition_shapley(
        self, members: Iterable[str], partition: Iterable[Iterable[str]],
    ) -> ContributionResult:
        """Shapley value of the block `members` in the game whose players are
        the blocks of `partition` (which must partition all non-topic
        arguments)."""
        m = self._member_mask(members)
        members = frozenset(self.names(m))
        blocks = Partition(tuple(partition)).blocks
        if members not in blocks:
            raise ContributorError("the contributor set must be one of the partition blocks")
        if frozenset().union(*blocks) != self._edges.arguments - {self.topic}:
            raise ContributorError("partition blocks must cover exactly the non-topic arguments")
        start = self.computed
        others = sorted((b for b in blocks if b != members), key=sorted)
        value = self._exact_shapley(m & self._cone[0], [p for p in map(self.mask, others) if p])
        return self._result(value, "partition-shapley", m, start)


class _Table(dict):
    """One function's values in one game, by member mask; a miss computes
    the value through `CoalitionGame.set_value` and keeps it. The table
    holds a weak proxy of its game, so it cannot compute once the game is
    gone (`ReferenceError`)."""

    __slots__ = ("game", "fn")

    def __missing__(self, m: int) -> float:
        hit = self[m] = self.game.set_value(self.fn, m)
        return hit


def _unknown_function(fn_id) -> ContributorError:
    return ContributorError(
        f"unknown contribution function {fn_id!r}; known: {', '.join(FUNCTION_IDS)}")


# --- set contribution functions ----------------------------------------------
# Each call compiles its own game; callers that ask several questions about
# one (graph, semantics, topic) share a CoalitionGame instead.


def removal(g: Qbag, sem: Semantics, members: Iterable[str], topic: str) -> ContributionResult:
    """sigma(topic) minus sigma(topic) after removing the whole set."""
    return CoalitionGame(g, sem, topic).removal(members)


def intrinsic_removal(
    g: Qbag, sem: Semantics, members: Iterable[str], topic: str,
) -> ContributionResult:
    return CoalitionGame(g, sem, topic).intrinsic(members)


def gradient(
    g: Qbag, sem: Semantics, members: Iterable[str], topic: str,
    psi: Psi = Psi.MAX,
) -> ContributionResult:
    return CoalitionGame(g, sem, topic).gradient(members, psi)


def shapley(
    g: Qbag, sem: Semantics, members: Iterable[str], topic: str,
    budget: int = DEFAULT_BUDGET,
    monte_carlo: bool = False,
    samples: int = 20_000,
    seed: int = 0,
) -> ContributionResult:
    """Set Shapley value of `members` toward `topic`; see CoalitionGame.shapley."""
    return CoalitionGame(g, sem, topic, budget).shapley(
        members, monte_carlo=monte_carlo, samples=samples, seed=seed)


def partition_shapley(
    g: Qbag, sem: Semantics, members: Iterable[str],
    partition: Iterable[Iterable[str]], topic: str,
    budget: int = DEFAULT_BUDGET,
) -> ContributionResult:
    """Shapley value of the block `members` among the blocks of `partition`."""
    return CoalitionGame(g, sem, topic, budget).partition_shapley(members, partition)


# --- a uniform way to call set functions by id --------------------------------

FUNCTION_IDS = (
    "removal",
    "intrinsic",
    "shapley",
    "gradient-max",
    "gradient-min",
    "gradient-maxabs",
)

_GRADIENT_PSI = {
    "gradient-max": Psi.MAX,
    "gradient-min": Psi.MIN,
    "gradient-maxabs": Psi.MAXABS,
}


def apply_set_function(
    fn_id: str, g: Qbag, sem: Semantics, members: Iterable[str], topic: str,
    budget: int = DEFAULT_BUDGET,
) -> ContributionResult:
    return CoalitionGame(g, sem, topic, budget).contribution(fn_id, members)


# --- single-argument functions (independent implementations) -------------------


class SingleKind(str, Enum):
    REMOVAL = "removal"
    INTRINSIC_REMOVAL = "intrinsic"
    SHAPLEY = "shapley"
    GRADIENT = "gradient"


#: the single-argument kind each set function is compared with on singleton
#: contributor sets (the generalization principle)
SINGLE_FOR_SET = {
    "removal": SingleKind.REMOVAL,
    "intrinsic": SingleKind.INTRINSIC_REMOVAL,
    "shapley": SingleKind.SHAPLEY,
    "gradient-max": SingleKind.GRADIENT,
    "gradient-min": SingleKind.GRADIENT,
    "gradient-maxabs": SingleKind.GRADIENT,
}


def single_contribution(
    kind: SingleKind, g: Qbag, sem: Semantics, x: str, topic: str,
    budget: int = DEFAULT_BUDGET,
) -> ContributionResult:
    sem = semantics_from_spec(sem)
    _require_known(g, (x, topic))
    if x == topic:
        raise ContributorError("contributor and topic must differ")
    kind = SingleKind(kind)

    if kind is SingleKind.REMOVAL:
        value = (
            evaluate(g, sem)[topic]
            - evaluate(restrict(g, g.arguments - {x}), sem)[topic]
        )
        return _result(value, "single-removal", sem, {x}, topic, 2)

    if kind is SingleKind.INTRINSIC_REMOVAL:
        value = (
            evaluate(detach_incoming(g, {x}), sem)[topic]
            - evaluate(restrict(g, g.arguments - {x}), sem)[topic]
        )
        return _result(value, "single-intrinsic", sem, {x}, topic, 2)

    if kind is SingleKind.GRADIENT:
        value = evaluate_dual(g, sem, x)[topic].deriv
        return _result(value, "single-gradient", sem, {x}, topic, 1)

    # Shapley over coalitions of all other non-topic arguments
    others = sorted(g.arguments - {x, topic})
    n = len(g.arguments - {topic})
    needed = 2 ** (len(others) + 1)
    if needed > budget:
        raise BudgetError(needed, budget)
    value = 0.0  # no memo: each of the `needed` coalitions comes up once
    for r in range(len(others) + 1):
        weight = math.factorial(r) * math.factorial(n - r - 1) / math.factorial(n)
        for combo in itertools.combinations(others, r):
            kept = g.arguments.difference(combo)
            value += weight * (evaluate(restrict(g, kept), sem)[topic]
                               - evaluate(restrict(g, kept - {x}), sem)[topic])
    return _result(value, "single-shapley", sem, {x}, topic, needed)


# --- sign maps -----------------------------------------------------------------


@dataclass(frozen=True)
class SignMap:
    sweep: tuple[str, str]
    step: float
    labels: tuple[str, ...]
    rows: tuple[tuple[float, float, tuple[int, ...]], ...]

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["eps1", "eps2", *self.labels])
        for e1, e2, signs in self.rows:
            writer.writerow([f"{e1:g}", f"{e2:g}", *signs])
        return buf.getvalue()


def sign_map(
    g: Qbag, sem: Semantics, topic: str,
    contributor_sets: Sequence[Iterable[str]],
    sweep: tuple[str, str],
    step: float = 0.05,
    function: str = "removal",
) -> SignMap:
    """Sweep two arguments' initial strengths over a grid and record the sign
    of each listed set contribution at every grid point."""
    sem = semantics_from_spec(sem)
    x1, x2 = sweep
    if x1 == x2:
        raise ContributorError("sweep arguments must be distinct")
    if topic in (x1, x2):
        raise ContributorError("sweep arguments must differ from the topic")
    _require_known(g, (x1, x2, topic))
    if not (0.0 < step <= 0.5):
        raise ContributorError(f"grid step must be in (0, 0.5], got {step}")
    # every grid point has the same edges: one compiled game serves all, and
    # each point swaps in its two strengths
    base = CoalitionGame(g, sem, topic)
    masks = [base._member_mask(s) for s in contributor_sets]
    labels = tuple(",".join(base.names(m)) for m in masks)

    grid = []
    i = 0
    while i * step <= 1.0 + 1e-9:
        grid.append(min(1.0, i * step))
        i += 1

    rows = []
    for e1 in grid:
        for e2 in grid:
            game = base.with_strengths({x1: e1, x2: e2})
            signs = tuple(sign(game.set_value(function, m)) for m in masks)
            rows.append((e1, e2, signs))
    return SignMap(sweep=(x1, x2), step=step, labels=labels, rows=tuple(rows))
