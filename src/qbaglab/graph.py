"""Quantitative bipolar argumentation graphs as immutable values.

A graph couples a finite argument set with two disjoint edge relations
(attacks and supports) and an initial strength in [0, 1] per argument.
All surgery operations (restriction, edge detachment, strength updates)
return fresh graphs; nothing here mutates. A graph is hashable, and equal
graphs hash alike. The builders reject a strength outside [0, 1] or NaN
(StrengthRangeError); the raw `Qbag(...)` constructor checks nothing, so
that `validate` can report every breach at once.

This module is the one place that reads adjacency off the edge sets, once
per edge structure. The evaluators and the coalition game walk a graph's
`plan`: its arguments in a topological order and, per position, the
parents as (position, polarity) pairs in parent-id order. A graph built
from edges compiles it on first use from `parents` (sorted (id, polarity)
pairs per argument) and `order` (its `topological_order`), and keeps both,
so each is derived once per graph. One helper, `_inherit`, decides how a
derived graph borrows its source's plan: a strength-only copy shares it,
with what the source holds of `parents` and `order`; a `restrict` or
`detach_incoming` child filters it, with no `parents` and no Kahn (it
derives its own `parents` or `order` only if read). Filtering takes one
pass over the plan, since a parent precedes its children in a topological
order. Where the source's plan cannot compile (a dangling edge, a cycle), a
copy or child compiles its own when read, and so raises only when it is
evaluated, not when it is made. A child's plan order is its parent's,
filtered, not always the child's own `order`: `evaluate`'s dict iterates in
plan order, and every consumer reads it by key or sorts it. An edge whose
endpoint is not an argument raises `UnknownArgumentError` when `parents` or
the plan is first read; `validate` reports it with every other breach.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    CycleError,
    GraphFormatError,
    StrengthRangeError,
    UnknownArgumentError,
)

ArgumentId = str
Edge = tuple[ArgumentId, ArgumentId]


class Plan(NamedTuple):
    """A graph's arguments in a topological `order`, and per position in it
    the argument's `parents` as (position, polarity) pairs in parent-id
    order: all an evaluator needs besides the strengths."""

    order: tuple[ArgumentId, ...]
    parents: tuple[tuple[tuple[int, int], ...], ...]

    # tuples are built from lists: a tuple grown from a generator is freed
    # onto a free list that exact-size tuples never take from, and over many
    # restricts those lists came to hold megabytes
    def restricted(self, keep: frozenset) -> Plan:
        """The plan of the subgraph induced by `keep`, this one if it keeps all.
        One pass: a parent precedes its children in the order, so a kept
        parent has its new position before any child reads it."""
        order, parents = self
        if len(keep) == len(order):  # `keep` holds only arguments
            return self
        new = [-1] * len(order)  # old position -> new, -1 if dropped
        kept, kept_parents = [], []
        for i, a in enumerate(order):
            if a in keep:
                new[i] = len(kept)
                kept.append(a)
                kept_parents.append(tuple([(new[j], pol) for j, pol in parents[i] if new[j] >= 0]))
        return Plan(tuple(kept), tuple(kept_parents))

    def detached(self, x_set: frozenset) -> Plan:
        """The plan with every edge entering `x_set` from outside cut."""
        inside = [a in x_set for a in self.order]
        return Plan(self.order, tuple([
            tuple([p for p in ps if inside[p[0]]]) if inside[i] else ps
            for i, ps in enumerate(self.parents)]))


@dataclass(frozen=True)
class Qbag:
    arguments: frozenset[ArgumentId]
    attacks: frozenset[Edge]
    supports: frozenset[Edge]
    initial_strength: Mapping[ArgumentId, float]

    def __post_init__(self):
        # a read-only view of a private copy, so the graph cannot change
        object.__setattr__(self, "initial_strength",
                           MappingProxyType(dict(self.initial_strength)))

    def __hash__(self) -> int:
        return hash((self.arguments, self.attacks, self.supports,
                     frozenset(self.initial_strength.items())))

    @cached_property
    def parents(self) -> Mapping[ArgumentId, tuple[tuple[ArgumentId, int], ...]]:
        """Attackers and supporters of each argument as sorted (id, polarity)
        pairs, -1 for an attack and +1 for a support. Raises
        UnknownArgumentError, naming every unknown endpoint, if an edge
        leaves the argument set."""
        parents: dict[ArgumentId, list[tuple[ArgumentId, int]]] = {a: [] for a in self.arguments}
        for pol, edges in ((-1, self.attacks), (+1, self.supports)):
            for x, y in edges:
                if x not in parents or y not in parents:
                    _require_known(self, chain(*self.attacks, *self.supports))
                parents[y].append((x, pol))
        for ps in parents.values():
            ps.sort()
        return MappingProxyType({a: tuple(ps) for a, ps in parents.items()})

    @cached_property
    def order(self) -> tuple[ArgumentId, ...]:
        """`topological_order(self)`, computed once."""
        return tuple(topological_order(self))

    @cached_property
    def plan(self) -> Plan:
        """The evaluation plan (see the module docstring)."""
        order, parents = self.order, self.parents
        pos = {a: i for i, a in enumerate(order)}
        return Plan(order, tuple([tuple([(pos[src], pol) for src, pol in parents[a]])
                                  for a in order]))

    def edges(self) -> frozenset[Edge]:
        return self.attacks | self.supports


def qbag(
    initial_strength: Mapping[ArgumentId, float],
    attacks: Iterable[Edge] = (),
    supports: Iterable[Edge] = (),
) -> Qbag:
    """Build a Qbag from an id -> strength mapping plus edge lists. Raises
    StrengthRangeError for a strength outside [0, 1] or NaN."""
    return Qbag(
        arguments=frozenset(initial_strength),
        attacks=frozenset((str(s), str(t)) for s, t in attacks),
        supports=frozenset((str(s), str(t)) for s, t in supports),
        initial_strength={str(k): _strength(str(k), v) for k, v in initial_strength.items()},
    )


def _strength(x: ArgumentId, value) -> float:
    """`value` as a float, if it lies in [0, 1]; NaN does not."""
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise StrengthRangeError(x, value)
    return value


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str
    elements: tuple


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def messages(self) -> list[str]:
        return [f"{v.rule}: {v.message}" for v in self.violations]


def validate(g: Qbag) -> ValidationReport:
    """Check every structural invariant and report all breaches at once.

    Rules: empty-id, att-supp-overlap, unknown-endpoint, strength-domain,
    strength-range, cycle. A cycle violation names one concrete cycle.
    """
    found: list[Violation] = []

    for a in sorted(g.arguments):
        if not isinstance(a, str) or a == "":
            found.append(Violation("empty-id", "argument ids must be non-empty strings", (a,)))

    overlap = sorted(g.attacks & g.supports)
    if overlap:
        found.append(
            Violation(
                "att-supp-overlap",
                f"edges in both attack and support: {overlap}",
                tuple(overlap),
            )
        )

    dangling = sorted(
        {x for e in g.edges() for x in e if x not in g.arguments}
    )
    if dangling:
        found.append(
            Violation(
                "unknown-endpoint",
                f"edge endpoints not in the argument set: {dangling}",
                tuple(dangling),
            )
        )

    missing = sorted(g.arguments - set(g.initial_strength))
    extra = sorted(set(g.initial_strength) - g.arguments)
    if missing or extra:
        found.append(
            Violation(
                "strength-domain",
                f"initial strength must be total on the arguments "
                f"(missing: {missing}, extra: {extra})",
                tuple(missing + extra),
            )
        )

    for a in sorted(set(g.initial_strength) & g.arguments):
        v = g.initial_strength[a]
        if not (0.0 <= v <= 1.0):  # also catches NaN
            found.append(
                Violation("strength-range", f"tau({a}) = {v} is outside [0, 1]", (a, v))
            )

    cycle = _find_cycle(g)
    if cycle is not None:
        found.append(
            Violation("cycle", f"[{','.join(cycle)}]", tuple(cycle))
        )

    return ValidationReport(tuple(found))


def _find_cycle(g: Qbag) -> list[ArgumentId] | None:
    """Return one directed cycle as a node list, or None. Ignores dangling
    edges. Depth-first from each argument in id order, on an explicit stack
    so that a long path cannot exhaust the recursion limit."""
    succ: dict[ArgumentId, list[ArgumentId]] = {a: [] for a in g.arguments}
    for x, y in sorted(g.edges()):
        if x in succ and y in g.arguments:
            succ[x].append(y)

    done: set[ArgumentId] = set()
    for root in sorted(g.arguments):
        if root in done:
            continue
        path, on_path, walks = [root], {root}, [iter(succ[root])]
        while walks:
            for nxt in walks[-1]:
                if nxt in on_path:
                    return path[path.index(nxt):]
                if nxt not in done:
                    path.append(nxt)
                    on_path.add(nxt)
                    walks.append(iter(succ[nxt]))
                    break
            else:  # every successor walked: the node is done
                walks.pop()
                on_path.discard(path[-1])
                done.add(path.pop())
    return None


def _require_known(g: Qbag, ids: Iterable[ArgumentId]) -> None:
    ids = frozenset(ids)
    if not ids <= g.arguments:
        raise UnknownArgumentError(ids - g.arguments)


def _inherit(h: Qbag, g: Qbag, derive) -> Qbag:
    """`h`, planned by `derive(g.plan)`; if `g`'s plan cannot compile (a
    dangling edge, a cycle), `h` compiles its own from its edges when read."""
    try:
        h.__dict__["plan"] = derive(g.plan)  # where cached_property keeps it
    except (UnknownArgumentError, CycleError):
        pass
    return h


def restrict(g: Qbag, keep: Iterable[ArgumentId]) -> Qbag:
    """Induced subgraph on `keep`: drop other arguments and edges touching them."""
    keep = frozenset(keep)
    _require_known(g, keep)
    h = Qbag(
        arguments=keep,
        attacks=frozenset([e for e in g.attacks if e[0] in keep and e[1] in keep]),
        supports=frozenset([e for e in g.supports if e[0] in keep and e[1] in keep]),
        initial_strength={a: g.initial_strength[a] for a in keep},
    )
    return _inherit(h, g, lambda plan: plan.restricted(keep))


def detach_incoming(g: Qbag, x_set: Iterable[ArgumentId]) -> Qbag:
    """Remove every edge entering `x_set` from outside it; keep everything else."""
    x_set = frozenset(x_set)
    _require_known(g, x_set)
    h = Qbag(
        arguments=g.arguments,
        attacks=frozenset([e for e in g.attacks if e[0] in x_set or e[1] not in x_set]),
        supports=frozenset([e for e in g.supports if e[0] in x_set or e[1] not in x_set]),
        initial_strength=g.initial_strength,
    )
    return _inherit(h, g, lambda plan: plan.detached(x_set))


def set_initial_strength(g: Qbag, x: ArgumentId, eps: float) -> Qbag:
    """Return a copy of `g` with tau(x) set to `eps`. The edges are the
    same, so the copy shares `g`'s plan, `parents` and `order`."""
    _require_known(g, [x])
    return _with_tau(g, {**g.initial_strength, x: _strength(x, eps)})


def _with_tau(g: Qbag, tau: Mapping[ArgumentId, float]) -> Qbag:
    """`g` with the initial strengths `tau`, taken as given, sharing `g`'s
    plan and, with it, whichever of `parents` and `order` `g` holds."""
    h = _inherit(Qbag(g.arguments, g.attacks, g.supports, tau), g, lambda plan: plan)
    if "plan" in h.__dict__:  # where cached_property keeps them
        h.__dict__.update((k, g.__dict__[k]) for k in ("parents", "order") if k in g.__dict__)
    return h


def topological_order(g: Qbag) -> list[ArgumentId]:
    """Kahn's algorithm with lexicographic tie-breaking, so the order is
    deterministic for a fixed graph. Raises CycleError on cyclic input."""
    indeg = {a: len(ps) for a, ps in g.parents.items()}
    succ: dict[ArgumentId, list[ArgumentId]] = {a: [] for a in indeg}
    for b, ps in g.parents.items():
        for a, _ in ps:
            succ[a].append(b)

    ready = [a for a, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[ArgumentId] = []
    while ready:
        a = heapq.heappop(ready)
        order.append(a)
        for b in succ[a]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(ready, b)

    if len(order) != len(g.arguments):
        cycle = _find_cycle(g)
        raise CycleError(cycle if cycle else sorted(set(g.arguments) - set(order)))
    return order


def can_reach(g: Qbag, x: ArgumentId, a: ArgumentId) -> bool:
    """True iff there is a directed path from x to a, or x == a."""
    _require_known(g, [x])
    return x == a or x in influencers(g, a)


def influencers(g: Qbag, a: ArgumentId, include_topic: bool = False) -> set[ArgumentId]:
    """All arguments with a directed path to `a`; `a` itself iff include_topic."""
    _require_known(g, [a])
    seen: set[ArgumentId] = set()
    frontier = [a]
    while frontier:
        for src, _ in g.parents[frontier.pop()]:
            if src not in seen:
                seen.add(src)
                frontier.append(src)
    seen.discard(a)
    if include_topic:
        seen.add(a)
    return seen


# --- the on-disk format ----------------------------------------------------
#
# {"arguments": [{"id": "a", "initial_strength": 0.3}, ...],
#  "attacks": [["b", "a"], ...],
#  "supports": [["c", "a"], ...]}
#
# json round-trips doubles exactly (repr emits the shortest string that
# parses back to the same float), which covers the 15-significant-digit
# requirement.


def graph_to_dict(g: Qbag) -> dict:
    return {
        "arguments": [
            {"id": a, "initial_strength": g.initial_strength[a]}
            for a in sorted(g.arguments)
        ],
        "attacks": [list(e) for e in sorted(g.attacks)],
        "supports": [list(e) for e in sorted(g.supports)],
    }


def graph_from_dict(doc: object) -> Qbag:
    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be a JSON object")
    raw_args = doc.get("arguments")
    if not isinstance(raw_args, list):
        raise GraphFormatError('missing or malformed "arguments" array')
    tau: dict[str, float] = {}
    for entry in raw_args:
        if not isinstance(entry, dict) or "id" not in entry or "initial_strength" not in entry:
            raise GraphFormatError(f"malformed argument entry: {entry!r}")
        aid = entry["id"]
        if not isinstance(aid, str):
            raise GraphFormatError(f"argument id must be a string, got {aid!r}")
        if aid in tau:
            raise GraphFormatError(f"duplicate argument id: {aid!r}")
        strength = entry["initial_strength"]
        if not isinstance(strength, (int, float)) or isinstance(strength, bool):
            raise GraphFormatError(f"initial_strength of {aid!r} must be a number")
        tau[aid] = _strength(aid, strength)

    def parse_edges(key: str) -> list[Edge]:
        raw = doc.get(key, [])
        if not isinstance(raw, list):
            raise GraphFormatError(f'malformed "{key}" array')
        edges = []
        for e in raw:
            if not (isinstance(e, (list, tuple)) and len(e) == 2
                    and all(isinstance(x, str) for x in e)):
                raise GraphFormatError(f"malformed edge in {key}: {e!r}")
            edges.append((e[0], e[1]))
        return edges

    return Qbag(
        arguments=frozenset(tau),
        attacks=frozenset(parse_edges("attacks")),
        supports=frozenset(parse_edges("supports")),
        initial_strength=tau,
    )


def graph_to_json(g: Qbag) -> str:
    return json.dumps(graph_to_dict(g), indent=2)


def graph_from_json(text: str) -> Qbag:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    return graph_from_dict(doc)


def load_graph(path) -> Qbag:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json(fh.read())


def dump_graph(g: Qbag, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_json(g))
        fh.write("\n")
