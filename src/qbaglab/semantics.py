"""Modular gradual semantics: aggregation + influence, evaluated in one
topological pass, plus a forward-mode dual evaluator for exact partials.

An argument with no attackers and no supporters keeps its initial strength
(stability). Everything else is the composition influence(tau(x), aggregate
of parents' final strengths), applied in topological order, so each final
strength is computed exactly once.

Each semantics is compiled once (`node_steps`) into a value step and a
dual step for one node, its aggregation loop and influence formula
specialised, that read the node's parents as (index, polarity) pairs
straight from the strengths computed so far; `evaluate`, `evaluate_dual`
and the coalition game all run them, over a graph's compiled `plan` or the
game's cone, and `evaluate_dual` and the game's `dual` share one forward
loop, `dual_pass`. They keep the formulas' float
operations in order: Sum adds and Product multiplies 1 - s in parent order,
Top keeps the first maximum. A Euler aggregate past e^709, or a p-Max
x^p past the floats, gives the formula's limit and derivative 0.

Derivatives: the composition is piecewise differentiable. At hinge points
(max{0, x} at x = 0) and inside Top when several entries tie for the max,
the dual evaluator takes the max's value together with the minimum of the
duals among the tied candidates. That one-sided choice keeps inactive
hinges inert and reproduces the reference results at saturated attackers
(tied maximal strengths give derivative 0, while a kink whose losing side
is about to take over propagates the losing slope).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

from .errors import InfluenceDomainError, SemanticsError, UnknownArgumentError
from .graph import Qbag
from .verdicts import Principle, PrincipleVerdict, Status, Witness


class Aggregation(str, Enum):
    SUM = "sum"
    PRODUCT = "product"
    TOP = "top"


@dataclass(frozen=True)
class Influence:
    kind: str  # "linear" | "euler" | "pmax"
    k: float = 1.0
    p: int = 2

    def __post_init__(self):
        if self.kind not in ("linear", "euler", "pmax"):
            raise SemanticsError(f"unknown influence kind: {self.kind!r}")
        if not (_is_number(self.k) and self.k > 0):
            raise SemanticsError(f"influence parameter k must be a positive number, got {self.k!r}")
        if self.kind == "pmax":
            if not (_is_number(self.p) and self.p >= 1 and float(self.p).is_integer()):
                raise SemanticsError(f"p-Max exponent must be a positive integer, got {self.p!r}")
            object.__setattr__(self, "p", int(self.p))  # so p = 2.0 is p = 2
        object.__setattr__(self, "k", float(self.k))


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def linear(k: float = 1.0) -> Influence:
    return Influence("linear", k=k)


def euler() -> Influence:
    return Influence("euler")


def pmax(p: int, k: float = 1.0) -> Influence:
    return Influence("pmax", k=k, p=p)


@dataclass(frozen=True)
class Semantics:
    aggregation: Aggregation
    influence: Influence
    name: str | None = None

    def label(self) -> str:
        if self.name:
            return self.name
        return f"{self.aggregation.value}+{self.influence.kind}"


PRESETS: dict[str, Semantics] = {
    "QE": Semantics(Aggregation.SUM, pmax(2, 1.0), name="QE"),
    "DFQuAD": Semantics(Aggregation.PRODUCT, linear(1.0), name="DFQuAD"),
    "SD-DFQuAD": Semantics(Aggregation.PRODUCT, pmax(1, 1.0), name="SD-DFQuAD"),
    "EB": Semantics(Aggregation.SUM, euler(), name="EB"),
    "EBT": Semantics(Aggregation.TOP, euler(), name="EBT"),
}

PRESET_NAMES = tuple(PRESETS)


def semantics_from_spec(spec) -> Semantics:
    """Accept a preset name ("QE", ..., case-sensitive) or a custom dict like
    {"aggregation": "sum", "influence": {"kind": "pmax", "p": 2, "k": 1}}."""
    if isinstance(spec, Semantics):
        return spec
    if isinstance(spec, str):
        if spec in PRESETS:
            return PRESETS[spec]
        raise SemanticsError(
            f"unknown semantics {spec!r}; presets are: {', '.join(PRESET_NAMES)}"
        )
    if isinstance(spec, dict):
        try:
            agg = Aggregation(spec["aggregation"])
        except (KeyError, ValueError) as exc:
            raise SemanticsError(f"bad aggregation in custom semantics: {spec!r}") from exc
        inf_spec = spec.get("influence")
        if not isinstance(inf_spec, dict) or "kind" not in inf_spec:
            raise SemanticsError(f"bad influence in custom semantics: {spec!r}")
        kind = inf_spec["kind"]
        if kind == "linear":
            inf = linear(inf_spec.get("k", 1.0))
        elif kind == "euler":
            inf = euler()
        elif kind == "pmax":
            inf = pmax(inf_spec.get("p", 2), inf_spec.get("k", 1.0))
        else:
            raise SemanticsError(f"unknown influence kind: {kind!r}")
        return Semantics(agg, inf, name=spec.get("name"))
    raise SemanticsError(f"cannot interpret semantics spec: {spec!r}")


# --- node steps, compiled once per semantics ------------------------------------


def node_steps(sem) -> tuple[Callable[..., float], Callable[..., tuple[float, float]]]:
    """`sem`, any spec `semantics_from_spec` accepts, compiled into two node
    steps; specs with the same aggregation and influence share them. A node's
    parents are (index, polarity) pairs into `vals`, the strengths so far.
    value(w, parents, vals, cut) is the final strength of a node of initial
    strength `w` whose parents with a bit in the int `cut` are cut, and `w`
    when none is live. dual(w, dw, parents, vals, ds) is (value, derivative)
    of a node with a parent and none cut, `ds` holding the parents' duals."""
    sem = semantics_from_spec(sem)
    return _compile(sem.aggregation, sem.influence)


@lru_cache(maxsize=64)
def _compile(aggregation: Aggregation, inf: Influence):
    value, dual = _influence(inf)
    if aggregation is Aggregation.SUM:
        def step(w, parents, vals, cut):
            live, s = False, 0.0
            for j, pol in parents:  # added left to right, as sum() did on 3.11
                if not cut >> j & 1:
                    live = True
                    s += pol * vals[j]
            return value(w, s) if live else w

        def step_dual(w, dw, parents, vals, ds):
            s = d = 0.0
            for j, pol in parents:
                s += pol * vals[j]
                d += pol * ds[j]
            return dual(w, dw, s, d)

    elif aggregation is Aggregation.PRODUCT:
        def step(w, parents, vals, cut):
            live, att, sup = False, 1.0, 1.0  # empty products are 1
            for j, pol in parents:
                if not cut >> j & 1:
                    live = True
                    if pol < 0:
                        att *= 1.0 - vals[j]
                    else:
                        sup *= 1.0 - vals[j]
            return value(w, att - sup) if live else w

        def step_dual(w, dw, parents, vals, ds):
            sides = {-1: [], 1: []}
            for j, pol in parents:
                sides[pol].append((1.0 - vals[j], -ds[j]))
            (av, ad), (sv, sd) = map(_product_dual, (sides[-1], sides[1]))
            return dual(w, dw, av - sv, ad - sd)

    elif aggregation is Aggregation.TOP:
        def step(w, parents, vals, cut):
            live, top, bottom = False, 0.0, 0.0  # an empty max set is 0
            for j, pol in parents:
                if not cut >> j & 1:
                    live = True
                    s = pol * vals[j]
                    if s > top:
                        top = s
                    elif -s > bottom:
                        bottom = -s
            return value(w, top - bottom) if live else w

        def step_dual(w, dw, parents, vals, ds):
            pv, pd = _dual_max((pol * vals[j], pol * ds[j]) for j, pol in parents)
            nv, nd = _dual_max((-pol * vals[j], -pol * ds[j]) for j, pol in parents)
            return dual(w, dw, pv - nv, pd - nd)

    else:
        raise SemanticsError(f"unknown aggregation: {aggregation!r}")
    return step, step_dual


def _product_dual(factors: list[tuple[float, float]]) -> tuple[float, float]:
    """The product of one side's (value, dual) factors as a dual number.
    Leave-one-out products keep the derivative well defined when some factor
    is exactly zero (a saturated parent)."""
    dprod = 0.0  # never -0.0, so a factor of dual +-0.0 adds nothing and is skipped
    for i, (_, dv) in enumerate(factors):
        if dv:
            dprod += dv * math.prod(v for v, _ in factors[:i] + factors[i + 1:])
    return math.prod(v for v, _ in factors), dprod


def _dual_max(cands) -> tuple[float, float]:
    """The max of 0 and the (value, dual) pairs `cands` as a dual number: the
    first maximum, with the smallest dual among those tied with it (0 has dual
    0), so max{0, x} at x = 0 is the smaller of the duals 0, dx."""
    best, dbest = 0.0, 0.0
    for v, d in cands:
        if v > best:
            best, dbest = v, d
        elif v == best and d < dbest:
            dbest = d
    return best, dbest


def _influence(inf: Influence):
    """(value(w, s), dual(w, dw, s, ds) -> (value, derivative)) of `inf` at
    aggregate `s`. Where one hinge of a formula is 0, the value drops the
    term it zeroes: w - w*0 and x + 0 are w and x bit for bit."""
    k, p = inf.k, inf.p
    if inf.kind == "linear":
        hi = k * (1.0 + 1e-12)  # rounding slack relative to k; an aggregate in it is k
        inf_ = math.inf

        def value(w, s):  # through s / k where (1 - w) / k or w / k overflows
            if s > 0.0:
                if s > k:
                    if s > hi:
                        raise InfluenceDomainError(s, k)
                    s = k
                t = ((1.0 - w) / k) * s
                return w + (t if t < inf_ else (1.0 - w) * (s / k))
            if s < 0.0:
                if s < -k:
                    if s < -hi:
                        raise InfluenceDomainError(s, k)
                    s = -k
                t = (w / k) * -s
                return w - (t if t < inf_ else w * (-s / k))
            return w + 0.0  # w, but 0.0 for w = -0.0, as the full formula gives

        def dual(w, dw, s, ds):
            r1v, r1d = _dual_max(((-s, -ds),))
            r2v, r2d = _dual_max(((s, ds),))
            return value(w, s), dw - (dw * r1v + w * r1d) / k + (-dw * r2v + (1.0 - w) * r2d) / k

    elif inf.kind == "euler":
        exp = math.exp

        def value(w, s):
            try:
                return 1.0 - (1.0 - w * w) / (1.0 + w * exp(s))
            except OverflowError:  # e^s beyond floats: the limit as s grows
                return 1.0 if w > 0.0 else 0.0

        def dual(w, dw, s, ds):
            try:
                es = exp(s)
            except OverflowError:  # the limits as s grows; at w = 0, d/dw is e^s
                return (1.0, 0.0) if w > 0.0 else (0.0, dw * math.inf if dw else 0.0)
            den = 1.0 + w * es
            d_dw = (2.0 * w * den + (1.0 - w * w) * es) / (den * den)
            d_ds = (1.0 - w * w) * w * es / (den * den)
            return 1.0 - (1.0 - w * w) / den, dw * d_dw + ds * d_ds

    elif inf.kind == "pmax":
        inf_ = math.inf

        def value(w, s):  # h(x) = x^p / (1 + x^p) takes its limit 1 past the floats
            x = s / k
            try:
                if x > 0.0:
                    hx = x ** p
                    return w + (1.0 - w) * (hx / (1.0 + hx) if hx < inf_ else 1.0)
                if x < 0.0:
                    hx = (-x) ** p
                    return w - w * (hx / (1.0 + hx) if hx < inf_ else 1.0)
            except OverflowError:
                return w + (1.0 - w) if x > 0.0 else w - w
            return w + 0.0  # w, but 0.0 for w = -0.0, as the full formula gives

        def h_dual(x, dx):  # max{0, x}^p / (1 + max{0, x}^p); p * 0^(p-1) is 1 at p = 1
            mv, md = _dual_max(((x, dx),))
            try:
                num, dnum = mv ** p, p * mv ** (p - 1) * md if mv > 0.0 or p == 1 else 0.0
            except OverflowError:
                num = inf_
            if num == inf_:  # past the floats: the limits h = 1, h' = 0
                return 1.0, 0.0
            den = 1.0 + num
            return num / den, dnum / (den * den)

        def h_slope(x, dx):  # h'(x) * dx, formed as h'(x) first, then dx
            mv, md = _dual_max(((x, dx),))
            if not (mv > 0.0 or p == 1):
                return 0.0
            den = 1.0 + mv ** p  # finite: h_dual gives slope 0 where it is not
            return p * mv ** (p - 1) / den / den * md

        def dual(w, dw, s, ds):
            h1v, h1d = h_dual(-s / k, -ds / k)
            h2v, h2d = h_dual(s / k, ds / k)
            d = dw - (dw * h1v + w * h1d) + (-dw * h2v + (1.0 - w) * h2d)
            if d - d != 0.0:  # inf or nan, from ds / k or den * den: divide by k last
                h1d, h2d = h_slope(-s / k, -ds), h_slope(s / k, ds)
                d = dw - (dw * h1v + w * h1d / k) + (-dw * h2v + (1.0 - w) * h2d / k)
            return value(w, s), d

    else:
        raise SemanticsError(f"unknown influence kind: {inf.kind!r}")
    return value, dual


# --- evaluation -------------------------------------------------------------------


def evaluate(g: Qbag, sem) -> dict[str, float]:
    """Final strength of every argument, one pass over `g.plan`, in plan
    order. `sem` is any spec `semantics_from_spec` accepts."""
    step = node_steps(sem)[0]
    tau = g.initial_strength
    order, parents = g.plan
    vals: list[float] = []
    for a, ps in zip(order, parents):
        vals.append(step(tau[a], ps, vals, 0))
    return dict(zip(order, vals))


@dataclass(frozen=True)
class Dual:
    value: float
    deriv: float


def evaluate_dual(g: Qbag, sem, seed: str) -> dict[str, Dual]:
    """Final strengths together with d(final strength)/d(tau(seed)), in plan
    order; the value parts equal evaluate(g, sem). See `dual_pass`."""
    steps = node_steps(sem)
    if seed not in g.arguments:
        raise UnknownArgumentError([seed])
    tau = g.initial_strength
    order, parents = g.plan
    vals, ds = dual_pass(steps, enumerate(parents), [tau[a] for a in order],
                         order.index(seed), len(order))
    return {a: Dual(v, d) for a, v, d in zip(order, vals, ds)}


def dual_pass(steps, nodes, tau, seed: int, n: int) -> tuple[list[float], list[float]]:
    """The values and d/d(tau[seed]) of `nodes` by slot, in lists of `n`
    slots: `steps` is a pair from `node_steps`, `nodes` (slot, parents)
    pairs in topological order with parents as (slot, polarity), and `tau`
    the initial strengths by slot; a slot of no node stays 0.0. The chain
    rule gives exactly 0.0 to a node other than the seed whose parents all
    have derivative 0, so that node only needs its value."""
    step, dual = steps
    vals, ds = [0.0] * n, [0.0] * n
    for b, ps in nodes:
        dw = 1.0 if b == seed else 0.0
        if ps and (dw or any(ds[j] for j, _ in ps)):
            vals[b], ds[b] = dual(tau[b], dw, ps, vals, ds)
        else:
            vals[b], ds[b] = step(tau[b], ps, vals, 0), dw
    return vals, ds


# --- stability ----------------------------------------------------------------


#: how far an edge-free argument's final strength may sit from its initial one
STABILITY_TOL = 1e-9


def check_stability(sem, g: Qbag, evaluator=evaluate) -> PrincipleVerdict:
    """Edge-free arguments must keep their initial strength.

    `evaluator` is injectable so a deliberately broken semantics can serve
    as a negative control in tests.
    """
    sigma = evaluator(g, semantics_from_spec(sem))
    checked = 0
    for a in sorted(g.arguments):
        if g.parents[a]:
            continue
        checked += 1
        if abs(sigma[a] - g.initial_strength[a]) > STABILITY_TOL:
            return PrincipleVerdict(
                Principle.STABILITY,
                Status.VIOLATED,
                witness=Witness(
                    topic=a,
                    sets=((a,),),
                    values={"sigma": sigma[a], "tau": g.initial_strength[a]},
                    graph=g,
                ),
                checked=checked,
            )
    return PrincipleVerdict(Principle.STABILITY, Status.SATISFIED, checked=checked)
