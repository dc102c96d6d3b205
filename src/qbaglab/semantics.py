"""Modular gradual semantics: aggregation + influence, evaluated in one
topological pass, plus a forward-mode dual evaluator for exact partials.

An argument with no attackers and no supporters keeps its initial strength
(stability). Everything else is the composition influence(tau(x), aggregate
of parents' final strengths), applied in topological order, so each final
strength is computed exactly once.

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
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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
        if not self.k > 0:
            raise SemanticsError(f"influence parameter k must be positive, got {self.k}")
        if self.kind == "pmax" and (self.p < 1 or int(self.p) != self.p):
            raise SemanticsError(f"p-Max exponent must be a positive integer, got {self.p}")


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
            inf = linear(float(inf_spec.get("k", 1.0)))
        elif kind == "euler":
            inf = euler()
        elif kind == "pmax":
            inf = pmax(int(inf_spec.get("p", 2)), float(inf_spec.get("k", 1.0)))
        else:
            raise SemanticsError(f"unknown influence kind: {kind!r}")
        return Semantics(agg, inf, name=spec.get("name"))
    raise SemanticsError(f"cannot interpret semantics spec: {spec!r}")


# --- scalar evaluation -------------------------------------------------------


def aggregate(kind: Aggregation, v: Sequence[int], s: Sequence[float]) -> float:
    """Combine parent strengths `s` with polarities `v` (-1 attack, +1 support,
    0 no relation). Empty products are 1; an empty max set is 0."""
    if len(v) != len(s):
        raise ValueError(f"polarity/strength length mismatch: {len(v)} vs {len(s)}")
    if kind is Aggregation.SUM:
        return sum(vi * si for vi, si in zip(v, s))
    if kind is Aggregation.PRODUCT:
        att = 1.0
        sup = 1.0
        for vi, si in zip(v, s):
            if vi == -1:
                att *= 1.0 - si
            elif vi == 1:
                sup *= 1.0 - si
        return att - sup
    if kind is Aggregation.TOP:
        m_pos = max([0.0] + [vi * si for vi, si in zip(v, s) if vi != 0])
        m_neg = max([0.0] + [-vi * si for vi, si in zip(v, s) if vi != 0])
        return m_pos - m_neg
    raise SemanticsError(f"unknown aggregation: {kind!r}")


def influence_value(inf: Influence, w: float, agg: float) -> float:
    if inf.kind == "linear":
        k = inf.k
        if agg < -k - 1e-12 or agg > k + 1e-12:
            raise InfluenceDomainError(agg, k)
        return w - (w / k) * max(0.0, -agg) + ((1.0 - w) / k) * max(0.0, agg)
    if inf.kind == "euler":
        return 1.0 - (1.0 - w * w) / (1.0 + w * math.exp(agg))
    if inf.kind == "pmax":
        return (
            w
            - w * _h(-agg / inf.k, inf.p)
            + (1.0 - w) * _h(agg / inf.k, inf.p)
        )
    raise SemanticsError(f"unknown influence kind: {inf.kind!r}")


def _h(x: float, p: int) -> float:
    hx = max(0.0, x) ** p
    return hx / (1.0 + hx)


def node_strength(sem: Semantics, w: float, v: Sequence[int], s: Sequence[float]) -> float:
    """Final strength of one argument with initial strength `w` whose parents
    have polarities `v` and final strengths `s`; no parents means stability."""
    if not v:
        return w
    return influence_value(sem.influence, w, aggregate(sem.aggregation, v, s))


def evaluate(g: Qbag, sem) -> dict[str, float]:
    """Final strength of every argument, one topological pass. `sem` is any
    spec `semantics_from_spec` accepts."""
    sem = semantics_from_spec(sem)
    parents = g.parents
    sigma: dict[str, float] = {}
    for node in g.order:
        ps = parents[node]
        sigma[node] = node_strength(sem, g.initial_strength[node],
                                    [pol for (_, pol) in ps], [sigma[src] for (src, _) in ps])
    return sigma


# --- forward-mode dual evaluation --------------------------------------------


@dataclass(frozen=True)
class Dual:
    value: float
    deriv: float


def _dual_max(cands: list[tuple[float, float]]) -> tuple[float, float]:
    # value of the max; on ties, the smallest dual among the tied candidates
    best = max(v for v, _ in cands)
    return best, min(d for v, d in cands if v == best)


def _hinge(x: float, dx: float) -> tuple[float, float]:
    # max{0, x} as a dual number
    return _dual_max([(0.0, 0.0), (x, dx)])


def _aggregate_dual(
    kind: Aggregation, parts: list[tuple[int, float, float]]
) -> tuple[float, float]:
    """parts: (polarity, value, dual) per parent."""
    if kind is Aggregation.SUM:
        return (
            sum(pol * val for pol, val, _ in parts),
            sum(pol * d for pol, _, d in parts),
        )
    if kind is Aggregation.PRODUCT:
        def side(target_pol: int) -> tuple[float, float]:
            vals = [1.0 - val for pol, val, _ in parts if pol == target_pol]
            duals = [-d for pol, _, d in parts if pol == target_pol]
            prod = math.prod(vals)
            # leave-one-out products keep the derivative well defined when
            # some factor is exactly zero (a saturated parent)
            dprod = 0.0
            for i, dv in enumerate(duals):
                rest = 1.0
                for j, val in enumerate(vals):
                    if j != i:
                        rest *= val
                dprod += dv * rest
            return prod, dprod
        att_v, att_d = side(-1)
        sup_v, sup_d = side(+1)
        return att_v - sup_v, att_d - sup_d
    if kind is Aggregation.TOP:
        pos = [(0.0, 0.0)] + [(pol * val, pol * d) for pol, val, d in parts if pol != 0]
        neg = [(0.0, 0.0)] + [(-pol * val, -pol * d) for pol, val, d in parts if pol != 0]
        pv, pd = _dual_max(pos)
        nv, nd = _dual_max(neg)
        return pv - nv, pd - nd
    raise SemanticsError(f"unknown aggregation: {kind!r}")


def _influence_dual(
    inf: Influence, w: float, dw: float, s: float, ds: float
) -> tuple[float, float]:
    if inf.kind == "linear":
        k = inf.k
        if s < -k - 1e-12 or s > k + 1e-12:
            raise InfluenceDomainError(s, k)
        r1v, r1d = _hinge(-s, -ds)
        r2v, r2d = _hinge(s, ds)
        value = w - (w / k) * r1v + ((1.0 - w) / k) * r2v
        deriv = dw - (dw * r1v + w * r1d) / k + (-dw * r2v + (1.0 - w) * r2d) / k
        return value, deriv
    if inf.kind == "euler":
        es = math.exp(s)
        den = 1.0 + w * es
        value = 1.0 - (1.0 - w * w) / den
        d_dw = (2.0 * w * den + (1.0 - w * w) * es) / (den * den)
        d_ds = (1.0 - w * w) * w * es / (den * den)
        return value, dw * d_dw + ds * d_ds
    if inf.kind == "pmax":
        h1v, h1d = _h_dual(-s / inf.k, -ds / inf.k, inf.p)
        h2v, h2d = _h_dual(s / inf.k, ds / inf.k, inf.p)
        value = w - w * h1v + (1.0 - w) * h2v
        deriv = dw - (dw * h1v + w * h1d) + (-dw * h2v + (1.0 - w) * h2d)
        return value, deriv
    raise SemanticsError(f"unknown influence kind: {inf.kind!r}")


def _h_dual(x: float, dx: float, p: int) -> tuple[float, float]:
    mv, md = _hinge(x, dx)
    num = mv ** p
    if p == 1:
        dnum = md
    elif mv > 0.0:
        dnum = p * mv ** (p - 1) * md
    else:
        dnum = 0.0
    den = 1.0 + num
    return num / den, dnum / (den * den)


def evaluate_dual(g: Qbag, sem, seed: str) -> dict[str, Dual]:
    """Final strengths together with d(final strength)/d(tau(seed)).

    The value parts equal evaluate(g, sem); the derivative parts propagate
    through the aggregation/influence composition by the chain rule.
    """
    sem = semantics_from_spec(sem)
    if seed not in g.arguments:
        raise UnknownArgumentError([seed])
    parents = g.parents
    out: dict[str, Dual] = {}
    for node in g.order:
        w = g.initial_strength[node]
        dw = 1.0 if node == seed else 0.0
        ps = parents[node]
        if not ps:
            out[node] = Dual(w, dw)
            continue
        parts = [(pol, out[src].value, out[src].deriv) for (src, pol) in ps]
        s, ds = _aggregate_dual(sem.aggregation, parts)
        value, deriv = _influence_dual(sem.influence, w, dw, s, ds)
        out[node] = Dual(value, deriv)
    return out


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
