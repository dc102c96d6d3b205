"""Two-layer review aggregation pipeline.

A text layer (comment sentences attacking or supporting aspect nodes) is
evaluated with the DFQuAD preset. Each aspect's final strength is then
normalized into a base score for a one-level decision graph, where every
surviving aspect attacks or supports a single decision node. Contribution
functions on that decision graph explain the decision score.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .contributions import DEFAULT_BUDGET, CoalitionGame, Psi
from .errors import (
    ContributorError,
    GraphFormatError,
    StrengthRangeError,
    UnknownArgumentError,
)
from .graph import Qbag, _strength, qbag
from .semantics import PRESETS, Semantics, evaluate

REVIEW_SEMANTICS: Semantics = PRESETS["DFQuAD"]

DEFAULT_DECISION_ID = "D"


class Polarity(str, Enum):
    SUPPORT = "support"
    ATTACK = "attack"


class _ExcludedType:
    """Sentinel for aspects sitting exactly on the neutral strength 0.5."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "EXCLUDED"


EXCLUDED = _ExcludedType()


@dataclass(frozen=True)
class AspectModel:
    """A text-layer graph plus the manifest that names the aspect nodes."""

    aspects: tuple[str, ...]
    text: Qbag
    decision_tau: float = 0.5
    decision_id: str = DEFAULT_DECISION_ID


def aspect_model(graph: Qbag, manifest: Mapping) -> AspectModel:
    """Builds an AspectModel from a graph and a manifest dict.

    The manifest must carry "aspects" (list of argument ids) and may carry
    "decision_tau" (defaults to 0.5) and "decision_id" (defaults to "D").
    The graph must be strictly layered: every edge goes from a text
    argument to an aspect.
    """
    if "aspects" not in manifest:
        raise GraphFormatError("manifest is missing the 'aspects' list")
    aspects = tuple(str(a) for a in manifest["aspects"])
    if len(set(aspects)) != len(aspects):
        raise GraphFormatError("manifest lists a duplicate aspect")
    missing = [a for a in aspects if a not in graph.arguments]
    if missing:
        raise UnknownArgumentError(missing)
    decision_id = str(manifest.get("decision_id", DEFAULT_DECISION_ID))
    decision_tau = _strength(decision_id, manifest.get("decision_tau", 0.5))
    if decision_id in graph.arguments:
        raise GraphFormatError(
            f"decision id {decision_id!r} clashes with a text-layer argument")
    aspect_set = set(aspects)
    for u, v in graph.edges():
        if u in aspect_set:
            raise GraphFormatError(
                f"aspect {u!r} has an outgoing edge; aspects must be sinks")
        if v not in aspect_set:
            raise GraphFormatError(
                f"edge ({u!r}, {v!r}) does not point at an aspect")
    return AspectModel(aspects=aspects, text=graph,
                       decision_tau=decision_tau, decision_id=decision_id)


def evaluate_text_layer(model: AspectModel) -> dict[str, float]:
    """Final DFQuAD strengths of the aspect nodes, in manifest order."""
    sigma = evaluate(model.text, REVIEW_SEMANTICS)
    return {a: sigma[a] for a in model.aspects}


def normalize_aspect(sigma: float):
    """Turns an aspect strength into a (base score, polarity) pair.

    Strengths above 0.5 support the decision, strengths below attack it,
    and the magnitude is rescaled so the full range maps onto [0, 1].
    An aspect sitting exactly at 0.5 carries no signal and is EXCLUDED.
    """
    if not 0.0 <= sigma <= 1.0:
        raise StrengthRangeError("aspect", sigma)
    if sigma == 0.5:
        return EXCLUDED
    strength = 2.0 * abs(sigma - 0.5)
    polarity = Polarity.SUPPORT if sigma > 0.5 else Polarity.ATTACK
    return strength, polarity


def _aspects_with_edges(model: AspectModel) -> set[str]:
    return {a for a in model.aspects if model.text.parents[a]}


def build_decision_graph(model: AspectModel) -> Qbag:
    """One-level decision graph: surviving aspects attack or support D.

    Aspects with no incident text edge are dropped (no comment mentioned
    them), and so are aspects whose strength is exactly neutral.
    """
    sigma = evaluate_text_layer(model)
    touched = _aspects_with_edges(model)
    taus = {model.decision_id: model.decision_tau}
    attacks = []
    supports = []
    for a in model.aspects:
        if a not in touched:
            continue
        norm = normalize_aspect(sigma[a])
        if norm is EXCLUDED:
            continue
        strength, polarity = norm
        taus[a] = strength
        if polarity is Polarity.SUPPORT:
            supports.append((a, model.decision_id))
        else:
            attacks.append((a, model.decision_id))
    return qbag(taus, attacks=attacks, supports=supports)


@dataclass(frozen=True)
class ReviewRow:
    label: str
    members: tuple[str, ...]
    removal: float
    shapley: float
    gradient_max: float


@dataclass(frozen=True)
class ReviewReport:
    decision_id: str
    decision_tau: float
    sigma_decision: float
    rows: tuple[ReviewRow, ...]
    graph: Qbag

    def to_dict(self) -> dict:
        return {
            "decision": self.decision_id,
            "decision_tau": self.decision_tau,
            "sigma_decision": self.sigma_decision,
            "rows": [
                {
                    "contributors": r.label,
                    "members": list(r.members),
                    "removal": r.removal,
                    "shapley": r.shapley,
                    "gradient_max": r.gradient_max,
                }
                for r in self.rows
            ],
        }

    def to_csv(self) -> str:
        """Rounded columns for reading plus exact columns for checking."""
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow([
            "contributors", "removal", "shapley", "gradient_max",
            "removal_exact", "shapley_exact", "gradient_max_exact",
        ])
        for r in self.rows:
            writer.writerow([
                r.label,
                f"{r.removal:.3f}", f"{r.shapley:.3f}", f"{r.gradient_max:.3f}",
                repr(r.removal), repr(r.shapley), repr(r.gradient_max),
            ])
        return out.getvalue()


def _set_label(members: Iterable[str], order: tuple[str, ...]) -> str:
    ordered = [a for a in order if a in set(members)]
    return "{" + ",".join(ordered) + "}"


def report_contributions(
    model: AspectModel, focus: Iterable[str],
    budget: int = DEFAULT_BUDGET,
) -> ReviewReport:
    """Contribution table for the decision: one row for the focus set,
    one per aspect singleton, and a sum row over the focus row plus the
    remaining singletons (a partition of the decision graph's aspects)."""
    dg = build_decision_graph(model)
    decision = model.decision_id
    present = [a for a in model.aspects if a in dg.arguments]
    focus = [str(a) for a in focus]
    if not focus:
        raise ContributorError("focus must name at least one aspect")
    unknown = [a for a in focus if a not in present]
    if unknown:
        raise UnknownArgumentError(unknown)
    if len(set(focus)) != len(focus):
        raise GraphFormatError("focus lists a duplicate aspect")

    game = CoalitionGame(dg, REVIEW_SEMANTICS, decision, budget)

    def row(label: str, members: tuple[str, ...]) -> ReviewRow:
        return ReviewRow(
            label=label,
            members=members,
            removal=game.removal(members).value,
            shapley=game.shapley(members).value,
            gradient_max=game.gradient(members, Psi.MAX).value,
        )

    focus_members = tuple(a for a in present if a in set(focus))
    focus_row = row(_set_label(focus_members, model.aspects), focus_members)
    non_focus = [a for a in present if a not in focus_members]
    singles = [row(a, (a,)) for a in (*focus_members, *non_focus)]
    rest = singles[len(focus_members):]  # the rows of `non_focus`
    sum_row = ReviewRow(
        label="+".join(non_focus + [focus_row.label]),
        members=tuple(present),
        removal=focus_row.removal + sum(r.removal for r in rest),
        shapley=focus_row.shapley + sum(r.shapley for r in rest),
        gradient_max=focus_row.gradient_max + sum(r.gradient_max for r in rest),
    )

    sigma_decision = game.value()
    rows = (focus_row, *singles, sum_row)
    return ReviewReport(
        decision_id=decision,
        decision_tau=model.decision_tau,
        sigma_decision=sigma_decision,
        rows=rows,
        graph=dg,
    )
