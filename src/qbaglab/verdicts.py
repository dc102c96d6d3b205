"""Verdict and witness types shared by the stability check and the principle lab."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .graph import Qbag, graph_to_dict


class Principle(str, Enum):
    CTRB_GENERALIZATION = "CtrbGeneralization"
    CONTRIBUTION_EXISTENCE = "ContributionExistence"
    QUANTITATIVE_CONTRIBUTION_EXISTENCE = "QuantitativeContributionExistence"
    WEAK_QUANTITATIVE_CONTRIBUTION_EXISTENCE = "WeakQuantitativeContributionExistence"
    DIRECTIONALITY = "Directionality"
    COUNTERFACTUALITY = "Counterfactuality"
    QUANTITATIVE_COUNTERFACTUALITY = "QuantitativeCounterfactuality"
    CONSISTENCY = "Consistency"
    MONOTONICITY = "Monotonicity"
    STABILITY = "Stability"


class Status(str, Enum):
    SATISFIED = "SatisfiedOnInstance"
    VIOLATED = "ViolatedOnInstance"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Witness:
    """Everything needed to replay a violated (or satisfied) check by hand.

    `sets` holds the contributor sets involved: one set for existence-style
    checks, a pair (X, Y) for consistency/monotonicity, all partition blocks
    for partition-based checks. `values` holds the numbers on both sides of
    the violated (in)equality.
    """

    topic: str | None
    sets: tuple[tuple[str, ...], ...]
    values: Mapping[str, float]
    graph: Qbag | None = None
    note: str = ""

    def to_dict(self) -> dict:
        out: dict = {
            "topic": self.topic,
            "sets": [list(s) for s in self.sets],
            "values": {k: v for k, v in sorted(self.values.items())},
        }
        if self.note:
            out["note"] = self.note
        if self.graph is not None:
            out["graph"] = graph_to_dict(self.graph)
        return out


@dataclass(frozen=True)
class PrincipleVerdict:
    principle: Principle
    status: Status
    witness: Witness | None = None
    checked: int = 0

    @property
    def violated(self) -> bool:
        return self.status is Status.VIOLATED

    @property
    def satisfied(self) -> bool:
        return self.status is Status.SATISFIED

    def to_dict(self) -> dict:
        return {
            "principle": self.principle.value,
            "status": self.status.value,
            "checked": self.checked,
            "witness": self.witness.to_dict() if self.witness else None,
        }
