"""Small named graphs used by the test-suite, the reproduction runner and the
CLI. Each id maps to a ready-to-evaluate graph.

The `fig6-*` family shares one 6-argument topology; the per-semantics ids
differ only in the initial strengths (two sets of them: one tuned so that
removal flips sign when two helpers are dropped together, one tuned for the
Shapley variant of the same story).
"""

from __future__ import annotations

from .errors import UnknownFixtureError
from .graph import Qbag, qbag

_FIG6_ATTACKS = (("c", "e"), ("e", "a"))
_FIG6_SUPPORTS = (
    ("d", "c"), ("d", "e"), ("d", "b"),
    ("f", "c"), ("f", "e"), ("f", "b"),
    ("c", "b"), ("b", "a"),
)

#: initial strengths for the removal sign-flip story, per semantics slug
FIG6_REMOVAL_TAU = {
    "qe": {"a": 0.3, "b": 0.8, "c": 0.1, "d": 0.55, "e": 0.45, "f": 0.6},
    "dfquad": {"a": 0.3, "b": 0.8, "c": 0.1, "d": 0.8, "e": 0.6, "f": 0.8},
    "sd-dfquad": {"a": 0.3, "b": 0.8, "c": 0.1, "d": 0.25, "e": 0.2, "f": 0.2},
    "eb": {"a": 0.3, "b": 0.8, "c": 0.9, "d": 0.9, "e": 0.9, "f": 0.8},
    "ebt": {"a": 0.3, "b": 0.1, "c": 0.1, "d": 0.5, "e": 0.1, "f": 0.5},
}

#: initial strengths for the Shapley sign-flip story, per semantics slug
FIG6_SHAPLEY_TAU = {
    "qe": {"a": 0.3, "b": 0.8, "c": 0.2, "d": 0.7, "e": 0.6, "f": 0.7},
    "dfquad": {"a": 0.3, "b": 0.8, "c": 0.2, "d": 0.5, "e": 0.4, "f": 0.5},
    "sd-dfquad": {"a": 0.3, "b": 0.1, "c": 0.9, "d": 0.3, "e": 0.9, "f": 0.3},
    "eb": {"a": 0.3, "b": 0.6, "c": 0.8, "d": 0.8, "e": 0.5, "f": 0.7},
    "ebt": {"a": 0.3, "b": 0.6, "c": 0.2, "d": 0.8, "e": 0.4, "f": 0.7},
}

SEMANTICS_SLUGS = {
    "qe": "QE",
    "dfquad": "DFQuAD",
    "sd-dfquad": "SD-DFQuAD",
    "eb": "EB",
    "ebt": "EBT",
}


def _fig6(tau: dict[str, float]) -> Qbag:
    return qbag(tau, attacks=_FIG6_ATTACKS, supports=_FIG6_SUPPORTS)


FIXTURES: dict[str, Qbag] = {
    "fig1a": _fig6({"a": 0.3, "b": 0.8, "c": 0.1, "d": 0.55, "e": 0.45, "f": 0.6}),
    "fig3": qbag(
        {"a": 0.5, "b": 1.0, "c": 1.0},
        attacks=(("b", "a"), ("c", "a")),
    ),
    "fig4": qbag(
        {"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5},
        attacks=(("b", "a"), ("c", "a"), ("d", "c")),
    ),
    "fig5": qbag(
        {"a": 0.5, "b": 1.0, "c": 1.0},
        attacks=(("b", "a"), ("c", "a")),
    ),
    "fig7": qbag(
        {"a": 0.5, "b": 1.0, "c": 1.0},
        attacks=(("b", "a"),),
        supports=(("c", "a"),),
    ),
    "table4": qbag(
        {"D": 0.5, "NOV": 0.6, "CMP": 0.7, "APR": 0.6, "IMP": 0.5},
        attacks=(("CMP", "D"), ("IMP", "D")),
        supports=(("NOV", "D"), ("APR", "D")),
    ),
    "fig8": qbag(
        {
            "t1": 0.6, "t2": 0.7, "t3": 0.5,
            "NOV": 0.5, "CMP": 0.5, "APR": 0.5, "IMP": 0.5,
            "CLA": 0.0, "EMP": 0.0, "SUB": 0.0,
        },
        attacks=(("t2", "CMP"), ("t3", "IMP")),
        supports=(("t1", "NOV"), ("t1", "APR")),
    ),
    "figA1": qbag(
        {"a": 1.0, "b": 0.0, "c": 1.0},
        attacks=(("b", "a"),),
        supports=(("c", "b"),),
    ),
    "figA2": qbag(
        {"f": 1.0, "e": 0.02, "b": 0.1, "d": 0.51, "c": 0.1, "g": 0.27, "a": 0.5},
        attacks=(("b", "a"), ("c", "a"), ("g", "a")),
        supports=(("f", "e"), ("e", "b"), ("e", "d"), ("e", "c"), ("d", "a")),
    ),
    "figA3": qbag(
        {"a": 0.7, "b": 0.1, "c": 1.0, "d": 0.1},
        attacks=(("b", "a"), ("d", "a")),
        supports=(("c", "b"),),
    ),
    "figA4": qbag(
        {"f": 1.0, "e": 0.495, "b": 0.15, "d": 0.15, "c": 0.15, "a": 0.1},
        attacks=(("b", "a"), ("c", "a")),
        supports=(("f", "e"), ("e", "b"), ("e", "d"), ("e", "c"), ("d", "a")),
    ),
    "figA5": qbag(
        {"f": 1.0, "e": 0.495, "b": 0.15, "d": 0.3, "c": 0.17, "a": 0.1},
        attacks=(("b", "a"), ("c", "a")),
        supports=(("f", "e"), ("e", "b"), ("e", "d"), ("e", "c"), ("d", "a")),
    ),
    "figA6": qbag(
        {"f": 1.0, "e": 0.495, "b": 0.15, "d": 0.2, "c": 0.15, "a": 0.1},
        attacks=(("b", "a"), ("c", "a")),
        supports=(("f", "e"), ("e", "b"), ("e", "d"), ("e", "c"), ("d", "a")),
    ),
    "figA7": qbag(
        {"f": 1.0, "e": 0.025, "b": 0.11, "d": 0.54, "c": 0.1, "g": 0.4, "a": 0.3},
        attacks=(("b", "a"), ("c", "a"), ("g", "a")),
        supports=(("f", "e"), ("e", "b"), ("e", "d"), ("e", "c"), ("d", "a")),
    ),
    "figA8": qbag(
        {"f": 1.0, "e": 0.25, "b": 0.4, "d": 0.51, "c": 0.55, "g": 0.429, "a": 0.3},
        attacks=(("f", "e"), ("b", "a"), ("c", "d"), ("g", "a"), ("g", "d")),
        supports=(("e", "b"), ("e", "d"), ("d", "a")),
    ),
    "figA9": qbag(
        {"d": 0.4, "b": 0.4, "c": 0.4, "a": 0.2, "e": 0.1},
        attacks=(("b", "a"), ("e", "a")),
        supports=(("d", "b"), ("d", "c"), ("c", "a")),
    ),
    "figA10": qbag(
        {"c": 0.5, "d": 0.0, "b": 0.0, "x": 0.0, "a": 0.5},
        attacks=(("b", "a"), ("x", "a")),
        supports=(("c", "d"), ("c", "b"), ("c", "x"), ("d", "a")),
    ),
    "figA11": qbag(
        {"c": 1.0, "b": 0.0, "a": 0.5},
        attacks=(("c", "b"), ("b", "a")),
    ),
    "figA12": qbag(
        {"c": 1.0, "d": 0.0, "b": 0.5},
        attacks=(("d", "b"),),
        supports=(("c", "d"),),
    ),
}

for _slug, _tau in FIG6_REMOVAL_TAU.items():
    FIXTURES[f"fig6-{_slug}"] = _fig6(_tau)
for _slug, _tau in FIG6_SHAPLEY_TAU.items():
    FIXTURES[f"fig6-shapley-{_slug}"] = _fig6(_tau)

#: review-pipeline manifest matching the fig8 text layer
FIG8_ASPECTS = ("NOV", "CMP", "APR", "IMP", "CLA", "EMP", "SUB")
FIG8_MANIFEST = {"aspects": list(FIG8_ASPECTS), "decision_tau": 0.5}

FIXTURE_IDS = tuple(sorted(FIXTURES))


def fixture(fid: str) -> Qbag:
    try:
        return FIXTURES[fid]
    except KeyError:
        raise UnknownFixtureError(
            f"unknown fixture id {fid!r}; known ids: {', '.join(FIXTURE_IDS)}"
        ) from None
