"""Regression claims tying the bundled fixtures to expected behavior.

Each claim recomputes a documented number or a documented violation on a
bundled fixture and compares against the expected value at a stated
tolerance. `run_all` additionally regenerates the full principle-by-
function verdict matrix and demands zero mismatches.

A case study that repeats a shape is a row, built by one helper:
`_CF_ROWS` (counterfactuality) through `_cf_claims`, `_MARGIN_ROWS` (the
partition principles) through `_margin_claims`, and every printed Table 4
cell through `_table_claims`. A fixture's row claims follow its bespoke
ones. A claim reports rather than raises: a verdict without the witness or
margin a claim reads, or a table row that is missing, yields FAILED claims
(the missing number reads as NaN), so a regression shows as FAILED lines
and `ok` False, not as a traceback.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import nan
from typing import Iterable

from .contributions import CoalitionGame, Psi
from .errors import UnknownFixtureError
from .fixtures import FIG8_MANIFEST, SEMANTICS_SLUGS, fixture
from .principles import (
    MatrixReport,
    SearchConfig,
    check_consistency,
    check_contribution_existence,
    check_counterfactuality,
    check_monotonicity,
    check_quantitative_contribution_existence,
    run_matrix,
)
from .review import aspect_model, evaluate_text_layer, report_contributions
from .semantics import PRESET_NAMES, PRESETS, evaluate
from .verdicts import Status

EXACT = 1e-12
TIGHT = 1e-9
DISPLAY_2DP = 5e-3
DISPLAY_3DP = 5e-4 + 1e-12
DISPLAY_4DP = 5e-5 + 1e-12


@dataclass(frozen=True)
class ClaimResult:
    fixture: str
    name: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        tag = "REPRODUCED" if self.passed else "FAILED"
        line = f"{tag} {self.fixture}: {self.name}"
        if self.detail:
            line += f" [{self.detail}]"
        return line


def _near(fid: str, name: str, observed: float, expected: float,
          tol: float) -> ClaimResult:
    gap = abs(observed - expected)
    return ClaimResult(
        fid, name, gap <= tol,
        f"observed {observed!r}, expected {expected!r}, gap {gap:.3g} <= {tol:.3g}",
    )


def _sign(fid: str, name: str, observed: float, positive: bool,
          tol: float = TIGHT) -> ClaimResult:
    ok = observed > tol if positive else observed < -tol
    want = ">" if positive else "<"
    return ClaimResult(
        fid, name, ok, f"observed {observed!r}, want {want} {'+' if positive else '-'}{tol:g}",
    )


def _violated(fid: str, name: str, verdict, tol: float = TIGHT) -> ClaimResult:
    margin = None
    if verdict.witness is not None:
        margin = verdict.witness.values.get("margin")
    ok = verdict.status is Status.VIOLATED and margin is not None and margin > tol
    return ClaimResult(
        fid, name, ok,
        f"status {verdict.status.value}, margin {margin!r} > {tol:g}",
    )


def _satisfied(fid: str, name: str, verdict) -> ClaimResult:
    return ClaimResult(fid, name, verdict.status is Status.SATISFIED,
                       f"status {verdict.status.value}")


# ---------------------------------------------------------------------------
# per-fixture claim builders


def _claims_fig1a() -> list[ClaimResult]:
    fid = "fig1a"
    g = fixture(fid)
    sem = PRESETS["QE"]
    out = []
    sigma = evaluate(g, sem)
    displays = {"a": 0.39, "b": 0.95, "c": 0.61, "d": 0.55, "e": 0.57, "f": 0.60}
    for arg, want in displays.items():
        out.append(_near(fid, f"QE final strength of {arg} displays as {want:.2f}",
                         sigma[arg], want, DISPLAY_2DP))
    game = CoalitionGame(g, sem, "a")
    triple = [game.removal(m).value for m in _DF_SETS]
    for label, obs, up in zip(_DF_LABELS, triple, (False, False, True)):
        out.append(_sign(fid, f"removal of {label} {'raises' if up else 'lowers'} the topic",
                         obs, positive=up))
    # fig1a is fig6-qe: the same graph with the same strengths
    for label, obs, exp in zip(_DF_LABELS, triple, _FIG6_REMOVAL_TRIPLES["QE"]):
        out.append(_near(fid, f"removal of {label} regression value", obs, exp, TIGHT))
    return out


_FIG3_SIGMA = {
    "QE": 0.09999999999999998,
    "DFQuAD": 0.0,
    "SD-DFQuAD": 0.25,
    "EB": 0.29753420374977824,
    "EBT": 0.3665218026227227,
}


def _claims_fig3() -> list[ClaimResult]:
    fid = "fig3"
    g = fixture(fid)
    out = []
    for name in PRESET_NAMES:
        out.append(_near(fid, f"{name} final strength of a",
                         evaluate(g, PRESETS[name])["a"], _FIG3_SIGMA[name], TIGHT))
    for name in ("DFQuAD", "SD-DFQuAD", "EBT"):
        v = check_contribution_existence("gradient-max", g, PRESETS[name], "a")
        out.append(_violated(fid, f"{name}: no set has a nonzero gradient "
                                  "although sigma differs from tau", v))
    for name in ("QE", "EB"):
        v = check_contribution_existence("gradient-max", g, PRESETS[name], "a")
        out.append(_satisfied(fid, f"{name}: some set has a nonzero gradient", v))
    return out


def _margin_claims(fid: str, fn_id: str, mode: str, claim: str, gap_claim: str,
                   margins: dict[str, float],
                   sets: tuple[tuple[str, ...], ...] | None = None) -> list[ClaimResult]:
    """Shared shape of the partition case studies: under each preset in
    `margins` the All- or Exists-mode partition check flags `fn_id` on
    topic a with witness gap `margins[name]` and, if `sets` is given,
    witness partition `sets`. A missing witness or margin fails the claims
    that read it."""
    g = fixture(fid)
    label = sets and ",".join("{" + ",".join(b) + "}" for b in sets)
    out = []
    for name, margin in margins.items():
        v = check_quantitative_contribution_existence(fn_id, g, PRESETS[name], "a", mode=mode)
        w = v.witness
        out.append(_violated(fid, f"{name}: {claim}", v))
        if sets is not None:
            got = w and w.sets
            out.append(ClaimResult(fid, f"{name}: violating partition is {label}",
                                   got == sets, f"witness sets {got}"))
        out.append(_near(fid, f"{name}: {gap_claim}",
                         w.values.get("margin", nan) if w else nan, margin, TIGHT))
    return out


#: the partition case studies: fixture -> rows of (function, mode, claim,
#: gap claim, witness gap per preset[, witness sets])
_MARGIN_ROWS = {
    "fig3": [("removal", "All", "partition sums miss sigma-tau for removal",
              "removal partition gap regression",
              {"QE": 0.09999999999999998, "DFQuAD": 0.5, "SD-DFQuAD": 0.25,
               "EB": 0.06449059850433281, "EBT": 0.13347819737727729})],
    "fig4": [("shapley", "All", "set Shapley sums miss sigma-tau on some partition",
              "Shapley partition gap regression",
              {"QE": 0.0007985648059948003, "DFQuAD": 0.010416666666666685,
               "SD-DFQuAD": 0.004563492063492047, "EB": 0.00044789495651506583,
               "EBT": 0.0017184087535203618},
              (("b", "c"), ("d",)))],
    "fig5": [("gradient-max", "Exists", "gradient-max sums miss sigma-tau on every partition",
              "closest gradient partition gap",
              {"QE": 0.24000000000000002, "DFQuAD": 0.5, "SD-DFQuAD": 0.25,
               "EB": 0.11342272348699982, "EBT": 0.13347819737727729})],
}


_DF_SETS = (("d",), ("f",), ("d", "f"))
_DF_LABELS = ("{d}", "{f}", "{d,f}")
_FIG6_REMOVAL_TRIPLES = {
    "QE": (-0.012530465952907854, -0.011009024857438043, 0.008610357524313828),
    "DFQuAD": (-0.0018816000000000388, -0.0018816000000000388, 0.08547839999999995),
    "SD-DFQuAD": (-0.005990409443009992, -0.006537110112439404, 0.0017873683347677805),
    "EB": (-0.0006701465253423633, -0.0008107060775821573, 0.0032196685074559195),
    "EBT": (0.0, 0.0, 0.00011865317747705717),
}
_FIG6_SHAPLEY_TRIPLES = {
    "QE": (-0.0022384518797693926, -0.0022384518797693926, 0.0016886656407911265),
    "DFQuAD": (-0.0021499999999999957, -0.0021499999999999974, 0.0030000000000000183),
    "SD-DFQuAD": (0.0007512916100751773, 0.0007512916100751773, -0.0024529168368774504),
    "EB": (-0.0003884521884421656, -0.0004718370341344337, 0.0012465052754263486),
    "EBT": (0.00023927682364302538, 0.00010974659598903002, -0.0004357850024066614),
}


def _claims_fig6(slug: str, shapley_family: bool) -> list[ClaimResult]:
    name = SEMANTICS_SLUGS[slug]
    fid = f"fig6-shapley-{slug}" if shapley_family else f"fig6-{slug}"
    g = fixture(fid)
    sem = PRESETS[name]
    game = CoalitionGame(g, sem, "a")
    out = []
    if shapley_family:
        triple = tuple(game.shapley(m).value for m in _DF_SETS)
        frozen = _FIG6_SHAPLEY_TRIPLES[name]
        fns = ("shapley",)
    else:
        triple = tuple(game.removal(m).value for m in _DF_SETS)
        frozen = _FIG6_REMOVAL_TRIPLES[name]
        fns = ("removal", "intrinsic")
        triple_i = tuple(game.intrinsic(m).value for m in _DF_SETS)
        gap = max(abs(x - y) for x, y in zip(triple, triple_i))
        out.append(ClaimResult(
            fid, f"{name}: intrinsic removal equals removal on d, f, d+f",
            gap <= EXACT, f"max gap {gap:.3g} <= {EXACT:g}"))
    for label, obs, exp in zip(_DF_LABELS, triple, frozen):
        out.append(_near(fid, f"{name}: contribution of {label} regression",
                         obs, exp, TIGHT))
    parts, union = triple[:2], triple[2]
    crossing = ((max(parts) <= TIGHT and union > TIGHT)
                or (min(parts) >= -TIGHT and union < -TIGHT))
    out.append(ClaimResult(
        fid, f"{name}: union contribution crosses zero against its parts",
        crossing, f"values {triple!r}"))
    for fn in fns:
        v = check_consistency(fn, g, sem, "a")
        out.append(_violated(fid, f"{name}: consistency check flags {fn}", v))
    return out


_FIG7_SINGLE = {
    ("removal", "QE"): 0.25, ("removal", "DFQuAD"): 0.5,
    ("removal", "SD-DFQuAD"): 0.25,
    ("removal", "EB"): 0.13347819737727729,
    ("removal", "EBT"): 0.13347819737727729,
    ("intrinsic", "QE"): 0.25, ("intrinsic", "DFQuAD"): 0.5,
    ("intrinsic", "SD-DFQuAD"): 0.25,
    ("intrinsic", "EB"): 0.13347819737727729,
    ("intrinsic", "EBT"): 0.13347819737727729,
    ("shapley", "QE"): 0.25, ("shapley", "DFQuAD"): 0.5,
    ("shapley", "SD-DFQuAD"): 0.25,
    ("shapley", "EB"): 0.15778293047582453,
    ("shapley", "EBT"): 0.15778293047582453,
}
_FIG7_FNS = ("removal", "intrinsic", "shapley")


def _claims_fig7() -> list[ClaimResult]:
    fid = "fig7"
    g = fixture(fid)
    out = []
    for name in PRESET_NAMES:
        sem = PRESETS[name]
        game = CoalitionGame(g, sem, "a")
        for fn_id in _FIG7_FNS:
            sc = game.contribution(fn_id, ("c",)).value
            sbc = game.contribution(fn_id, ("b", "c")).value
            out.append(_near(fid, f"{name}: {fn_id} of the superset {{b,c}} is zero",
                             sbc, 0.0, EXACT))
            out.append(_near(fid, f"{name}: {fn_id} of {{c}} regression",
                             sc, _FIG7_SINGLE[(fn_id, name)], TIGHT))
            v = check_monotonicity(fn_id, g, sem, "a")
            out.append(_violated(fid, f"{name}: monotonicity check flags {fn_id}", v))
    return out


_TABLE4_ROWS = {
    # label -> (removal, shapley, gradient-max) at three printed decimals
    "{NOV,IMP}": (0.045, 0.048, 0.200),
    "NOV": (0.120, 0.210, 0.200),
    "IMP": (-0.075, -0.163, -0.150),
    "CMP": (-0.175, -0.263, -0.250),
    "APR": (0.120, 0.210, 0.200),
    "CMP+APR+{NOV,IMP}": (-0.010, -0.005, 0.150),
}


def _table_claims(fid: str, prefix: str,
                  computed: dict[str, tuple[float, float, float]]) -> list[ClaimResult]:
    """One claim per printed Table 4 cell, read from `computed`: row label ->
    (removal, shapley, gradient-max). A missing row fails its cells."""
    return [_near(fid, f"{prefix}{col} of {label} prints as {want:.3f}", obs, want, DISPLAY_3DP)
            for label, row in _TABLE4_ROWS.items()
            for col, want, obs in zip(("removal", "shapley", "gradient-max"), row,
                                      computed.get(label, (nan, nan, nan)))]


def _claims_table4() -> list[ClaimResult]:
    fid = "table4"
    g = fixture(fid)
    sem = PRESETS["DFQuAD"]
    out = []
    game = CoalitionGame(g, sem, "D")
    sigma_d = game.value()
    out.append(_near(fid, "decision strength sigma(D)", sigma_d, 0.495, DISPLAY_3DP))
    member_sets = {
        "{NOV,IMP}": ("NOV", "IMP"), "NOV": ("NOV",), "IMP": ("IMP",),
        "CMP": ("CMP",), "APR": ("APR",),
    }
    computed = {}
    for label, members in member_sets.items():
        r = game.removal(members).value
        s = game.shapley(members).value
        gm = game.gradient(members, Psi.MAX).value
        computed[label] = (r, s, gm)
        ri = game.intrinsic(members).value
        out.append(ClaimResult(
            fid, f"intrinsic equals removal for {label}",
            abs(ri - r) <= EXACT, f"gap {abs(ri - r):.3g}"))
    computed["CMP+APR+{NOV,IMP}"] = tuple(
        computed["CMP"][i] + computed["APR"][i] + computed["{NOV,IMP}"][i]
        for i in range(3)
    )
    out += _table_claims(fid, "", computed)
    blocks = (("NOV", "IMP"), ("CMP",), ("APR",))
    pshap = {b: game.partition_shapley(b, blocks).value for b in blocks}
    total = sum(pshap.values())
    delta = sigma_d - g.initial_strength["D"]
    out.append(_near(fid, "partition Shapley blocks sum to sigma(D)-tau(D)",
                     total, delta, TIGHT))
    out.append(_near(fid, "partition Shapley of {NOV,IMP} equals set Shapley",
                     pshap[("NOV", "IMP")], computed["{NOV,IMP}"][1], EXACT))
    return out


_FIG8_TEXT_SIGMA = {
    "NOV": 0.8, "CMP": 0.15, "APR": 0.8, "IMP": 0.25,
    "CLA": 0.0, "EMP": 0.0, "SUB": 0.0,
}


def _claims_fig8() -> list[ClaimResult]:
    fid = "fig8"
    out = []
    model = aspect_model(fixture("fig8"), FIG8_MANIFEST)
    report = report_contributions(model, ("NOV", "IMP"))
    sigma = evaluate_text_layer(model)
    for a, want in _FIG8_TEXT_SIGMA.items():
        out.append(_near(fid, f"text-layer strength of {a}", sigma[a], want, TIGHT))
    dg = report.graph
    t4 = fixture("table4")
    shape_ok = (dg.arguments == t4.arguments and dg.attacks == t4.attacks
                and dg.supports == t4.supports)
    out.append(ClaimResult(fid, "decision graph matches the bundled decision "
                                "fixture (nodes and edges)", shape_ok,
                           f"args {sorted(dg.arguments)}"))
    tau_gap = max(abs(dg.initial_strength[a] - t4.initial_strength[a])
                  for a in dg.arguments)
    out.append(ClaimResult(fid, "decision graph base scores match the bundled "
                                "decision fixture", tau_gap <= EXACT,
                           f"max gap {tau_gap:.3g} <= {EXACT:g}"))
    out += _table_claims(fid, "pipeline ", {
        r.label: (r.removal, r.shapley, r.gradient_max) for r in report.rows})
    out.append(_near(fid, "pipeline decision strength", report.sigma_decision,
                     0.495, DISPLAY_3DP))
    return out


def _cf_claims(fid: str, sem_name: str, fn_id: str, members: tuple[str, ...],
               topic: str, value: float, value_tol: float, delta: float,
               delta_tol: float, note: str,
               regression: float | None = None) -> list[ClaimResult]:
    """Shared shape of the counterfactuality case studies: the function
    reports `value` on the designated set while actually removing it moves
    the topic by `delta`, and the checker flags the disagreement. A
    `regression` pins the function's exact value as well."""
    g = fixture(fid)
    sem = PRESETS[sem_name]
    game = CoalitionGame(g, sem, topic)
    obs = game.contribution(fn_id, members).value
    obs_delta = game.removal(members).value
    label = "{" + ",".join(members) + "}"
    out = [
        _near(fid, f"{sem_name}: {fn_id} of {label} {note}", obs, value, value_tol),
        _near(fid, f"{sem_name}: removing {label} moves the topic by",
              obs_delta, delta, delta_tol),
        _violated(fid, f"{sem_name}: counterfactuality check flags {fn_id}",
                  check_counterfactuality(fn_id, g, sem, topic)),
    ]
    if regression is not None:
        out.append(_near(fid, f"{sem_name}: {fn_id} of {label} regression",
                         obs, regression, TIGHT))
    return out


#: the counterfactuality case studies: fixture -> rows of
#: (semantics, function, members, topic, value, value_tol, delta, delta_tol,
#: note[, regression])
_CF_ROWS = {
    "figA1": [
        ("QE", "intrinsic", ("b",), "a", 0.0, EXACT, -0.19999999999999996, TIGHT,
         "is exactly zero"),
        ("DFQuAD", "intrinsic", ("b",), "a", 0.0, EXACT, -1.0, TIGHT, "is exactly zero"),
        ("SD-DFQuAD", "intrinsic", ("b",), "a", 0.0, EXACT, -0.33333333333333326, TIGHT,
         "is exactly zero"),
    ],
    "figA2": [("EB", "intrinsic", ("e",), "a", 3.5431e-06, 1e-9, -2.5002969854526214e-06,
               TIGHT, "is tiny but positive")],
    "figA3": [("EBT", "intrinsic", ("b",), "a", 0.0, EXACT, -0.014506272286975541, TIGHT,
               "is exactly zero")],
    "figA4": [("QE", "shapley", ("e",), "a", 4.9326e-05, 1e-8, -0.0149, DISPLAY_3DP,
               "is tiny but positive")],
    "figA5": [("DFQuAD", "shapley", ("e",), "a", 0.0027, DISPLAY_4DP, -0.0049, DISPLAY_4DP,
               "is small but positive")],
    # figA6's 0.0022 display is looser than half an ulp of the last printed
    # digit; the regression pins the exact value
    "figA6": [("SD-DFQuAD", "shapley", ("e",), "a", 0.0022, 1.5e-4, -0.0109, DISPLAY_4DP,
               "is small but positive", 0.0021298615641224135)],
    "figA7": [("EB", "shapley", ("f",), "a", 3.4380e-06, 1e-9, -7.8369e-05, 1e-9,
               "is tiny but positive")],
    "figA8": [("EBT", "shapley", ("f",), "a", -2.7043e-05, 1e-9, 7.3331e-05, 1e-9,
               "is tiny but negative")],
    "figA10": [("DFQuAD", "gradient-max", ("c",), "a", 0.0, TIGHT, -0.125, TIGHT, "is zero")],
    "figA11": [("SD-DFQuAD", "gradient-max", ("b",), "a", -0.25, TIGHT, 0.0, EXACT,
                "is negative")],
    "figA12": [(name, "gradient-max", ("d",), "b", -0.4530, DISPLAY_3DP, 0.0, EXACT,
                "is negative", -0.45304697140984085) for name in ("EB", "EBT")],
}


def _claims_figA2() -> list[ClaimResult]:
    return [_near("figA2", "EB: final strength of e",
                  evaluate(fixture("figA2"), PRESETS["EB"])["e"], 0.05194178818970596, TIGHT)]


def _claims_figA9() -> list[ClaimResult]:
    fid = "figA9"
    g = fixture(fid)
    sem = PRESETS["QE"]
    game = CoalitionGame(g, sem, "a")
    out = []
    gd = game.gradient(("d",), Psi.MAX).value
    dd = game.removal(("d",)).value
    out.append(_near(fid, "QE: gradient-max of {d} is exactly zero", gd, 0.0, EXACT))
    out.append(_near(fid, "QE: removing {d} does not move the topic", dd, 0.0, EXACT))
    gbc = game.gradient(("b", "c"), Psi.MAX).value
    dbc = game.removal(("b", "c")).value
    out.append(_near(fid, "QE: gradient-max of {b,c} regression", gbc,
                     0.03380331204851452, TIGHT))
    out.append(_near(fid, "QE: removing {b,c} does not move the topic", dbc,
                     0.0, EXACT))
    out.append(_violated(fid, "QE: counterfactuality check flags gradient-max",
                         check_counterfactuality("gradient-max", g, sem, "a")))
    return out


def _builders():
    builders = {
        "fig1a": _claims_fig1a,
        "fig3": _claims_fig3,
        "fig7": _claims_fig7,
        "table4": _claims_table4,
        "fig8": _claims_fig8,
        "figA2": _claims_figA2,
        "figA9": _claims_figA9,
    }
    # a fixture's row claims come after its bespoke ones
    for table, helper in ((_CF_ROWS, _cf_claims), (_MARGIN_ROWS, _margin_claims)):
        for fid, rows in table.items():
            builders[fid] = (
                lambda fid=fid, rows=rows, helper=helper, first=builders.get(fid, list):
                first() + [claim for row in rows for claim in helper(fid, *row)])
    for slug in SEMANTICS_SLUGS:
        builders[f"fig6-{slug}"] = (
            lambda s=slug: _claims_fig6(s, shapley_family=False))
        builders[f"fig6-shapley-{slug}"] = (
            lambda s=slug: _claims_fig6(s, shapley_family=True))
    return builders


CLAIM_FIXTURES = tuple(sorted(_builders()))


def run_claims(fixture_ids: Iterable[str] | None = None) -> list[ClaimResult]:
    builders = _builders()
    if fixture_ids is None:
        ids = CLAIM_FIXTURES
    else:
        ids = tuple(fixture_ids)
        unknown = [fid for fid in ids if fid not in builders]
        if unknown:
            raise UnknownFixtureError(
                f"no claims for fixture id(s): {', '.join(unknown)}; "
                f"known: {', '.join(CLAIM_FIXTURES)}")
    results = []
    for fid in ids:
        results.extend(builders[fid]())
    return results


@dataclass(frozen=True)
class ReproduceReport:
    claims: tuple[ClaimResult, ...]
    matrix: MatrixReport | None = None

    @property
    def ok(self) -> bool:
        claims_ok = all(c.passed for c in self.claims)
        matrix_ok = self.matrix is None or self.matrix.ok
        return claims_ok and matrix_ok

    def render(self) -> str:
        lines = [c.render() for c in self.claims]
        passed = sum(c.passed for c in self.claims)
        lines.append(f"claims: {passed}/{len(self.claims)} reproduced")
        if self.matrix is not None:
            bad = self.matrix.mismatches()
            lines.append(
                f"verdict matrix: {len(self.matrix.cells)} cells, "
                f"{len(bad)} mismatch(es)")
            for cell in bad:
                lines.append(
                    f"MISMATCH {cell.fn} x {cell.semantics} x "
                    f"{cell.principle.value}: {cell.status}")
        lines.append("reproduce: OK" if self.ok else "reproduce: FAILED")
        return "\n".join(lines)


def run_all(cfg: SearchConfig | None = None) -> ReproduceReport:
    return ReproduceReport(claims=tuple(run_claims()), matrix=run_matrix(cfg=cfg))


def run_some(fixture_ids: Iterable[str]) -> ReproduceReport:
    return ReproduceReport(claims=tuple(run_claims(fixture_ids)))
