"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Criteria 1-5 are desk-scale numeric reproductions on the bundled fixtures.
Criteria 6-10 are property-based checks over seeded random corpora, standing
in for claims that quantify over all graphs. Run with -s to see the lines.
"""

import hashlib
import json
import random

from qbaglab.contributions import (
    SingleKind,
    gradient,
    intrinsic_removal,
    partition_shapley,
    removal,
    shapley,
    single_contribution,
)
from qbaglab.fixtures import FIG8_MANIFEST, SEMANTICS_SLUGS, fixture
from qbaglab.graph import influencers, set_initial_strength
from qbaglab.principles import (
    SearchConfig,
    check_consistency,
    check_contribution_existence,
    check_monotonicity,
    check_quantitative_contribution_existence,
    random_corpus,
)
from qbaglab.reproduce import run_all, run_claims
from qbaglab.review import aspect_model, report_contributions
from qbaglab.semantics import PRESET_NAMES, PRESETS, evaluate, evaluate_dual
from qbaglab.verdicts import Status

TIGHT = 1e-9
DISPLAY_2DP = 5e-3
DISPLAY_3DP = 5e-4 + 1e-12  # inclusive at the rounding midpoint


def _criterion(n, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {verdict} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def _is_violation(verdict, tol=TIGHT):
    return (verdict.status is Status.VIOLATED
            and verdict.witness is not None
            and verdict.witness.values.get("margin", 0.0) > tol)


def test_acceptance_01_displayed_strengths():
    sigma = evaluate(fixture("fig1a"), PRESETS["QE"])
    shown = {"a": 0.39, "b": 0.95, "c": 0.61, "d": 0.55, "e": 0.57, "f": 0.60}
    gaps = {x: abs(sigma[x] - shown[x]) for x in shown}
    worst = max(gaps.values())
    _criterion(1, worst <= DISPLAY_2DP,
               f"six displayed strengths within 0.005 (worst gap {worst:.2e})")


def test_acceptance_02_review_table():
    model = aspect_model(fixture("fig8"), FIG8_MANIFEST)
    report = report_contributions(model, ("NOV", "IMP"))
    shown = {
        "{NOV,IMP}": (0.045, 0.048, 0.200),
        "NOV": (0.120, 0.210, 0.200),
        "IMP": (-0.075, -0.163, -0.150),
        "CMP": (-0.175, -0.263, -0.250),
        "APR": (0.120, 0.210, 0.200),
        "CMP+APR+{NOV,IMP}": (-0.010, -0.005, 0.150),
    }
    worst = 0.0
    assert [r.label for r in report.rows] == list(shown)
    for row in report.rows:
        want = shown[row.label]
        for got, ref in zip((row.removal, row.shapley, row.gradient_max), want):
            worst = max(worst, abs(got - ref))
    sigma_gap = abs(report.sigma_decision - 0.495)
    _criterion(2, worst <= DISPLAY_3DP and sigma_gap <= DISPLAY_3DP,
               f"18 table cells within 5e-4 (worst {worst:.2e}), "
               f"sigma(D) gap {sigma_gap:.2e}")


def test_acceptance_03_sign_inconsistency_example():
    g, sem = fixture("fig1a"), PRESETS["QE"]
    d = removal(g, sem, ("d",), "a").value
    f = removal(g, sem, ("f",), "a").value
    df = removal(g, sem, ("d", "f"), "a").value
    ok = d < -TIGHT and f < -TIGHT and df > TIGHT
    _criterion(3, ok,
               f"removal signs (d, f, both) = "
               f"({d:+.4f}, {f:+.4f}, {df:+.4f})")


def test_acceptance_04_violation_fixtures():
    bad = []
    checked = 0

    def expect_violation(label, verdict):
        nonlocal checked
        checked += 1
        if not _is_violation(verdict):
            bad.append(label)

    g3 = fixture("fig3")
    sigma3 = {name: evaluate(g3, PRESETS[name])["a"] for name in PRESET_NAMES}
    for name in ("DFQuAD", "SD-DFQuAD", "EBT"):
        singles = [gradient(g3, PRESETS[name], (x,), "a").value
                   for x in ("b", "c")]
        if max(abs(v) for v in singles) > TIGHT:
            bad.append(f"existence {name}: singleton gradient nonzero")
        if not sigma3[name] < g3.initial_strength["a"] - TIGHT:
            bad.append(f"existence {name}: topic did not drop")
        expect_violation(f"existence gradient-max {name}",
                         check_contribution_existence(
                             "gradient-max", g3, PRESETS[name], "a"))

    for name in PRESET_NAMES:
        expect_violation(f"partition-sum removal {name}",
                         check_quantitative_contribution_existence(
                             "removal", g3, PRESETS[name], "a", mode="All"))

    g4 = fixture("fig4")
    for name in PRESET_NAMES:
        verdict = check_quantitative_contribution_existence(
            "shapley", g4, PRESETS[name], "a", mode="All")
        expect_violation(f"partition-sum shapley {name}", verdict)
        if _is_violation(verdict) and verdict.witness.sets != (("b", "c"), ("d",)):
            bad.append(f"partition-sum shapley {name}: unexpected witness")

    g5 = fixture("fig5")
    for name in PRESET_NAMES:
        expect_violation(f"weak-existence gradient-max {name}",
                         check_quantitative_contribution_existence(
                             "gradient-max", g5, PRESETS[name], "a",
                             mode="Exists"))

    for slug, name in SEMANTICS_SLUGS.items():
        g6 = fixture(f"fig6-{slug}")
        for fn in ("removal", "intrinsic"):
            expect_violation(f"consistency {fn} {name}",
                             check_consistency(fn, g6, PRESETS[name], "a"))
        g6s = fixture(f"fig6-shapley-{slug}")
        expect_violation(f"consistency shapley {name}",
                         check_consistency("shapley", g6s, PRESETS[name], "a"))

    g7 = fixture("fig7")
    for fn in ("removal", "intrinsic", "shapley"):
        for name in PRESET_NAMES:
            expect_violation(f"monotonicity {fn} {name}",
                             check_monotonicity(fn, g7, PRESETS[name], "a"))

    _criterion(4, not bad,
               f"{checked} designated violations with margin > 1e-9"
               + (f"; failed: {bad}" if bad else ""))


def test_acceptance_05_counterexample_fixtures():
    ids = [f"figA{i}" for i in range(1, 13)]
    claims = run_claims(ids)
    failed = [c for c in claims if not c.passed]
    _criterion(5, not failed,
               f"12 figA fixtures, {len(claims)} claims reproduced"
               + (f"; failed: {[c.name for c in failed]}" if failed else ""))


def test_acceptance_06_singles_match_singleton_sets():
    cfg = SearchConfig(random_graphs=500, max_exhaustive_args=6, seed=0)
    corpus = random_corpus(cfg)
    kinds = (
        (SingleKind.REMOVAL, removal),
        (SingleKind.INTRINSIC_REMOVAL, intrinsic_removal),
        (SingleKind.SHAPLEY, shapley),
        (SingleKind.GRADIENT, gradient),
    )
    worst, pairs = 0.0, 0
    for g in corpus:
        args = sorted(g.arguments)
        for name in PRESET_NAMES:
            sem = PRESETS[name]
            for a in args:
                for x in args:
                    if x == a:
                        continue
                    pairs += 1
                    for kind, set_fn in kinds:
                        single = single_contribution(kind, g, sem, x, a).value
                        grouped = set_fn(g, sem, (x,), a).value
                        worst = max(worst, abs(single - grouped))
    _criterion(6, worst <= TIGHT,
               f"500 graphs, 5 presets, {pairs} (x, a) pairs, 4 function "
               f"pairs each; worst gap {worst:.2e}")


def test_acceptance_07_gradients_match_finite_differences():
    cfg = SearchConfig(random_graphs=200, seed=2)
    corpus = random_corpus(cfg)
    h = 1e-5
    worst, compared, skipped = 0.0, 0, 0
    for g in corpus:
        args = sorted(g.arguments)
        for name in PRESET_NAMES:
            sem = PRESETS[name]
            mid = evaluate(g, sem)
            for x in args:
                t = g.initial_strength[x]
                if t - h < 0.0 or t + h > 1.0:
                    skipped += 1
                    continue
                duals = evaluate_dual(g, sem, x)
                up = evaluate(set_initial_strength(g, x, t + h), sem)
                dn = evaluate(set_initial_strength(g, x, t - h), sem)
                for a in args:
                    forward = (up[a] - mid[a]) / h
                    backward = (mid[a] - dn[a]) / h
                    if abs(forward - backward) > 1e-4:
                        skipped += 1  # the step straddles a kink
                        continue
                    central = (up[a] - dn[a]) / (2 * h)
                    worst = max(worst, abs(duals[a].deriv - central))
                    compared += 1
    _criterion(7, worst <= 1e-6,
               f"200 graphs, 5 presets: {compared} interior derivatives "
               f"within 1e-6 of central differences (worst {worst:.2e}, "
               f"{skipped} boundary/kink points skipped)")


def test_acceptance_08_reachability_split_partition():
    cfg = SearchConfig(random_graphs=200, seed=3)
    corpus = random_corpus(cfg)
    worst, splits = 0.0, 0
    for g in corpus:
        args = sorted(g.arguments)
        for name in PRESET_NAMES:
            sem = PRESETS[name]
            sigma = evaluate(g, sem)
            for a in args:
                others = g.arguments - {a}
                if not others:
                    continue
                reach = influencers(g, a)
                blocks = []
                if reach:
                    blocks.append(tuple(sorted(reach)))
                if others - reach:
                    blocks.append(tuple(sorted(others - reach)))
                delta = sigma[a] - g.initial_strength[a]
                for fn in (removal, intrinsic_removal, shapley):
                    total = sum(fn(g, sem, b, a).value for b in blocks)
                    worst = max(worst, abs(total - delta))
                splits += 1
    _criterion(8, worst <= TIGHT,
               f"200 graphs, 5 presets, {splits} reachability splits sum to "
               f"sigma - tau for removal/intrinsic/shapley (worst gap "
               f"{worst:.2e})")


def test_acceptance_09_partition_shapley_efficiency():
    cfg = SearchConfig(random_graphs=100, seed=4)
    corpus = random_corpus(cfg)
    rng = random.Random(4)
    worst, partitions = 0.0, 0
    for g in corpus:
        args = sorted(g.arguments)
        sigmas = {name: evaluate(g, PRESETS[name]) for name in PRESET_NAMES}
        for _ in range(3):
            a = rng.choice(args)
            others = [x for x in args if x != a]
            if not others:
                continue
            grouping = {}
            used = 0
            for x in others:
                pick = rng.randint(0, used)
                if pick == used:
                    used += 1
                grouping.setdefault(pick, []).append(x)
            blocks = tuple(tuple(b) for b in grouping.values())
            partitions += 1
            for name in PRESET_NAMES:
                delta = sigmas[name][a] - g.initial_strength[a]
                total = sum(
                    partition_shapley(g, PRESETS[name], b, blocks, a).value
                    for b in blocks)
                worst = max(worst, abs(total - delta))
    _criterion(9, worst <= TIGHT,
               f"100 graphs x 3 random partitions x 5 presets: block values "
               f"sum to sigma - tau ({partitions} partitions, worst gap "
               f"{worst:.2e})")


#: sha256 of every verdict-matrix cell as JSON; recorded while run_matrix
#: still kept every game it built until it returned
MATRIX_SHA256 = "c883e14a868b58f0d994a7b50943affd9d7a6205898d29b79c62970f896e25c9"


def test_acceptance_10_full_reproduction():
    report = run_all()
    claims_ok = sum(c.passed for c in report.claims)
    mismatches = len(report.matrix.mismatches())
    _criterion(10, report.ok,
               f"reproduce --all: {claims_ok}/{len(report.claims)} claims, "
               f"verdict matrix {len(report.matrix.cells)} cells with "
               f"{mismatches} mismatch(es)")
    cells = [[c.fn, c.semantics, c.principle.value, c.expected_satisfied, c.status,
              c.fixture, c.checked, c.witness.to_dict() if c.witness else None]
             for c in report.matrix.cells]
    assert (len(cells), sum(c.checked for c in report.matrix.cells)) == (160, 2_591_962)
    text = json.dumps(cells, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == MATRIX_SHA256
