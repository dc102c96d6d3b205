"""Command-line front end.

Subcommands: eval, contrib, principles, signmap, pipeline, reproduce.
Graph arguments accept either a bundled fixture id (fig1a, fig3, ...,
table4) or a path to a JSON graph file. Exit codes: 0 success, 1 failed
reproduction, 2 validation or usage problem, 3 semantics error, 4 topic
inside a contributor set, 5 budget or partition-space exceeded, 6
principle violated although --expect-satisfied was given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .contributions import (
    DEFAULT_BUDGET,
    FUNCTION_IDS,
    apply_set_function,
    partition_shapley,
    shapley,
    sign_map,
)
from .errors import (
    BudgetError,
    ContributorError,
    GraphError,
    PartitionSpaceError,
    QbagError,
    SemanticsError,
    TopicInSetError,
)
from .fixtures import FIG8_MANIFEST, FIXTURE_IDS, fixture
from .graph import Qbag, load_graph, validate
from .principles import (
    TABLE_PRINCIPLES,
    SearchConfig,
    principle_from_name,
    random_corpus,
    run_check,
    topics_of,
)
from .reproduce import run_all, run_some
from .review import aspect_model, report_contributions
from .semantics import PRESET_NAMES, evaluate, semantics_from_spec

BUDGET_ENV = "QBAGLAB_EVAL_BUDGET"


class UsageError(Exception):
    pass


def _budget(override: int | None) -> int:
    if override is not None:
        return override
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{BUDGET_ENV} must be an integer, got {raw!r}")


def _load(token: str) -> Qbag:
    if token in FIXTURE_IDS:
        return fixture(token)
    if not os.path.exists(token):
        raise UsageError(
            f"{token!r} is neither a fixture id nor an existing file; "
            f"fixture ids: {', '.join(FIXTURE_IDS)}")
    g = load_graph(token)
    report = validate(g)
    if not report.ok:
        raise GraphError("; ".join(report.messages()))
    return g


def _semantics(token: str):
    token = token.strip()
    if token.startswith("{"):
        try:
            spec = json.loads(token)
        except json.JSONDecodeError as exc:
            raise SemanticsError(f"bad semantics JSON: {exc}") from exc
        return semantics_from_spec(spec)
    return semantics_from_spec(token)


def _split_ids(raw: str) -> tuple[str, ...]:
    out = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not out:
        raise UsageError(f"empty id list: {raw!r}")
    return out


def _split_partition(raw: str) -> tuple[tuple[str, ...], ...]:
    blocks = tuple(_split_ids(block) for block in raw.split("|") if block.strip())
    if not blocks:
        raise UsageError(f"empty partition: {raw!r}")
    return blocks


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args) -> int:
    g = _load(args.file)
    sem = _semantics(args.semantics)
    sigma = evaluate(g, sem)
    order = sorted(g.arguments)
    if args.json:
        _emit_json({
            "file": args.file,
            "semantics": sem.label(),
            "initial": {a: g.initial_strength[a] for a in order},
            "final": {a: sigma[a] for a in order},
        })
    elif args.csv:
        print("argument,initial,display,final")
        for a in order:
            print(f"{a},{g.initial_strength[a]!r},{sigma[a]:.2f},{sigma[a]!r}")
    else:
        print(f"semantics: {sem.label()}")
        for a in order:
            print(f"{a}: {g.initial_strength[a]:g} -> {sigma[a]:.2f}  "
                  f"({sigma[a]!r})")
    return 0


def cmd_contrib(args) -> int:
    sampling = {k: getattr(args, k) for k in ("samples", "seed") if getattr(args, k) is not None}
    if sampling and not args.monte_carlo:
        raise UsageError("--samples and --seed only apply with --monte-carlo")
    g = _load(args.file)
    sem = _semantics(args.semantics)
    members = _split_ids(args.set)
    budget = _budget(args.budget)
    if args.partition is not None:
        if args.function != "shapley":
            raise UsageError("--partition only makes sense with --function shapley")
        if args.monte_carlo:
            raise UsageError("--partition is exact; it does not take --monte-carlo")
        blocks = _split_partition(args.partition)
        result = partition_shapley(g, sem, members, blocks, args.topic,
                                   budget=budget)
    elif args.monte_carlo:
        if args.function != "shapley":
            raise UsageError("--monte-carlo only makes sense with --function shapley")
        result = shapley(g, sem, members, args.topic, monte_carlo=True, **sampling)
    else:
        result = apply_set_function(args.function, g, sem, members, args.topic,
                                    budget=budget)
    if args.json:
        _emit_json({
            "file": args.file,
            "function": result.function,
            "semantics": result.semantics,
            "topic": result.topic,
            "members": list(result.members),
            "value": result.value,
            "evaluations": result.evaluations,
            "std_error": result.std_error,
        })
        return 0
    label = "{" + ",".join(result.members) + "}"
    print(f"{result.function}({label}) -> {result.topic} under {result.semantics}")
    print(f"value: {result.value!r}")
    print(f"evaluations: {result.evaluations}")
    if result.std_error is not None:
        print(f"std_error: {result.std_error!r}")
    return 0


def _parse_random(raw: str, budget: int) -> SearchConfig:
    fields = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"--random expects key=value pairs, got {part!r}")
        key, value = part.split("=", 1)
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {"seed", "n"}
    if unknown:
        raise UsageError(f"--random supports seed=... and n=..., got {sorted(unknown)}")
    try:
        seed = int(fields.get("seed", 0))
        n = int(fields.get("n", 5))
    except ValueError as exc:
        raise UsageError(f"--random values must be integers: {exc}")
    if n < 1:
        raise UsageError(f"--random needs n of at least 1, got n={n}")
    return SearchConfig(seed=seed, random_graphs=n, budget=budget)


def cmd_principles(args) -> int:
    if (args.file is None) == (args.random is None):
        raise UsageError("give a graph (fixture id or file) or --random, not both")
    sem = _semantics(args.semantics)
    if args.principle.lower() == "all":
        principles = list(TABLE_PRINCIPLES)
    else:
        try:
            principles = [principle_from_name(args.principle)]
        except ValueError as exc:
            raise UsageError(str(exc))
    cfg = SearchConfig(budget=_budget(args.budget))
    if args.random is not None:
        cfg = _parse_random(args.random, cfg.budget)
        graphs = [(f"random-{i}", g) for i, g in enumerate(random_corpus(cfg))]
    else:
        graphs = [(args.file, _load(args.file))]

    table = [p for p in principles if p in TABLE_PRINCIPLES]
    whole = [p for p in principles if p not in TABLE_PRINCIPLES]  # whole-graph checks
    results = []
    for gname, g in graphs:
        if args.topic is not None:
            if args.topic not in g.arguments:
                raise UsageError(f"topic {args.topic!r} not in graph {gname}")
            topic_list = [args.topic]
        else:
            topic_list = topics_of(g)
        for principle in whole:
            verdict = run_check(principle, args.function, g, sem, args.topic, cfg=cfg)
            results.append((gname, args.topic or "*", verdict))
        for topic in topic_list:
            for principle in table:
                verdict = run_check(principle, args.function, g, sem, topic, cfg=cfg)
                results.append((gname, topic, verdict))
    any_violation = any(v.violated for _, _, v in results)

    if args.json:
        _emit_json({
            "semantics": sem.label(),
            "function": args.function,
            "results": [{"graph": gname, "topic": topic, **v.to_dict()}
                        for gname, topic, v in results],
        })
    else:
        for gname, topic, v in results:
            line = (f"{gname} topic={topic} {v.principle.value}: {v.status.value}"
                    f" (checked {v.checked})")
            if v.witness is not None and v.witness.sets:
                sets = ", ".join("{" + ",".join(s) + "}" for s in v.witness.sets)
                line += f" witness {sets}"
                margin = v.witness.values.get("margin")
                if margin is not None:
                    line += f" margin {margin:g}"
            print(line)
        if not any_violation:
            print("satisfied over corpus" if args.random else "no violation found")
    if args.expect_satisfied and any_violation:
        return 6
    return 0


def cmd_signmap(args) -> int:
    g = _load(args.file)
    sem = _semantics(args.semantics)
    sweep = _split_ids(args.sweep)
    if len(sweep) != 2:
        raise UsageError(f"--sweep needs exactly two arguments, got {args.sweep!r}")
    if args.sets is not None:
        sets = _split_partition(args.sets)
    else:
        sets = ((sweep[0],), (sweep[1],), (sweep[0], sweep[1]))
    grid = sign_map(g, sem, args.topic, sets, (sweep[0], sweep[1]),
                    step=args.step, function=args.function)
    text = grid.to_csv()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({len(grid.rows)} rows)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_pipeline(args) -> int:
    g = _load(args.file)
    if args.manifest is not None:
        with open(args.manifest) as fh:
            manifest = json.load(fh)
    elif args.file == "fig8":
        manifest = FIG8_MANIFEST
    else:
        raise UsageError("--manifest is required for graphs other than fig8")
    model = aspect_model(g, manifest)
    report = report_contributions(model, _split_ids(args.focus),
                                  budget=_budget(args.budget))
    if args.json:
        _emit_json(report.to_dict())
    elif args.csv:
        sys.stdout.write(report.to_csv())
    else:
        print(f"decision {report.decision_id}: tau {report.decision_tau:g} -> "
              f"sigma {report.sigma_decision!r}")
        sys.stdout.write(report.to_csv())
    return 0


def cmd_reproduce(args) -> int:
    if args.all:
        if args.fixtures:
            raise UsageError("--all does not take fixture ids")
        report = run_all()
    else:
        if not args.fixtures:
            raise UsageError("give fixture ids or --all")
        report = run_some(args.fixtures)
    print(report.render())
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbaglab",
        description="Evaluate gradual bipolar argumentation graphs and "
                    "explain them with set contribution functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="final strengths under a semantics")
    p.add_argument("file", help="fixture id or graph JSON path")
    p.add_argument("--semantics", default="QE",
                   help=f"preset ({', '.join(PRESET_NAMES)}) or JSON spec")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("contrib", help="set contribution of some arguments")
    p.add_argument("file")
    p.add_argument("--semantics", default="QE")
    p.add_argument("--function", default="removal", choices=FUNCTION_IDS)
    p.add_argument("--topic", required=True)
    p.add_argument("--set", required=True, help="comma-separated member ids")
    p.add_argument("--partition", help="blocks like 'x,y|z|w' (shapley only)")
    p.add_argument("--monte-carlo", action="store_true",
                   help="sample coalitions instead of exact shapley")
    p.add_argument("--samples", type=int, help="Monte-Carlo draws (shapley's default if unset)")
    p.add_argument("--seed", type=int, help="Monte-Carlo seed (shapley's default if unset)")
    p.add_argument("--budget", type=int, default=None,
                   help=f"evaluation budget (default {DEFAULT_BUDGET}, "
                        f"or {BUDGET_ENV})")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_contrib)

    p = sub.add_parser("principles", help="check principles on a graph or corpus")
    p.add_argument("file", nargs="?", help="fixture id or graph JSON path")
    p.add_argument("--random", help="random corpus spec like 'seed=7,n=5'")
    p.add_argument("--semantics", default="QE")
    p.add_argument("--function", default="removal", choices=FUNCTION_IDS)
    p.add_argument("--principle", default="all",
                   help="principle name or 'all'")
    p.add_argument("--topic", default=None)
    p.add_argument("--expect-satisfied", action="store_true",
                   help="exit 6 if any violation is found")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_principles)

    p = sub.add_parser("signmap", help="sign grid of set contributions while "
                                       "sweeping two initial strengths")
    p.add_argument("file")
    p.add_argument("--semantics", default="QE")
    p.add_argument("--function", default="removal", choices=FUNCTION_IDS)
    p.add_argument("--topic", required=True)
    p.add_argument("--sweep", required=True, help="two ids like 'd,f'")
    p.add_argument("--sets", default=None,
                   help="sets like 'd|f|d,f' (default: singletons plus pair)")
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("-o", "--output", default=None, help="write CSV here")
    p.set_defaults(fn=cmd_signmap)

    p = sub.add_parser("pipeline", help="two-layer review aggregation table")
    p.add_argument("file", help="text-layer graph (fixture id or path)")
    p.add_argument("--manifest", default=None,
                   help="JSON with aspects/decision_tau (built in for fig8)")
    p.add_argument("--focus", default="NOV,IMP",
                   help="comma-separated focus aspect ids")
    p.add_argument("--budget", type=int, default=None)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("reproduce", help="replay the documented fixture claims")
    p.add_argument("fixtures", nargs="*", metavar="FIXTURE")
    p.add_argument("--all", action="store_true",
                   help="every claim plus the full verdict matrix")
    p.set_defaults(fn=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except TopicInSetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (BudgetError, PartitionSpaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except SemanticsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, GraphError, ContributorError, QbagError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: bad JSON: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
