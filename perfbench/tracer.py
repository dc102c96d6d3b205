"""Per-layer tracing from outside the package.

`Tracer.install()` wraps each layer's public functions and patches the name
in every qbaglab module that holds it; `uninstall()` puts the originals
back. Spans (function, parent span, op id, start, end in process time) go
into flat arrays in memory and are written out once, after the traced pass.
A layer's self time is its spans' time minus that of their direct child
spans.

Calls a module makes through a default argument or a reference taken at
import time are not seen, e.g. `check_stability`'s `evaluator=evaluate`.
"""

import csv
import sys
import time
from array import array

LAYERS = {
    "graph": ("qbag", "restrict", "detach_incoming", "set_initial_strength",
              "topological_order", "influencers", "can_reach", "graph_from_json",
              "graph_from_dict", "graph_to_json", "graph_to_dict"),
    "semantics": ("evaluate", "evaluate_dual"),
    "contributions": ("removal", "intrinsic_removal", "shapley", "partition_shapley",
                      "gradient", "single_contribution", "apply_set_function",
                      "sign_map"),
    "principles": ("run_check", "check_generalization", "check_contribution_existence",
                   "check_quantitative_contribution_existence", "check_directionality",
                   "check_counterfactuality", "check_consistency", "check_monotonicity"),
    "review": ("aspect_model", "build_decision_graph", "report_contributions"),
}
# graph constructions that `graph.build.calls` counts
BUILDERS = ("qbag", "set_initial_strength", "detach_incoming", "graph_from_json")
# functions returning a ContributionResult whose `evaluations` are summed;
# the dispatchers around them would count the same work twice
PRODUCERS = ("removal", "intrinsic_removal", "shapley", "partition_shapley",
             "gradient", "single_contribution")

COUNT_METRICS = ("semantics.evaluate.calls", "semantics.nodes",
                 "contributions.evaluations", "principles.checked")


class Tracer:
    def __init__(self):
        self.functions = []  # (layer, name) by function id
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.nodes = 0
        self.evaluations = 0
        self.checked = 0
        self._patched = []

    def install(self):
        package = sys.modules["qbaglab"]
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qbaglab" or name.startswith("qbaglab.")]
        for layer, names in LAYERS.items():
            home = getattr(package, layer)
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(len(self.functions), name, original)
                self.functions.append((layer, name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fid, name, original):
        fids, parents, ops = self.fid, self.parent, self.op
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.process_time
        tracer = self
        if name in ("evaluate", "evaluate_dual"):
            def count(args, kwargs, result):
                tracer.nodes += len((args[0] if args else kwargs["g"]).arguments)
        elif name in PRODUCERS:
            def count(args, kwargs, result):
                tracer.evaluations += result.evaluations
        elif name == "run_check":
            def count(args, kwargs, result):
                tracer.checked += result.checked
        else:
            count = None

        def wrapper(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count is not None:
                count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.perfbench_traced = True
        return wrapper

    def metrics(self, stats, scale=1.0):
        """Per-layer metrics of everything recorded so far, plus the ones
        the explain checks measure (`stats`: lists by key, see worker.py).
        Times are multiplied by `scale`, the pass's factor to the reference
        host (worker.scaled)."""
        n = len(self.start)
        duration = [(self.end[i] - self.start[i]) * scale for i in range(n)]
        children = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                children[self.parent[i]] += duration[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(self.functions, 0)
        run_check_s = 0.0
        for i in range(n):
            key = self.functions[self.fid[i]]
            calls[key] += 1
            self_s[key[0]] += duration[i] - children[i]
            if key[1] == "run_check":
                run_check_s += duration[i]

        def count(layer, *names):
            return sum(calls[(layer, name)] for name in names)

        out = {
            "graph.restrict.calls": (count("graph", "restrict"), "count"),
            "graph.topological_order.calls": (count("graph", "topological_order"), "count"),
            "graph.build.calls": (count("graph", *BUILDERS), "count"),
            "graph.self_s": (self_s["graph"], "s"),
            "semantics.evaluate.calls": (count("semantics", "evaluate"), "count"),
            "semantics.evaluate_dual.calls": (count("semantics", "evaluate_dual"), "count"),
            "semantics.nodes": (self.nodes, "count"),
            "semantics.self_s": (self_s["semantics"], "s"),
            "semantics.ns_per_node": (
                self_s["semantics"] / self.nodes * 1e9 if self.nodes else 0.0, "ns"),
            "contributions.calls": (count("contributions", *LAYERS["contributions"]), "count"),
            "contributions.evaluations": (self.evaluations, "count"),
            "contributions.shapley_useful_ratio": (
                sum(stats["shapley_useful"]) / sum(stats["shapley_evaluations"])
                if stats["shapley_evaluations"] else 0.0, "ratio"),
            "contributions.mc_max_err_se": (max(stats["mc_err_se"], default=0.0), "se"),
            "contributions.self_s": (self_s["contributions"], "s"),
            "principles.run_check.calls": (count("principles", "run_check"), "count"),
            "principles.checked": (self.checked, "count"),
            "principles.self_s": (self_s["principles"], "s"),
            "principles.us_per_checked": (
                run_check_s / self.checked * 1e6 if self.checked else 0.0, "us"),
            "review.report_contributions.calls": (
                count("review", "report_contributions"), "count"),
            "review.self_s": (self_s["review"], "s"),
        }
        return {k: {"value": v, "unit": unit} for k, (v, unit) in out.items()}

    def write(self, path):
        """One CSV row per span; times in seconds from the first span."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "layer", "function", "parent", "op", "start_s", "end_s"])
            for i in range(len(self.start)):
                layer, name = self.functions[self.fid[i]]
                writer.writerow([i, layer, name, self.parent[i], self.op[i],
                                 f"{self.start[i] - origin:.9f}",
                                 f"{self.end[i] - origin:.9f}"])


def patched_functions():
    """Names in qbaglab modules that currently hold a tracing wrapper."""
    return sorted(f"{name}.{attr}" for name, module in list(sys.modules.items())
                  if name == "qbaglab" or name.startswith("qbaglab.")
                  for attr, value in vars(module).items()
                  if getattr(value, "perfbench_traced", False))
