"""In-process traced run of beliefshift CLI commands, and its per-layer metrics.

``Tracer.install`` wraps, from outside, the public functions and methods of
each beliefshift module (its ``__all__``), so no source file changes; private
kernels such as ``_w2_mixture_update`` are deliberately left alone and count
toward the self time of the public function that calls them.  Every wrapped
call records a span: name, layer, start, end and the span that caused it.
``layer_metrics`` turns the spans into counts, inclusive times and per-layer
self times (span time minus the time covered by child spans).

Run as a script (``bench/run.py --trace 1`` does this) it reads
``{"plain": [argv, ...], "traced": [argv, ...]}`` on standard input, imports
beliefshift, calls ``beliefshift.cli.main.main(argv)`` once untimed for the
first plain argv and then for each plain argv,
then installs the tracer, calls it for each traced argv, uninstalls it and
prints one JSON line with each call's exit code and time and the metrics.
This module imports no beliefshift code until ``install`` or the script runs.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# Layer of each module whose public surface is wrapped.
LAYER_MODULES = {
    "beliefshift.cli.scenarios": "cli",
    "beliefshift.cli.main": "cli",
    "beliefshift.cli.replication": "cli",
    "beliefshift.updating": "updating",
    "beliefshift.distributions": "distributions",
    "beliefshift.metrics": "metrics",
    "beliefshift.prospective": "prospective",
}
# main() is timed as the command span instead (cli.command.<command>).
NOT_WRAPPED = {"beliefshift.cli.main.main"}
MC_LABELS = ("normal_prior", "normal_mixture_prior", "other_prior")
COMMANDS = ("retro", "compare", "prospect", "replicate-paper")
UPDATES = ("update_conjugate", "update_mixture", "update_grid", "sequential_update")
METRIC_FUNCS = ("wp_quantile", "wasserstein_discrete", "learning_report", "w2_normal")
TRUNCATED_METHODS = tuple(f"distributions.TruncatedNormalDist.{m}"
                          for m in ("pdf", "cdf", "quantile", "moments"))


def _per_layer_metrics() -> dict[str, str]:
    m = {"import.s": "s", "import.modules_loaded": "count", "import.scipy_stats_loaded": "bool",
         "cli.load_scenario.s": "s"}
    m.update({f"cli.command.{c}.s": "s" for c in COMMANDS})
    m["cli.self_s"] = "s"
    for f in UPDATES:
        m.update({f"updating.{f}.calls": "count", f"updating.{f}.s": "s"})
    m["updating.self_s"] = "s"
    m.update({"distributions.mixture_quantile.calls": "count",
              "distributions.mixture_quantile.s": "s",
              "distributions.mixture_cdf_per_quantile": "ratio",
              "distributions.truncated.calls": "count", "distributions.truncated.s": "s",
              "distributions.to_grid.calls": "count", "distributions.to_grid.s": "s",
              "distributions.self_s": "s"})
    for f in METRIC_FUNCS:
        m.update({f"metrics.{f}.calls": "count", f"metrics.{f}.s": "s"})
    m.update({"metrics.quantile_evals_per_wp": "ratio", "metrics.self_s": "s"})
    for label in MC_LABELS:
        m.update({f"prospective.mc.{label}.calls": "count",
                  f"prospective.mc.{label}.replicates": "count",
                  f"prospective.mc.{label}.s": "s",
                  f"prospective.mc.{label}.us_per_replicate": "us"})
    m.update({"prospective.weight_sweep.s": "s", "prospective.self_s": "s",
              "trace.overhead_ratio": "ratio"})
    return m


# name -> unit of every metric the traced run reports.
PER_LAYER_METRICS = _per_layer_metrics()


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index of the causing span, -1 at top level
    replicates: int = 0


def update_prior_label(prior) -> str:
    """MC route label from the class of the update prior passed to
    expected_learning_mc."""
    from beliefshift.distributions import MixtureDist, NormalDist
    if isinstance(prior, NormalDist):
        return "normal_prior"
    if isinstance(prior, MixtureDist) and all(
            isinstance(comp, NormalDist) for _, comp in prior.components):
        return "normal_mixture_prior"
    return "other_prior"


class Tracer:
    """Span recorder plus the patches that route calls through it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0,
                               self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        index = self.open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        if name == "prospective.expected_learning_mc":
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def mc_wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                label = update_prior_label(bound.arguments["update_prior"])
                index = tracer.open(f"prospective.mc.{label}", layer)
                tracer.spans[index].replicates = int(bound.arguments["replicates"])
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(index)
            return mc_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public function and method of LAYER_MODULES, in every
        beliefshift module namespace that holds a reference to it."""
        import importlib
        for module_name in LAYER_MODULES:
            importlib.import_module(module_name)
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "beliefshift" or n.startswith("beliefshift."))]
        for module_name, layer in LAYER_MODULES.items():
            module = sys.modules[module_name]
            short = module_name.removeprefix("beliefshift.")
            for public in getattr(module, "__all__", ()):
                obj = getattr(module, public)
                if getattr(obj, "__module__", None) != module_name:
                    continue
                if inspect.isfunction(obj):
                    if f"{module_name}.{public}" in NOT_WRAPPED:
                        continue
                    wrapped = self._wrap(obj, f"{short}.{public}", layer)
                    for namespace in namespaces:
                        for attr, value in list(vars(namespace).items()):
                            if value is obj:
                                self._patch(namespace, attr, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{short}.{public}", layer)

    def _wrap_methods(self, cls, prefix: str, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(value):
                self._patch(cls, attr, self._wrap(value, name, layer))
            elif isinstance(value, (classmethod, staticmethod)):
                self._patch(cls, attr, type(value)(self._wrap(value.__func__, name, layer)))

    def uninstall(self) -> None:
        """Restore every patched attribute to the object it held before."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Counts, inclusive times and self times from one traced pass.

    ``X.s`` sums only the outermost spans of X, so a call nested in another
    call of X is not counted twice.  ``<layer>.self_s`` sums each span's
    duration minus the durations of its direct children.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_s[span.parent] += span.end - span.start
    self_s: defaultdict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    for span, children in zip(spans, child_s):
        self_s[span.layer] += span.end - span.start - children
        calls[span.name] += 1

    def outermost_s(*names: str) -> float:
        group = set(names)
        total = 0.0
        for span in spans:
            if span.name not in group:
                continue
            parent = span.parent
            while parent >= 0 and spans[parent].name not in group:
                parent = spans[parent].parent
            if parent < 0:
                total += span.end - span.start
        return total

    def children_of(parent_name: str, predicate) -> int:
        return sum(1 for span in spans if span.parent >= 0
                   and spans[span.parent].name == parent_name and predicate(span.name))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {"cli.load_scenario.s": outermost_s("cli.scenarios.load_scenario")}
    for c in COMMANDS:
        m[f"cli.command.{c}.s"] = outermost_s(f"cli.command.{c}")
    for f in UPDATES:
        m[f"updating.{f}.calls"] = calls[f"updating.{f}"]
        m[f"updating.{f}.s"] = outermost_s(f"updating.{f}")
    mq = "distributions.MixtureDist.quantile"
    m["distributions.mixture_quantile.calls"] = calls[mq]
    m["distributions.mixture_quantile.s"] = outermost_s(mq)
    m["distributions.mixture_cdf_per_quantile"] = ratio(
        children_of(mq, lambda name: name == "distributions.MixtureDist.cdf"), calls[mq])
    m["distributions.truncated.calls"] = sum(calls[n] for n in TRUNCATED_METHODS)
    m["distributions.truncated.s"] = outermost_s(*TRUNCATED_METHODS)
    m["distributions.to_grid.calls"] = calls["distributions.to_grid"]
    m["distributions.to_grid.s"] = outermost_s("distributions.to_grid")
    for f in METRIC_FUNCS:
        m[f"metrics.{f}.calls"] = calls[f"metrics.{f}"]
        m[f"metrics.{f}.s"] = outermost_s(f"metrics.{f}")
    m["metrics.quantile_evals_per_wp"] = ratio(
        children_of("metrics.wp_quantile", lambda name: name.endswith(".quantile")),
        calls["metrics.wp_quantile"])
    for label in MC_LABELS:
        name = f"prospective.mc.{label}"
        reps = sum(span.replicates for span in spans if span.name == name)
        seconds = outermost_s(name)
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.replicates"] = reps
        m[f"{name}.s"] = seconds
        m[f"{name}.us_per_replicate"] = ratio(seconds * 1e6, reps)
    m["prospective.weight_sweep.s"] = outermost_s("prospective.weight_sweep")
    for layer in ("cli", "updating", "distributions", "metrics", "prospective"):
        m[f"{layer}.self_s"] = self_s[layer]
    return m


def _run_main(main, argv: list[str], tracer: Tracer | None) -> dict:
    """One in-process CLI call; its table output is discarded."""
    start = time.perf_counter()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            if tracer is None:
                code = main(argv)
            else:
                code = tracer.call(f"cli.command.{argv[0]}", "cli", main, argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an uncaught library error is a failed operation
        print(f"{argv[0]}: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = -1
    return {"exit": code, "s": time.perf_counter() - start}


def main() -> int:
    spec = json.load(sys.stdin)
    before = len(sys.modules)
    start = time.perf_counter()
    import beliefshift  # noqa: F401
    import_s = time.perf_counter() - start
    modules_loaded = len(sys.modules) - before
    scipy_stats_loaded = "scipy.stats" in sys.modules
    from beliefshift.cli.main import main as cli_main

    # An untimed first call pays the one-time costs (lazy imports, cached
    # quadrature nodes) that would otherwise fall on the first plain call.
    _run_main(cli_main, spec["plain"][0], None)
    plain = [_run_main(cli_main, argv, None) for argv in spec["plain"]]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [_run_main(cli_main, argv, tracer) for argv in spec["traced"]]
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans)
    metrics.update({
        "import.s": import_s,
        "import.modules_loaded": modules_loaded,
        "import.scipy_stats_loaded": int(scipy_stats_loaded),
        "trace.overhead_ratio": statistics.median(t["s"] / p["s"] for p, t in zip(plain, traced)),
    })
    print(json.dumps({"plain": plain, "traced": traced, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
