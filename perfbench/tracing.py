"""Per-layer spans and counts, installed from outside the program.

``installed(tracer)`` wraps every public function of the layer modules and
rebinds each name that refers to one of them in any ``topodist`` module,
so a call through a consumer's import (``topodist.corpus.search_certificate``)
is traced as well.  The original functions are restored on exit; nothing in
the program's source is changed.

A span records its name, start, end, parent span and item id.  Spans are
kept in memory for the current item only and are reduced to per-layer self
times when the item ends: a span's self time is its duration minus the time
its child spans cover.  Calls are sequential, so children never overlap and
the self times of an item's spans sum to the item's root span.
"""

from __future__ import annotations

import contextlib
import math
from collections import defaultdict
from time import perf_counter

LAYERS = ("complexes", "persistence", "bottleneck", "mergetree", "certify", "corpus", "cli")

# Self time of these functions is reported under the named metric; every
# other public function of a layer goes to "<layer>.other_s", except in the
# corpus and cli layers, which are orchestration and have one metric each.
TIME_METRIC = {
    "complexes.build_complex": "complexes.build_s",
    "complexes.lower_star": "complexes.lower_star_s",
    "complexes.parse_instance": "complexes.parse_s",
    "complexes.load_instance": "complexes.parse_s",
    "persistence.compute_diagrams": "persistence.diagrams_s",
    "persistence.reduce_filtration": "persistence.diagrams_s",
    "persistence.h0_diagram_unionfind": "persistence.unionfind_s",
    "bottleneck.bottleneck_distance": "bottleneck.distance_s",
    "bottleneck.bottleneck_bruteforce": "bottleneck.bruteforce_s",
    "bottleneck.natural_pseudo_upper": "bottleneck.np_upper_s",
    "bottleneck.is_isomorphism": "bottleneck.np_upper_s",
    "mergetree.build_merge_tree": "mergetree.build_s",
    "mergetree.interleaving_distance": "mergetree.interleave_s",
    "mergetree.check_interleaving": "mergetree.interleave_s",
    "mergetree.interleaving_candidates": "mergetree.interleave_s",
    "certify.search_certificate": "certify.search_s",
    "certify.enumerate_simplicial_maps": "certify.search_s",
    "certify.check_certificate": "certify.check_s",
    "certify.verify_stability": "certify.stability_s",
    "certify.upshift_asymmetry_probe": "certify.probe_s",
}
LAYER_METRIC = {"corpus": "corpus.pair_self_s", "cli": "cli.self_s"}
ROOT = "bench.self_s"

TIME_METRICS = sorted(
    set(TIME_METRIC.values())
    | set(LAYER_METRIC.values())
    | {f"{layer}.other_s" for layer in LAYERS if layer not in LAYER_METRIC}
)


# Exact work counts, taken from a call's arguments and result.
COUNTERS = {
    "complexes.build_complex": lambda a, k, r: {"complexes.simplices": len(r.simplices)},
    "persistence.compute_diagrams": lambda a, k, r: {"persistence.points": sum(map(len, r))},
    "bottleneck.bottleneck_distance": lambda a, k, r: {"bottleneck.points": len(a[0]) + len(a[1])},
    "mergetree.build_merge_tree": lambda a, k, r: {"mergetree.nodes": len(r)},
    "mergetree.check_interleaving": lambda a, k, r: {"mergetree.checks": 1},
    "certify.enumerate_simplicial_maps": lambda a, k, r: {"certify.maps": len(r)},
    "certify.search_certificate": lambda a, k, r: {
        "certify.searches": 1,
        "certify.certified": int(not math.isinf(r[0])),
    },
}
COUNT_METRICS = sorted({"complexes.simplices", "persistence.points", "bottleneck.points",
                        "mergetree.nodes", "mergetree.checks", "certify.maps",
                        "certify.searches", "certify.certified"})


class Tracer:
    """Collects the spans of one item at a time and reduces them per item."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [metric, start, end, parent index, item]
        self.open: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.item = None

    def begin(self, metric: str) -> None:
        parent = self.open[-1] if self.open else -1
        self.open.append(len(self.spans))
        self.spans.append([metric, perf_counter(), None, parent, self.item])

    def end(self) -> None:
        self.spans[self.open.pop()][2] = perf_counter()

    def start_item(self, item) -> None:
        self.spans, self.open, self.counts, self.item = [], [], defaultdict(int), item
        self.begin(ROOT)

    def finish_item(self) -> dict:
        """End the root span; return the item's duration, self times and counts."""
        self.end()
        if self.open:
            raise RuntimeError(f"{len(self.open)} spans still open at the end of an item")
        covered = [0.0] * len(self.spans)
        for metric, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for (metric, start, end, _, _), child in zip(self.spans, covered):
            self_time[metric] += (end - start) - child
        root = self.spans[0]
        return {
            "duration": root[2] - root[1],
            "self": dict(self_time),
            "counts": dict(self.counts),
            "spans": len(self.spans),
        }


def share_name(metric: str) -> str:
    """Name of a time metric's share of the traced time: x.y_s -> x.y_share."""
    return metric[: -len("_s")] + "_share"


def program_modules(modules) -> dict:
    """The topodist package and its submodules among ``modules`` (name -> module)."""
    return {n: m for n, m in list(modules.items()) if n == "topodist" or n.startswith("topodist.")}


def _metric_for(layer: str, name: str) -> str:
    return LAYER_METRIC.get(layer) or TIME_METRIC.get(f"{layer}.{name}", f"{layer}.other_s")


def _wrap(fn, key: str, metric: str, tracer: Tracer):
    counter = COUNTERS.get(key)

    def traced(*args, **kwargs):
        tracer.begin(metric)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if counter is not None:
            for name, n in counter(args, kwargs, result).items():
                tracer.counts[name] += n
        return result

    traced.span_metric = metric
    return traced


def public_functions(module):
    """(name, function) for the functions a module defines and exports."""
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__
        ):
            yield name, obj


@contextlib.contextmanager
def installed(tracer: Tracer, modules: dict):
    """Trace every layer's public functions in one import of the program
    (``modules``: name -> module) while the block runs."""
    wrappers = {}
    for layer in LAYERS:
        for name, fn in public_functions(modules[f"topodist.{layer}"]):
            wrappers[id(fn)] = (fn, _wrap(fn, f"{layer}.{name}", _metric_for(layer, name), tracer))
    patched = []
    for module in modules.values():
        for name, obj in list(vars(module).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, name, entry[1])
                patched.append((module, name, obj))
    try:
        yield
    finally:
        for module, name, obj in patched:
            setattr(module, name, obj)


def leftover_wrappers(modules: dict) -> list[str]:
    """Names in the given modules that still refer to a tracing wrapper."""
    return [
        f"{n}.{name}"
        for n, m in modules.items()
        for name, obj in vars(m).items()
        if hasattr(obj, "span_metric")
    ]
