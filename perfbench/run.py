"""topodist benchmark: seeded workloads, end-to-end metrics, traced per-layer runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --write-digest

Run from the root of a source checkout; the program is imported from
``src/``.  One process runs one workload in a closed loop: one client, one
thread, each item starts when the previous one has finished.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGEST_FILE = HERE / "digest.json"

DEFAULT_SEED = 1
HELDOUT_SEED = 4099
SETUP_REPEATS = 3
# The traced run always traces at least this many items, so the counts
# (means over exactly these first items) repeat exactly for a seed.
COUNT_ITEMS = {"volume_diagrams": 4, "surface_bottleneck": 3, "desk_corpus": 32}
TAIL_BEYOND = 10


def make_workloads(smoke: bool = False) -> dict:
    corpus = ROOT / "corpus"
    if smoke:
        wls = [
            workloads.VolumeDiagrams(side=4, pool=3),
            workloads.SurfaceBottleneck(side=8, pool=3),
            workloads.DeskCorpus(corpus, pool=8, tiny_max=4, desk_range=(10, 12)),
        ]
    else:
        wls = [workloads.VolumeDiagrams(), workloads.SurfaceBottleneck(), workloads.DeskCorpus(corpus)]
    return {w.name: w for w in wls}


class Program:
    """One import of the program's modules; its public API is looked up at
    call time, so tracing installed in those modules sees every call."""

    def __init__(self, modules: dict):
        self.modules = modules
        self._package = modules["topodist"]
        self._cli = modules["topodist.cli"]

    def __getattr__(self, name):
        return getattr(self._package, name)

    def cli_main(self, argv):
        return self._cli.main(argv)

    def activate(self) -> None:
        """Make these modules the ones that imports inside the program find."""
        sys.modules.update(self.modules)


def import_program() -> Program:
    """Import topodist from the checkout's src/, afresh each time."""
    src = ROOT / "src"
    if not (src / "topodist" / "__init__.py").is_file():
        raise FileNotFoundError(f"no topodist package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in tracing.program_modules(sys.modules):
        del sys.modules[name]
    importlib.import_module("topodist")
    importlib.import_module("topodist.cli")
    return Program(tracing.program_modules(sys.modules))


@contextlib.contextmanager
def scratch_dir(name: str):
    """A fresh directory under .perfbench_work/ in the checkout, removed afterwards."""
    path = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()  # only succeeds once no other run uses it


def set_up(workload, seed: int, work_dir: Path):
    """Import the package and generate the inputs, several times; keep the last.

    Every repetition writes the same files again, so a run creates and
    deletes each file once: on a disk that discards deleted blocks, deleting
    thousands of files per run slowed the set-up of the runs after it
    several-fold.  Returns (program, items, median set-up seconds).
    """
    work_dir.mkdir(parents=True)
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        program = import_program()
        items = workload.generate(seed, work_dir)
        times.append(perf_counter() - start)
    return program, items, statistics.median(times)


def expected_digests(workload, seed: int, smoke: bool):
    """Committed output digests per pool item; None for seeds other than the default."""
    if seed != DEFAULT_SEED:
        return None
    table = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    return table["smoke" if smoke else "full"][workload.name]


def gate(workload, out, expected: str | None) -> list[str]:
    """Reasons an item's output is wrong: oracle disagreements, digest mismatch."""
    bad = workload.check(out)
    if expected is not None and workload.output_digest(out) != expected:
        bad.append("output differs from the committed digest")
    return bad


def run_item(program, workload, items, i, expected, tracer=None) -> dict:
    """Run pool item i (modulo the pool) and gate it.

    Returns its index, latency, failure reasons and, when traced, the span
    summary of the item.
    """
    program.activate()
    if tracer is not None:
        tracer.start_item(i)
    t0 = perf_counter()
    try:
        out = workload.run(program, items[i % len(items)])
        bad = None
    except Exception as exc:  # any exception is a failed item; keep measuring
        out, bad = None, [f"{type(exc).__name__}: {exc}"]
    latency = perf_counter() - t0
    trace = tracer.finish_item() if tracer is not None else None
    if bad is None:
        bad = gate(workload, out, None if expected is None else expected[i % len(expected)])
    return {"index": i, "latency": latency, "bad": bad, "trace": trace}


def run_items(program, workload, items, seconds, expected):
    """Closed loop over the item pool until ``seconds`` pass; (records, wall time)."""
    records = []
    start = perf_counter()
    while not records or perf_counter() - start < seconds:
        records.append(run_item(program, workload, items, len(records), expected))
    return records, perf_counter() - start


def run_paired(plain, traced, tracer, workload, items, seconds, expected, min_items):
    """Each item untraced on one import and traced on another, in alternating
    order, until ``seconds`` pass and at least ``min_items`` items ran.

    Pairing the two runs of an item keeps slow phases of the machine out of
    the tracing overhead; separate imports keep one run's caches from the other.
    """
    untraced, traced_records = [], []
    start = perf_counter()
    i = 0
    while i < min_items or perf_counter() - start < seconds:
        arms = [(plain, None, untraced), (traced, tracer, traced_records)]
        for program, trc, records in arms if i % 2 == 0 else arms[::-1]:
            records.append(run_item(program, workload, items, i, expected, trc))
        i += 1
    return untraced, traced_records


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with TAIL_BEYOND items beyond it.

    With too few items for that, the slowest item is reported as p100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(records, elapsed, setup_s):
    lat = [r["latency"] for r in records]
    passed = sum(1 for r in records if not r["bad"])
    tail_s, pct = tail(lat)
    metrics = {
        "items_per_s": (passed / elapsed, "1/s"),
        "item_p50_s": (statistics.median(lat), "s"),
        "item_tail_s": (tail_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    note = f"item_tail_s is p{pct:.1f} of {len(lat)} items"
    return metrics, note


def per_layer(untraced, traced, count_items):
    """Per-layer metrics of a traced run, plus the tracing overhead."""
    summaries = [r["trace"] for r in traced]
    total = sum(s["duration"] for s in summaries)
    metrics = {}
    for name in tracing.TIME_METRICS + [tracing.ROOT]:
        metrics[name] = (statistics.median(s["self"].get(name, 0.0) for s in summaries), "s")
    for name in tracing.TIME_METRICS + [tracing.ROOT]:
        share = sum(s["self"].get(name, 0.0) for s in summaries) / total
        metrics[tracing.share_name(name)] = (share, "ratio")
    prefix = summaries[:count_items]
    totals = {name: sum(s["counts"].get(name, 0) for s in prefix) for name in tracing.COUNT_METRICS}
    for name in tracing.COUNT_METRICS:
        if name != "certify.certified":
            metrics[name] = (totals[name] / len(prefix), "count")
    searches = totals["certify.searches"]
    metrics["certify.certified_ratio"] = (
        totals["certify.certified"] / searches if searches else 0.0, "ratio")

    overhead = statistics.median(t["latency"] - u["latency"] for u, t in zip(untraced, traced))
    metrics["trace.item_s"] = (statistics.median(s["duration"] for s in summaries), "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (
        overhead / statistics.median(r["latency"] for r in untraced), "ratio")
    metrics["trace.spans"] = (statistics.median(s["spans"] for s in summaries), "count")

    # Self times of all spans of an item must add up to the item's root span.
    worst = max(abs(sum(s["self"].values()) - s["duration"]) / s["duration"] for s in summaries)
    metrics["trace.accounted_frac"] = (
        statistics.median(sum(s["self"].values()) / s["duration"] for s in summaries), "ratio")
    top = sorted(tracing.TIME_METRICS + [tracing.ROOT],
                 key=lambda name: -metrics[tracing.share_name(name)][0])[:4]
    note = (f"{len(traced)} items run untraced and traced; counts are means over the first "
            f"{len(prefix)} items; share of traced time: "
            + ", ".join(f"{name} {metrics[tracing.share_name(name)][0]:.3f}" for name in top))
    return metrics, note, worst <= 1e-6


def measure(args) -> int:
    workload = make_workloads()[args.workload]
    with scratch_dir(workload.name) as work_dir:
        program, items, setup_s = set_up(workload, args.seed, work_dir)
        expected = expected_digests(workload, args.seed, smoke=False)
        if args.trace:
            traced_program = import_program()
            tracer = tracing.Tracer()
            with tracing.installed(tracer, traced_program.modules):
                untraced, traced = run_paired(program, traced_program, tracer, workload, items,
                                              args.seconds, expected, COUNT_ITEMS[workload.name])
            records = untraced + traced
            metrics, note, accounted = per_layer(untraced, traced, COUNT_ITEMS[workload.name])
        else:
            records, elapsed = run_items(program, workload, items, args.seconds, expected)
            metrics, note = end_to_end(records, elapsed, setup_s)
            accounted = True

    failed = [r for r in records if r["bad"]]
    for r in failed[:5]:
        print(f"failed item {r['index']}: {'; '.join(r['bad'])[:300]}", file=sys.stderr)
    if not accounted:
        print("error: traced self times do not add up to the item times", file=sys.stderr)
    digest_note = "digest checked" if expected is not None else "no digest for this seed"
    print(f"{workload.name} seed {args.seed}: {note}; {digest_note}; "
          f"failed_frac {len(failed) / len(records)!r} ({len(failed)}/{len(records)})")
    print(json.dumps({
        "correct": not failed and accounted,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def smoke() -> int:
    """Toy-size run of every workload: gate, digest, tracing, and gate self-check."""
    ok = True
    for name, workload in make_workloads(smoke=True).items():
        with scratch_dir(f"smoke-{name}") as work_dir:
            program, items, _ = set_up(workload, DEFAULT_SEED, work_dir)
            expected = expected_digests(workload, DEFAULT_SEED, smoke=True)
            start = perf_counter()
            traced_program = import_program()
            tracer = tracing.Tracer()
            with tracing.installed(tracer, traced_program.modules):
                untraced, traced = run_paired(program, traced_program, tracer, workload, items,
                                              0, expected, len(items))
            _, _, accounted = per_layer(untraced, traced, len(items))
            restored = not tracing.leftover_wrappers(traced_program.modules)
            bad = [b for r in untraced + traced for b in r["bad"]]
            corrupted = []
            if not bad:  # the outputs are right; now the gate must reject a wrong one
                out = workload.run(program, items[-1])
                corrupted = gate(workload, workload.corrupt(out), expected[len(items) - 1])
            elapsed = perf_counter() - start
        good = not bad and bool(corrupted) and accounted and restored
        ok &= good
        print(f"smoke {name}: {'ok' if good else 'FAILED'} ({len(items)} items untraced and "
              f"traced, {elapsed:.2f} s); corrupted output caught: {corrupted[:2]}; "
              f"failures: {bad[:2]}")
    return 0 if ok else 1


def write_digest() -> int:
    """Record the output digest of every pool item for the default seed."""
    table = {"seed": DEFAULT_SEED, "full": {}, "smoke": {}}
    for section, smoke_mode in (("smoke", True), ("full", False)):
        for name, workload in make_workloads(smoke=smoke_mode).items():
            with scratch_dir(f"digest-{name}") as work_dir:
                program, items, _ = set_up(workload, DEFAULT_SEED, work_dir)
                digests = []
                for item in items:
                    out = workload.run(program, item)
                    bad = workload.check(out)
                    if bad:
                        raise RuntimeError(f"{name}: refusing to record a failing output: {bad[:2]}")
                    digests.append(workload.output_digest(out))
            table[section][name] = digests
            print(f"{section} {name}: {len(digests)} digests", file=sys.stderr)
    DIGEST_FILE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(make_workloads()))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held out: {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size self-check of all workloads")
    parser.add_argument("--write-digest", action="store_true",
                        help="record output digests for the default seed")
    args = parser.parse_args(argv)
    # Turn a termination request into an exit that removes the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.smoke:
            return smoke()
        if args.write_digest:
            return write_digest()
        if args.workload is None:
            parser.error("--workload is required")
        return measure(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
