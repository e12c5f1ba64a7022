"""gmspec benchmark: one workload per process, exact output checks, optional trace.

    python3 perfbench/run.py --workload spectrum-deep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from a checkout: gmspec is imported from ./src, never from an installed
copy.  A run times passes of the workload until --seconds have elapsed (at
least one pass), checks every pass's outputs outside the timed region, and
prints one JSON line last on stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics from the traced ones: self
time and calls of each wrapped gmspec function, per-module self times that
add up to the traced pass time, counts read from public surfaces, and the
tracing overhead.  All per-layer values are means over the traced passes.
--workload all runs every workload in its own process and prints a table
with the error rate of each.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from meter import Meter, reference_time, scale

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("values_per_s", "1/s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

MODULES = ("farey", "gmtree", "exact", "cohn", "lattice", "snake", "spectrum", "tables",
           "verify", "cli")
SUITES = ("factorization", "rotation", "duality", "snake", "squares")
# wrapped function spans: (span name, also report its call count)
SPANS = (
    ("farey.child", True),
    ("gmtree.enumerate_tree", False),
    ("gmtree.gm_node", True),
    ("gmtree.characteristic_number", False),
    ("exact.surd_new", True),
    ("exact.surd_cmp", True),
    ("exact.interval", True),
    ("exact.decimal", True),
    ("exact.cf_matrix", True),
    ("cohn.closed_form", False),
    ("cohn.recursive", False),
    ("lattice.admissible_sequence", True),
    ("lattice.segment_sign_sequence", False),
    ("lattice.gm_distance", False),
    ("snake.continuant", True),
    ("snake.bruteforce", True),
    ("snake.build_snake_graph", False),
    ("spectrum.lagrange_value", False),
    ("spectrum.alpha_fixed_point", False),
    ("spectrum.markov_value", False),
    ("spectrum.enumerate_spectrum", False),
    ("spectrum.transition_scan", False),
    *((f"verify.{s}", False) for s in SUITES),
    ("tables.reproduce_tables", False),
    ("cli.run", False),
)
COUNTS = (  # counters, per traced pass
    ("gmtree.vertices", "count"),
    ("lattice.signs", "count"),
    ("spectrum.window_hits", "count"),
    ("verify.cases", "count"),
    ("cli.bytes_out", "bytes"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = [(f"{m}.self_s", "s") for m in MODULES + ("bench",)]
    for span, with_calls in SPANS:
        out.append((f"{span}.self_s", "s"))
        if with_calls:
            out.append((f"{span}.calls", "count"))
    out += list(COUNTS)
    out += [
        ("gmtree.gm_node.hit_ratio", "ratio"),
        ("exact.interval.max_bits", "bits"),
        ("exact.interval_per_cmp", "ratio"),
        ("spectrum.dedup_ratio", "ratio"),
        ("trace.pass_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return out


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "commit": commit, "GMSPEC_THREADS": "unset"}


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter until it has imported gmspec
    and generated the workload's inputs, scaled by the reference times the
    interpreter takes just before and after that (they are not counted)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait()
    word, *refs = line.split()
    if word != "ready" or len(refs) != 2 or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    before, after = map(float, refs)
    return scale(elapsed - before - after, before, after)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Run:
    """The passes of one workload run and what they measured."""

    def __init__(self) -> None:
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.latencies: list[list[float]] = []  # per complete untraced pass, one per operation
        self.values = 0  # per pass
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.node_hits = 0
        self.node_calls = 0
        self.setup: list[float] = []  # one set-up probe after each pass


def measure(workload, seconds: float, tracer, workdir: str, probe=None) -> Run:
    from gmspec import gmtree

    gm_node = gmtree.gm_node
    run = Run()
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(run.untraced) > len(run.traced)
        workloads.clear_caches()
        meter = Meter(calibrate=tracer is None)
        if traced:
            before = gm_node.cache_info()
            tracer.install()
        try:
            t0 = time.perf_counter()
            if traced:
                with tracer.root("bench.pass"):
                    result = workload.run_pass(workdir, meter)
            else:
                result = workload.run_pass(workdir, meter)
            wall = time.perf_counter() - t0
            verdict = None
        except Exception as exc:  # the pass failed as a whole; keep measuring
            wall, result = time.perf_counter() - t0, workloads.PassResult()
            verdict = workloads.Verdict(1, 1, 0, [f"pass raised {exc!r}"])
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            after = gm_node.cache_info()
            run.node_hits += after.hits - before.hits
            run.node_calls += after.hits + after.misses - before.hits - before.misses
            run.traced.append(wall)
        else:
            run.untraced.append(wall)
            if verdict is None:
                run.latencies.append(meter.latencies())
        verdict = verdict or workload.check(result)
        run.attempted += verdict.attempted
        run.failed += verdict.failed
        run.errors += verdict.errors[:5]
        if not traced:
            run.values = verdict.values
        if probe is not None:
            run.setup.append(probe())
        if time.perf_counter() - start >= seconds and (tracer is None or run.traced):
            return run


def end_to_end(run: Run) -> dict:
    # Every pass repeats the same operations from cold caches.  An
    # operation's latency is its median scaled time over the passes, and a
    # pass's time is the sum of those (see meter.py and README.md).
    lat = sorted(statistics.median(col) for col in zip(*run.latencies))
    wall = sum(lat)
    values = {
        "setup_s": statistics.median(run.setup),
        "wall_s": wall,
        "values_per_s": run.values / wall if wall else 0.0,
        "queries_per_s": len(lat) / wall if wall else 0.0,
        "query_p50_ms": 1e3 * percentile(lat, 0.50) if lat else 0.0,
        "query_p99_ms": 1e3 * percentile(lat, 0.99) if lat else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(run: Run, tracer) -> tuple[dict, str | None]:
    """Per-layer metrics, and an error if the self times do not add up to
    the traced pass time."""
    self_s, calls, edges = tracer.self_times()
    passes = len(run.traced)
    c = tracer.counters
    values: dict[str, float] = {}
    for module in MODULES + ("bench",):
        values[f"{module}.self_s"] = sum(
            v for k, v in self_s.items() if k.split(".")[0] == module) / passes
    for span, _ in SPANS:
        values[f"{span}.self_s"] = self_s.get(span, 0.0) / passes
        values[f"{span}.calls"] = calls.get(span, 0) / passes
    for name, _ in COUNTS:
        values[name] = c.get(name, 0) / passes
    built = c.get("spectrum.elements_built", 0) + edges.get(
        "spectrum.markov_value<-spectrum.enumerate_spectrum", 0)
    cmps = calls.get("exact.surd_cmp", 0)
    values["gmtree.gm_node.hit_ratio"] = run.node_hits / run.node_calls if run.node_calls else 0.0
    values["exact.interval.max_bits"] = c.get("exact.interval.max_bits", 0)
    values["exact.interval_per_cmp"] = (
        edges.get("exact.interval<-exact.surd_cmp", 0) / cmps if cmps else 0.0)
    values["spectrum.dedup_ratio"] = c.get("spectrum.values", 0) / built if built else 0.0
    pass_s = sum(run.traced) / passes
    values["trace.pass_s"] = pass_s
    values["trace.overhead_s"] = pass_s - sum(run.untraced) / len(run.untraced)
    total_self = sum(values[f"{m}.self_s"] for m in MODULES + ("bench",))
    error = None
    if abs(total_self - pass_s) > 1e-3 * pass_s + 1e-4:
        error = f"layer self times add up to {total_self:.6f} s, traced pass took {pass_s:.6f} s"
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}, error


def run_one(args) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size == "smoke")
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    probe = None if args.trace else (lambda: probe_setup(args))
    try:
        run = measure(workload, args.seconds, tracer, workdir, probe)
        # set-up probes are spread over the run, so that one burst of
        # host load does not decide their median
        while probe is not None and len(run.setup) < SETUP_PROBES:
            run.setup.append(probe())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    error = None
    if tracer is None:
        metrics = end_to_end(run)
    else:
        metrics, error = per_layer(run, tracer)
        spans = OUT_DIR / f"spans-{args.workload}.csv"
        tracer.write(str(spans))
        log(f"{len(tracer.span_start)} spans written to {spans.relative_to(ROOT)}")
    ops = len(run.latencies[0]) if run.latencies else 0
    log(f"{args.workload}: {len(run.untraced)} untraced and {len(run.traced)} traced passes, "
        f"{ops} timed operations each, {run.failed}/{run.attempted} failed")
    log(f"env {json.dumps(environment())}")
    for err in run.errors[:10] + ([error] if error else []):
        log(f"check failed: {err}")
    correct = run.failed == 0 and error is None
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one table of all metrics."""
    log(f"env {json.dumps(environment())}")
    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            log(f"{name}: exited with code {proc.returncode} and no result")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= proc.returncode
        rows.append((name, "error_rate", result["failed"] / result["attempted"], "ratio"))
        for metric, v in result["metrics"].items():
            rows.append((name, metric, v["value"], v["unit"]))
    width = max(len(r[1]) for r in rows) if rows else 0
    for name, metric, value, unit in rows:
        print(f"{name:18} {metric:{width}} {value:14.6g} {unit}")
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "gmspec" / "__init__.py").is_file():
        log(f"no gmspec source tree at {SRC}; run from a full checkout")
        return 2
    os.environ.pop("GMSPEC_THREADS", None)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        before = reference_time()
        import gmspec  # noqa: F401

        workloads.WORKLOADS[args.workload](args.seed, args.size == "smoke")
        after = reference_time()
        print(f"ready {before!r} {after!r}", flush=True)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
