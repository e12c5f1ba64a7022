"""Smoke tests of the benchmark: each workload at its tiny size, in its own
process, untraced and traced; and the checks reject corrupted outputs."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in bench.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_self_times_add_up(workload):
    result = _run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == {name for name, _ in bench.per_layer_names()}
    layers = sum(m[f"{mod}.self_s"] for mod in bench.MODULES + ("bench",))
    assert layers == pytest.approx(m["trace.pass_s"], rel=1e-3, abs=1e-4)
    if workload == "transition-window":
        assert m["exact.interval.calls"] >= m["exact.surd_cmp.calls"] > 0
        assert m["spectrum.window_hits"] > 0
    if workload == "verify-grid":
        assert m["snake.bruteforce.calls"] > 0 and m["verify.cases"] > 0


def test_tracer_restores_the_library():
    from gmspec import cli, exact, spectrum
    from tracing import Tracer

    before = (spectrum.cf_matrix, exact.QuadSurd.__init__, cli.enumerate_spectrum)
    tracer = Tracer()
    tracer.install()
    try:
        assert spectrum.cf_matrix is not before[0] and cli.enumerate_spectrum is not before[2]
        with tracer.root("bench.pass"):
            spectrum.lagrange_value((1, 2, 2))
    finally:
        tracer.uninstall()
    assert (spectrum.cf_matrix, exact.QuadSurd.__init__, cli.enumerate_spectrum) == before
    self_s, calls, edges = tracer.self_times()
    assert calls["spectrum.lagrange_value"] == 1 and calls["exact.cf_matrix"] == 4
    assert edges["exact.cf_matrix<-spectrum.lagrange_value"] == 4


def _row(**changes) -> dict:
    # sqrt(5)/1 at n = 1, pos = 1 under (0,0,0): Delta = (3*1 - 0)^2 - 4 = 5
    row = {"k1": 0, "k2": 0, "k3": 0, "t": "0/1", "n": 1, "pos": 1,
           "p": 0, "q": 1, "D": 5, "r": 1, "decimal": "2.23606797750"}
    row.update(changes)
    return row


def test_checks_reject_corrupted_rows():
    assert checks.spectrum_row_error(_row()) is None
    assert checks.spectrum_row_error(_row(D=6)) is not None
    assert checks.spectrum_row_error(_row(decimal="2.23606797749")) is not None
    assert checks.spectrum_row_error(_row(decimal="2.2360679775")) is not None
    assert checks.spectrum_rows_errors([_row(), _row()], ascending=True)
    assert checks.decimal_error("1.41421356237", Fraction(2)) is None


def test_label_query_checks_reject_wrong_answers():
    from gmspec.exact import Mat2

    rng_queries = workloads.make_queries(random.Random(3), 64, 64)
    for q in rng_queries:
        assert workloads.answer_error(q, workloads.answer(q)) is None
    q = next(q for q in rng_queries if q.kind == "cohn_closed")
    assert workloads.answer_error(q, Mat2(1, 0, 0, 1)) is not None
    q = next(q for q in rng_queries if q.kind == "distance")
    assert workloads.answer_error(q, workloads.answer(q) + 1) is not None


def test_meter_scales_each_operation_by_the_references_around_it():
    import meter

    assert meter.scale(2.0, meter.REF_S, 3 * meter.REF_S) == pytest.approx(1.0)
    m = meter.Meter(calibrate=True)
    assert m.time(sum, [1, 2]) == 3
    assert m.time(sorted, range(10)) == list(range(10))
    scaled = m.latencies()
    assert len(scaled) == 2 and all(t > 0 for t in scaled)
    raw = meter.Meter(calibrate=False)
    raw.time(sum, [1])
    assert len(raw.latencies()) == 1 and not raw._refs
