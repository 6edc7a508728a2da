"""One benchmark run: timed passes over a workload's CLI requests, their checks, and the metrics.

A pass runs every request of the workload once through
``elliptic_dedekind.cli.main`` in this process and thread.  Passes repeat until
the requested seconds are spent (at least two, so byte-identity of the JSON
between passes of one seed is checked).  ``run_s`` is the mean over passes;
the other timings are medians.

``trace=0`` reports the end-to-end metrics with tracing off.  ``trace=1``
alternates untraced and traced passes and reports the per-layer metrics of the
traced ones, plus the tracing overhead (traced minus untraced pass time).

Times are reported normalized, in seconds of a host as fast as the reference
one: ``run_s`` and ``setup_s`` divide each measured wall time (of one request,
or one setup probe) by the mean time of a fixed reference kernel run just
before and just after it, and multiply by ``REF_NOMINAL_S``.  On a shared host
the machine's speed drifts by tens of percent over minutes and moves both
timings alike, so the ratio stays steady where the wall time does not.  The
raw wall times and their medians stay in the run's info line, and the traced
run reports them as ``trace.untraced_run_s``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from elliptic_dedekind import cli
from tracing import SUITES, Tracer

__all__ = ["run", "setup_probe", "E2E_UNITS", "LAYER_UNITS"]

RUN_PY = Path(__file__).resolve().parent / "run.py"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

# Reference kernel: fixed work that shares no code with the program, half
# NumPy complex arithmetic and half Python big-integer powers, like the
# workloads.  It takes about REF_NOMINAL_S on a 2-core x86-64 host at rest.
REF_SAMPLES = 3
REF_NOMINAL_S = 0.05
_REF_POINTS = np.linspace(0.1, 0.9, 4096) * (1.0 + 0.5j)
_REF_MODULUS = 50_000_000_000_000_021

# Metric names and units, as BENCHMARK.json declares them.
_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def _ratio(num: float, den: float) -> float:
    # A layer the workload does not use reports 0.
    return num / den if den else 0.0


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def reference_s() -> float:
    """Median seconds of the reference kernel over REF_SAMPLES runs."""
    times = []
    for _ in range(REF_SAMPLES):
        start = time.perf_counter()
        for _ in range(200):
            np.sum(np.exp(2j * np.pi * _REF_POINTS) / (1.0 - _REF_POINTS))
        for base in range(2, 1802):
            pow(base, _REF_MODULUS - 1, _REF_MODULUS)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _normalize(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * REF_NOMINAL_S * 2.0 / (ref_before + ref_after)


class Tally:
    """Operations attempted and failed, and the fewest correct digits seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digits = float("inf")

    def add(self, requests: list, outputs: list, first_outputs: list) -> None:
        for req, (code, text), first in zip(requests, outputs, first_outputs):
            ops = req.expected_ops
            failed, digits = ops, 0.0
            if code == 0:
                try:
                    check = req.check(json.loads(text))
                    ops, failed, digits = check.ops, check.failed, check.digits
                except (ValueError, KeyError, IndexError, TypeError):
                    pass
                # The CLI promises byte-identical JSON for one seed and config.
                if text != first[1]:
                    failed = ops
            self.attempted += ops
            self.failed += failed
            self.digits = min(self.digits, digits)


def run_pass(requests: list, tracer: Tracer | None = None, between=None) -> tuple[list[float], list, int]:
    """One pass over the requests: seconds of each, outputs, and d_sum calls made by `sum` commands.

    `between`, if given, is called after each request, outside its timing.
    """
    times, outputs = [], []
    sum_cmd_d_sums = 0
    with tracer if tracer is not None else contextlib.nullcontext():
        for req in requests:
            before = tracer.calls("dedekind.d_sum") if tracer else 0
            start = time.perf_counter()
            outputs.append(call_cli(req.argv))
            times.append(time.perf_counter() - start)
            if tracer and req.kind == "sum":
                sum_cmd_d_sums += tracer.calls("dedekind.d_sum") - before
            if between is not None:
                between()
    return times, outputs, sum_cmd_d_sums


def layer_metrics(tracer: Tracer, requests: list, sum_cmd_d_sums: int) -> dict:
    t = tracer
    points = t.counts["e1_points"]
    reps = t.counts["reps"]
    return {
        "lattice.construct_calls": t.calls("lattice.construct"),
        "lattice.construct_us": t.total_s("lattice.construct") * 1e6,
        "lattice.e1_calls": t.calls("lattice.e1"),
        "lattice.e1_points": points,
        "lattice.e1_s": t.total_s("lattice.e1"),
        # Includes argument reduction, which is private to e1_many.
        "lattice.e1_ns_per_point": _ratio(t.total_s("lattice.e1") * 1e9, points),
        "cosets.systems": t.calls("cosets.system"),
        "cosets.reps": reps,
        "cosets.reps_s": t.total_s("cosets.reps"),
        "cosets.mult_matrix_calls": t.calls("cosets.mult_matrix"),
        "dedekind.d_sum_calls": t.calls("dedekind.d_sum"),
        "dedekind.d_sum_s": t.total_s("dedekind.d_sum"),
        "dedekind.d_sum_self_s": t.self_s("dedekind.d_sum"),
        "dedekind.e1_evals_per_coset": _ratio(t.counts["e1_points_in_d_sum"], reps),
        "dedekind.phi_calls": t.calls("dedekind.phi"),
        "dedekind.phi_s": t.total_s("dedekind.phi"),
        "density.find_prime_calls": t.calls("density.find_prime"),
        "density.find_prime_s": t.total_s("density.find_prime"),
        "density.construct_s": t.total_s("density.construct"),
        "ring.primality_tests": t.calls("ring.is_probable_prime"),
        # Useful outcomes over attempts: one prime per step.
        "ring.prime_hit_ratio": _ratio(t.calls("density.find_prime"), t.calls("ring.is_probable_prime")),
        "ring.egcd_order_calls": t.calls("ring.egcd_order"),
        "ring.egcd_order_s": t.total_s("ring.egcd_order"),
        **{f"verification.{suite}_s": t.total_s(f"verification.{suite}") for suite in SUITES},
        "verification.checks": t.counts["checks"],
        "oracles.calls": t.calls("oracles"),
        "oracles.s": t.total_s("oracles"),
        "cli.d_sum_per_sum_cmd": _ratio(sum_cmd_d_sums, sum(1 for r in requests if r.kind == "sum")),
        "cli.self_s": t.self_s("cli"),
    }


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until it has the workload's inputs ready.

    Returns the wall times and the normalized ones.
    """
    cmd = [sys.executable, str(RUN_PY), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    times, normalized = [], []
    ref_before = reference_s()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.communicate(timeout=SETUP_TIMEOUT_S)
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        ref_after = reference_s()
        times.append(elapsed)
        normalized.append(_normalize(elapsed, ref_before, ref_after))
        ref_before = ref_after
    return times, normalized


def setup_probe(workload: str, seed: int) -> int:
    workloads.build_requests(workload, seed)
    print("ready", flush=True)
    return 0


def _machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    setup, setup_norm = ([], []) if trace else measure_setup(workload, seed)
    requests = workloads.build_requests(workload, seed)
    tally = Tally()
    untraced, traced, layers, normalized = [], [], [], []
    first = None
    # Reference samples separate the requests of untraced passes; each request
    # is normalized by the samples on either side of it.
    refs = [] if trace else [reference_s()]
    start = time.perf_counter()
    while len(untraced) + len(traced) < 2 or time.perf_counter() - start < seconds:
        tracer = Tracer() if trace and len(untraced) > len(traced) else None
        between = None if trace else lambda: refs.append(reference_s())
        times, outputs, sum_cmd_d_sums = run_pass(requests, tracer, between)
        first = first or outputs
        tally.add(requests, outputs, first)
        if tracer is None:
            untraced.append(sum(times))
            if not trace:
                around = refs[-len(times) - 1 :]
                normalized.append(sum(map(_normalize, times, around, around[1:])))
        else:
            traced.append(sum(times))
            layers.append(layer_metrics(tracer, requests, sum_cmd_d_sums))
            tally.attempted += 1
            tally.failed += int(tracer.counts["reps_mismatch"] > 0)

    if trace:
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.run_s"] = statistics.median(traced)
        metrics["trace.untraced_run_s"] = statistics.median(untraced)
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
        units = LAYER_UNITS
    else:
        metrics = {
            # The mean: per-pass figures are normalized, so their noise is
            # about symmetric, and the longest workload fits only 3 passes,
            # where the mean is steadier than the median.
            "run_s": statistics.mean(normalized),
            "setup_s": statistics.median(setup_norm),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "min_correct_digits": tally.digits,
        }
        units = E2E_UNITS

    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": _machine(),
        "requests": [req.describe() for req in requests],
        "untraced_pass_s": untraced,
        "untraced_pass_norm_s": normalized,
        "run_wall_median_s": statistics.median(untraced),
        "traced_pass_s": traced,
        "setup_wall_s": setup,
        "setup_norm_s": setup_norm,
        "setup_wall_median_s": statistics.median(setup) if setup else None,
    }
    print(json.dumps({"bench": info}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0
