"""Smoke test of the benchmark harness on reduced inputs.

Kept out of the tier-1 suite (pytest's testpaths is tests/).  Run from the
repository root:

    python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import workloads  # noqa: E402
from elliptic_dedekind import cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def _untraced_then_traced(name):
    requests = workloads.build_requests(name, seed=1, smoke=True)
    _, first, _ = harness.run_pass(requests)
    tracer = Tracer()
    _, outputs, sum_cmd_d_sums = harness.run_pass(requests, tracer)
    tally = harness.Tally()
    tally.add(requests, first, first)
    tally.add(requests, outputs, first)
    return requests, tally, tracer, harness.layer_metrics(tracer, requests, sum_cmd_d_sums)


@pytest.mark.parametrize("name", ["sum_maximal", "sum_conductor"])
def test_sum_workload_checks_and_counts(name):
    original_main = cli.main
    requests, tally, tracer, metrics = _untraced_then_traced(name)
    assert cli.main is original_main  # the tracer restored what it rebound
    assert tally.failed == 0 and tally.attempted == 2 * len(requests)
    assert tally.digits >= 6
    n_c3 = sum(req.n_c3 for req in requests)
    # The sum command evaluates d_sum, then d_norm evaluates it again.
    assert metrics["cli.d_sum_per_sum_cmd"] == 2
    assert metrics["cosets.reps"] == 2 * n_c3
    assert metrics["dedekind.e1_evals_per_coset"] == 2.0
    assert tracer.counts["reps_mismatch"] == 0


def test_approximate_and_verify_workloads():
    requests, tally, _, metrics = _untraced_then_traced("approximate")
    steps = sum(req.steps for req in requests)
    assert tally.failed == 0 and tally.attempted == 2 * steps
    assert metrics["density.find_prime_calls"] == steps
    assert metrics["ring.primality_tests"] >= steps
    assert metrics["lattice.e1_calls"] == 0

    _, tally, _, metrics = _untraced_then_traced("verify_all")
    assert tally.failed == 0
    assert metrics["verification.checks"] == tally.attempted // 2


def test_sum_check_rejects_a_wrong_value():
    req = workloads.build_requests("sum_maximal", seed=1, smoke=True)[0]
    code, text = harness.call_cli(req.argv)
    payload = json.loads(text)
    assert code == 0 and req.check(payload).failed == 0
    payload["records"][0]["d_sum"]["im"] *= 1.0 + 1e-5
    assert req.check(payload).failed == 1


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_names_every_declared_metric(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "approximate", "--seed", "1", "--seconds", "0", "--trace", trace],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "approximate", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
