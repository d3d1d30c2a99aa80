"""Quick self-check of the benchmark; about 30 s on two cores.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_selfcheck.py

Runs a few operations of every workload, checks that every metric the
benchmark prints is declared in BENCHMARK.json with the same unit, and that
operation and call counts repeat exactly for a fixed seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 3
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seconds="0.01"):
    """One benchmark run; returns (context, result) from its last two lines."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def _declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def _counts(values):
    """The metrics that are counts, which must repeat exactly."""
    return {k: v for k, v in values.items() if not k.endswith(("_s", "_ratio", "cpu_per_wall"))}


def _values(metrics):
    return {k: v["value"] for k, v in metrics.items()}


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_declaration_and_repeat(trace, kind):
    first_ctx, first = _run("project", trace)
    second_ctx, second = _run("project", trace)
    for res in (first, second):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == _declared(kind)
    # --seconds 0.01 runs exactly one cycle, so the op count is fixed
    assert first["attempted"] == second["attempted"] == len(workloads.Project.configs)
    if trace:
        assert _counts(_values(first["metrics"])) == _counts(_values(second["metrics"]))
        assert first_ctx["spans"] == second_ctx["spans"] > 0


def _traced_ops(wl, n_ops):
    """Run ops 0..n_ops-1 traced on a fresh set-up; returns statuses and counts."""
    tracer = spans.Tracer()
    state = wl.setup(SEED)
    tracer.install()
    try:
        statuses = [wl.op(state, i, tracer).status for i in range(n_ops)]
    finally:
        tracer.uninstall()
    return statuses, tracer.layer_metrics()


@pytest.mark.parametrize("name, n_ops", [("lift", 2)])
def test_few_ops_repeat_exactly(name, n_ops):
    wl = workloads.WORKLOADS[name]()
    first = _traced_ops(wl, n_ops)
    second = _traced_ops(wl, n_ops)
    assert set(first[0]) <= {workloads.OK, workloads.FAILED}
    assert first[0] == second[0]
    assert _counts(first[1]) == _counts(second[1])


def test_verify_times_every_trial_and_restores_the_runner():
    from ncgeo import suites

    wl = workloads.Verify(suite_names=("core",))
    state = wl.setup(SEED)
    runner = suites._run_trials
    outcomes = wl.cycle(state, 0, spans.NullTracer())
    assert suites._run_trials is runner
    report = suites.run_verification_suite(suites.SuiteConfig(seed=1000 * SEED, trials=wl.trials, suites=("core",)))
    assert len(outcomes) == sum(r.trials for r in report.records)
    assert sum(o.status != workloads.OK for o in outcomes) == report.violations
    assert state["suite_s"]["core"] > 0


def test_tracer_restores_every_binding():
    from ncgeo import core, geometry, suites

    before = (core.principal_log, geometry.principal_log, suites.principal_log, core.AdAnalytic.apply)
    tracer = spans.Tracer()
    tracer.install()
    assert geometry.principal_log is core.principal_log is not before[0]
    tracer.uninstall()
    assert (core.principal_log, geometry.principal_log, suites.principal_log, core.AdAnalytic.apply) == before


def test_speed_probe_restores_cpu_affinity():
    before = os.sched_getaffinity(0)
    assert run.speed_probe(every_cpu=True) > 0
    assert os.sched_getaffinity(0) == before
