"""ncgeo benchmark: certified answers per second on three closed-loop workloads.

    python3 perfbench/run.py --workload {project,lift,verify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` as it stands, nothing is installed.

``--trace 0`` sets the workload up three times (``setup_s`` is the median),
then runs whole cycles of operations for about ``--seconds`` and reports
the end-to-end metrics.  Its wall-clock timings are divided by a slowness:
the median time of a fixed speed probe, taken around the set-ups for
``setup_s`` and between operations for the rest, over the probe's time at
reference speed.  ``--trace 1`` runs a fixed number of
cycles, which depends only on the workload and ``--seconds``, once with
every public ncgeo layer function wrapped and once with tracing off, and
reports per-layer metrics; its counts repeat exactly for a given seed.
Spans are written to ``perfbench/out/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the op counts, the tail percentile used, the
probe times and the timings as measured, before scaling.
See perfbench/README.md for the workloads and the metrics.
"""

import os

# one BLAS thread, before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPS = 3

#: seconds the speed probe takes on a machine of reference speed; the
#: end-to-end timings are reported as if the run had been on such a machine
PROBE_NOMINAL_S = 0.020
#: least time between two probes while the workload runs
PROBE_EVERY_S = 1.0

E2E_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "cpu_per_wall")):
        return "ratio"
    return "count"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "ncgeo_threads": os.environ.get("NCGEO_THREADS"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": git_commit(),
    }


def _probe_kernel() -> float:
    """Seconds taken by a fixed computation that calls no ncgeo code: small
    complex eigendecompositions, products and Python-level sums, the mix
    ncgeo's own time goes to."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = a + a.conj().T
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(400):
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(1j * w)) @ v.conj().T
        acc += float(np.trace(u @ a).real) + sum(float(x) for x in w)
    return time.perf_counter() - t0


def speed_probe(every_cpu: bool = False) -> float:
    """Time of the probe kernel where the scheduler puts it, or, with
    ``every_cpu``, its mean time over the CPUs the process may use, with the
    calling thread pinned to each in turn.  The shared machine the
    benchmark was defined on changes speed by up to 1.6x over tens of
    seconds, and not always on both CPUs alike.  A single-threaded workload
    runs where the scheduler puts it, like the plain probe; a worker pool
    that keeps every CPU busy is slowed by the slowest."""
    if not every_cpu:
        return _probe_kernel()
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_probe_kernel())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


class SpeedProbe:
    """Runs ``speed_probe(every_cpu)`` when called, unless it ran less than
    PROBE_EVERY_S ago and the call is not forced; keeps the probe times and
    the seconds spent probing."""

    def __init__(self, every_cpu: bool):
        self.every_cpu = every_cpu
        self.times = []
        self.spent_s = 0.0
        self._last = -math.inf

    def __call__(self, force=False):
        t0 = time.perf_counter()
        if force or t0 - self._last >= PROBE_EVERY_S:
            self.times.append(speed_probe(self.every_cpu))
            self._last = time.perf_counter()
            self.spent_s += self._last - t0

    def slowness(self) -> float:
        """Above 1 when the machine ran slower than the reference speed."""
        return statistics.median(self.times) / PROBE_NOMINAL_S


def run_cycles(wl, state, tracer, n_cycles=None, seconds=None, probe=None):
    """Whole cycles: ``n_cycles`` of them, or, given ``seconds``, cycles
    while the next one, if it lasts as long as the last, ends in time (at
    least one).  Given a SpeedProbe, calls it before each cycle, hands it
    to the workload to call between operations, and forces one at the end;
    the time it takes inside a cycle is left out of that cycle's time.
    Returns (outcomes, wall seconds, per-cycle throughputs)."""
    outcomes = []
    rates = []
    t0 = time.perf_counter()
    while True:
        spent = 0.0
        if probe is not None:
            probe()
            spent = probe.spent_s
        tc = time.perf_counter()
        done = wl.cycle(state, len(rates), tracer, probe)
        now = time.perf_counter()
        busy = now - tc - (probe.spent_s - spent if probe is not None else 0.0)
        outcomes += done
        rates.append(len(done) / busy)
        if n_cycles is not None and len(rates) >= n_cycles:
            break
        if seconds is not None and (now - t0) + busy > seconds:
            break
    if probe is not None:
        probe(force=True)
    return outcomes, time.perf_counter() - t0, rates


def stratified_median_ms(outcomes) -> float:
    """Geometric mean over configurations of each one's median latency."""
    by_kind = {}
    for o in outcomes:
        by_kind.setdefault(o.kind, []).append(o.latency_s)
    meds = [np.median(v) for v in by_kind.values()]
    return float(np.exp(np.mean(np.log(meds)))) * 1e3


def end_to_end(wl, args, context):
    from spans import NullTracer
    from workloads import OK

    setups = []
    # set-up runs in one thread on every workload
    setup_probe = SpeedProbe(every_cpu=False)
    for _ in range(SETUP_REPS):
        setup_probe(force=True)
        t0 = time.perf_counter()
        state = wl.setup(args.seed)
        setups.append(time.perf_counter() - t0)
    setup_probe(force=True)
    probe = SpeedProbe(wl.uses_every_cpu)
    outcomes, wall, rates = run_cycles(wl, state, NullTracer(), seconds=args.seconds, probe=probe)
    slowness = probe.slowness()
    latency_scale = 1.0 if wl.latency_is_cpu_time else slowness
    certified = [o for o in outcomes if o.status == OK] or outcomes
    lat_ms = np.array([o.latency_s for o in certified]) * 1e3
    ok = sum(o.status == OK for o in outcomes)
    q = wl.tail_percentile
    tail = float(np.percentile(lat_ms, q))
    context.update(
        cycles=len(rates),
        ops=len(outcomes),
        wall_s=wall,
        tail_percentile=q,
        tail_samples_beyond=int(np.sum(lat_ms > tail)),
        fail_ratio=(len(outcomes) - ok) / len(outcomes),
        setup_runs_s=setups,
        setup_probes_s=setup_probe.times,
        setup_slowness=setup_probe.slowness(),
        probes_s=probe.times,
        slowness=slowness,
    )
    measured = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": statistics.median(rates),
        "latency_p50_ms": stratified_median_ms(certified),
        "latency_tail_ms": tail,
    }
    context["measured"] = measured
    metrics = {
        "setup_s": measured["setup_s"] / setup_probe.slowness(),
        "throughput_ops_s": measured["throughput_ops_s"] * slowness,
        "latency_p50_ms": measured["latency_p50_ms"] / latency_scale,
        "latency_tail_ms": measured["latency_tail_ms"] / latency_scale,
        "success_ratio": ok / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return outcomes, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


def per_layer(wl, args, context):
    from ncgeo import suites
    from spans import NullTracer, Tracer

    n_cycles = max(1, round(args.seconds / (2.0 * wl.nominal_cycle_s)))
    state = wl.setup(args.seed)
    # the traced side goes first and pays for any first-call warm-up, so
    # the overhead ratio errs high
    tracer = Tracer()
    tracer.install()
    try:
        tracer.set_op("setup")
        traced_state = wl.setup(args.seed)
        traced, traced_s, _ = run_cycles(wl, traced_state, tracer, n_cycles=n_cycles)
    finally:
        tracer.uninstall()
    cpu0 = time.process_time()
    plain, plain_s, _ = run_cycles(wl, state, NullTracer(), n_cycles=n_cycles)
    cpu_per_wall = (time.process_time() - cpu0) / plain_s
    suite_s = dict(state.get("suite_s", {}))

    metrics = tracer.layer_metrics()
    ran_suites = wl.name == "verify"
    for name in suites.SUITE_NAMES:
        metrics[f"suites.suite_{name}.total_s"] = suite_s.get(name, 0.0)
    metrics["suites.workers"] = suites._n_workers() if ran_suites else 0
    metrics["suites.cpu_per_wall"] = cpu_per_wall if ran_suites else 0.0
    # same operations on both sides, so the throughput ratio is a time ratio
    metrics["trace.overhead_ratio"] = traced_s / plain_s

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}.jsonl"
    context.update(cycles=n_cycles, ops=len(traced), untraced_s=plain_s, traced_s=traced_s,
                   spans=tracer.write(spans_path), spans_file=str(spans_path.relative_to(ROOT)))
    return plain + traced, traced, {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("project", "lift", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "ncgeo" / "__init__.py").is_file():
        print(f"perfbench: no ncgeo package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "verify":
        os.environ["NCGEO_THREADS"] = str(nproc())
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS, OK, WRONG

    wl = WORKLOADS[args.workload]()
    context = environment(args)
    if args.trace:
        checked, counted, metrics = per_layer(wl, args, context)
    else:
        checked, metrics = end_to_end(wl, args, context)
        counted = checked
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not any(o.status == WRONG for o in checked),
        "attempted": len(counted),
        "failed": sum(o.status != OK for o in counted),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
