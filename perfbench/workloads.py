"""The three closed-loop workloads of the ncgeo benchmark.

Each workload has one client that sends its next operation only after the
previous one returned.  Operations run in cycles that walk the workload's
configurations in a fixed order; a cycle visits all of them once, or, for
``lift``, half of them, so runs see the same mix however many cycles they
complete.  Inputs come from
``ncgeo.rng.trial_stream(seed, workload, op)`` and are generated during
set-up for a pool of cycles; runs longer than the pool reuse it, which costs
the same because every operation builds fresh solver objects.

Every operation is checked against its certificate.  An outcome is "ok",
"failed" (a raised ConvergenceError or ValueError, a certificate above its
tolerance, or a verification violation) or "wrong" (the certificate is met
but a bound the theory guarantees for certified answers is broken).

ncgeo functions are always called through their module (``geometry.f``),
never through names imported into this file, so the tracer's rebinding of
module attributes reaches them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ncgeo import core, geometry, models, projection, suites
from ncgeo.core import TracialAlgebra
from ncgeo.models import ModelSpec
from ncgeo.projection import ConvergenceError, SkewSubspace
from ncgeo.rng import trial_stream

OK, FAILED, WRONG = "ok", "failed", "wrong"
SOLVER_ERRORS = (ConvergenceError, ValueError)


@dataclass
class Outcome:
    latency_s: float
    status: str
    #: the configuration the operation ran (a verify record label)
    kind: object


def _timed(tracer, op_id, kind, solve, check):
    """Run one operation: time ``solve()`` alone, then ``check(result)``
    with tracing paused so the check's calls are not charged to a layer."""
    tracer.set_op(op_id)
    t0 = time.perf_counter()
    try:
        result = solve()
    except SOLVER_ERRORS:
        return Outcome(time.perf_counter() - t0, FAILED, kind)
    latency = time.perf_counter() - t0
    with tracer.paused():
        return Outcome(latency, check(result), kind)


def _certified(certificate_ok: bool, bound_ok: bool) -> str:
    if not certificate_ok:
        return FAILED
    return OK if bound_ok else WRONG


class Workload:
    """A fixed schedule of configurations run in cycles."""

    name = ""
    #: latency_tail_ms is this percentile: the highest of 50, 75, 90, 95,
    #: 99 and 99.9 that leaves at least ten operations above it in a
    #: 30-second run at the defining commit.  It stays fixed, so runs that
    #: complete more operations remain comparable; each run records how
    #: many operations it actually left above it.
    tail_percentile = 50.0
    #: rough cost of one cycle at the defining commit, used only to size
    #: the fixed amount of work a traced run repeats exactly
    nominal_cycle_s = 1.0
    #: passes over ``configs`` whose inputs set-up generates
    pool_cycles = 1
    #: whether the operations run threads on every CPU, so that the speed
    #: probe the timings are scaled by must be taken on every CPU
    uses_every_cpu = False
    #: whether latencies are thread CPU times, which a machine slowed by
    #: other tenants inflates far less than wall time, so they are not
    #: scaled by the speed probe
    latency_is_cpu_time = False

    configs: list = []

    def setup(self, seed: int):
        """Build the model spaces and the input pool; returns the state."""
        raise NotImplementedError

    @property
    def cycle_ops(self) -> int:
        """Operations per cycle; cycles walk ``configs`` cyclically."""
        return len(self.configs)

    def op(self, state, i: int, tracer) -> Outcome:
        """Operation ``i``: configuration i mod len(configs), pool input
        i mod len(pool)."""
        raise NotImplementedError

    def cycle(self, state, c: int, tracer, probe=None) -> list:
        """Runs cycle ``c``.  ``probe``, when given, may be called between
        operations, while none is in flight; the caller leaves the time it
        takes out of the cycle's time."""
        n = self.cycle_ops
        return [self.op(state, c * n + j, tracer) for j in range(n)]


# ---------------------------------------------------------------------------
# project: cold-start best-approximant solves
# ---------------------------------------------------------------------------


class Project(Workload):
    """best_approximant at tol 1e-10 from the trace-orthogonal projection.

    Generic subspaces of M_n with dimension round(n^2/3) for n in 4, 6, 8,
    plus the isotropy of special-diag-m2 (blocks (2,)); p in 4, 6.  The
    conditional-expectation kinds are left out: their solves return at zero
    Newton steps.
    """

    name = "project"
    tail_percentile = 99.0
    tol = 1e-10
    configs = [(n, p) for n in (4, 6, 8) for p in (4, 6)] + [("special-diag-m2", p) for p in (4, 6)]
    nominal_cycle_s = 0.2
    pool_cycles = 128

    def setup(self, seed):
        iso = models.build_model_space(ModelSpec("special-diag-m2", blocks=(2,))).isotropy
        pool = []
        for i in range(self.pool_cycles * len(self.configs)):
            n, p = self.configs[i % len(self.configs)]
            rng = trial_stream(seed, self.name, i)
            if n == "special-diag-m2":
                pool.append((iso.ambient, None, core.random_skew(iso.ambient, rng), p))
            else:
                alg = TracialAlgebra.full(n)
                basis = [core.random_skew(alg, rng) for _ in range(round(n * n / 3))]
                pool.append((alg, basis, core.random_skew(alg, rng), p))
        return {"iso": iso, "pool": pool}

    def op(self, state, i, tracer):
        alg, basis, z, p = state["pool"][i % len(state["pool"])]

        def solve():
            S = state["iso"] if basis is None else SkewSubspace(alg, basis)
            return S, projection.best_approximant(z, S, p, tol=self.tol)

        def check(result):
            # the trace-orthogonal projection is feasible
            S, res = result
            best = core.p_norm(res.residual, p, alg)
            linear = core.p_norm(z - S.project(z), p, alg)
            return _certified(res.optimality_residual <= self.tol, best <= linear * (1 + 1e-12) + 1e-14)

        return _timed(tracer, i, self.configs[i % len(self.configs)], solve, check)


# ---------------------------------------------------------------------------
# lift: epsilon-isometric lifts (the criterion-07 parameters)
# ---------------------------------------------------------------------------


class Lift(Workload):
    """epsilon_isometric_lift of 65-node loop-deformed exp curves on the
    five default model kinds, p = 4, epsilon in 1e-2, 1e-3.

    A cycle lifts once on each model, at epsilon 1e-2 and 1e-3 on alternate
    cycles, so that cycles are short and a run wastes little of its time
    on the last cycle that would not fit.
    """

    name = "lift"
    tail_percentile = 75.0
    p = 4
    slack = 1e-5
    defect_tol = 1e-6
    configs = [(k, eps) for eps in (1e-2, 1e-3) for k in range(5)]
    cycle_ops = 5
    nominal_cycle_s = 2.5
    pool_cycles = 6

    def setup(self, seed):
        spaces = [models.build_model_space(spec) for spec in suites.default_model_specs()]
        pool = []
        for i in range(self.pool_cycles * len(self.configs)):
            k, eps = self.configs[i % len(self.configs)]
            sp = spaces[k]
            rng = trial_stream(seed, self.name, i)
            z = core.random_skew(sp.ambient, rng, 0.35)
            xi = core.random_skew(sp.ambient, rng, 0.3)
            pool.append((sp, geometry.loop_deformed_exp_curve(z, xi, 0.35, n_nodes=65), eps))
        return {"pool": pool}

    def op(self, state, i, tracer):
        space, curve, eps = state["pool"][i % len(state["pool"])]

        def solve():
            return geometry.epsilon_isometric_lift(curve, space, self.p, eps)

        def check(res):
            bound = res.quotient_length_p + eps + self.slack
            return _certified(res.lift.defect <= self.defect_tol, res.length_p <= bound)

        return _timed(tracer, i, self.configs[i % len(self.configs)], solve, check)


# ---------------------------------------------------------------------------
# verify: the verification-suite runner
# ---------------------------------------------------------------------------


class Verify(Workload):
    """run_verification_suite with all four suites, default dims and p_list,
    and trials=1, so the per-record minimum trial counts set the work.

    One cycle is one report; an operation is one suite trial.  Trials are
    timed one by one by wrapping the trial callable the runner hands to
    ``suites._run_trials``.  A trial's latency is the CPU time of the worker
    thread that ran it: with NCGEO_THREADS > 1 the trials hold the
    interpreter lock in turns, so their wall times measured how they were
    paired and moved by 40% (IQR over median of the p95) from run to run.
    """

    name = "verify"
    tail_percentile = 95.0
    #: the suites' worker pool has NCGEO_THREADS = nproc threads
    uses_every_cpu = True
    latency_is_cpu_time = True
    trials = 1
    nominal_cycle_s = 28.0

    def __init__(self, suite_names=suites.SUITE_NAMES):
        self.suite_names = tuple(suite_names)

    def setup(self, seed):
        # the suites build the default model spaces once per process
        suites._SPACE_CACHE.clear()
        suites._spaces()
        return {"seed": seed, "suite_s": dict.fromkeys(suites.SUITE_NAMES, 0.0)}

    def cycle(self, state, c, tracer, probe=None):
        out = []
        run_trials = suites._run_trials

        def timed_run_trials(seed, label, n, fn):
            # a report lasts about 30 s, so the speed probe also runs
            # between its records, when the previous record's worker pool
            # has finished
            if probe is not None:
                probe()

            def one(k, rng):
                tracer.set_op(f"{label}#{k}")
                t0 = time.thread_time()
                try:
                    margin = fn(k, rng)
                except SOLVER_ERRORS:
                    margin = -math.inf
                out.append(Outcome(time.thread_time() - t0, OK if margin >= 0.0 else FAILED, label))
                return margin

            return run_trials(seed, label, n, one)

        cfg = suites.SuiteConfig(seed=1000 * state["seed"] + c, trials=self.trials, suites=self.suite_names)
        suites._run_trials = timed_run_trials
        try:
            report = suites.run_verification_suite(cfg)
        finally:
            suites._run_trials = run_trials
        for rec in report.records:
            state["suite_s"][rec.suite] += rec.runtime
        return out


WORKLOADS = {wl.name: wl for wl in (Project, Lift, Verify)}
