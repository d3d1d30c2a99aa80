"""Seeded verification suites over every module invariant, with a
deterministic report format for the command-line runner.

RECORDS is the one ordered table of the suites: it maps a record's label
"suite:anchor" to (count, trial), where count(cfg) is the trial count and
trial(cfg, k, rng) -> margin a module-level function that reads only the
config, the generator and the cached default model spaces.  Trial k draws
from trial_stream(cfg.seed, label, k), so any trial replays from its
(seed, label, trial) key alone and reports are byte-identical across runs.
Trials run in order in the calling thread: they hold the interpreter lock
between short LAPACK calls, and a two-thread pool made a one-trial report
about 20% slower (2.15 s against 1.78 s, seeds 1000-1005).  NCGEO_THREADS
is validated (exit 2 unless a positive integer) and reserved for a process
pool, to which a trial pickles by reference.  A record counts violations
and tracks the worst margin (negative = violation) of its property at the
configured tolerance.
"""

from __future__ import annotations

import functools
import math
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import TracialAlgebra, operator_norm, p_norm, principal_log, unitary_exp
from .geometry import (
    SampledCurve,
    _check_unitary_nodes,
    _geodesic_through,
    _loop_deformed_nodes,
    _simpson,
    convexity_probe,
    epsilon_isometric_lift,
    exp_curve,
    lift_ode_solve,
    loop_deformed_exp_curve,
    minimal_geodesic,
    minimality_probe,
    quotient_distance,
    quotient_distances,
    quotient_length,
    unitary_distance,
)
from .models import MODELS, ModelSpec, build_model_space, model_facts, validate_space
from .projection import ConvergenceError, SkewSubspace, best_approximant, orthonormal_basis
from .rng import trial_stream
from .serialization import SchemaError, _construct, _json_array, _json_value

__all__ = [
    "SuiteConfig",
    "SuiteRecord",
    "VerificationReport",
    "DEFAULT_TOLERANCES",
    "RECORDS",
    "run_verification_suite",
    "default_model_specs",
]

DEFAULT_TOLERANCES = {
    "clarkson": 1e-10,
    "invariance": 1e-10,
    "roundtrip": 1e-9,
    "exp_differential_quadrature": 1e-8,
    "contraction": 1e-11,
    "symbol_bound": 1e-9,
    "spectral_identity": 1e-10,
    "fold": 1e-10,
    "h_form": 1e-9,
    "projection_identities": 1e-8,
    "certificate": 1e-10,
    "oracle_agreement": 1e-4,
    "perpep": 1e-8,
    "p2_agreement": 1e-10,
    "metric": 1e-9,
    "coset_metric": 1e-8,
    "endpoint_pi": 1e-12,
    "diameter": 1e-9,
    "unitary_minimality": 1e-6,
    "lift_defect": 1e-6,
    "lift_constant": 1e-12,
    "eps_lift_slack": 1e-5,
    "coset_equality": 5e-4,
    "separation": 1e-6,
    "convexity": 1e-8,
    "probe_slack": 1e-6,
    "model_facts": 1e-8,
}

SUITE_NAMES = ("core", "projection", "geometry", "models")


@dataclass
class SuiteConfig:
    """Configuration of a verification run.

    ``trials`` is the base per-record count; expensive records derive
    smaller counts from it.  ``tolerances`` overrides entries of
    DEFAULT_TOLERANCES by name.  Records that need an even p run at the
    even integers of ``p_list`` (``even_ps``), or at 2 and 4 when it has
    none, while the report echoes ``p_list`` as given.
    """

    seed: int = 2026
    dims: tuple = (2, 4)
    p_list: tuple = (2, 4)
    trials: int = 120
    tolerances: dict = field(default_factory=dict)
    suites: tuple = SUITE_NAMES

    def __post_init__(self):
        self.seed = core._check_integer(self.seed, "seed")
        self.trials = core._check_integer(self.trials, "trials")
        self.dims = tuple(core._check_integer(d, f"dims[{i}]") for i, d in enumerate(self.dims))
        self.p_list = tuple(self.p_list)
        self.suites = tuple(self.suites)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("dims must be positive")
        if not self.p_list or any(not 1 <= p < math.inf for p in self.p_list):
            raise ValueError("p_list entries must be finite and >= 1")
        for i, p in enumerate(self.p_list):
            if p > core.MAX_EVEN_P:  # the H-form record's work grows as O(p)
                raise SchemaError(f"config.p_list[{i}]: expected a number <= {core.MAX_EVEN_P}, got {p}")
        for name in self.suites:
            if name not in SUITE_NAMES:
                raise ValueError(f"unknown suite {name!r}; expected a subset of {SUITE_NAMES}")
        for name, val in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(f"unknown tolerance name {name!r}")
            if not 0 < val < math.inf:
                raise ValueError(f"tolerance {name!r} must be positive and finite")

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def even_ps(self) -> tuple:
        evens = sorted({int(p) for p in self.p_list if float(p).is_integer() and int(p) % 2 == 0 and p >= 2})
        return tuple(evens) or (2, 4)

    def to_json(self) -> dict:
        return {
            "seed": int(self.seed),
            "dims": list(self.dims),
            "p_list": [float(p) for p in self.p_list],
            "trials": int(self.trials),
            "tolerances": {k: float(v) for k, v in sorted(self.tolerances.items())},
            "suites": list(self.suites),
        }

    @classmethod
    def from_json(cls, obj) -> "SuiteConfig":
        """The config of a JSON object.  A value of the wrong type or out of
        range raises SchemaError naming its path, such as ``config.dims[0]``;
        integers must be JSON integers (not booleans, not 2.0)."""
        if not isinstance(obj, dict):
            raise SchemaError("config: expected an object")
        unknown = set(obj) - {"seed", "dims", "p_list", "trials", "tolerances", "suites"}
        if unknown:
            raise SchemaError(f"config: unknown keys {sorted(unknown)}")
        kw = {}
        for key in ("seed", "trials"):
            if key in obj:
                kw[key] = _json_value(obj[key], f"config.{key}", int)
        for key, kind in (("dims", int), ("p_list", float), ("suites", str)):
            if key in obj:
                kw[key] = _json_array(obj[key], f"config.{key}", kind)
        if "tolerances" in obj:
            tols = obj["tolerances"]
            if not isinstance(tols, dict):
                raise SchemaError("config.tolerances: expected an object")
            kw["tolerances"] = {k: _json_value(v, f"config.tolerances.{k}", float) for k, v in tols.items()}
        return _construct("config", cls, **kw)


@dataclass
class SuiteRecord:
    suite: str
    anchor: str
    trials: int
    violations: int
    worst_margin: float
    runtime: float = 0.0

    def to_json(self, timings: bool = False) -> dict:
        out = {
            "suite": self.suite,
            "anchor": self.anchor,
            "trials": int(self.trials),
            "violations": int(self.violations),
            "worst_margin": float(self.worst_margin) if math.isfinite(self.worst_margin) else None,
        }
        if timings:
            out["runtime_s"] = round(self.runtime, 3)
        return out


@dataclass
class VerificationReport:
    records: list
    config: SuiteConfig

    @property
    def violations(self) -> int:
        return sum(r.violations for r in self.records)

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_json(self, timings: bool = False) -> dict:
        return {
            "config": self.config.to_json(),
            "environment": environment_stamp(),
            "records": [r.to_json(timings) for r in self.records],
            "violations": int(self.violations),
            "passed": bool(self.passed),
        }

    def summary_table(self) -> str:
        lines = [f"{'record':46s} {'trials':>7s} {'bad':>4s} {'worst margin':>13s} {'time':>8s}"]
        for r in self.records:
            lines.append(
                f"{r.suite + ':' + r.anchor:46s} {r.trials:7d} {r.violations:4d} "
                f"{r.worst_margin:13.3e} {r.runtime:7.2f}s"
            )
        lines.append(f"total violations: {self.violations}  -> {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def environment_stamp() -> dict:
    return {
        "package": "ncgeo 0.1.0",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# trial runner and the record table
# ---------------------------------------------------------------------------


def _n_workers() -> int:
    raw = os.environ.get("NCGEO_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"NCGEO_THREADS must be a positive integer (got {raw!r})")
    return int(raw)


def _run_trials(seed: int, label: str, n: int, fn):
    """fn(trial, rng) -> margin for trials 0..n-1, in order, in the calling
    thread; returns the violation count and the worst margin.  A trial's
    ValueError or ConvergenceError re-raises as a ConvergenceError naming its key."""
    margins = []
    for k in range(n):
        try:
            margins.append(fn(k, trial_stream(seed, label, k)))
        except (ValueError, ConvergenceError) as exc:
            raise ConvergenceError(f"{label} trial {k} (seed {seed}): {exc}") from exc
    # a NaN margin is a violation, and the worst margin whatever the order
    return sum(1 for m in margins if not m >= 0.0), float(np.min(margins, initial=math.inf))


#: "suite:anchor" -> (count, trial), each suite's records in report order
RECORDS = {}


def _register(label: str, count):
    """Decorator: enter a module-level trial in RECORDS under label."""
    def enter(trial):
        RECORDS[label] = (count, trial)
        return trial
    return enter


def run_verification_suite(config: SuiteConfig) -> VerificationReport:
    """Run the records of the selected suites, suite by suite in table order,
    and assemble the deterministic report."""
    _n_workers()  # reject a bad NCGEO_THREADS before any trial runs
    records = []
    for name in config.suites:
        for label, (count, trial) in RECORDS.items():
            suite, anchor = label.split(":")
            if suite != name:
                continue
            n = count(config)
            t0 = time.perf_counter()
            bad, worst = _run_trials(config.seed, label, n, functools.partial(trial, config))
            records.append(SuiteRecord(suite, anchor, n, bad, worst, time.perf_counter() - t0))
    return VerificationReport(records, config)


def _alg(cfg: SuiteConfig, k: int) -> TracialAlgebra:
    return TracialAlgebra.full(cfg.dims[k % len(cfg.dims)])


def _even_p(cfg: SuiteConfig, k: int) -> int:
    ps = cfg.even_ps()
    return ps[k % len(ps)]


# ---------------------------------------------------------------------------
# core suite
# ---------------------------------------------------------------------------


def _clarkson_margin(a, b, p, alg, tol):
    q = p / (p - 1.0)
    na, nb = p_norm(a, p, alg), p_norm(b, p, alg)
    nplus, nminus = p_norm(a + b, p, alg), p_norm(a - b, p, alg)
    if p <= 2:
        lhs = (nplus**q + nminus**q) ** (1.0 / q)
    else:
        lhs = (nplus**p + nminus**p) ** (1.0 / p)
    return 2.0 ** (1.0 / q) * (na**p + nb**p) ** (1.0 / p) - lhs + tol


def _clarkson_ps(cfg: SuiteConfig) -> list:
    # Clarkson's inequalities hold for 1 < p < inf
    return sorted({1.5, 2.0} | {float(p) for p in cfg.p_list if p > 1})


@_register("core:clarkson-inequalities", lambda cfg: cfg.trials * len(cfg.dims) * len(_clarkson_ps(cfg)))
def _clarkson(cfg, k, rng):
    ps_all = _clarkson_ps(cfg)
    alg = _alg(cfg, k)
    p = ps_all[(k // len(cfg.dims)) % len(ps_all)]
    a, b = core.random_skew(alg, rng), core.random_skew(alg, rng)
    return _clarkson_margin(a, b, p, alg, cfg.tol("clarkson"))


@_register("core:unitary-invariance", lambda cfg: cfg.trials)
def _invariance(cfg, k, rng):
    alg = _alg(cfg, k)
    x = core.random_hermitian(alg, rng) + 1j * core.random_hermitian(alg, rng)
    u, v = core.random_unitary(alg, rng), core.random_unitary(alg, rng)
    worst = max(abs(p_norm(u @ x @ v, p, alg) - p_norm(x, p, alg)) for p in cfg.p_list)
    return cfg.tol("invariance") - worst


@_register("core:exponential-log-roundtrip", lambda cfg: cfg.trials)
def _roundtrip(cfg, k, rng):
    alg = _alg(cfg, k)
    z = core.random_skew(alg, rng)
    z = z * (rng.uniform(0.05, 0.95) * math.pi / max(operator_norm(z), 1e-12))
    e1 = operator_norm(principal_log(unitary_exp(z)) - z)
    u = core.random_unitary(alg, rng)
    e2 = operator_norm(unitary_exp(principal_log(u)) - u)
    return cfg.tol("roundtrip") - max(e1, e2)


def _taylor_expm(x: np.ndarray) -> np.ndarray:
    """exp(x) by 18 Taylor terms of x / 2^s, its 1-norm scaled to at most 0.5,
    squared s times (Moler & Van Loan, SIAM Review 2003): an oracle that
    shares no code with core.Eigenframe."""
    s = max(0, math.ceil(math.log2(max(float(np.abs(x).sum(axis=0).max()), 1e-300) / 0.5)))
    y, term = x / 2.0**s, np.eye(len(x), dtype=x.dtype)
    out = term
    for k in range(1, 19):
        term = term @ y / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


@_register("core:exponential-differential", lambda cfg: max(20, cfg.trials // 4))
def _expdiff(cfg, k, rng):
    alg = _alg(cfg, k)
    a = core.random_skew(alg, rng)
    a = a * (rng.uniform(0.0, 1.5) / max(operator_norm(a), 1e-12))
    b = core.random_skew(alg, rng)
    b = b * (rng.uniform(0.0, 1.5) / max(operator_norm(b), 1e-12))
    d = core.exp_differential(a, b)
    # Van Loan: exp([[a, b], [0, a]]) has int_0^1 e^{(1-t)a} b e^{ta} dt as
    # its upper right block, exact to the oracle's roundoff (a 64-panel Simpson
    # rule errs by 1.4e-8 already at ||a|| = ||b|| = 1.29 in M_2)
    n = len(a)
    ref = _taylor_expm(np.block([[a, b], [np.zeros_like(a), a]]))[:n, n:]
    margin = cfg.tol("exp_differential_quadrature") - operator_norm(d - ref)
    worst = max(p_norm(d, p, alg) - p_norm(b, p, alg) for p in (2, np.inf))
    return min(margin, cfg.tol("contraction") - worst)


@_register("core:inverse-symbol-bound", lambda cfg: max(20, cfg.trials // 4))
def _symbol_bound(cfg, k, rng):
    alg = _alg(cfg, k)
    a = core.random_skew(alg, rng)
    a = a * (rng.uniform(0.05, 0.95) * (math.pi / 2) / max(operator_norm(a), 1e-12))
    r = operator_norm(a)
    bs = 1j * core._random_hermitians(alg, rng, 20)
    nb = core._operator_norms(bs)
    images = core.Eigenframe(a).apply(lambda x: 1.0 / core._sym_F(x), bs)
    worst = float(np.max(core._operator_norms(images[nb > 1e-12]) / nb[nb > 1e-12], initial=0.0))
    return r / math.sin(r) - worst + cfg.tol("symbol_bound")


@_register("core:spectral-scale-identity", lambda cfg: cfg.trials)
def _spectral(cfg, k, rng):
    alg = _alg(cfg, k)
    x = core.random_hermitian(alg, rng)
    lam = core.spectral_scale(x, alg)
    worst = abs(lam.integrate() - core.trace_tau(x, alg).real)
    worst = max(worst, abs(lam.integrate(lambda v: v**2) - core.trace_tau(x @ x, alg).real))
    for p in cfg.even_ps():
        worst = max(worst, abs(lam.integrate(lambda v: np.abs(v) ** p) - p_norm(x, p, alg) ** p))
    return cfg.tol("spectral_identity") - worst


@_register("core:fold-symbol", lambda cfg: cfg.trials)
def _fold(cfg, k, rng):
    alg = _alg(cfg, k)
    z = core.random_hermitian(alg, rng)
    z = z * (rng.uniform(1.2, 5.0) * math.pi / max(operator_norm(z), 1e-12))
    f = core.fold_symbol(z)
    worst = operator_norm(unitary_exp(1j * f) - unitary_exp(1j * z))
    worst = max(worst, operator_norm(f) - math.pi)
    mu_f, mu_z = core.s_numbers(f, alg), core.s_numbers(z, alg)
    ts = np.linspace(0.019, 0.999, 37)
    worst = max(worst, float(np.max(mu_f(ts) - mu_z(ts))))
    for p in cfg.even_ps():
        if p_norm(f, p, alg) >= p_norm(z, p, alg) - 1e-9:
            worst = max(worst, 1.0)  # strict decrease above the band failed
    return cfg.tol("fold") - worst


@_register("core:h-form-identities", lambda cfg: cfg.trials)
def _hform(cfg, k, rng):
    alg = _alg(cfg, k)
    p = _even_p(cfg, k)
    a, b = core.random_skew(alg, rng), core.random_skew(alg, rng)
    qa = core.quadratic_form(a, b, p, alg)
    worst = -qa
    rhs = p * p_norm(b @ np.linalg.matrix_power(a, p // 2 - 1), 2, alg) ** 2
    anti = a @ b + b @ a
    for l in range(p // 2 - 1):
        m = p // 2 - 2 - l
        rhs += (p / 2.0) * p_norm(
            np.linalg.matrix_power(a, l) @ anti @ np.linalg.matrix_power(a, m), 2, alg
        ) ** 2
    worst = max(worst, abs(qa - rhs) / max(1.0, abs(rhs)))
    comm = core.quadratic_form(a, b @ a - a @ b, p, alg)
    bound = 4.0 * operator_norm(a) ** 2 * qa
    worst = max(worst, (comm - bound) / max(1.0, bound))
    return cfg.tol("h_form") - worst


# ---------------------------------------------------------------------------
# projection suite
# ---------------------------------------------------------------------------


def _random_subspace(alg, rng, dim):
    return orthonormal_basis(SkewSubspace(alg, [core.random_skew(alg, rng) for _ in range(dim)]))


@_register("projection:best-approximant-identities", lambda cfg: cfg.trials)
def _identities(cfg, k, rng):
    alg = _alg(cfg, k)
    p = _even_p(cfg, k)
    S = _random_subspace(alg, rng, min(3, alg.dim**2 - 1))
    z = core.random_skew(alg, rng)
    res = best_approximant(z, S, p)
    tol = cfg.tol("projection_identities")
    worst = res.optimality_residual - cfg.tol("certificate")
    worst = max(worst, p_norm(best_approximant(res.residual, S, p).projection, p, alg) - tol)
    worst = max(worst, p_norm(res.projection, p, alg) - 2.0 * p_norm(z, p, alg) - tol)
    lam = -2.0 if k % 2 else 0.5
    q_lam = best_approximant(lam * z, S, p).projection
    worst = max(worst, p_norm(q_lam - lam * res.projection, p, alg) - tol)
    return -worst


@_register("projection:minimal-lifting-criterion", lambda cfg: cfg.trials)
def _perpep(cfg, k, rng):
    alg = _alg(cfg, k)
    p = _even_p(cfg, k)
    S = _random_subspace(alg, rng, min(3, alg.dim**2 - 1))
    z = core.random_skew(alg, rng)
    res = best_approximant(z, S, p)
    base = p_norm(res.residual, p, alg)
    margin = cfg.tol("certificate") - res.optimality_residual
    for eps in (1e-2, -1e-2, 1e-4, -1e-4):
        y = S.combine(rng.standard_normal(S.dim))
        margin = min(margin, p_norm(res.residual + eps * y, p, alg) - base + cfg.tol("perpep"))
    return margin


@_register("projection:p2-linear-agreement", lambda cfg: cfg.trials)
def _p2(cfg, k, rng):
    alg = _alg(cfg, k)
    S = _random_subspace(alg, rng, min(4, alg.dim**2 - 1))
    z = core.random_skew(alg, rng)
    gap = p_norm(best_approximant(z, S, 2).projection - S.project(z), 2, alg)
    return cfg.tol("p2_agreement") - gap


@_register("projection:horizontal-bijection", lambda cfg: max(20, cfg.trials // 4))
def _bijection(cfg, k, rng):
    alg = _alg(cfg, k)
    p = _even_p(cfg, k)
    S = _random_subspace(alg, rng, min(3, alg.dim**2 - 1))
    F = S.complement()
    f = F.combine(rng.standard_normal(F.dim))
    res = best_approximant(f, S, p)
    img = f - res.projection
    worst = p_norm(F.project(img) - f, p, alg)
    worst = max(worst, p_norm(best_approximant(img, S, p).projection, p, alg))
    return cfg.tol("projection_identities") - worst


@_register("projection:lattice-oracle-agreement", lambda cfg: max(2, cfg.trials // 40))
def _oracle(cfg, k, rng):
    alg = TracialAlgebra.full(3)
    S = SkewSubspace(alg, [core.random_skew(alg, rng) for _ in range(2)])
    z = core.random_skew(alg, rng, 0.6)
    res = best_approximant(z, S, 4)
    c = _lattice_search(z, S, 4, alg)
    return cfg.tol("oracle_agreement") - float(np.max(np.abs(res.coefficients - c)))


def _trace_polynomial(w0, b, p, alg):
    """A[i, j] = (-1)^(p/2) tau(d1^i d2^j coefficient of (w0 - d1 b0 - d2 b1)^p),
    by p rounds of right multiplication by the linear factor, not 3^p words."""
    M = np.zeros((p + 1, p + 1) + w0.shape, dtype=complex)
    M[0, 0] = np.eye(len(w0))
    for _ in range(p):
        nxt = M @ w0
        nxt[1:] -= M[:-1] @ b[0]
        nxt[:, 1:] -= M[:, :-1] @ b[1]
        M = nxt
    return (-1) ** (p // 2) * np.einsum("ijkk,k->ij", M, core._diag_weights(alg)).real


#: rows of the lattice oracle's coefficient grid evaluated at once (a full
#: 1101-row sweep would be 9.7 MB at a time)
_LATTICE_BLOCK_ROWS = 128


def _lattice_search(z, S, p, alg):
    """Dense coefficient sweep (pitch 1e-3, two 10x refinements) independent
    of the Newton path; two-dimensional subspaces only.  Each sweep expands
    the degree-p polynomial tau((z - c1 b0 - c2 b1)^p) about its centre c0
    (an uncentred expansion cancels badly at pitch 1e-5) and evaluates the
    grid as (P1 A) P2^T, with P1, P2 the Vandermonde rows of d = c - c0, in
    blocks of _LATTICE_BLOCK_ROWS rows; the argmin is the grid's first least
    value, as np.argmin of the whole grid takes it."""
    b = S.onb()

    def sweep(c0, half_width, pitch):
        g1, g2 = (np.arange(c - half_width, c + half_width + pitch / 2, pitch) for c in c0)
        A = _trace_polynomial(z - c0[0] * b[0] - c0[1] * b[1], b, p, alg)
        P1, P2 = (np.vander(g - c, p + 1, increasing=True) for g, c in zip((g1, g2), c0))
        firsts = []  # the first least value of each block and its flat index in the grid
        for r in range(0, len(g1), _LATTICE_BLOCK_ROWS):
            vals = (P1[r : r + _LATTICE_BLOCK_ROWS] @ A) @ P2.T
            j = int(np.argmin(vals))
            firsts.append((vals.flat[j], r * len(g2) + j))
        kk = np.unravel_index(firsts[int(np.argmin([v for v, _ in firsts]))][1], (len(g1), len(g2)))
        return np.array([g1[kk[0]], g2[kk[1]]])

    c = sweep(S.coords(z), 0.55, 1e-3)
    for pitch in (1e-4, 1e-5):
        c = sweep(c, 120 * pitch, pitch)
    return c


# ---------------------------------------------------------------------------
# geometry suite
# ---------------------------------------------------------------------------


def default_model_specs() -> list:
    """Desk-scale instances of every model kind."""
    return [
        ModelSpec("center-quotient", blocks=(2, 2)),
        ModelSpec("diag-m2", blocks=(2,)),
        ModelSpec("special-diag-m2", blocks=(2,)),
        ModelSpec("projection-orbit", blocks=(2,)),
        ModelSpec("partial-isometry-orbit", blocks=(3,)),
    ]


_SPACE_CACHE = {}


def _spaces():
    if not _SPACE_CACHE:
        for spec in default_model_specs():
            _SPACE_CACHE[spec.kind] = build_model_space(spec)
    return _SPACE_CACHE


def _minimal_symbol_for(space, rng, p, target_norm):
    z = space.horizontal_project(core.random_skew(space.ambient, rng, 1.0))
    z = best_approximant(z, space.isotropy, p, tol=1e-12).residual
    nz = operator_norm(z)
    if nz < 1e-9:
        return z
    z = z * (target_norm / nz)
    return best_approximant(z, space.isotropy, p, tol=1e-12).residual


@_register("geometry:metric-axioms", lambda cfg: cfg.trials)
def _metric(cfg, k, rng):
    alg = _alg(cfg, k)
    p = _even_p(cfg, k)
    u, v, w = (core.random_unitary(alg, rng) for _ in range(3))
    tol = cfg.tol("metric")
    pairs = np.stack([u, v, u, w, w @ u]), np.stack([v, u, w, v, w @ v])
    uv, vu, uw, wv, shifted = unitary_distance(*pairs, p, alg).tolist()
    m = min(tol - abs(uv - vu), uw + wv - uv + tol)
    return min(m, 1e-10 - abs(shifted - uv))


@_register("geometry:distance-sandwich", lambda cfg: cfg.trials * len(cfg.even_ps()))
def _sandwich(cfg, k, rng):
    alg = _alg(cfg, k)
    p = _even_p(cfg, k)
    u, v = core.random_unitary(alg, rng), core.random_unitary(alg, rng)
    d = unitary_distance(u, v, p, alg)
    gap = p_norm(u - v, p, alg)
    tol = cfg.tol("metric")
    lo = math.sqrt(1.0 - math.pi**2 / 12.0)
    return min(gap - lo * d + tol, d - gap + tol)


@_register("geometry:antipode-at-pi", lambda cfg: len(cfg.dims) * len(cfg.even_ps()))
def _endpoint(cfg, k, rng):
    alg = _alg(cfg, k)
    p = _even_p(cfg, k)
    one = alg.identity()
    return cfg.tol("endpoint_pi") - abs(unitary_distance(one, -one, p, alg) - math.pi)


@_register("geometry:diameter-bound", lambda cfg: max(20, cfg.trials // 2))
def _diameter(cfg, k, rng):
    alg = _alg(cfg, k)
    uv = core._random_unitaries(alg, rng, 50)
    worst = np.max(core._p_norms(principal_log(uv[0::2].conj().mT @ uv[1::2]), cfg.even_ps()[0], alg))
    return math.pi + cfg.tol("diameter") - float(worst)


@_register("geometry:unitary-minimality", lambda cfg: max(10, cfg.trials // 2))
def _unitary_minimality(cfg, k, rng):
    alg = _alg(cfg, k)
    p = _even_p(cfg, k)
    z = core.random_skew(alg, rng)
    z = z * (rng.uniform(0.1, 1.0) * math.pi / max(operator_norm(z), 1e-12))
    base = p_norm(z, p, alg)
    xis, amps = map(np.array, zip(*[(core.random_skew(alg, rng), rng.uniform(0.05, 0.8)) for _ in range(20)]))
    # the 20 loop competitors as one stack; lengths by Simpson's rule along the nodes
    grid = np.linspace(0.0, 1.0, 65)
    nodes, vel = _loop_deformed_nodes(z, xis, amps, grid)
    _check_unitary_nodes(nodes)
    lengths = _simpson(core._p_norms(vel, p, alg), grid)
    return min([math.inf, *(lengths - base + cfg.tol("unitary_minimality")).tolist()])


@_register("geometry:coset-metric-axioms", lambda cfg: max(6, cfg.trials // 20))
def _coset_metric(cfg, k, rng):
    # triples at moderate radius, where multistart reliably certifies the
    # global coset minimum; full-diameter values are covered by the
    # oracle comparisons in the test suite
    sp = _spaces()["center-quotient"]
    alg = sp.ambient
    p = _even_p(cfg, k)
    us = []
    for _ in range(3):
        z = core.random_skew(alg, rng)
        z = z * (rng.uniform(0.2, 1.2) / max(operator_norm(z), 1e-12))
        g = sp.isotropy.combine(rng.standard_normal(sp.isotropy.dim))
        us.append(unitary_exp(z) @ unitary_exp(0.5 * g))
    tol = cfg.tol("coset_metric")
    pairs = ((0, 1), (1, 0), (0, 2), (2, 1))
    d01, d10, d02, d21 = (r.value for r in quotient_distances(
        sp, [us[i] for i, _ in pairs], [us[j] for _, j in pairs], p, multistarts=12, seeds=range(k, k + 4)))
    return min(tol - abs(d01 - d10), d02 + d21 - d01 + tol)


@_register("geometry:lifting-ode-constant", lambda cfg: max(5, cfg.trials // 20))
def _lift_const(cfg, k, rng):
    sp = _spaces()["diag-m2"]
    w0 = sp.isotropy.combine(0.3 * rng.standard_normal(sp.isotropy.dim))
    grid = np.linspace(0, 1, 9)
    lift = lift_ode_solve(SampledCurve(grid, np.repeat(w0[None], 9, axis=0), target="algebra"), sp)
    worst = core._max_operator_norm(lift.z.nodes - lift.z.grid[:, None, None] * w0)
    return cfg.tol("lift_constant") - worst


@_register("geometry:lifting-ode-defect", lambda cfg: max(10, cfg.trials // 4))
def _lift_polygonal(cfg, k, rng):
    sp = _spaces()["diag-m2" if k % 2 == 0 else "center-quotient"]
    nodes = np.array(
        [sp.isotropy.combine(0.35 * rng.standard_normal(sp.isotropy.dim)) for _ in range(9)]
    )
    lift = lift_ode_solve(SampledCurve(np.linspace(0, 1, 9), nodes, target="algebra"), sp)
    return min(cfg.tol("lift_defect") - lift.defect, 1e-9 - lift.projection_drift)


def _space(k: int):
    """The default model space of trial k, cycling through the kinds in name order."""
    spaces = _spaces()
    names = sorted(spaces)
    return spaces[names[k % len(names)]]


@_register("geometry:epsilon-isometric-lifts", lambda cfg: max(10, cfg.trials // 6))
def _eps_lift(cfg, k, rng):
    sp = _space(k)
    alg = sp.ambient
    p = _even_p(cfg, k)
    eps = 1e-2 if (k // len(_spaces())) % 2 == 0 else 1e-3
    z = core.random_skew(alg, rng, 0.35)
    xi = core.random_skew(alg, rng, 0.3)
    gamma = loop_deformed_exp_curve(z, xi, 0.35, n_nodes=65)
    res = epsilon_isometric_lift(gamma, sp, p, eps)
    return res.quotient_length_p + eps + cfg.tol("eps_lift_slack") - res.length_p


@_register("geometry:coset-vs-curve-infimum", lambda cfg: max(8, cfg.trials // 8))
def _iguales(cfg, k, rng):
    sp = _space(k)
    p = _even_p(cfg, k)
    z0 = _minimal_symbol_for(sp, rng, p, 0.5)
    g = unitary_exp(sp.isotropy.combine(0.4 * rng.standard_normal(sp.isotropy.dim)))
    v = unitary_exp(z0) @ g
    # the distance and the geodesic: two seedings of (1, v), one solve
    dq, qg = quotient_distances(sp, [sp.ambient.identity()] * 2, [v, v], p, multistarts=8, seeds=[k, k + 1])
    geo = _geodesic_through(sp, v, qg.g_opt, p)
    best_len = quotient_length(exp_curve(geo.symbol, 33), sp, p)
    best_len = min(best_len, quotient_length(exp_curve(z0, 33), sp, p))
    return cfg.tol("coset_equality") - abs(dq.value - best_len)


@_register("geometry:coset-separation", lambda cfg: max(8, cfg.trials // 10))
def _separation(cfg, k, rng):
    sp = _space(k)
    p = _even_p(cfg, k)
    z = _minimal_symbol_for(sp, rng, p, 0.45)
    if operator_norm(z) < 1e-6:
        return 0.0
    d = quotient_distance(sp, sp.ambient.identity(), unitary_exp(z), p, multistarts=6, seed=k).value
    return d - cfg.tol("separation")


@_register("geometry:local-convexity", lambda cfg: cfg.trials)
def _convexity(cfg, k, rng):
    alg = _alg(cfg, k)
    p = _even_p(cfg, k)
    for _ in range(40):
        v = unitary_exp(core.random_skew(alg, rng, 0.2))
        w = v @ unitary_exp(core.random_skew(alg, rng, 0.2))
        u = unitary_exp(core.random_skew(alg, rng, 0.25))
        if operator_norm(u - v) < math.sqrt(2) and operator_norm(w - v) < math.sqrt(2) - operator_norm(u - v):
            rep = convexity_probe(u, v, w, p, alg)
            if not rep.collinear:
                return rep.min_second_difference + cfg.tol("convexity")
    return 0.0


@_register("geometry:geodesic-minimality-band", lambda cfg: max(5, cfg.trials // 12))
def _band_probe(cfg, k, rng):
    sp = _space(k)
    p = _even_p(cfg, k)
    z = _minimal_symbol_for(sp, rng, p, 1.0)
    nz = operator_norm(z)
    if nz < 1e-9:
        return 0.0
    z = z * (0.4 * sp.epsilon_band(p) / nz)
    z = best_approximant(z, sp.isotropy, p, tol=1e-12).residual
    rep = minimality_probe(
        sp, z, p, trials=10, seed=cfg.seed + k, n_nodes=33, length_slack=cfg.tol("probe_slack")
    )
    if rep.uniqueness_violations:
        return -1.0
    return rep.worst_margin


# ---------------------------------------------------------------------------
# models suite: three records per default model kind, in name order
# ---------------------------------------------------------------------------


def _structure(name, cfg, k, rng):
    sp = _spaces()[name]
    info = validate_space(sp, trials=20, seed=cfg.seed + k)
    margin = sp.c_O + 1e-9 - info["c_ratio"]
    margin = min(margin, min(info["c_p"].values()))
    return margin


def _facts(name, cfg, k, rng):
    sp = _spaces()[name]
    n = max(10, cfg.trials // 4)
    if MODELS[name].facts is None:
        return min(validate_space(sp, trials=n, seed=cfg.seed + 7 * k)["c_p"].values())
    rep = model_facts(sp, _even_p(cfg, k), trials=n, seed=cfg.seed + 7 * k, tol=cfg.tol("model_facts"))
    worst = min((c.worst_margin for c in rep.checks), default=math.inf)
    return -1.0 if rep.violations else max(worst, 0.0)


def _geodesics(name, cfg, k, rng):
    sp = _spaces()[name]
    p = _even_p(cfg, k)
    z = _minimal_symbol_for(sp, rng, p, 0.25)
    res = minimal_geodesic(sp, unitary_exp(z), p, multistarts=4, seed=cfg.seed + k)
    margin = min(1e-7 - res.endpoint_error, 1e-8 - res.minimality_certificate)
    return min(margin, p_norm(z, p, sp.ambient) + 1e-9 - res.length_p)


for _name in sorted(spec.kind for spec in default_model_specs()):
    RECORDS[f"models:{_name}-structure"] = (lambda cfg: 3, functools.partial(_structure, _name))
    RECORDS[f"models:{_name}-facts"] = (lambda cfg: len(cfg.even_ps()), functools.partial(_facts, _name))
    RECORDS[f"models:{_name}-geodesics"] = (lambda cfg: max(5, cfg.trials // 20), functools.partial(_geodesics, _name))

