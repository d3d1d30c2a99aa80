"""Curves, distances, lifts, and minimal geodesics on homogeneous spaces of
the unitary group of a finite tracial algebra.

The unitary group carries the bi-invariant rectifiable p-distance

    d_p(u, v) = || log(u* v) ||_p,

realized by one-parameter curves t |-> u e^{tz}.  A homogeneous space is a
transitive action of the unitary group together with the isotropy Lie
algebra at a basepoint; tangent vectors are measured by the quotient norm
inf_y ||z - y||_p over the isotropy algebra (``projection.quotient_norm``),
lengths of orbit curves by integrating the quotient norms of the velocities
of lifts, and the coset distance by

    qd_p(u.x, v.x) = min_{g in G_x} d_p(u, v g),

computed here by the damped-Newton loop of the best approximant
(``projection._newton``) run once over a stack of seeded starts in the
isotropy group, with an exact first-variation gradient and a stationarity
certificate (stationarity is equivalent to the minimal-lifting criterion
tau(w^{p-1} y) = 0 for all isotropy directions y); one eigenframe per trial
unitary gives the objective, the cut-locus guard and the Newton step.

The module also contains: the lifting ODE du/dt = w(t) u solved by the
6th-order Magnus method with step halving against a finite-difference
defect bound (the steps never cross a kink of the polygonal w: w is affine
on each step, whose generator needs its midpoint value and slope, b3 = 0;
generators, exponentials, drift and defect are stacks, a bracket of skew
terms is one product xy - (xy)*, the differences one stencil-matrix product,
and the steps multiply up in lockstep blocks of about sqrt(steps) steps;
the velocities are built on first access); almost-isometric lifts of orbit curves
built from the polygonal approximation of -Q(Gamma* dGamma); initial-value
minimal geodesics with certified minimal symbols; the rectifiable length
of orbit curves as a supremum of partition sums; and the convexity and
minimality probes for the local geometry experiments.  Every quotient speed
is a ``quotient_norm`` of a stack of velocities: the lift solves its nodes
and chord midpoints in one call, and the minimality probe all the nodes of
all its competitors in one call.  Lengths integrate by Simpson's rule
(``_simpson``, scipy's rule in numpy; the package imports no scipy).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import core, projection
from .core import Eigenframe, TracialAlgebra, principal_log, unitary_exp
from .projection import ConvergenceError, SkewSubspace, lifting_certificate, quotient_norm

__all__ = [
    "SampledCurve",
    "HomSpace",
    "GeodesicResult",
    "QuotientDistanceResult",
    "LiftResult",
    "IsometricLiftResult",
    "ConvexityReport",
    "ProbeReport",
    "curve_length_p",
    "quotient_length",
    "unitary_distance",
    "quotient_distance",
    "quotient_distances",
    "lift_ode_solve",
    "epsilon_isometric_lift",
    "minimal_geodesic",
    "rectifiable_path_length",
    "convexity_probe",
    "minimality_probe",
    "exp_curve",
    "loop_deformed_exp_curve",
    "reparametrized_exp_curve",
    "orbit_gap",
]


# ---------------------------------------------------------------------------
# sampled curves
# ---------------------------------------------------------------------------


@dataclass
class SampledCurve:
    """A curve stored as node values on a uniform grid over [0, 1].

    ``target`` is "unitary" for curves in the unitary group, "orbit" for
    orbit curves (stored through unitary fiber representatives), or
    "algebra" for fields of skew-Hermitian values (ODE right-hand sides,
    interpolated linearly).  ``velocities`` holds the left-translated
    derivatives Gamma* dGamma/dt at the nodes when they are known in closed
    form ("exact-exponential" rule); otherwise derivatives fall back to
    4th-order finite differences on the grid.
    """

    grid: np.ndarray
    nodes: np.ndarray
    target: str = "unitary"
    velocities: np.ndarray | None = None

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.nodes = np.asarray(self.nodes, dtype=complex)
        if self.target not in ("unitary", "orbit", "algebra"):
            raise ValueError(f"unknown curve target {self.target!r}")
        if len(self.grid) != len(self.nodes):
            raise ValueError("grid and nodes must have equal length")
        if len(self.grid) < 2:
            raise ValueError("a curve needs at least two nodes")
        h = np.diff(self.grid)
        if np.max(np.abs(h - h[0])) > 1e-12:
            raise ValueError("the parameter grid must be uniform")
        if self.velocities is not None:
            self.velocities = np.asarray(self.velocities, dtype=complex)

    @property
    def n_intervals(self) -> int:
        return len(self.grid) - 1

    def validate_unitary(self):
        _check_unitary_nodes(self.nodes)

    def left_velocities(self) -> np.ndarray:
        """Gamma* dGamma at every node (stored exactly or by finite differences)."""
        if self.velocities is not None:
            return self.velocities
        v = self.nodes.conj().mT @ _differentiate_nodes(self.nodes, self.grid)
        return (v - v.conj().mT) / 2.0


def _check_unitary_nodes(nodes: np.ndarray):
    """The checks of SampledCurve.validate_unitary on the nodes (m, n, n) of
    one curve or of each curve of a stack (K, m, n, n): every node unitary
    within 1e-9 n, adjacent nodes at uniform distance below 2, measured only
    where their largest Frobenius distance, an upper bound, nearly reaches 2."""
    bad = np.argwhere(~(core._unitary_defects(nodes) <= 1e-9 * nodes.shape[-1]))
    if bad.size:
        raise ValueError(f"curve node {bad[0, -1]} is not unitary within tolerance")
    gaps = nodes[..., 1:, :, :] - nodes[..., :-1, :, :]
    if np.linalg.norm(gaps, axis=(-2, -1)).max() >= 2.0 - 1e-8 and core._max_operator_norm(gaps) >= 2.0:
        raise ValueError("grid too coarse: adjacent nodes at uniform distance >= 2")


_FD_INTERIOR = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_FD_LEFT = np.array(
    [
        [-25.0, 48.0, -36.0, 16.0, -3.0],
        [-3.0, -10.0, 18.0, -6.0, 1.0],
    ]
) / 12.0


@functools.lru_cache(maxsize=16)
def _fd_matrix(m: int) -> np.ndarray:
    """The (m, m) matrix of the 4th-order stencils, read-only: central rows
    inside, one-sided rows at the two nodes of each end.  It has m^2 entries,
    sized for segments and sampled curves of up to a few hundred nodes."""
    if m < 5:
        raise ValueError("finite differences need at least 5 nodes")
    d = sum(c * np.eye(m, k=j - 2) for j, c in enumerate(_FD_INTERIOR))
    d[:2, :5] = _FD_LEFT
    d[m - 2 :, m - 5 :] = -_FD_LEFT[::-1, ::-1]
    d.flags.writeable = False
    return d


def _differentiate_nodes(nodes: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """4th-order finite differences of matrix-valued nodes on a uniform grid,
    shape (m, n, n), or of a stack of such curves on the same grid,
    shape (K, m, n, n): one product of the stencil matrix with the nodes."""
    du = np.tensordot(_fd_matrix(len(grid)), nodes, axes=(1, -3)) / (grid[1] - grid[0])
    return np.moveaxis(du, 0, -3)


def exp_curve(z: np.ndarray, n_nodes: int = 65, target: str = "unitary") -> SampledCurve:
    """The one-parameter curve t |-> e^{tz} with exact velocities."""
    z = np.asarray(z, dtype=complex)
    grid = np.linspace(0.0, 1.0, n_nodes)
    nodes = unitary_exp(z, grid)
    vel = np.repeat(z[None, :, :], n_nodes, axis=0)
    return SampledCurve(grid, nodes, target=target, velocities=vel)


def loop_deformed_exp_curve(z: np.ndarray, xi: np.ndarray, amplitude: float, n_nodes: int = 65) -> SampledCurve:
    """Gamma(t) = e^{tz} e^{phi(t) xi} with the bump phi(t) = amplitude*t*(1-t).

    Joins the same endpoints as e^{tz}; the left-translated velocity is
    exact: e^{-phi xi} z e^{phi xi} + phi'(t) xi.
    """
    grid = np.linspace(0.0, 1.0, n_nodes)
    nodes, vel = _loop_deformed_nodes(z, xi, amplitude, grid)
    return SampledCurve(grid, nodes, velocities=vel)


def _loop_deformed_nodes(z, xi, amplitude, grid):
    """Nodes and exact left velocities of e^{tz} e^{phi(t) xi} on the grid, for
    one loop direction xi, or for a stack (K, n, n) with amplitudes (K,) (one
    frame stack; node and velocity stacks of shape (K, m, n, n))."""
    z = np.asarray(z, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    amplitude = np.asarray(amplitude, dtype=float)
    loops = unitary_exp(xi, np.multiply.outer(amplitude, grid) * (1.0 - grid))
    nodes = unitary_exp(z, grid) @ loops
    bump = np.multiply.outer(amplitude, 1.0 - 2.0 * grid)[..., None, None]
    return nodes, loops.conj().mT @ z @ loops + bump * xi[..., None, :, :]


def reparametrized_exp_curve(z: np.ndarray, warp: float, n_nodes: int = 65) -> SampledCurve:
    """e^{phi(t) z} with the monotone warp phi(t) = t - warp*sin(2 pi t)/(2 pi)."""
    if not 0.0 <= warp < 1.0:
        raise ValueError("warp must lie in [0, 1) to keep phi monotone")
    z = np.asarray(z, dtype=complex)
    grid = np.linspace(0.0, 1.0, n_nodes)
    nodes = unitary_exp(z, grid - warp * np.sin(2 * np.pi * grid) / (2 * np.pi))
    vel = (1.0 - warp * np.cos(2 * np.pi * grid))[:, None, None] * z
    return SampledCurve(grid, nodes, velocities=vel)


def _geodesic_resample(curve: SampledCurve, new_params: np.ndarray) -> np.ndarray:
    """Node values at arbitrary parameters by chord-log interpolation."""
    h = curve.grid[1] - curve.grid[0]
    t = np.clip(new_params, 0.0, 1.0)
    k = np.minimum((t / h).astype(int), curve.n_intervals - 1)
    chords = Eigenframe.from_unitary(curve.nodes[k].conj().mT @ curve.nodes[k + 1])
    return curve.nodes[k] @ chords.exp((t - curve.grid[k]) / h)


# ---------------------------------------------------------------------------
# homogeneous spaces
# ---------------------------------------------------------------------------


@dataclass
class HomSpace:
    """A homogeneous-space model: action kind, basepoint, isotropy data.

    ``kind`` selects the action: "coset" (points are left cosets stored by
    unitary representatives), "conjugation" (points u pt u*), or
    "partial-isometry" (points u pt).  ``isotropy`` must be a Lie algebra
    (lie_closed).
    ``c_O`` bounds the uniform norm of the horizontal projection against
    the quotient norm; ``k_O_p(p)`` is a uniform bound on the best-approximant
    projection at each even p, exact where the model provides one and an
    inflated empirical estimate otherwise (``models.MODELS`` says which).
    ``expectation(x, space)``, when given, is the conditional expectation
    onto the isotropy subalgebra; coset membership is then g = E(g).
    """

    ambient: TracialAlgebra
    kind: str
    basepoint: np.ndarray
    isotropy: SkewSubspace
    c_O: float
    k_O_p: Callable
    model_kind: str = ""
    expectation: Callable | None = None

    def __post_init__(self):
        if self.kind not in ("coset", "conjugation", "partial-isometry"):
            raise ValueError(f"unknown action kind {self.kind!r}")
        self.basepoint = np.asarray(self.basepoint, dtype=complex)

    def act(self, u: np.ndarray, pt: np.ndarray) -> np.ndarray:
        if self.kind == "conjugation":
            return u @ pt @ u.conj().mT
        return u @ pt

    def orbit_point(self, u: np.ndarray) -> np.ndarray:
        return self.act(u, self.basepoint)

    def k_O(self, p) -> float:
        return self.k_O_p(core._check_even_p(p))

    def epsilon_band(self, p) -> float:
        """(sqrt(2) - 1) / (C (1 + K_p)): the uniform-length band inside
        which minimal symbols beat every competitor.  Where c_O or K_p is a
        sampled estimate, so is the band: it is not a certified bound."""
        return (math.sqrt(2.0) - 1.0) / (self.c_O * (1.0 + self.k_O(p)))

    def radius(self, p) -> float:
        """Initial-value minimality radius min(pi/3, eps/(2(1+K_p))); an
        estimate, not a bound, where c_O or K_p is one."""
        return min(math.pi / 3.0, self.epsilon_band(p) / (2.0 * (1.0 + self.k_O(p))))

    def horizontal_project(self, z: np.ndarray) -> np.ndarray:
        return z - self.isotropy.project(z)

    def isotropy_defect(self, g: np.ndarray) -> float:
        """Uniform-norm defect of membership of a unitary in the isotropy group;
        for a stack (K, n, n), the largest defect of its unitaries."""
        g = np.asarray(g, dtype=complex)
        if self.kind != "coset":
            gap = self.act(g, self.basepoint) - self.basepoint
        elif self.expectation is not None:
            gap = g - self.expectation(g, self)
        else:
            # generic-basis isotropy: compare against the exponential of
            # the vertical part of the principal logarithm
            gap = g - unitary_exp(self.isotropy.project(principal_log(g)))
        return core._max_operator_norm(gap)


def orbit_gap(space: HomSpace, u: np.ndarray, v: np.ndarray) -> float:
    """Cheap upper-bound distance between the orbit points of u and v, or
    the largest over the pairs of two stacks (K, n, n).

    Coset kind: the 2-norm of the horizontal part of log(u* v), which is an
    upper bound for the quotient distance and vanishes exactly on equal
    cosets.  Matrix kinds: the 2-norm distance of the point matrices.
    """
    if space.kind == "coset":
        gap = space.horizontal_project(principal_log(u.conj().mT @ v))
    else:
        gap = space.orbit_point(u) - space.orbit_point(v)
    return float(np.max(core._p_norms(gap, 2, space.ambient)))


# ---------------------------------------------------------------------------
# lengths
# ---------------------------------------------------------------------------


def _simpson(values, grid):
    """Simpson's rule of values (..., N) along the last axis over a strictly
    increasing grid (N,), a float for one row: scipy 1.17's
    ``scipy.integrate.simpson(values, x=grid)`` bit for bit, with its rule for
    uneven spacing and, for even N, Cartwright's last interval (N = 2: trapezoid)."""
    y, h = np.asarray(values, dtype=float), np.diff(np.asarray(grid, dtype=float))
    N = y.shape[-1]
    if N == 2:
        out = 0.5 * h[-1] * (y[..., -1] + y[..., -2])
    else:
        stop = N - 2 if N % 2 else N - 3  # the pairs of intervals; an even N leaves the last interval
        h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
        hsum, ratio = h0 + h1, h0 / h1
        out = np.sum(hsum / 6.0 * (y[..., 0:stop:2] * (2.0 - 1.0 / ratio) + y[..., 1 : stop + 1 : 2]
                                   * (hsum * (hsum / (h0 * h1))) + y[..., 2 : stop + 2 : 2] * (2.0 - ratio)), axis=-1)
        if N % 2 == 0:  # the last two spacings as 0-d arrays, as scipy keeps them (scalars round differently)
            a, b = h[-2:-1].reshape(()), h[-1:].reshape(())
            out = out + ((2 * b**2 + 3 * a * b) / (6 * (b + a)) * y[..., -1] + (b**2 + 3.0 * a * b) / (6 * a)
                         * y[..., -2] - b**3 / (6 * a * (a + b)) * y[..., -3])
    return float(out) if np.ndim(out) == 0 else out


def curve_length_p(curve: SampledCurve, p, alg: TracialAlgebra) -> float:
    """Length of a unitary-group curve: int ||Gamma* dGamma||_p dt (Simpson)."""
    if curve.target == "algebra":
        raise ValueError("curve_length_p measures unitary-group curves")
    curve.validate_unitary()
    return _simpson(core._p_norms(curve.left_velocities(), p, alg), curve.grid)


def quotient_length(curve: SampledCurve, space: HomSpace, p) -> float:
    """Quotient length of the orbit curve below a unitary lift, for even p.

    Integrates the quotient speeds ||v - Q(v)||_p of the nodewise left
    velocities v (one stacked ``quotient_norm``).  Independent of the chosen
    lift up to solver plus quadrature error.
    """
    p = core._check_even_p(p)
    curve.validate_unitary()
    return _simpson(quotient_norm(curve.left_velocities(), space.isotropy, p), curve.grid)


def quotient_uniform_length(curve: SampledCurve, space: HomSpace) -> float:
    """Upper bound for the quotient uniform length of the orbit curve.

    Uses the linear vertical projection as the competitor at every node,
    so each nodewise value bounds the quotient uniform speed from above.
    """
    speeds = core._p_norms(space.horizontal_project(curve.left_velocities()), np.inf, space.ambient)
    return _simpson(speeds, curve.grid)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def unitary_distance(u: np.ndarray, v: np.ndarray, p, alg: TracialAlgebra):
    """Rectifiable p-distance d_p(u, v) = ||log(u* v)||_p on the unitary group,
    a float; pairs of stacks (K, n, n) give the K distances, bit for bit."""
    z = principal_log(np.asarray(u).conj().mT @ v)
    if z.shape[-2:] != (alg.dim, alg.dim):
        raise ValueError(f"matrix shape {z.shape} does not match algebra dim {alg.dim}")
    return float(core._p_norms(z, p, alg)) if z.ndim == 2 else core._p_norms(z, p, alg)


@dataclass
class QuotientDistanceResult:
    """Coset distance value with its stationarity certificate; ``starts``
    counts the Newton instances run, one per start point."""

    value: float
    g_opt: np.ndarray
    stationarity_residual: float
    starts: int


def quotient_distance(space: HomSpace, u: np.ndarray, v: np.ndarray, p, multistarts: int = 6,
                      seed: int = 0) -> QuotientDistanceResult:
    """Coset distance min_{g in G_x} d_p(u, v g) with a stationarity
    certificate: the one-query case of ``quotient_distances``."""
    return quotient_distances(space, np.asarray(u)[None], np.asarray(v)[None], p, multistarts, [seed])[0]


def quotient_distances(space: HomSpace, us: np.ndarray, vs: np.ndarray, p, multistarts: int, seeds) -> list:
    """Coset distances min_{g in G_x} d_p(u, v g) of the pairs (us[i], vs[i])
    with stationarity certificates, the starts of the i-th seeded by seeds[i].

    By bi-invariance of d_p the two-sided infimum over the isotropy group
    collapses to a right translation of v.  The damped-Newton loop
    (``projection._newton``) minimizes f = ||w||_p^p, w = log(u* v g), from
    every start of every pair in lockstep: a step moves g to g e^{B(d)},
    along which f has first variation (-1)^(p/2) p tau(w^{p-1} b_k) and, at
    the optimum, Hessian H_w(F(ad w)^{-1} b_j, b_k).  F(ad w)^{-1} exists at
    every iterate, since the angle gaps of a principal logarithm stay below
    2 pi.  Each trial ug is diagonalized once, block by block
    (``Eigenframe.from_unitary``): its angles theta give f = sum_a d_a
    |theta_a|^p, w^{p-1} and the guard ||1 - ug|| = 2 sin(max|theta|/2),
    and its frame is the Hessian's.  A trial within 1e-6 of the cut locus,
    where the log is not smooth, is halved; a start on it is kept.

    For p > 2 every start first runs at p = 2 (one stack, certified at
    1e-9), and one stack at p starts from those optima (an L^2 warm start).
    With c = min(||w||_p, 1) there, an instance certifies at
    1e-9 c^(p-2) max(c, 1e-2), never above 1e-9 and above roundoff (which
    scales as c^(p-2)), and ``_newton`` gets its Hessian divided by a power
    of two near c^(p-2), its steps multiplied back: the same Newton step with
    a damping relative to the Hessian, so small separations converge
    undamped.  No number of an instance depends on the rows beside it.

    Newton stays in the cut-locus cell of its start, so the starts spread
    out: the identity, the isotropy part of log(u* v) undone, and three
    seeded points per further start up to ``multistarts``, alternately a
    point of the coefficient box [-pi, pi]^m and an isotropy direction of
    uniform norm in [0.2 pi, 0.8 pi] (3 multistarts - 4 instances for
    multistarts >= 2), drawn in each pair's rng order and then projected,
    normed and scaled as one stack.  A pair's answer is its instance of
    lowest f certified at its own bound or, when none certifies, its
    instance of lowest f with its certificate.
    """
    p = core._check_even_p(p)
    if not multistarts >= 1:
        raise ValueError(f"multistarts must be at least 1 (got {multistarts})")
    alg = space.ambient
    G = space.isotropy
    bases = np.asarray(us, dtype=complex).conj().mT @ np.asarray(vs, dtype=complex)
    if not core.in_algebra(bases, alg):
        raise ValueError("quotient_distance requires unitaries of the algebra (no off-block entries)")
    seeds = list(seeds)
    if len(seeds) != len(bases):
        raise ValueError(f"quotient_distances takes one seed per pair ({len(bases)}), got {len(seeds)}")
    m, ws = G.dim, principal_log(bases)
    if m == 0:
        return [QuotientDistanceResult(core.p_norm(w, p, alg), np.eye(alg.dim, dtype=complex), 0.0, 1) for w in ws]

    per = 2 + 3 * max(0, multistarts - 2)  # the starts of each pair, consecutive in the stack
    starts = np.zeros((len(bases), per, m))
    starts[:, 1] = -G.coords(ws)
    normals, scales = [], []  # each pair's rng draws a box point, then a skew draw and its scale, alternately
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        for j in range(2, per):
            if j % 2 == 0:  # the wrapped angles create several basins at large distances
                starts[i, j] = rng.uniform(-math.pi, math.pi, size=m)
            else:
                normals.append(core._block_normals(alg, rng, 1))
                scales.append(rng.uniform(0.2, 0.8))
    if normals:  # isotropy directions of norm uniform in [0.2 pi, 0.8 pi]; one of norm <= 1e-12 is not scaled
        ys = G.project(1j * core._hermitians(alg, np.concatenate(normals)))
        nrm = core._operator_norms(ys)
        factor = np.where(nrm > 1e-12, np.array(scales) * math.pi / np.maximum(nrm, 1e-12), 1.0)
        starts[:, 3::2] = G.coords(ys * factor[:, None, None]).reshape(len(bases), -1, m)
    owner = np.repeat(np.arange(len(bases)), per)
    tol, scale = 1e-9, np.ones(len(owner))  # the p stage sets both per instance

    def retract(ids, g, d):
        # one frame per trial; within 1e-6 of the cut locus, ||1 - ug|| = 2 sin(max|theta|/2), its angles are NaN
        g = g @ Eigenframe(G.combine(d / scale[ids, None])).exp()  # skew by construction: no argument check
        frame = Eigenframe.from_unitary(bases[owner[ids]] @ g, alg)
        frame.lam[~(2.0 * np.sin(np.abs(frame.lam).max(axis=-1) / 2.0) < 2.0 - 1e-6)] = np.nan
        return g, frame

    def left(ids, frame, bt):
        return bt / (scale[ids, None, None] * frame.ad_symbol(core._sym_F))[:, None]

    g = Eigenframe(G.combine(starts.reshape(-1, m))).exp()
    w = Eigenframe.from_unitary(bases[owner] @ g, alg)
    if p > 2:  # from the p = 2 optima, each instance at its own scale c^(p-2)
        g = projection._newton(g, w, retract, left, G.onb(), 2, alg, tol)[0]
        w = Eigenframe.from_unitary(bases[owner] @ g, alg)
        c = np.minimum(np.array(projection._objective(w, p, alg)[0]) ** (1.0 / p), 1.0)
        tol = 1e-9 * c ** (p - 2) * np.maximum(c, 1e-2)
        scale = np.exp2(np.rint(np.log2(np.maximum(c ** (p - 2), 1e-300))))  # a power of two: exact
    g, f, resid, _ = projection._newton(g, w, retract, left, G.onb(), p, alg, tol)
    bad = ~(resid <= tol)
    ks = [lo + np.lexsort((f[lo : lo + per], bad[lo : lo + per]))[0] for lo in range(0, len(owner), per)]
    return [QuotientDistanceResult(max(f[k], 0.0) ** (1.0 / p), g[k], float(resid[k]), per) for k in ks]


# ---------------------------------------------------------------------------
# the lifting ODE
# ---------------------------------------------------------------------------


@dataclass
class LiftResult:
    """Solution of du/dt u* = w inside the isotropy group.

    ``u_nodes`` are the values of u on the uniform grid of the steps,
    ``w_nodes`` the field there, ``defect`` the uniform finite-difference
    defect max_t ||du u* - w||, and ``projection_drift`` the largest
    displacement of a step generator by the projection back onto the
    isotropy algebra.  Computed on first access: ``u``, the unitary curve
    with its exact velocities u* w u attached, and ``z``, the algebra-valued
    curve of principal logarithms of the u nodes.  ``restarts`` is 0 by
    construction (the Magnus steps never restart); the benchmark's step
    counters still read it.
    """

    u_nodes: np.ndarray
    w_nodes: np.ndarray
    defect: float
    projection_drift: float
    refinements: int
    restarts: int = 0

    @functools.cached_property
    def u(self) -> SampledCurve:
        vel = self.u_nodes.conj().mT @ self.w_nodes @ self.u_nodes
        grid = np.linspace(0.0, 1.0, len(self.u_nodes))
        return SampledCurve(grid, self.u_nodes, target="unitary", velocities=(vel - vel.conj().mT) / 2.0)

    @functools.cached_property
    def z(self) -> SampledCurve:
        return SampledCurve(self.u.grid, principal_log(self.u_nodes), target="algebra")


def _magnus_affine(mid: np.ndarray, slope: np.ndarray, h: float) -> np.ndarray:
    """Generators of the 6th-order Magnus steps (Blanes, Casas, Oteo & Ros
    2009, section 5) of a field that is affine on every step, from its value
    at each step's midpoint and its slope there (the two broadcast).  On an
    affine field the Gauss-point combinations are b1 = h mid, b2 = h^2 slope
    and b3 = 0 exactly.  Every bracket is of skew-Hermitian terms, and
    (xy)* = yx for skew x, y: so [x, y] = xy - (xy)* is one product, skew to
    the last bit."""

    def bracket(x, y):
        m = x @ y
        return m - m.conj().mT

    b1, b2 = h * mid, (h * h) * slope
    c1 = bracket(b1, b2)
    return b1 + bracket(c1 - 20.0 * b1, b2 - bracket(b1, c1) / 60.0) / 240.0


def _prefix_products(steps: np.ndarray) -> np.ndarray:
    """The running products u_0 = 1, u_{i+1} = steps[i] u_i of a stack of
    K >= 1 matrices, shape (K + 1, n, n).  The steps are cut into blocks of
    b = ceil(sqrt(K)) (the last one padded with identities); the products
    inside the blocks run in lockstep across the blocks, then one carry
    chain runs across the blocks and one stacked product places every block
    behind its carry: about 2 sqrt(K) matrix products in the loops, not K."""
    count, n = len(steps), steps.shape[-1]
    b = math.isqrt(count - 1) + 1
    blocks = -(-count // b)
    local = np.empty((blocks, b, n, n), dtype=steps.dtype)
    local.reshape(-1, n, n)[:count] = steps
    local.reshape(-1, n, n)[count:] = np.eye(n)
    for j in range(1, b):
        local[:, j] = local[:, j] @ local[:, j - 1]
    carries = np.empty((blocks, n, n), dtype=steps.dtype)
    carries[0] = np.eye(n)
    for k in range(1, blocks):
        carries[k] = local[k - 1, -1] @ carries[k - 1]
    out = np.empty((count + 1, n, n), dtype=steps.dtype)
    out[0] = np.eye(n)
    out[1:] = (local @ carries[:, None]).reshape(-1, n, n)[:count]
    return out


def lift_ode_solve(
    w_curve: SampledCurve,
    space: HomSpace,
    defect_tol: float = 1e-6,
    min_nodes: int = 65,
) -> LiftResult:
    """Integrate du/dt = w(t) u, u(0) = 1, by the 6th-order Magnus method.

    Steps subdivide the segments of the polygonal w, so w is affine on each
    step and its generator Omega_i needs the midpoint value and slope alone
    (``_magnus_affine``, b3 = 0): all of them are one stacked computation,
    projected onto the isotropy algebra (the largest displacement must stay
    below 1e-9), exponentiated through one batched eigendecomposition and
    multiplied up, u_{i+1} = e^{Omega_i} u_i, in blocks (``_prefix_products``).
    The step count doubles, at most 6 times, until the defect ||du u* - w||,
    measured by 4th-order differences within each segment of w (one stencil
    product), is below ``defect_tol`` uniformly.
    """
    if w_curve.target != "algebra":
        raise ValueError("the ODE right-hand side must be an algebra-valued curve")
    G, alg, a = space.isotropy, space.ambient, w_curve.nodes
    off = core._p_norms(a - G.project(a), 2, alg)
    outside = np.flatnonzero(off > 1e-8 * np.maximum(1.0, core._p_norms(a, 2, alg)))
    if outside.size:
        raise ValueError(f"field node {outside[0]} is not in the isotropy algebra")

    n_base = w_curve.n_intervals
    # steps subdivide the polygon segments so neither the integrator nor the
    # defect stencils cross a kink of w (>= 5 nodes per segment for the
    # one-sided 4th-order differences)
    seg = max(4, math.ceil((min_nodes - 1) / n_base))
    n = alg.dim

    for refinement in range(7):
        n_steps = n_base * seg
        h = 1.0 / n_steps
        # the step nodes and midpoints sit at the fractions j/(2 seg) of each
        # segment a_k -> a_{k+1} of w, whose slope is (a_{k+1} - a_k) n_base
        s = (np.arange(2 * seg) / (2 * seg))[:, None, None]
        w_seg = (1.0 - s) * a[:-1, None] + s * a[1:, None]
        w_nodes = np.concatenate([w_seg[:, ::2].reshape(n_steps, n, n), a[-1:]])
        omega = _magnus_affine(w_seg[:, 1::2], (a[1:] - a[:-1])[:, None] * n_base, h).reshape(n_steps, n, n)
        tangent = G.project(omega)
        drift = core._max_operator_norm(omega - tangent)
        u_nodes = _prefix_products(Eigenframe(tangent).exp())

        # differentiate u segment by segment, all segments in one stacked
        # call: u is smooth between the kinks of the polygonal field, so
        # stencils must not straddle them (a kink node takes the derivative
        # of the segment it starts)
        segments = np.arange(0, n_steps, seg)[:, None] + np.arange(seg + 1)
        blocks = _differentiate_nodes(u_nodes[segments], h * np.arange(seg + 1))
        du = np.concatenate([blocks[:, :-1].reshape(n_steps, n, n), blocks[-1:, -1]])
        defect = core._max_operator_norm(du @ u_nodes.conj().mT - w_nodes)
        last = LiftResult(u_nodes, w_nodes, defect, drift, refinement)
        if defect <= defect_tol and drift <= 1e-9:
            return last
        seg *= 2
    raise ConvergenceError(
        f"lifting ODE defect {last.defect:.3e} above {defect_tol:.1e} "
        "after 6 refinements"
    )


# ---------------------------------------------------------------------------
# almost isometric lifts
# ---------------------------------------------------------------------------


@dataclass
class IsometricLiftResult:
    beta: SampledCurve
    length_p: float
    quotient_length_p: float
    epsilon: float
    band_sup: float
    lift: LiftResult

    @property
    def excess(self) -> float:
        return self.length_p - self.quotient_length_p


def epsilon_isometric_lift(curve: SampledCurve, space: HomSpace, p, epsilon: float) -> IsometricLiftResult:
    """Build a lift whose p-length exceeds the quotient length by less than
    epsilon (plus numerical slack).

    The vertical field alpha = -Q(Gamma* dGamma) lives in the isotropy
    algebra (closed at finite dimension), is interpolated as a polygonal
    w_eps through the curve nodes (which must resolve the modulus
    ||alpha(t_{k+1}) - alpha(t_k)||_p < epsilon/3), and the correction
    u solving du u* = w_eps turns Gamma into beta = Gamma u with
    ||beta* dbeta||_p <= quotient speed + epsilon pointwise.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must lie in (0, inf) (got {epsilon})")
    p = core._check_even_p(p)
    curve.validate_unitary()
    alg = space.ambient
    vel = curve.left_velocities()
    # certify sup_t ||w_eps(t) + Q(Gamma* dGamma)(t)||_p < epsilon: the
    # polygonal matches -Q exactly at the nodes, so the band is measured at
    # the midpoints, w_eps there the node average (chord-log velocity, second-
    # order accurate; a chord may be twice as far from unitary as its validated
    # nodes, so its log is the frame's, unchecked); the adjacent-jump modulus
    # < epsilon/3 is the continuity fallback; one stacked projection solve
    h = curve.grid[1] - curve.grid[0]
    chords = Eigenframe.from_unitary(curve.nodes[:-1].conj().mT @ curve.nodes[1:])
    z = (chords.frame * (1j * chords.lam)[..., None, :]) @ chords.frame.conj().mT
    v_half = (z - z.conj().mT) / 2.0 / h
    speeds, q = quotient_norm(np.concatenate([vel, v_half]), space.isotropy, p, return_witness=True)
    m = len(vel)
    alpha, q_half = -q[:m], q[m:]
    band = float(np.max(core._p_norms((alpha[:-1] + alpha[1:]) / 2.0 + q_half, p, alg), initial=0.0))
    if band > 0.8 * epsilon and float(np.max(core._p_norms(alpha[1:] - alpha[:-1], p, alg))) >= epsilon / 3.0:
        raise ValueError(
            "curve grid too coarse for the requested epsilon: the vertical "
            f"field band is {band:.3e} against epsilon {epsilon:.1e}"
        )

    lift = lift_ode_solve(SampledCurve(curve.grid, alpha, target="algebra"), space)
    u_at_nodes = lift.u_nodes[:: (len(lift.u_nodes) - 1) // curve.n_intervals]

    beta_nodes = np.einsum("kij,kjl->kil", curve.nodes, u_at_nodes)
    beta_vel = u_at_nodes.conj().mT @ (vel + alpha) @ u_at_nodes
    beta = SampledCurve(curve.grid, beta_nodes, target="unitary", velocities=beta_vel)

    length = _simpson(core._p_norms(beta_vel, p, alg), curve.grid)
    qlength = _simpson(speeds[:m], curve.grid)
    return IsometricLiftResult(beta, length, qlength, epsilon, band, lift)


# ---------------------------------------------------------------------------
# minimal geodesics
# ---------------------------------------------------------------------------


@dataclass
class GeodesicResult:
    """A certified minimal symbol z, whose orbit curve is t |-> e^{tz} . x."""

    symbol: np.ndarray
    length_p: float
    endpoint_error: float
    minimality_certificate: float
    within_radius: bool
    p: int

    def as_dict(self):
        return {k: getattr(self, k) for k in ("length_p", "endpoint_error", "minimality_certificate",
                                              "within_radius", "p")}


def minimal_geodesic(space: HomSpace, target: np.ndarray, p, multistarts: int = 6, seed: int = 0) -> GeodesicResult:
    """Initial-value minimal curve from the basepoint to target . x.

    Minimizes ||log(v e^y)||_p over the isotropy algebra (the coset
    distance optimizer); at the optimum the symbol z = log(v e^{y}) has
    vanishing best-approximant projection, certified independently through
    the minimal-lifting residual.  The geodesic is t |-> e^{tz} acting on
    the basepoint.
    """
    p = core._check_even_p(p)
    v = np.asarray(target, dtype=complex)
    qd = quotient_distance(space, space.ambient.identity(), v, p, multistarts, seed)
    return _geodesic_through(space, v, qd.g_opt, p)


def _geodesic_through(space: HomSpace, v: np.ndarray, g_opt: np.ndarray, p: int) -> GeodesicResult:
    """The geodesic e^{tz} . x, z = log(v g_opt), for a coset optimizer g_opt of (1, v)."""
    z = principal_log(v @ g_opt)
    cert = lifting_certificate(z, space.isotropy, p)
    endpoint = orbit_gap(space, unitary_exp(z), v)
    within = core.operator_norm(z) < space.radius(p)
    return GeodesicResult(z, core.p_norm(z, p, space.ambient), endpoint, cert, within, p)


def rectifiable_path_length(curve: SampledCurve, space: HomSpace, p):
    """Length of an orbit curve as the supremum of partition sums of the
    coset distance.

    Evaluates the sums on dyadic coarsenings of the curve grid, refining
    until the increase drops below 1e-6; each sum is one
    ``quotient_distances`` call with 3 multistarts, every pair seeded with 0.
    The sums must be nondecreasing under refinement up to certificate error.
    Returns (length, sums).
    """
    sums, n, stride = [], curve.n_intervals, curve.n_intervals
    while stride >= 1 and not (len(sums) >= 2 and abs(sums[-1] - sums[-2]) < 1e-6):
        idx = [*range(0, n, stride), n]
        pairs = quotient_distances(space, curve.nodes[idx[:-1]], curve.nodes[idx[1:]], p, 3, [0] * (len(idx) - 1))
        sums.append(sum(r.value for r in pairs))
        stride //= 2
    for a, b in zip(sums[:-1], sums[1:]):
        if b < a - 1e-7:
            raise ConvergenceError("partition sums decreased under refinement beyond tolerance")
    return sums[-1], sums


# ---------------------------------------------------------------------------
# convexity probe
# ---------------------------------------------------------------------------


@dataclass
class ConvexityReport:
    s_grid: np.ndarray
    values: np.ndarray
    second_differences: np.ndarray
    collinear: bool
    min_second_difference: float
    mean_second_difference: float


def convexity_probe(u, v, w, p, alg: TracialAlgebra) -> ConvexityReport:
    """Profile of f(s) = d_p(u, v e^{s log(v* w)})^p on 65 nodes of [0, 1].

    Preconditions ||u - v|| < sqrt(2) and ||w - v|| < sqrt(2) - ||u - v||
    keep every d_p evaluation inside the smooth branch of the logarithm.
    When u lies on a prolongation of the v -> w geodesic (the logs at v are
    collinear) the profile is reported with ``collinear`` set and convexity
    is not asserted; otherwise all second central differences should be
    nonnegative up to roundoff with strictly positive mean.
    """
    u, v, w = (np.asarray(m, dtype=complex) for m in (u, v, w))
    duv = core.operator_norm(u - v)
    dwv = core.operator_norm(w - v)
    if duv >= math.sqrt(2.0):
        raise ValueError("precondition ||u - v|| < sqrt(2) violated")
    if dwv >= math.sqrt(2.0) - duv:
        raise ValueError("precondition ||w - v|| < sqrt(2) - ||u - v|| violated")
    z, zu = principal_log(v.conj().T @ np.stack([w, u]))
    z2 = core.inner_tau(z, z, alg)
    zu2 = core.inner_tau(zu, zu, alg)
    if z2 <= 1e-24 or zu2 <= 1e-24:
        collinear = True
    else:
        proj = (core.inner_tau(zu, z, alg) / z2) * z
        collinear = core.p_norm(zu - proj, 2, alg) <= 1e-8 * math.sqrt(zu2)
    grid = np.linspace(0.0, 1.0, 65)
    vals = core._p_norms(principal_log(u.conj().T @ (v @ Eigenframe(z).exp(grid))), p, alg) ** p
    d2 = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    return ConvexityReport(grid, vals, d2, collinear, float(np.min(d2)), float(np.mean(d2)))


# ---------------------------------------------------------------------------
# minimality probe
# ---------------------------------------------------------------------------


@dataclass
class ProbeReport:
    trials: int
    violations: int
    worst_margin: float
    vacuous: int
    epsilon: float
    uniform_band: float
    uniqueness_checked: int
    uniqueness_violations: int
    details: list = field(default_factory=list)


def _constant_speed_params(curve: SampledCurve, speeds: np.ndarray) -> np.ndarray:
    """Parameters at which the curve reaches uniform fractions of its
    quotient arc length (trapezoid cumulative of its nodal quotient speeds)."""
    h = curve.grid[1] - curve.grid[0]
    cum = np.concatenate(([0.0], np.cumsum((speeds[:-1] + speeds[1:]) / 2.0 * h)))
    if cum[-1] <= 1e-14:
        return curve.grid.copy()
    return np.interp(np.linspace(0.0, 1.0, len(curve.grid)) * cum[-1], cum, curve.grid)


def minimality_probe(
    space: HomSpace,
    z: np.ndarray,
    p,
    trials: int = 50,
    seed: int = 0,
    n_nodes: int = 65,
    length_slack: float = 1e-6,
) -> ProbeReport:
    """Compare the curve e^{tz} . x against random competitors in the band.

    ``z`` must be a certified minimal symbol with uniform norm below pi/3.
    Competitors join the same orbit endpoints, are rejection-scaled until
    their quotient uniform length (certified upper bound) sits inside the
    band epsilon = (sqrt(2)-1)/(C(1+K_p)) (below 0.95 epsilon), and must then
    be no shorter than ||z||_p - slack.  Competitors whose length ties
    ||z||_p within 1e-7 are reparametrized to constant quotient speed and
    compared node-by-node against the minimal curve (orbit gap at most 1e-4).
    The competitors are drawn first; then one ``quotient_norm`` solve over
    all their nodal velocities gives every length and every reparametrization.
    """
    p = core._check_even_p(p)
    alg = space.ambient
    z = np.asarray(z, dtype=complex)
    scale = max(core.p_norm(z, p, alg), 1e-12)
    if lifting_certificate(z, space.isotropy, p) > 1e-8 * max(1.0, scale ** (p - 1)):
        raise ValueError("probe requires a minimal symbol: Q(z) is not zero within tolerance")
    if core.operator_norm(z) >= math.pi / 3.0:
        raise ValueError("probe requires ||z|| < pi/3")

    eps = space.epsilon_band(p)
    len_delta = core.p_norm(z, p, alg)
    delta_curve = exp_curve(z, n_nodes=n_nodes)
    rng = np.random.default_rng(seed)

    vacuous = 0
    competitors = []  # (kind, curve, band) of every competitor inside the band
    for trial in range(trials):
        if trial < 2:
            kind = ("delta", "reparam")[trial]
            comp = delta_curve if trial == 0 else reparametrized_exp_curve(z, warp=0.35, n_nodes=n_nodes)
            band = quotient_uniform_length(comp, space)
        else:
            kind, comp = "loop", None
            xi = core.random_skew(alg, rng)
            nxi = core.operator_norm(xi)
            if nxi <= 1e-14:
                vacuous += 1
                continue
            xi, amp = xi / nxi, 0.5 * eps
            for _ in range(40):
                cand = loop_deformed_exp_curve(z, xi, amp, n_nodes=n_nodes)
                band = quotient_uniform_length(cand, space)
                if band <= 0.95 * eps:
                    comp = cand
                    break
                amp *= 0.6
            if comp is None:
                vacuous += 1
                continue
        if band > eps:
            vacuous += 1
            continue
        competitors.append((kind, comp, band))

    violations = uniq_checked = uniq_violations = 0
    worst, details = math.inf, []
    speeds = []  # the nodal quotient speeds of each competitor, from one stacked solve
    if competitors:
        _check_unitary_nodes(np.stack([comp.nodes for _, comp, _ in competitors]))
        vel = np.concatenate([comp.left_velocities() for _, comp, _ in competitors])
        speeds = quotient_norm(vel, space.isotropy, p).reshape(len(competitors), n_nodes)
    for (kind, comp, band), row in zip(competitors, speeds):
        length = _simpson(row, comp.grid)
        margin = length - (len_delta - length_slack)
        worst = min(worst, margin)
        violations += margin < 0
        if abs(length - len_delta) <= 1e-7:
            uniq_checked += 1
            renodes = _geodesic_resample(comp, _constant_speed_params(comp, row))
            uniq_violations += orbit_gap(space, renodes, delta_curve.nodes) > 1e-4
        details.append((kind, band, length, margin))
    return ProbeReport(trials, violations, worst, vacuous, eps, max((d[1] for d in details), default=0.0),
                       uniq_checked, uniq_violations, details)
