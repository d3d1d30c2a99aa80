"""Real-linear subspaces of skew-Hermitian matrices and the p-norm
best-approximant projection.

For a subspace S of the skew-Hermitian part of a tracial algebra and an
even integer p, the map

    Q(z) = argmin_{y in S} ||z - y||_p

is single valued because the p-norm is uniformly convex.  Writing
y = sum_k c_k b_k over an orthonormal basis of S, the objective

    f(c) = ||z - y||_p^p = (-1)^(p/2) tau((z - y)^p)

is smooth and strictly convex in c with exact gradient and Hessian

    grad_k f = -(-1)^(p/2) p tau(w^{p-1} b_k),        w = z - y,
    hess_jk f = H_w(b_j, b_k)                          (core.h_form),

so a damped Newton iteration converges with a first-order certificate:
w is the minimal residual if and only if tau(w^{p-1} b_k) = 0 for all k.
The coset distance in ``geometry`` minimizes ||w||_p^p under the same
certificate and runs on the same damped Newton + Armijo loop (``_newton``).

Each iterate costs one blockwise eigendecomposition w = V diag(i lam) V*
(core.Eigenframe); the gradient is one contraction of the stacked basis
against w^{p-1}, and with b~_j = V* b_j V (one batched transform) and d_a
the trace weight of eigenvector a the Hessian is one more contraction,

    hess_jk f = p Re sum_ab d_a gamma_ab b~_j[a, b] conj(b~_k[a, b]),
    gamma_ab = sum_{i=0}^{p-2} lam_a^{p-2-i} lam_b^i.

The loop has a leading stack axis: ``best_approximants`` takes K
independent inputs (K, n, n) and iterates them in lockstep, with one
stacked eigendecomposition, Hessian, Newton solve and line-search trial for
all instances still iterating.  Each instance keeps its own certificate,
damping, steepest-descent fallback, Armijo backtracking and trial budget,
and drops out once it is done, so its numbers are those of a solve on its
own; ``best_approximant`` is the case K = 1, and the coset distance runs one
instance per multistart.

The module also provides the quotient norm inf_y ||z - y|| (exact via Q
for even p, a certified upper bound via pattern search for p = inf).
Conditional expectations onto the isotropy subalgebras of the model
spaces live with the model table (``models.conditional_expectation``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import core
from .core import TracialAlgebra

__all__ = [
    "SkewSubspace",
    "ProjectionResult",
    "ConvergenceError",
    "standard_skew_basis",
    "orthonormal_basis",
    "hermitian_best_approximant",
    "best_approximant",
    "best_approximants",
    "minimal_lifting",
    "lifting_certificate",
    "quotient_norm",
]

_EPS = np.finfo(float).eps

class ConvergenceError(RuntimeError):
    """A solver (best approximant, lifting ODE) hit its cap without certifying its answer."""


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


@dataclass
class SkewSubspace:
    """The real-linear span of a basis of skew-Hermitian elements of an
    algebra.  The basis is orthonormalized lazily in the trace inner
    product <a, b> = Re tau(b* a).
    """

    ambient: TracialAlgebra
    basis: list
    gram_tol: float = 1e-12
    _onb: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.basis = [np.asarray(b, dtype=complex) for b in self.basis]
        n = self.ambient.dim
        if any(b.shape != (n, n) for b in self.basis):
            raise ValueError("basis element shape does not match the ambient algebra")
        stack = np.array(self.basis).reshape(len(self.basis), n, n)
        if not core.is_skew_hermitian(stack, tol=1e-10 * n):
            raise ValueError("basis elements must be skew-Hermitian")
        if not core.in_algebra(stack, self.ambient):
            raise ValueError("basis elements must lie in the algebra (no off-block entries)")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def onb(self) -> np.ndarray:
        """Orthonormal basis as an array of shape (dim, n, n)."""
        if self._onb is None:
            self._onb = _gram_schmidt(self.basis, self.ambient, self.gram_tol)
        return self._onb

    def coords(self, z: np.ndarray) -> np.ndarray:
        """Coefficients of the trace-orthogonal projection of z, or of each
        matrix of a stack (K, n, n) (shape (K, dim))."""
        b = self.onb()
        z = np.asarray(z, dtype=complex)
        size = z.shape[-1] ** 2
        zd = (z * core._diag_weights(self.ambient)).reshape(*z.shape[:-2], size, 1)
        return (b.reshape(len(b), size).conj() @ zd).real[..., 0]

    def combine(self, c: np.ndarray) -> np.ndarray:
        """sum_k c_k b_k over the orthonormal basis; a stack of coefficient
        vectors (K, dim) gives a stack (K, n, n)."""
        b = self.onb()
        n = self.ambient.dim
        c = np.asarray(c, dtype=float)
        return (c[..., None, :] @ b.reshape(len(b), n * n)).reshape(*c.shape[:-1], n, n)

    def project(self, z: np.ndarray) -> np.ndarray:
        """Trace-orthogonal (p = 2) projection onto the span."""
        return self.combine(self.coords(z))

    def contains(self, z: np.ndarray, tol: float = 1e-9) -> bool:
        resid = z - self.project(z)
        scale = max(1.0, np.sqrt(max(core.inner_tau(z, z, self.ambient), 0.0)))
        return np.sqrt(max(core.inner_tau(resid, resid, self.ambient), 0.0)) <= tol * scale

    def lie_closed(self, tol: float = 1e-9) -> bool:
        """Whether [b_j, b_k] lies in the span for every basis pair."""
        b = self.onb()
        for i in range(len(b)):
            for j in range(i + 1, len(b)):
                if not self.contains(b[i] @ b[j] - b[j] @ b[i], tol):
                    return False
        return True

    def complement(self) -> "SkewSubspace":
        """Trace-orthogonal complement inside the ambient skew part."""
        full = standard_skew_basis(self.ambient)
        kept = []
        for f in full:
            r = f - self.project(f)
            for g in kept:
                r = r - core.inner_tau(r, g, self.ambient) * g
            norm = np.sqrt(max(core.inner_tau(r, r, self.ambient), 0.0))
            if norm > 1e-8:
                kept.append(r / norm)
        return SkewSubspace(self.ambient, kept)


def standard_skew_basis(alg: TracialAlgebra) -> list:
    """Deterministic trace-orthonormal basis of the skew part of the algebra."""
    out = []
    n = alg.dim
    w = core._diag_weights(alg)
    for sl, d in zip(alg.block_slices(), alg.block_dims):
        base = sl.start
        for j in range(d):
            e = np.zeros((n, n), dtype=complex)
            e[base + j, base + j] = 1j
            out.append(e / np.sqrt(w[base + j]))
        for j in range(d):
            for k in range(j + 1, d):
                scale = 1.0 / np.sqrt(w[base + j] + w[base + k])
                e = np.zeros((n, n), dtype=complex)
                e[base + j, base + k] = 1.0
                e[base + k, base + j] = -1.0
                out.append(e * scale)
                e = np.zeros((n, n), dtype=complex)
                e[base + j, base + k] = 1j
                e[base + k, base + j] = 1j
                out.append(e * scale)
    return out


def _gram_schmidt(basis, alg, gram_tol):
    """Gram-Schmidt in order, as a thin QR of the real coordinates scaled
    by sqrt(d_i) per column (diag R > 0, so Q is the Gram-Schmidt basis)."""
    n, m = alg.dim, len(basis)
    real_dim = sum(d * d for d in alg.block_dims)
    if m > real_dim:
        raise ValueError(f"rank-deficient basis: {m} elements in a skew part of real dimension {real_dim}")
    if m == 0:
        return np.zeros((0, n, n), dtype=complex)
    root = np.sqrt(core._diag_weights(alg))
    scaled = np.asarray(basis, dtype=complex).reshape(m, n * n) * np.tile(root, n)
    q, r = np.linalg.qr(np.concatenate([scaled.real, scaled.imag], axis=1).T)
    diag = np.diagonal(r)
    if np.any(diag**2 <= gram_tol):
        raise ValueError("rank-deficient basis: Gram determinant below gram_tol")
    q = (q * np.sign(diag)).T
    return (q[:, : n * n] + 1j * q[:, n * n :]).reshape(m, n, n) / root


def orthonormal_basis(S: SkewSubspace) -> SkewSubspace:
    """Gram-Schmidt in the trace inner product; same span, deterministic."""
    onb = _gram_schmidt(S.basis, S.ambient, S.gram_tol)
    out = SkewSubspace(S.ambient, list(onb), gram_tol=S.gram_tol)
    out._onb = onb
    return out


# ---------------------------------------------------------------------------
# best approximant
# ---------------------------------------------------------------------------


@dataclass
class ProjectionResult:
    """Outcome of the p-norm best approximation of z in a subspace.

    ``projection`` is Q(z), ``residual`` the minimal lifting z - Q(z),
    ``optimality_residual`` the certificate max_k |tau(residual^{p-1} b_k)|
    over the orthonormal basis, and ``iterations`` the number of
    line-search trials (objective evaluations), not of Newton steps.
    """

    projection: np.ndarray
    residual: np.ndarray
    optimality_residual: float
    iterations: int
    p: int
    coefficients: np.ndarray


def _powers(w: np.ndarray, p: int):
    """(w^{p-1}, w^p) of one matrix or of each matrix of a stack, for even p.

    Each power is multiplied as np.linalg.matrix_power multiplies it (binary
    powering over the squares w^(2^j), (w w) w for the exponent 3), so the
    values are the same bit for bit; the two powers share the squares.
    """
    squares = [w]
    while 2 ** len(squares) <= p:
        squares.append(squares[-1] @ squares[-1])

    def power(e):
        if e == 3:
            return squares[1] @ w
        out = None
        for j, z in enumerate(squares):
            if e >> j & 1:
                out = z if out is None else out @ z
        return out

    return power(p - 1), power(p)


def _objective(w: np.ndarray, p: int, alg: TracialAlgebra):
    """f = ||w||_p^p = (-1)^(p/2) tau(w^p) of each skew-Hermitian w of a
    stack (K, n, n), as a list, and the stack of w^{p-1}."""
    wp1, wp = _powers(w, p)
    f = (core._diag_weights(alg) @ wp.diagonal(0, -2, -1)[..., None]).real[..., 0]
    return ((-1) ** (p // 2) * f).tolist(), wp1


def _first_variation(wp1, onb, alg):
    """Re tau(w^{p-1} b_k) over the stacked basis from w^{p-1} (one matrix or
    a stack of them); its max modulus certifies w."""
    return core._tau_stack(wp1, onb, alg).real


def _descent_steps(hess, grad):
    """Damped Newton steps -hess^{-1} grad of a stack, each replaced by the
    unit steepest-descent step where it is unusable; returns the steps and
    their slopes step . grad (a list)."""
    try:
        step = np.linalg.solve(hess, -grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = np.full_like(grad, np.nan)
        for i, (h, g) in enumerate(zip(hess, grad)):
            try:
                step[i] = np.linalg.solve(h, -g)
            except np.linalg.LinAlgError:
                pass
    slope = (step[:, None, :] @ grad[:, :, None])[:, 0, 0].tolist()
    for i, sl in enumerate(slope):
        # a step with a non-finite entry has a non-finite slope
        if not sl < 0.0 or sl == -math.inf and not np.isfinite(step[i]).all():
            step[i] = -grad[i] / max(float(np.linalg.norm(grad[i])), 1e-300)
            slope[i] = float(step[i] @ grad[i])
    return step, slope


def _newton(state, w, retract, left, onb, p, alg, tol, max_iter=10_000):
    """Damped Newton with Armijo backtracking on f = ||w||_p^p for K
    instances in lockstep, stacked along the leading axis of ``state`` and ``w``.

    ``retract(ids, state, s)`` returns the ``(state, w)`` of the instances
    ``ids`` (indices into the stack) moved by the steps s, along which f has
    slope (-1)^(p/2) p Re tau(w^{p-1} b_k) s_k; a trial that cannot be
    evaluated returns a NaN w, which fails the Armijo test and is halved
    like a rejected one.  The Hessian is H_w(l_j, b_k) with l~ = ``left(frame, b~)``
    in the stacked eigenframe of w; an unusable Newton direction falls back
    to steepest descent.  Trials within roundoff of the Armijo bound are
    accepted, so termination rests on the certificate.  Each instance keeps
    its own certificate, damping, line search and budget of ``max_iter``
    trials, and leaves the loop once it is certified, out of budget or
    stagnated (its line search failed, or an accepted trial lowered f by
    roundoff at most and the next certificate did not fall); the matrix work
    of the instances still iterating is batched, their scalar bookkeeping is
    done per instance.  Returns the stacked
    ``(state, f, certificate, trials)``; a certificate above tol means the
    budget ran out or the instance stagnated.
    """
    sign = (-1) ** (p // 2)
    eye = np.eye(len(onb))
    out_state = np.empty_like(state)
    out_f, out_resid, out_trials = [0.0] * len(w), [0.0] * len(w), [0] * len(w)
    ids, state, w = np.arange(len(w)), state.copy(), w.copy()
    (f, wp1), trials = _objective(w, p, alg), [0] * len(w)
    # whether the last accepted trial lowered f by roundoff at most; the certificate before it
    flat, prev = [False] * len(w), [math.inf] * len(w)

    def leave(going, resid):
        # store the instances that leave, keep the others
        nonlocal ids, state, w, wp1, f, trials, flat, prev
        for j, g in enumerate(going):
            if not g:
                i = ids[j]
                out_state[i], out_f[i], out_resid[i], out_trials[i] = state[j], f[j], resid[j], trials[j]
        keep = [j for j, g in enumerate(going) if g]
        ids, state, w, wp1 = ids[keep], state[keep], w[keep], wp1[keep]
        f, trials = [f[j] for j in keep], [trials[j] for j in keep]
        flat, prev = [flat[j] for j in keep], [prev[j] for j in keep]
        return keep

    while len(ids):
        t = _first_variation(wp1, onb, alg)
        resid = np.abs(t).max(axis=1).tolist()
        going = [r > tol and n < max_iter and not (fl and r >= pr) for r, n, fl, pr in zip(resid, trials, flat, prev)]
        if not all(going):
            keep = leave(going, resid)
            if not len(ids):
                break
            t, resid = t[keep], [resid[j] for j in keep]
        prev = resid
        grad = sign * p * t
        frame = core.Eigenframe(w, alg)
        bt = frame.transform(onb)
        hess = frame.h_matrix(left(frame, bt), bt, p)
        damp = [1e-12 * max(1.0, tr / len(onb)) for tr in hess.trace(0, 1, 2).tolist()]
        step, slope = _descent_steps(hess + np.multiply.outer(damp, eye), grad)
        roundoff = [64.0 * _EPS * (abs(fj) + 1.0) for fj in f]
        # the line searches in lockstep: the instances still backtracking
        # (positions pend among the live ones, selected by rows) share the
        # scale; every live instance takes the first trial
        accepted, pend, rows, scale = [False] * len(ids), range(len(ids)), slice(None), 1.0
        while True:
            moved, w_new = retract(ids[rows], state[rows], scale * step[rows])
            f_new, wp1_new = _objective(w_new, p, alg)
            still = []
            for k, j in enumerate(pend):
                trials[j] += 1
                if f_new[k] <= f[j] + 1e-4 * scale * slope[j] + roundoff[j]:
                    accepted[j], flat[j], f[j] = True, f[j] - f_new[k] <= roundoff[j], f_new[k]
                    state[j], w[j], wp1[j] = moved[k], w_new[k], wp1_new[k]
                elif trials[j] < max_iter:
                    still.append(j)
            scale *= 0.5
            if scale < 1e-14 or not still:
                break
            pend = rows = still
        if not all(accepted):
            leave(accepted, resid)
    return out_state, np.array(out_f), np.array(out_resid), np.array(out_trials, dtype=int)


def best_approximants(
    zs: np.ndarray,
    S: SkewSubspace,
    p: int,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> ProjectionResult:
    """Best approximants Q(z) of every z of a stack zs (K, n, n), solved in lockstep.

    Each instance runs the damped Newton iteration of ``best_approximant``
    (``_newton``) from its trace-orthogonal projection with its own
    certificate and budget.  The result stacks the instances: projections
    and residuals (K, n, n), certificates and trial counts (K,), and
    coefficients (K, dim S).  Raises one ConvergenceError naming the first
    uncertified instance.
    """
    p = core._check_even_p(p)
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must lie in (0, inf) (got {tol})")
    alg = S.ambient
    zs = np.asarray(zs, dtype=complex)
    n = alg.dim
    if zs.ndim != 3 or zs.shape[1:] != (n, n):
        raise ValueError(f"best_approximants takes a stack of shape (K, {n}, {n}), got {zs.shape}")
    if not core.is_skew_hermitian(zs, tol=1e-9 * n):
        raise ValueError("best_approximant requires a skew-Hermitian input")
    if not core.in_algebra(zs, alg):
        raise ValueError("best_approximant requires an element of the algebra (no off-block entries)")
    K, onb = len(zs), S.onb()
    if len(onb) == 0 or K == 0:
        return ProjectionResult(np.zeros_like(zs), zs.copy(), np.zeros(K), np.zeros(K, dtype=int), p,
                                np.zeros((K, len(onb))))

    def retract(ids, c, s):
        # the residual w = z - y moves by +s when the coefficients of y move by -s
        c = c - s
        return c, zs[ids] - S.combine(c)

    c = S.coords(zs)
    c, _, resid, trials = _newton(c, zs - S.combine(c), retract, lambda frame, bt: bt, onb, p, alg, tol, max_iter)
    bad = [k for k, r in enumerate(resid.tolist()) if r > tol]
    if bad:
        k = bad[0]
        where = f" (instance {k} of {K})" if K > 1 else ""
        raise ConvergenceError(
            f"best approximant certificate {resid[k]:.3e} above tol {tol:.1e} "
            f"after {trials[k]} line-search trials{where}"
        )
    projection = S.combine(c)
    return ProjectionResult(projection, zs - projection, resid, trials, p, c)


def best_approximant(
    z: np.ndarray,
    S: SkewSubspace,
    p: int,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> ProjectionResult:
    """Minimize ||z - y||_p over y in S by damped Newton on coefficients.

    The iteration (``_newton``) starts from the trace-orthogonal projection,
    uses the exact H-form Hessian, falls back to gradient steps with
    backtracking when the Newton direction is unusable, and terminates when
    the optimality certificate max_k |tau((z-y)^{p-1} b_k)| drops below
    ``tol``.  For p = 2 this reproduces the linear projection in one step.
    This is the one-instance case of ``best_approximants``.
    """
    res = best_approximants(np.asarray(z, dtype=complex)[None], S, p, tol, max_iter)
    return ProjectionResult(res.projection[0], res.residual[0], float(res.optimality_residual[0]),
                            int(res.iterations[0]), res.p, res.coefficients[0])


def hermitian_best_approximant(x: np.ndarray, S: SkewSubspace, p: int, **kw) -> ProjectionResult:
    """Best approximation of a Hermitian x in the Hermitian part i*S.

    Multiplication by i is a p-norm isometry exchanging Hermitian and
    skew-Hermitian elements, so Q_h(x) = -i Q(ix); the result is reported
    on the Hermitian side.
    """
    res = best_approximant(1j * np.asarray(x, dtype=complex), S, p, **kw)
    return replace(res, projection=-1j * res.projection, residual=-1j * res.residual)


def minimal_lifting(z: np.ndarray, S: SkewSubspace, p: int, tol: float = 1e-10) -> np.ndarray:
    """The minimal lifting z - Q(z), certified by tau((z - Q(z))^{p-1} b_k) ~ 0."""
    return best_approximant(z, S, p, tol=tol).residual


def lifting_certificate(z: np.ndarray, S: SkewSubspace, p: int) -> float:
    """First-order minimality certificate max_k |tau(z^{p-1} b_k)| at z itself.

    Zero exactly when z is its own best residual, i.e. Q(z) = 0.
    """
    p = core._check_even_p(p)
    onb = S.onb()
    if len(onb) == 0:
        return 0.0
    wp1 = np.linalg.matrix_power(np.asarray(z, dtype=complex), p - 1)
    return float(np.max(np.abs(_first_variation(wp1, onb, S.ambient))))


# ---------------------------------------------------------------------------
# quotient norm
# ---------------------------------------------------------------------------


def _pattern_search(fun, c0, step, shrink=0.5, min_step=1e-7, max_sweeps=400):
    """Compass search; ``fun`` maps a stack of coefficient vectors to their
    values.  The +step and -step polls of a coordinate are evaluated in one
    call; the -step poll is dropped when +step is accepted, since from the
    moved point it returns to the previous one."""
    c = np.asarray(c0, dtype=float).copy()
    f = fun(c[None])[0]
    m = len(c)
    sweeps = 0
    while step > min_step and sweeps < max_sweeps:
        sweeps += 1
        improved = False
        for k in range(m):
            polls = np.repeat(c[None], 2, axis=0)
            polls[:, k] += (step, -step)
            for trial, ft in zip(polls, fun(polls)):
                if ft < f - 1e-15:
                    c, f, improved = trial, ft, True
                    break
        if not improved:
            step *= shrink
    return c, f


def quotient_norm(
    z: np.ndarray,
    S: SkewSubspace,
    p,
    return_witness: bool = False,
    refine: bool = True,
):
    """Quotient norm inf_{y in S} ||z - y||_p of a skew-Hermitian z.

    For even p the infimum is attained at the certified best approximant.
    For p = inf the norm is not smooth; a derivative-free pattern search
    over basis coefficients reports the best value achieved, which is an
    upper bound on the true infimum (the conservative side for the uniform
    length bounds this norm feeds into).
    """
    alg = S.ambient
    z = np.asarray(z, dtype=complex)
    if np.isinf(p):
        if S.dim == 0:
            val, c = core.operator_norm(z), np.zeros(0)
        else:
            def fun(cs):
                return np.linalg.svd(z - S.combine(cs), compute_uv=False)[:, 0]

            starts = np.stack([S.coords(z), np.zeros(S.dim)])
            vals = fun(starts)
            c, val = (starts[1], vals[1]) if vals[1] < vals[0] else (starts[0], vals[0])
            if refine:
                c, val = _pattern_search(fun, c, step=0.25 * max(val, 1e-6))
            val = float(val)
        if return_witness:
            return val, S.combine(c)
        return val
    result = best_approximant(z, S, int(p))
    val = core.p_norm(result.residual, p, alg)
    if return_witness:
        return val, result.projection
    return val
