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

The gradient is one contraction of the stacked basis against w^{p-1}.  At
p = 4 a best approximant's Hessian needs no spectrum (``_quartic_hessian``).
Every other iterate costs one blockwise eigendecomposition w = V diag(i lam)
V* (core.Eigenframe), and with b~_j = V* b_j V (one batched transform) and
d_a the trace weight of eigenvector a the Hessian is one more contraction,

    hess_jk f = p Re sum_ab d_a gamma_ab b~_j[a, b] conj(b~_k[a, b]),
    gamma_ab = sum_{i=0}^{p-2} lam_a^{p-2-i} lam_b^i.

The loop has a leading stack axis: ``best_approximants`` takes K independent
inputs (K, n, n) and iterates them in lockstep, with one stacked Hessian,
Newton solve and line-search trial for all instances still iterating.  Each
instance keeps its own certificate, damping, steepest-descent fallback, Armijo
backtracking and trial budget, and leaves at one exit, the certificate test (a
failed line search moves nothing, so it stagnates).  A best approximant's
numbers are those of a solve on its own, and so are a coset instance's: its f
is a row-wise sum (``_objective``).  ``best_approximant`` is K = 1; the coset
distance runs one instance per start.

A subspace holds its basis as one array (dim, n, n), orthonormalized by one
thin QR (``_gram_schmidt``).  Its trace-orthogonal complement F, which
z -> z - Q(z) maps bijectively onto the quotient, is the last N - dim S
columns of one complete QR of the coordinates of that orthonormal basis in
the standard basis E of the skew part (N = sum d^2), combined with E; an
entry of F and its mirror are one real combination of entries of E, so F is
skew-Hermitian to the last bit.

The module also provides the quotient norm inf_y ||z - y|| of one matrix or
a stack, the one routine behind every quotient speed in ``geometry``: exact
via Q for even p, and for p = inf a certified bracket from one p = 64 solve,
whose residual is feasible (the upper end) and whose (p-1)-th power, made
trace-orthogonal to S, bounds the infimum from below by Hoelder's inequality.
Conditional expectations onto the isotropy subalgebras of the model
spaces live with the model table (``models.conditional_expectation``).
"""

from __future__ import annotations

import itertools
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
    algebra, held as one array (dim, n, n) (a list of matrices is accepted).
    The basis is orthonormalized lazily in the trace inner product
    <a, b> = Re tau(b* a).
    """

    ambient: TracialAlgebra
    basis: np.ndarray
    _onb: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        n = self.ambient.dim
        if any(np.shape(b) != (n, n) for b in self.basis):
            raise ValueError("basis element shape does not match the ambient algebra")
        self.basis = np.asarray(self.basis, dtype=complex).reshape(-1, n, n)
        if not core.is_skew_hermitian(self.basis, tol=1e-10 * n):
            raise ValueError("basis elements must be skew-Hermitian")
        if not core.in_algebra(self.basis, self.ambient):
            raise ValueError("basis elements must lie in the algebra (no off-block entries)")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def onb(self) -> np.ndarray:
        """Orthonormal basis as an array of shape (dim, n, n)."""
        if self._onb is None:
            self._onb = _gram_schmidt(self.basis, self.ambient)
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
        """Whether z, or every matrix of a stack (K, n, n), lies in the span:
        its residual has 2-norm at most tol max(1, ||z||_2)."""
        z, alg = np.asarray(z, dtype=complex), self.ambient
        resid = core._p_norms(z - self.project(z), 2, alg)
        return bool(np.all(resid <= tol * np.maximum(1.0, core._p_norms(z, 2, alg))))

    def lie_closed(self, tol: float = 1e-9) -> bool:
        """Whether [b_j, b_k] lies in the span for every basis pair."""
        b = self.onb()
        i, j = np.triu_indices(len(b), 1)
        return self.contains(b[i] @ b[j] - b[j] @ b[i], tol)

    def complement(self) -> "SkewSubspace":
        """Trace-orthogonal complement inside the ambient skew part, from one
        complete QR (see the module docstring)."""
        full = standard_skew_basis(self.ambient)
        q = np.linalg.qr(self.coords(full), mode="complete")[0]
        return SkewSubspace(self.ambient, np.tensordot(q[:, self.dim :], full, axes=(0, 0)))


def standard_skew_basis(alg: TracialAlgebra) -> np.ndarray:
    """Deterministic trace-orthonormal basis of the skew part of the algebra,
    as an array (sum of d^2, n, n)."""
    n, w, out = alg.dim, core._diag_weights(alg), []
    for sl in alg.block_slices():
        for j in range(sl.start, sl.stop):
            e = np.zeros((n, n), dtype=complex)
            e[j, j] = 1j
            out.append(e / np.sqrt(w[j]))
        for j, k in itertools.combinations(range(sl.start, sl.stop), 2):
            for upper, lower in ((1.0, -1.0), (1j, 1j)):
                e = np.zeros((n, n), dtype=complex)
                e[j, k], e[k, j] = upper, lower
                out.append(e * (1.0 / np.sqrt(w[j] + w[k])))
    return np.array(out)


def _gram_schmidt(basis: np.ndarray, alg):
    """Gram-Schmidt in order of a basis array (m, n, n), as a thin QR of the
    real coordinates scaled by sqrt(d_i) per column (diag R > 0, so Q is the
    Gram-Schmidt basis)."""
    n, m = alg.dim, len(basis)
    real_dim = sum(d * d for d in alg.block_dims)
    if m > real_dim:
        raise ValueError(f"rank-deficient basis: {m} elements in a skew part of real dimension {real_dim}")
    root = np.sqrt(core._diag_weights(alg))
    scaled = basis.reshape(m, n * n) * np.tile(root, n)
    q, r = np.linalg.qr(np.concatenate([scaled.real, scaled.imag], axis=1).T)
    diag = np.diagonal(r)
    if np.any(diag**2 <= 1e-12):
        raise ValueError("rank-deficient basis: Gram determinant below 1e-12")
    q = (q * np.sign(diag)).T
    return (q[:, : n * n] + 1j * q[:, n * n :]).reshape(m, n, n) / root


def orthonormal_basis(S: SkewSubspace) -> SkewSubspace:
    """Gram-Schmidt in the trace inner product; same span, deterministic."""
    onb = _gram_schmidt(S.basis, S.ambient)
    return SkewSubspace(S.ambient, onb, _onb=onb)


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
    coefficients: np.ndarray


def _objective(w, p: int, alg: TracialAlgebra):
    """f = ||w||_p^p = (-1)^(p/2) tau(w^{p-1} w) of each skew-Hermitian w of a
    stack (K, n, n), as a list, and the stack of w^{p-1}, with no w^p formed; for
    a stacked Eigenframe, f = sum_a d_a lam_a^p and w^{p-1} = V (i lam)^{p-1} V*."""
    if isinstance(w, core.Eigenframe):
        f = (w.weights @ (w.lam**p)[..., None])[..., 0]  # row by row, so a row's f does not depend on the stack
        return f.tolist(), (w.frame * ((1j * w.lam) ** (p - 1))[..., None, :]) @ w.frame.conj().mT
    wp1 = np.linalg.matrix_power(w, p - 1)
    f = (core._diag_weights(alg) @ (wp1 * w.mT).sum(-1)[..., None]).real[..., 0]
    return ((-1) ** (p // 2) * f).tolist(), wp1


def _quartic_hessian(w, onb, alg: TracialAlgebra):
    """The p = 4 Hessian H_w(b_j, b_k) of each w of a stack (K, n, n), with no
    spectrum: 4 Re tau(A_j* A_k + A_j A_k + A_j A_k*), A_j = w b_j, as b w = (w b)*
    for skew b and w (Higham, Functions of Matrices, 2008, section 3.2).  tau is
    cyclic, so Re tau(A_j* A_k) = Re tau(A_j A_k*): one contraction per instance."""
    a = w[:, None] @ onb
    lead, size = a.shape[:2], w.shape[-1] ** 2
    x = (a * core._diag_weights(alg)[:, None]).reshape(*lead, size)
    return 4.0 * (x @ (a.mT + 2.0 * a.conj()).reshape(*lead, size).mT).real


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
    instances in lockstep, stacked along the leading axis of ``state`` and ``w``;
    ``tol`` is one certificate bound for all of them or one per instance.

    ``retract(ids, state, s)`` returns the ``(state, w)`` of the instances
    ``ids`` (indices into the stack) moved by the steps s, along which f has
    slope (-1)^(p/2) p Re tau(w^{p-1} b_k) s_k; a trial that cannot be
    evaluated returns a NaN w, which fails the Armijo test and is halved
    like a rejected one.  w is a stack of residuals or their stacked
    Eigenframe (then also the Hessian's frame).  The Hessian is H_w(l_j, b_k)
    with l~ = ``left(ids, frame, b~)`` in the stacked eigenframe of w; a left
    of None is H_w itself, at p = 4 on residuals ``_quartic_hessian`` with no
    frame.  An unusable Newton direction falls back to steepest descent.
    Trials within roundoff of the Armijo bound are accepted, so termination
    rests on the certificate.  Each instance keeps its own certificate,
    damping, line search and budget of ``max_iter`` trials.  It leaves at the
    one exit, the certificate test, once certified, out of budget or
    stagnated: its last line search lowered f by roundoff at most or failed
    (moving nothing), and the certificate did not fall.  The matrix work of
    the live instances is batched, their scalar bookkeeping per instance.
    Returns the stacked ``(state, f, certificate, trials)``; a certificate
    above tol means the budget ran out or the instance stagnated.
    """
    sign, eye = (-1) ** (p // 2), np.eye(len(onb))
    K = len(state)
    out_state, out_f, out_resid, out_trials = np.empty_like(state), [0.0] * K, [0.0] * K, [0] * K
    ids, state, w = np.arange(K), state.copy(), w[np.arange(K)]
    tol = np.broadcast_to(tol, (K,)).tolist()
    (f, wp1), trials = _objective(w, p, alg), [0] * K
    # whether the last line search lowered f by roundoff at most; the certificate before it
    flat, prev = [False] * K, [math.inf] * K
    while len(ids):
        t = core._tau_stack(wp1, onb, alg).real
        resid = np.abs(t).max(axis=1).tolist()
        going = [r > tl and n < max_iter and not (fl and r >= pr)
                 for r, tl, n, fl, pr in zip(resid, tol, trials, flat, prev)]
        if not all(going):
            gone = [j for j, g in enumerate(going) if not g]
            at = ids[gone]
            out_state[at] = state[gone]
            for i, j in zip(at.tolist(), gone):
                out_f[i], out_resid[i], out_trials[i] = f[j], resid[j], trials[j]
            keep = [j for j, g in enumerate(going) if g]
            if not keep:
                break
            ids, state, w, wp1, t = ids[keep], state[keep], w[keep], wp1[keep], t[keep]
            f, trials, resid, tol = ([x[j] for j in keep] for x in (f, trials, resid, tol))
        prev, flat = resid, [True] * len(ids)
        grad = sign * p * t
        if left is None and p == 4 and not isinstance(w, core.Eigenframe):
            hess = _quartic_hessian(w, onb, alg)
        else:
            frame = w if isinstance(w, core.Eigenframe) else core.Eigenframe(w, alg)
            bt = frame.transform(onb)
            hess = frame.h_matrix(bt if left is None else left(ids, frame, bt), bt, p)
        damp = 1e-12 * np.fmax(1.0, hess.trace(0, 1, 2) / len(onb))  # fmax, like max(1.0, x), ignores a NaN
        step, slope = _descent_steps(hess + np.multiply.outer(damp, eye), grad)
        roundoff = [64.0 * _EPS * (abs(fj) + 1.0) for fj in f]
        # the line searches in lockstep: the instances still backtracking
        # (positions pend among the live ones, selected by rows) share the
        # scale; every live instance takes the first trial
        pend, rows, scale = range(len(ids)), slice(None), 1.0
        while True:
            moved, w_new = retract(ids[rows], state[rows], scale * step[rows])
            f_new, wp1_new = _objective(w_new, p, alg)
            still, took, at = [], [], []  # the accepted rows of the trial and their positions
            for k, j in enumerate(pend):
                trials[j] += 1
                if f_new[k] <= f[j] + 1e-4 * scale * slope[j] + roundoff[j]:
                    flat[j], f[j] = f[j] - f_new[k] <= roundoff[j], f_new[k]
                    took.append(k)
                    at.append(j)
                elif trials[j] < max_iter:
                    still.append(j)
            if len(took) == len(ids):  # every live instance took the trial
                state, w, wp1 = moved, w_new, wp1_new
            elif took:
                state[at], w[at], wp1[at] = moved[took], w_new[took], wp1_new[took]
            scale *= 0.5
            if scale < 1e-14 or not still:
                break
            pend = rows = still
    return out_state, np.array(out_f), np.array(out_resid), np.array(out_trials, dtype=int)


def _checked_stack(zs, alg: TracialAlgebra, caller: str = "best_approximant") -> np.ndarray:
    """zs as a complex stack (K, n, n) of skew-Hermitian elements of the
    algebra; any other input is a ValueError naming the caller."""
    zs = np.asarray(zs, dtype=complex)
    n = alg.dim
    if zs.ndim != 3 or zs.shape[1:] != (n, n):
        raise ValueError(f"best_approximants takes a stack of shape (K, {n}, {n}), got {zs.shape}")
    if not core.is_skew_hermitian(zs, tol=1e-9 * n):
        raise ValueError(f"{caller} requires a skew-Hermitian input")
    if not core.in_algebra(zs, alg):
        raise ValueError(f"{caller} requires an element of the algebra (no off-block entries)")
    return zs


def _solve(zs: np.ndarray, S: SkewSubspace, p: int, tol: float, max_iter: int = 10_000):
    """The stacked (coefficients, certificates, trials) of the best
    approximants of a checked stack zs (K >= 1) in S (dim >= 1): one
    ``_newton`` stack from the trace-orthogonal projection, which raises
    nothing."""

    def retract(ids, c, s):
        # the residual w = z - y moves by +s when the coefficients of y move by -s
        c = c - s
        return c, zs[ids] - S.combine(c)

    c = S.coords(zs)
    c, _, resid, trials = _newton(c, zs - S.combine(c), retract, None, S.onb(), p, S.ambient, tol, max_iter)
    return c, resid, trials


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
    zs = _checked_stack(zs, alg)
    K, onb = len(zs), S.onb()
    if len(onb) == 0 or K == 0:
        return ProjectionResult(np.zeros_like(zs), zs.copy(), np.zeros(K), np.zeros(K, dtype=int),
                                np.zeros((K, len(onb))))
    c, resid, trials = _solve(zs, S, p, tol, max_iter)
    bad = [k for k, r in enumerate(resid.tolist()) if not r <= tol]
    if bad:
        k = bad[0]
        where = f" (instance {k} of {K})" if K > 1 else ""
        raise ConvergenceError(
            f"best approximant certificate {resid[k]:.3e} above tol {tol:.1e} "
            f"after {trials[k]} line-search trials{where}"
        )
    projection = S.combine(c)
    return ProjectionResult(projection, zs - projection, resid, trials, c)


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
                            int(res.iterations[0]), res.coefficients[0])


def hermitian_best_approximant(x: np.ndarray, S: SkewSubspace, p: int, **kw) -> ProjectionResult:
    """Best approximation of a Hermitian x in the Hermitian part i*S.

    Multiplication by i is a p-norm isometry exchanging Hermitian and
    skew-Hermitian elements, so Q_h(x) = -i Q(ix); the result is reported
    on the Hermitian side.
    """
    res = best_approximant(1j * np.asarray(x, dtype=complex), S, p, **kw)
    return replace(res, projection=-1j * res.projection, residual=-1j * res.residual)


def lifting_certificate(z: np.ndarray, S: SkewSubspace, p: int) -> float:
    """First-order minimality certificate max_k |tau(z^{p-1} b_k)| at z itself.

    Zero exactly when z is its own best residual, i.e. Q(z) = 0.  z must be
    one skew-Hermitian element of the algebra; any other input is a ValueError.
    """
    p = core._check_even_p(p)
    z, n = np.asarray(z, dtype=complex), S.ambient.dim
    if z.shape != (n, n):
        raise ValueError(f"lifting_certificate takes one ({n}, {n}) matrix, got shape {z.shape}")
    z = _checked_stack(z[None], S.ambient, "lifting_certificate")[0]
    onb = S.onb()
    if len(onb) == 0:
        return 0.0
    wp1 = np.linalg.matrix_power(z, p - 1)
    return float(np.max(np.abs(core._tau_stack(wp1, onb, S.ambient).real)))


# ---------------------------------------------------------------------------
# quotient norm
# ---------------------------------------------------------------------------


def _inf_bracket(zs: np.ndarray, S: SkewSubspace):
    """(lower, upper, witness) of inf_{y in S} ||z - y||_inf for each z of a
    checked stack zs (K, n, n).

    One ``_solve`` stack at p = MAX_EVEN_P finds y, each z divided by the
    operator norm s of its trace-orthogonal residual so that the absolute
    certificate tol means as much at every scale.  With w = z/s - y, the
    upper end s ||w||_inf is the norm of the feasible residual z - s y (the
    witness s y), and x = w^{p-1} - P_S(w^{p-1}) gives the lower end
    s |Re tau(x* z/s)| / ||x||_1: x is trace-orthogonal to S, so
    Re tau(x* (z - y)) = Re tau(x* z) for every y in S, and Hoelder bounds it
    by ||x||_1 ||z - y||_inf.  Both ends hold for any y and any such x, so an
    uncertified instance only widens its bracket.  The lower end is clamped
    to the upper one against roundoff; both are 0 where the residual vanishes.
    """
    alg = S.ambient
    if S.dim == 0 or not len(zs):
        norms = core._operator_norms(zs)
        return norms, norms, np.zeros_like(zs)
    s = core._operator_norms(zs - S.project(zs))
    s = np.where(s > 0.0, s, 1.0)
    zs = zs / s[:, None, None]
    y = S.combine(_solve(zs, S, core.MAX_EVEN_P, 1e-10)[0])
    frame = core.Eigenframe(zs - y, alg)
    wp1 = _objective(frame, core.MAX_EVEN_P, alg)[1]
    x = wp1 - S.project(wp1)
    pairing = np.abs((x.conj() * zs * core._diag_weights(alg)).real.sum(axis=(1, 2)))
    norm1 = core._p_norms(x, 1, alg)
    upper = s * np.abs(frame.lam).max(axis=-1)
    lower = s * np.divide(pairing, norm1, out=np.zeros_like(norm1), where=norm1 > 0.0)
    return np.minimum(lower, upper), upper, s[:, None, None] * y


def quotient_norm(z: np.ndarray, S: SkewSubspace, p, return_witness: bool = False):
    """Quotient norm inf_{y in S} ||z - y||_p of a skew-Hermitian z of the
    algebra, or of each matrix of a stack (K, n, n) (then arrays of K values
    and witnesses of shape (K, n, n)); one matrix is the case K = 1.

    For even p the infimum is attained at the certified best approximant
    (one ``best_approximants`` call), the witness.  For p = inf the norm is
    not smooth, and the value is the certified bracket ``(lower, upper)`` of
    ``_inf_bracket``, whose witness attains the upper end.  A ratio with the
    quotient norm in its denominator, such as the c_O check of
    ``models.validate_space``, divides by the lower end, the conservative side.
    """
    alg = S.ambient
    single = np.ndim(z) == 2
    zs = np.asarray(z, dtype=complex)[None] if single else z
    if p == np.inf:
        lower, upper, witness = _inf_bracket(_checked_stack(zs, alg), S)
        vals = (float(lower[0]), float(upper[0])) if single else (lower, upper)
    else:
        result = best_approximants(zs, S, p)
        vals, witness = core._p_norms(result.residual, p, alg), result.projection
        vals = float(vals[0]) if single else vals
    witness = witness[0] if single else witness
    return (vals, witness) if return_witness else vals
