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
The coset polish in ``geometry`` minimizes ||w||_p^p under the same
certificate and runs on the same damped Newton + Armijo loop (``_newton``).

Each iterate costs one blockwise eigendecomposition w = V diag(i lam) V*
(core.Eigenframe); the gradient is one contraction of the stacked basis
against w^{p-1}, and with b~_j = V* b_j V (one batched transform) and d_a
the trace weight of eigenvector a the Hessian is one more contraction,

    hess_jk f = p Re sum_ab d_a gamma_ab b~_j[a, b] conj(b~_k[a, b]),
    gamma_ab = sum_{i=0}^{p-2} lam_a^{p-2-i} lam_b^i.

The module also provides trace-preserving conditional expectations onto
the enumerated subalgebra kinds used by the model spaces, and the quotient
norm inf_y ||z - y|| (exact via Q for even p, a certified upper bound via
pattern search for p = inf).
"""

from __future__ import annotations

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
    "conditional_expectation",
    "hermitian_best_approximant",
    "best_approximant",
    "minimal_lifting",
    "lifting_certificate",
    "quotient_norm",
]

#: subalgebra descriptor kinds accepted by conditional_expectation
EXPECTATION_KINDS = ("center-blocks", "diag-m2", "special-diag-m2", "commutant-of-projection")


class ConvergenceError(RuntimeError):
    """A solver (best approximant, lifting ODE) hit its cap without certifying its answer."""


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


@dataclass
class SkewSubspace:
    """A real-linear subspace of the skew-Hermitian part of an algebra.

    ``kind`` tags the enumerated subalgebra descriptors ("basis" for a
    generic span); ``aux`` carries the projection e or partial isometry v0
    for the kinds that need one.  The basis is orthonormalized lazily in
    the trace inner product <a, b> = Re tau(b* a).
    """

    ambient: TracialAlgebra
    basis: list
    kind: str = "basis"
    aux: np.ndarray | None = None
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
        """Coefficients of the trace-orthogonal projection of z."""
        b = self.onb()
        zd = np.asarray(z, dtype=complex) * core._diag_weights(self.ambient)
        return np.real(b.reshape(len(b), zd.size).conj() @ zd.ravel())

    def combine(self, c: np.ndarray) -> np.ndarray:
        b = self.onb()
        n = self.ambient.dim
        return (np.asarray(c, dtype=float) @ b.reshape(len(b), n * n)).reshape(n, n)

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
        return SkewSubspace(self.ambient, kept, kind="basis")


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
    out = SkewSubspace(S.ambient, list(onb), kind=S.kind, aux=S.aux, gram_tol=S.gram_tol)
    out._onb = onb
    return out


# ---------------------------------------------------------------------------
# conditional expectations
# ---------------------------------------------------------------------------


def _tensor_blocks(x: np.ndarray, alg: TracialAlgebra):
    m = alg.inner_dim
    return x[:m, :m], x[:m, m:], x[m:, :m], x[m:, m:]


def conditional_expectation(x: np.ndarray, S: SkewSubspace) -> np.ndarray:
    """Trace-invariant conditional expectation onto the subalgebra of S.

    Supported kinds: per-block scalars of the center ("center-blocks"),
    the diagonal algebra of M(x)M2 ("diag-m2"), the constant-diagonal
    algebra {diag(x, x)} ("special-diag-m2"), and the commutant of a
    projection ("commutant-of-projection").  E is unital, positive, and
    satisfies tau(E(x)) = tau(x).
    """
    alg = S.ambient
    x = np.asarray(x, dtype=complex)
    if S.kind == "center-blocks":
        out = np.zeros_like(x)
        for sl, d in zip(alg.block_slices(), alg.block_dims):
            out[sl, sl] = (np.trace(x[sl, sl]) / d) * np.eye(d)
        return out
    if S.kind == "diag-m2":
        m = alg.inner_dim
        out = np.zeros_like(x)
        out[:m, :m] = x[:m, :m]
        out[m:, m:] = x[m:, m:]
        return out
    if S.kind == "special-diag-m2":
        x11, _, _, x22 = _tensor_blocks(x, alg)
        avg = (x11 + x22) / 2.0
        out = np.zeros_like(x)
        m = alg.inner_dim
        out[:m, :m] = avg
        out[m:, m:] = avg
        return out
    if S.kind == "commutant-of-projection":
        e = S.aux
        if e is None:
            raise ValueError("commutant-of-projection needs the projection in aux")
        rest = np.eye(alg.dim) - e
        return e @ x @ e + rest @ x @ rest
    raise ValueError(
        f"kind {S.kind!r} does not describe a supported *-subalgebra; "
        f"expected one of {EXPECTATION_KINDS}"
    )


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


def _objective(w: np.ndarray, p: int, alg: TracialAlgebra) -> float:
    # ||w||_p^p = (-1)^(p/2) tau(w^p) for skew-Hermitian w
    wp = np.linalg.matrix_power(w, p)
    return float(np.real((-1) ** (p // 2) * core.trace_tau(wp, alg)))


def _first_variation(w, onb, p, alg):
    """Re tau(w^{p-1} b_k) over the stacked basis; its max modulus certifies w."""
    return np.real(core._tau_stack(np.linalg.matrix_power(w, p - 1), onb, alg))


def _newton(state, w, retract, left, onb, p, alg, tol, max_iter=10_000):
    """Damped Newton with Armijo backtracking on f = ||w||_p^p.

    ``retract(state, s)`` returns the ``(state, w)`` moved by the step s,
    along which f has slope (-1)^(p/2) p Re tau(w^{p-1} b_k) s_k, or None
    for an unusable trial, halved like a rejected one.  The Hessian is
    H_w(l_j, b_k) with l~ = ``left(frame, b~)`` in the eigenframe of w; an
    unusable Newton direction falls back to steepest descent.  Trials within
    roundoff of the Armijo bound are accepted, so termination rests on the
    certificate.  Returns ``(state, f, certificate, trials)`` after at most
    ``max_iter`` trials; the certificate is above tol when the budget ran
    out or the line search stagnated.
    """
    sign = (-1) ** (p // 2)
    f = _objective(w, p, alg)
    trials = 0
    while True:
        t = _first_variation(w, onb, p, alg)
        resid = float(np.max(np.abs(t)))
        if resid <= tol or trials >= max_iter:
            return state, f, resid, trials
        grad = sign * p * t
        frame = core.Eigenframe(w, alg)
        bt = frame.transform(onb)
        hess = frame.h_matrix(left(frame, bt), bt, p)
        damp = 1e-12 * max(1.0, float(np.trace(hess)) / len(onb))
        try:
            step = np.linalg.solve(hess + damp * np.eye(len(onb)), -grad)
            if not np.isfinite(step).all() or float(step @ grad) >= 0.0:
                step = None
        except np.linalg.LinAlgError:
            step = None
        if step is None:
            step = -grad / max(float(np.linalg.norm(grad)), 1e-300)
        slope = float(step @ grad)
        roundoff = 64.0 * np.finfo(float).eps * (abs(f) + 1.0)
        scale = 1.0
        accepted = False
        while scale >= 1e-14:
            trials += 1
            moved = retract(state, scale * step)
            if moved is not None:
                f_new = _objective(moved[1], p, alg)
                if f_new <= f + 1e-4 * scale * slope + roundoff:
                    accepted = True
                    break
            scale *= 0.5
            if trials >= max_iter:
                break
        if not accepted:
            return state, f, resid, trials
        (state, w), f = moved, f_new


def best_approximant(
    z: np.ndarray,
    S: SkewSubspace,
    p: int,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    x0: np.ndarray | None = None,
) -> ProjectionResult:
    """Minimize ||z - y||_p over y in S by damped Newton on coefficients.

    The iteration (``_newton``) starts from the trace-orthogonal projection
    (or ``x0``), uses the exact H-form Hessian, falls back to gradient steps
    with backtracking when the Newton direction is unusable, and terminates
    when the optimality certificate max_k |tau((z-y)^{p-1} b_k)| drops below
    ``tol``.  For p = 2 this reproduces the linear projection in one step.
    """
    p = core._check_even_p(p)
    alg = S.ambient
    z = np.asarray(z, dtype=complex)
    if not core.is_skew_hermitian(z, tol=1e-9 * alg.dim):
        raise ValueError("best_approximant requires a skew-Hermitian input")
    if not core.in_algebra(z, alg):
        raise ValueError("best_approximant requires an element of the algebra (no off-block entries)")
    onb = S.onb()
    if len(onb) == 0:
        return ProjectionResult(np.zeros_like(z), z.copy(), 0.0, 0, p, np.zeros(0))

    def retract(c, s):
        # the residual w = z - y moves by +s when the coefficients of y move by -s
        c = c - s
        return c, z - S.combine(c)

    c = S.coords(z) if x0 is None else np.asarray(x0, dtype=float).copy()
    c, _, resid, trials = _newton(c, z - S.combine(c), retract, lambda frame, bt: bt, onb, p, alg, tol, max_iter)
    if resid > tol:
        raise ConvergenceError(
            f"best approximant certificate {resid:.3e} above tol {tol:.1e} "
            f"after {trials} line-search trials"
        )
    projection = S.combine(c)
    return ProjectionResult(projection, z - projection, resid, trials, p, c)


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
    return float(np.max(np.abs(_first_variation(np.asarray(z, dtype=complex), onb, p, S.ambient))))


# ---------------------------------------------------------------------------
# quotient norm
# ---------------------------------------------------------------------------


def _pattern_search(fun, c0, step, shrink=0.5, min_step=1e-7, max_sweeps=400):
    c = np.asarray(c0, dtype=float).copy()
    f = fun(c)
    m = len(c)
    sweeps = 0
    while step > min_step and sweeps < max_sweeps:
        sweeps += 1
        improved = False
        for k in range(m):
            for s in (step, -step):
                trial = c.copy()
                trial[k] += s
                ft = fun(trial)
                if ft < f - 1e-15:
                    c, f, improved = trial, ft, True
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
            def fun(c):
                return core.operator_norm(z - S.combine(c))

            c, val = S.coords(z), None
            val = fun(c)
            c0, v0 = np.zeros(S.dim), fun(np.zeros(S.dim))
            if v0 < val:
                c, val = c0, v0
            if refine:
                c, val = _pattern_search(fun, c, step=0.25 * max(val, 1e-6))
        if return_witness:
            return val, S.combine(c)
        return val
    result = best_approximant(z, S, int(p))
    val = core.p_norm(result.residual, p, alg)
    if return_witness:
        return val, result.projection
    return val
