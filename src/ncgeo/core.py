"""Finite tracial matrix algebras and their spectral functional calculus.

A tracial algebra here is a block-diagonal complex matrix algebra

    M = M_{n_1} (+) ... (+) M_{n_k}

equipped with a normalized faithful trace

    tau(x) = sum_b w_b * tr(x_b) / n_b,    sum_b w_b = 1,  w_b > 0.

The induced p-norms ||x||_p = tau(|x|^p)^(1/p) make M a finite dimensional
noncommutative L^p space; p = inf denotes the operator norm.  For even p up
to MAX_EVEN_P the norm is the trace polynomial tau((x* x)^(p/2)) and at
p = inf the root of the top eigenvalue of x* x, both of x scaled by its
largest entry: no singular values.  Above MAX_EVEN_P it takes the powers of
the singular values relative to the largest one.  On top of the trace and
the norms this module provides:

  * the blockwise eigenframe of a skew-Hermitian element or of a stack
    (Eigenframe), the one derivative layer: the exponential e^{tw},
    analytic functions of ad w = R_w - L_w as entrywise multipliers
    (symbols F(w) = (e^w - 1)/w and G(w) = (1 - e^{-w})/w and their
    inverses, in closed form e^{+-ix/2} sinc(x/2pi) on the imaginary axis
    w = ix) and the degree-p bilinear form H_w(b, c) of a stack of
    directions as one contraction; on it rest unitary_exp,
    apply_analytic_ad, the differential e^a F(ad a) b of the exponential
    map, h_form and quadratic_form,
  * the principal logarithm of a unitary or a stack (eigen-angles in
    (-pi, pi], pi at eigenvalue -1), from Eigenframe.from_unitary: no Schur
    form, no per-matrix loop; exp, log and fold all diagonalize in Eigenframe,
  * the spectral scale lambda_t and the generalized s-numbers mu_t as
    right-continuous step functions on (0, 1], and
  * the 2pi-periodic sawtooth folding of Hermitian symbols.

Matrices are plain complex numpy arrays; every function is pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TracialAlgebra",
    "StepFunction",
    "is_hermitian",
    "is_skew_hermitian",
    "is_unitary",
    "in_algebra",
    "operator_norm",
    "trace_tau",
    "inner_tau",
    "p_norm",
    "random_hermitian",
    "random_skew",
    "random_unitary",
    "unitary_exp",
    "principal_log",
    "apply_analytic_ad",
    "exp_differential",
    "spectral_scale",
    "s_numbers",
    "fold_symbol",
    "Eigenframe",
    "h_form",
    "quadratic_form",
]

#: per-dimension tolerance used by the structural predicates
ENTRY_TOL = 1e-12

#: |angle + pi| below this snaps to the +pi side of the branch cut
_BRANCH_SNAP = 1e-10

#: the largest even p accepted: the H-form (Eigenframe.h_matrix) allocates O(p)
MAX_EVEN_P = 64


# ---------------------------------------------------------------------------
# tracial algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TracialAlgebra:
    """Block structure of M with a normalized trace.

    ``block_dims`` are the sizes of the diagonal blocks, ``trace_weights``
    the per-block weights w_b (positive, summing to one).  ``tensor_m2``
    marks a presentation of M(+)M as 2x2 block matrices over an inner
    algebra of dimension ``dim // 2``; the trace of that presentation is
    tau_hat(x) = (tau(x_11) + tau(x_22)) / 2, which coincides with the
    normalized trace of the full matrix algebra, so no extra data is needed.
    """

    block_dims: tuple[int, ...]
    trace_weights: tuple[float, ...]
    tensor_m2: bool = False

    def __post_init__(self):
        if len(self.block_dims) != len(self.trace_weights):
            raise ValueError("block_dims and trace_weights must have equal length")
        if any(d <= 0 for d in self.block_dims):
            raise ValueError("block dimensions must be positive")
        if any(w <= 0 for w in self.trace_weights):
            raise ValueError("trace weights must be positive")
        if abs(sum(self.trace_weights) - 1.0) > 1e-12:
            raise ValueError("trace weights must sum to one (tau(1) = 1)")
        if self.tensor_m2:
            if len(self.block_dims) != 1 or self.block_dims[0] % 2:
                raise ValueError("tensor_m2 requires a single even-dimensional block")

    @classmethod
    @functools.cache
    def full(cls, n: int) -> "TracialAlgebra":
        """The full matrix algebra M_n with trace tr/n (one instance per n)."""
        return cls((n,), (1.0,))

    @classmethod
    def direct_sum(cls, dims, weights=None) -> "TracialAlgebra":
        """M_{n_1} (+) ... (+) M_{n_k}; equal block weights by default."""
        dims = tuple(int(d) for d in dims)
        if weights is None:
            weights = tuple(1.0 / len(dims) for _ in dims)
        return cls(dims, tuple(float(w) for w in weights))

    @classmethod
    def tensor_square(cls, inner_n: int) -> "TracialAlgebra":
        """M_{inner_n} (x) M_2 presented as 2x2 blocks over the inner algebra."""
        return cls((2 * inner_n,), (1.0,), tensor_m2=True)

    @property
    def dim(self) -> int:
        return sum(self.block_dims)

    @property
    def inner_dim(self) -> int:
        if not self.tensor_m2:
            raise ValueError("inner_dim is only defined for tensor_m2 algebras")
        return self.dim // 2

    def block_slices(self) -> tuple[slice, ...]:
        """The row/column slice of each diagonal block (computed once per shape)."""
        return _block_slices(self.block_dims)

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)


@functools.lru_cache(maxsize=None)
def _block_slices(block_dims):
    out, start = [], 0
    for d in block_dims:
        out.append(slice(start, start + d))
        start += d
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _diag_weights(alg: TracialAlgebra) -> np.ndarray:
    """Per-diagonal-entry trace weights w_b / n_b (summing to 1)."""
    w = np.empty(alg.dim)
    for d, wb, sl in zip(alg.block_dims, alg.trace_weights, alg.block_slices()):
        w[sl] = wb / d
    return w


def _check_dim(x: np.ndarray, alg: TracialAlgebra) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape != (alg.dim, alg.dim):
        raise ValueError(f"matrix shape {x.shape} does not match algebra dim {alg.dim}")
    return x


# ---------------------------------------------------------------------------
# predicates and elementary quantities
# ---------------------------------------------------------------------------


def _max_entries(x: np.ndarray) -> np.ndarray:
    """Largest entry modulus of each matrix of x, shape (..., n, n)."""
    return np.abs(x).max(axis=(-2, -1), initial=0.0)


def _symmetric_up_to(x, sign, tol) -> bool:
    """Whether x = sign x* for x, or for every matrix of a stack (m, n, n)."""
    x = np.asarray(x)
    tol = ENTRY_TOL * x.shape[-1] if tol is None else tol
    defect = _max_entries(x - sign * x.mT.conj())
    return bool(np.all(defect <= tol * np.maximum(1.0, _max_entries(x))))


def is_hermitian(x: np.ndarray, tol: float | None = None) -> bool:
    return _symmetric_up_to(x, 1.0, tol)


def is_skew_hermitian(x: np.ndarray, tol: float | None = None) -> bool:
    return _symmetric_up_to(x, -1.0, tol)


#: the n x n identity, shared as a read-only view
_eye = functools.cache(lambda n: np.broadcast_to(np.eye(n), (n, n)))


def _unitary_defects(u: np.ndarray) -> np.ndarray:
    """max |u*u - 1| entrywise of u, or of each matrix of a stack (K, n, n)."""
    u = np.asarray(u)
    return _max_entries(u.conj().mT @ u - _eye(u.shape[-1]))


def is_unitary(u: np.ndarray, tol: float | None = None) -> bool:
    """Whether u, or every matrix of a stack (K, n, n), is unitary up to tol."""
    tol = ENTRY_TOL * np.shape(u)[-1] if tol is None else tol
    return bool(np.all(_unitary_defects(u) <= tol))


def in_algebra(x: np.ndarray, alg: TracialAlgebra, tol: float = 1e-12) -> bool:
    """True when x, or every matrix of a stack, is supported on the diagonal blocks."""
    x = np.asarray(x, dtype=complex)
    if x.shape[-2:] != (alg.dim, alg.dim):
        raise ValueError(f"matrix shape {x.shape} does not match algebra dim {alg.dim}")
    if len(alg.block_dims) == 1:
        return True
    off = x.copy()
    for sl in alg.block_slices():
        off[..., sl, sl] = 0.0
    return bool(np.all(_max_entries(off) <= tol * np.maximum(1.0, _max_entries(x))))


def operator_norm(x: np.ndarray) -> float:
    """Largest singular value (the uniform norm of M)."""
    return float(_operator_norms(np.asarray(x, dtype=complex)))


def _entry_scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x / s, s) with s the largest entry modulus of x or of each matrix of a
    stack (1 for a zero matrix): the powers of x / s neither underflow nor
    overflow, and one matrix scales as it does inside a stack, bit for bit."""
    s = _max_entries(x)
    s = np.where(s > 0.0, s, 1.0)
    return x / s[..., None, None], s


def _operator_norms(x: np.ndarray) -> np.ndarray:
    """Operator norm of x or of each matrix of a stack (K, n, n):
    s sqrt(lambda_max(y* y)) for y = x / s, from one batched eigvalsh."""
    return _scaled_operator_norms(*_entry_scaled(x))


def _scaled_operator_norms(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    return s * np.sqrt(np.maximum(np.linalg.eigvalsh(y.conj().mT @ y)[..., -1], 0.0))


#: relative rounding margin of the bounds that select the matrices _max_operator_norm measures
_BOUND_SLACK = 1e-8


def _max_operator_norm(x: np.ndarray) -> float:
    """float(_operator_norms(x).max()) of a matrix or a stack of any leading
    shape, bit for bit, measuring only the matrices that can attain it: those
    whose Frobenius norm (an upper bound on the operator norm) reaches the
    largest column norm of the stack (a lower bound on its largest operator
    norm), less a relative margin for rounding.  The bounds are taken of
    y = x / s, as the norms are, so they neither underflow nor overflow."""
    y, s = _entry_scaled(x)
    cols = (y.real**2 + y.imag**2).sum(axis=-2)
    frobenius = s * np.sqrt(cols.sum(axis=-1))
    low = np.max(s * np.sqrt(cols.max(axis=-1)))
    keep = ~(frobenius < low * (1.0 - _BOUND_SLACK))  # a NaN is measured
    return float(_scaled_operator_norms(y[keep], s[keep]).max())


def trace_tau(x: np.ndarray, alg: TracialAlgebra) -> complex:
    """The normalized trace tau(x) = sum_b w_b tr(x_b)/n_b."""
    x = _check_dim(x, alg)
    return complex(np.dot(_diag_weights(alg), np.diagonal(x)))


def _tau_product(x: np.ndarray, y: np.ndarray, alg: TracialAlgebra) -> complex:
    """tau(x y) without forming the product matrix."""
    return complex(np.einsum("i,ij,ji->", _diag_weights(alg), x, y))


def _tau_stack(x: np.ndarray, stack: np.ndarray, alg: TracialAlgebra) -> np.ndarray:
    """tau(x b_k) for every b_k of a stack of shape (m, n, n), in one contraction
    per x; x is one matrix (result (m,)) or a stack (K, n, n) (result (K, m))."""
    x = np.asarray(x)
    size = x.shape[-1] ** 2
    xd = (x.mT * _diag_weights(alg)).reshape(*x.shape[:-2], size, 1)
    return (stack.reshape(len(stack), size) @ xd)[..., 0]


def inner_tau(a: np.ndarray, b: np.ndarray, alg: TracialAlgebra) -> float:
    """Real trace inner product Re tau(b* a)."""
    return float(np.real(_tau_product(b.conj().T, a, alg)))


def _block_eigvalsh(x, alg):
    """Blockwise eigenvalues of a Hermitian x, or of each matrix of a stack (K, n, n)."""
    vals = np.empty(x.shape[:-1])
    for sl in alg.block_slices():
        vals[..., sl] = np.linalg.eigvalsh(x[..., sl, sl])
    return vals


def _block_svdvals(x, alg):
    """Blockwise singular values of x, or of each matrix of a stack (K, n, n)."""
    vals = np.empty(x.shape[:-1])
    for sl in alg.block_slices():
        vals[..., sl] = np.linalg.svd(x[..., sl, sl], compute_uv=False)
    return vals


def p_norm(x: np.ndarray, p: float, alg: TracialAlgebra) -> float:
    """The noncommutative L^p norm tau(|x|^p)^(1/p); p = inf is the operator norm.

    Each diagonal block is measured on its own, so that it pairs with the
    trace weight of the block carrying it.
    """
    return float(_p_norms(_check_dim(x, alg), p, alg))


def _trace_gram_power(y: np.ndarray, k: int) -> np.ndarray:
    """tr((y* y)^k) of a block or of each block of a stack, as sum |h_ij|^2 with
    h = (y* y)^(k/2) for even k and h = y (y* y)^((k-1)/2) for odd k."""
    if k == 1:
        h = y
    else:
        h = np.linalg.matrix_power(y.conj().mT @ y, k // 2)
        if k % 2:
            h = y @ h
    return (h.real**2 + h.imag**2).reshape(*h.shape[:-2], h.shape[-2] * h.shape[-1]).sum(axis=-1)


def _p_norms(x: np.ndarray, p: float, alg: TracialAlgebra) -> np.ndarray:
    """p-norms of x or of each matrix of a stack (K, n, n), the value of p_norm
    for each, bit for bit, from y = x / s (_entry_scaled): even p from the trace
    polynomial tau((y* y)^(p/2)) block by block (the weighted sum of |y_ij|^2
    at p = 2), p = inf from _operator_norms, other p from _block_svdvals; above
    MAX_EVEN_P, where (y* y)^(p/2) would overflow, the singular values are
    raised to p relative to the largest one of each matrix."""
    if p == np.inf:  # not np.isinf, which refuses an int too large for a float64
        return _operator_norms(x)
    if p < 1:
        raise ValueError("p_norm requires p >= 1")
    y, s = _entry_scaled(x)
    if p > MAX_EVEN_P:
        sv = _block_svdvals(y, alg)
        top = sv.max(axis=-1)
        top = np.where(top > 0.0, top, 1.0)
        total = (_diag_weights(alg) @ ((sv / top[..., None]) ** float(p))[..., None])[..., 0]
        return s * top * np.power(total, 1.0 / p)
    if float(p).is_integer() and p % 2 == 0:
        k = int(p) // 2
        total = sum((wb / d) * _trace_gram_power(y[..., sl, sl], k)
                    for d, wb, sl in zip(alg.block_dims, alg.trace_weights, alg.block_slices()))
    else:
        total = (_diag_weights(alg) @ (_block_svdvals(y, alg) ** p)[..., None])[..., 0]
    return s * np.power(total, 1.0 / p)  # not **: on a numpy scalar it may round unlike the ufunc on a stack


# ---------------------------------------------------------------------------
# random elements (block-respecting)
# ---------------------------------------------------------------------------


def random_hermitian(alg: TracialAlgebra, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return _random_hermitians(alg, rng, 1, scale)[0]


def _block_normals(alg: TracialAlgebra, rng: np.random.Generator, count: int) -> np.ndarray:
    """The normals of ``count`` random_hermitian or random_unitary draws in one call, in
    their order: per draw, per block, a real and an imaginary d x d matrix."""
    return rng.standard_normal((count, sum(2 * d * d for d in alg.block_dims)))


def _ginibre_blocks(alg: TracialAlgebra, normals: np.ndarray):
    """(slice, stack of complex Ginibre blocks) per block, from _block_normals."""
    start = 0
    for sl, d in zip(alg.block_slices(), alg.block_dims):
        g = normals[:, start : start + 2 * d * d].reshape(len(normals), 2, d, d)
        yield sl, g[:, 0] + 1j * g[:, 1]
        start += 2 * d * d


def _hermitians(alg: TracialAlgebra, normals: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """The random_hermitian draws of a stack of _block_normals, as one stack."""
    out = np.zeros((len(normals), alg.dim, alg.dim), dtype=complex)
    for sl, a in _ginibre_blocks(alg, normals):
        out[:, sl, sl] = scale * (a + a.conj().mT) / (2.0 * np.sqrt(a.shape[-1]))
    return out


def _random_hermitians(alg: TracialAlgebra, rng: np.random.Generator, count: int, scale: float = 1.0) -> np.ndarray:
    """``count`` successive draws of random_hermitian as one stack."""
    return _hermitians(alg, _block_normals(alg, rng, count), scale)


def random_skew(alg: TracialAlgebra, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return 1j * random_hermitian(alg, rng, scale)


def random_unitary(alg: TracialAlgebra, rng: np.random.Generator) -> np.ndarray:
    """Blockwise Haar-distributed unitary (QR of a Ginibre matrix, phases fixed)."""
    return _random_unitaries(alg, rng, 1)[0]


def _random_unitaries(alg: TracialAlgebra, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` successive draws of random_unitary: one batched QR per block."""
    out = np.zeros((count, alg.dim, alg.dim), dtype=complex)
    for sl, a in _ginibre_blocks(alg, _block_normals(alg, rng, count)):
        q, r = np.linalg.qr(a)
        ph = r.diagonal(0, -2, -1)
        out[:, sl, sl] = q * (ph / np.abs(ph))[:, None, :]
    return out


# ---------------------------------------------------------------------------
# the eigenframe layer
# ---------------------------------------------------------------------------


def _sym_F(x: np.ndarray) -> np.ndarray:
    """F(ix) = (e^{ix} - 1)/(ix) = e^{ix/2} sinc(x/2pi) for real angle gaps x.

    F is only ever evaluated on the imaginary axis (the spectrum of ad a for
    skew-Hermitian a), where the closed form has no branch: F(0) = 1.
    """
    return np.exp(0.5j * x) * np.sinc(x / (2.0 * np.pi))


def _sym_G(x: np.ndarray) -> np.ndarray:
    """G(ix) = (1 - e^{-ix})/(ix) = F(-ix) = e^{-ix/2} sinc(x/2pi)."""
    return np.exp(-0.5j * x) * np.sinc(x / (2.0 * np.pi))


class Eigenframe:
    """Blockwise eigenframe w = V diag(i lam) V* of a skew-Hermitian element,
    or of each element of a stack w of shape (K, n, n); without an algebra,
    w is one block (the full matrix algebra).

    Each block is diagonalized on its own, so V commutes with the trace
    weights and tau(V x~ V*) = sum_a d_a x~_aa (a full eigendecomposition
    could mix blocks sharing an eigenvalue and detach the weights).  Powers
    of w, e^{tw} and functions of ad w act on x~ = V* x V as entrywise
    multipliers (Daleckii-Krein), so a stack of directions costs one batched
    transform.  A stacked frame has lam of shape (K, n) and frame of shape
    (K, n, n); its transforms and H-form matrices carry the same leading
    axis.  w must be skew-Hermitian and in the algebra; the public entry
    points check their inputs once, not at every Newton iterate.
    """

    def __init__(self, w: np.ndarray, alg: TracialAlgebra | None = None):
        alg = TracialAlgebra.full(w.shape[-1]) if alg is None else alg
        self.lam = np.empty(w.shape[:-1])
        self.frame = np.zeros(w.shape, dtype=complex)
        for sl in alg.block_slices():
            self.lam[..., sl], self.frame[..., sl, sl] = np.linalg.eigh(-1j * w[..., sl, sl])
        self.weights = _diag_weights(alg)

    @classmethod
    def from_unitary(cls, u: np.ndarray, alg: TracialAlgebra | None = None) -> "Eigenframe":
        """Frame of the principal log of a unitary u or a stack (K, n, n): lam
        are its angles in (-pi, pi], pi at eigenvalue -1.  r = e^{-i phi} u keeps
        an angle gap of u of width >= 2pi/n centred on -1, and the Cayley
        transform (1 + r)^{-1}(r - 1) has angles tan(alpha/2) and condition
        <= 1/sin(pi/2n) (Higham, Functions of Matrices, 2008, section 11).
        A u with ||u - 1||_F < 2 cos(pi/2n) has every angle within pi - pi/n
        of 0, so phi = 0 leaves such a gap at -1; as u is unitary, the test
        reads ||u - 1||_F^2 = 2n - 2 Re tr u off the diagonal.  Only the
        other matrices of a stack go through eigvals, and phi puts the
        middle of their widest angle gap at -1.  Given an algebra (u must lie
        in it), the Cayley matrix is diagonalized block by block, so the
        trace weights stay attached."""
        n = u.shape[-1]
        far = ~(u.diagonal(0, -2, -1).real.sum(axis=-1) > n - 1 - np.cos(np.pi / n))
        alpha = np.sort(np.angle(np.linalg.eigvals(u[far])), axis=-1)
        gaps = np.concatenate((alpha[:, 1:], alpha[:, :1] + 2 * np.pi), axis=-1) - alpha
        k = gaps.argmax(axis=-1) + np.arange(0, alpha.size, n)
        phi = np.zeros(far.shape)
        phi[far] = (alpha + gaps / 2.0).ravel()[k] - np.pi  # the middle of each widest gap (flat index k)
        phi = phi[..., None]
        r = np.exp(-1j * phi)[..., None] * u
        eye = _eye(n)
        x = np.linalg.solve(eye + r, r - eye)
        frame = cls((x - x.conj().mT) / 2.0, alg)
        theta = 2.0 * np.arctan(frame.lam) + phi
        theta -= 2 * np.pi * np.rint(theta / (2 * np.pi))
        theta[theta <= -np.pi + _BRANCH_SNAP] += 2 * np.pi
        frame.lam = np.minimum(np.maximum(theta, -np.pi), np.pi)
        return frame

    def __getitem__(self, idx):
        """The frames idx of a stack, indexed (and copied) as numpy indexes."""
        out = object.__new__(Eigenframe)
        out.lam, out.frame, out.weights = self.lam[idx], self.frame[idx], self.weights
        return out

    def __setitem__(self, idx, other):
        self.lam[idx], self.frame[idx] = other.lam, other.frame

    def transform(self, x: np.ndarray) -> np.ndarray:
        """x~ = V* x V for one matrix or a stack of shape (m, n, n); a stacked
        frame gives shape (K, m, n, n)."""
        v = self.frame if self.frame.ndim == 2 else self.frame[:, None]
        return v.conj().mT @ x @ v

    def ad_symbol(self, fn) -> np.ndarray:
        """Multiplier of fn(ad w) on x~: the symbol at i(lam_b - lam_a), placed at
        (a, b); fn takes the real angle gaps (as _sym_F and _sym_G do)."""
        return fn(self.lam[..., None, :] - self.lam[..., :, None])

    def apply(self, fn, b: np.ndarray) -> np.ndarray:
        """fn(ad w) b = V (ad_symbol(fn) * b~) V* for one frame and one matrix b
        or a stack of them (m, n, n)."""
        v = self.frame
        return v @ (self.ad_symbol(fn) * self.transform(b)) @ v.conj().mT

    def exp(self, t=1.0) -> np.ndarray:
        """e^{tw}; t broadcasts against the stack axes of the frame, so an
        array of parameters gives the stack of e^{t_k w} for one frame, and
        one parameter per frame the stack of e^{t_k w_k}; K frames with
        parameters (K, m) give the stacks e^{t_kj w_k}, shape (K, m, n, n)."""
        t, lam, v = np.asarray(t), self.lam, self.frame
        if lam.ndim == 2 and t.ndim == 2:
            lam, v = lam[:, None], v[:, None]
        theta = t[..., None] * lam
        return (v * np.exp(1j * theta)[..., None, :]) @ v.conj().mT

    def h_matrix(self, left: np.ndarray, right: np.ndarray, p: int) -> np.ndarray:
        """H_jl = H_w(b_j, c_l) from transformed stacks left = (b~_j), right = (c~_l):
        -p Re sum_ab d_a gamma_ab b~_ab c~_ba with gamma_ab = sum_k lam_a^(p-2-k) lam_b^k.
        Stacked frames take and give a leading axis K: (K, m, n, n) -> (K, m, m)."""
        powers = self.lam[..., None, :] ** np.arange(p - 1)[:, None]
        gamma = powers[..., ::-1, :].mT @ powers
        lead, size = left.shape[:-3], gamma.shape[-1] ** 2
        x = (left * (self.weights[:, None] * gamma)[..., None, :, :]).reshape(*lead, left.shape[-3], size)
        y = right.mT.reshape(*lead, right.shape[-3], size)
        return -p * (x @ y.mT).real


AdAnalytic = Eigenframe  # the old name, under which perfbench/spans.py traces __init__, apply and exp


def _skew_argument(z: np.ndarray, caller: str) -> np.ndarray:
    """z as a complex array; a z (or a stack) that is not skew-Hermitian is a ValueError."""
    z = np.asarray(z, dtype=complex)
    if not is_skew_hermitian(z, tol=1e-10 * z.shape[-1]):
        raise ValueError(f"{caller} requires a skew-Hermitian argument")
    return z


def unitary_exp(z: np.ndarray, t=1.0) -> np.ndarray:
    """e^{tz} for skew-Hermitian z or each matrix of a stack; an array of
    parameters t gives the stack of e^{t_k z} (Eigenframe.exp)."""
    return Eigenframe(_skew_argument(z, "unitary_exp")).exp(t)


#: the symbols of apply_analytic_ad, as functions of the real angle gaps
_SYMBOLS = {"F": _sym_F, "G": _sym_G, "F_inv": lambda x: 1.0 / _sym_F(x), "G_inv": lambda x: 1.0 / _sym_G(x)}


def apply_analytic_ad(a: np.ndarray, fn_tag: str, b: np.ndarray) -> np.ndarray:
    """phi(ad a) b for phi in {F, G, F_inv, G_inv} (Eigenframe.apply); the
    inverse symbols are guaranteed invertible only for ||a|| < pi/2."""
    if fn_tag not in _SYMBOLS:
        raise ValueError(f"unknown symbol tag {fn_tag!r}")
    frame = Eigenframe(_skew_argument(a, "apply_analytic_ad"))
    norm = float(np.abs(frame.lam).max(initial=0.0))
    if fn_tag.endswith("_inv") and norm >= np.pi / 2:
        raise ValueError(f"inverse symbols need ||a|| < pi/2 (got {norm:.6f}); "
                         "invertibility is not guaranteed beyond")
    return frame.apply(_SYMBOLS[fn_tag], np.asarray(b, dtype=complex))


def exp_differential(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Differential of the exponential map at a: e^a F(ad a) b.

    Equals int_0^1 e^{(1-t)a} b e^{ta} dt and is a p-norm contraction in b
    for every p when a is skew-Hermitian.
    """
    frame = Eigenframe(_skew_argument(a, "exp_differential"))
    return frame.exp() @ frame.apply(_sym_F, np.asarray(b, dtype=complex))


# ---------------------------------------------------------------------------
# the principal logarithm
# ---------------------------------------------------------------------------


def principal_log(u: np.ndarray) -> np.ndarray:
    """Skew-Hermitian z with e^z = u and eigen-angles in (-pi, pi], for a
    unitary u or each matrix of a stack (Eigenframe.from_unitary).

    The angle pi is assigned deterministically to eigenvalue -1, so the map
    is total on the unitary group and ||z|| <= pi always; ||z|| < pi exactly
    when ||1 - u|| < 2.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, tol=1e-9 * u.shape[-1]):
        raise ValueError("principal_log requires a unitary argument")
    frame = Eigenframe.from_unitary(u)
    z = (frame.frame * (1j * frame.lam)[..., None, :]) @ frame.frame.conj().mT
    return (z - z.conj().mT) / 2.0


# ---------------------------------------------------------------------------
# spectral scale, s-numbers, folding
# ---------------------------------------------------------------------------


@dataclass
class StepFunction:
    """Right-continuous step function on (0, 1].

    ``values[i]`` is taken on [breakpoints[i-1], breakpoints[i]) with an
    implicit leading breakpoint 0; the final breakpoint is 1 and the last
    interval is closed on the right.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.breakpoints.shape != self.values.shape:
            raise ValueError("breakpoints and values must align")
        if np.any(np.diff(self.breakpoints) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if abs(self.breakpoints[-1] - 1.0) > 1e-12:
            raise ValueError("the last breakpoint must be 1")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breakpoints, t, side="right")
        idx = np.minimum(idx, len(self.values) - 1)
        return self.values[idx]

    @property
    def interval_lengths(self) -> np.ndarray:
        return np.diff(np.concatenate(([0.0], self.breakpoints)))

    def integrate(self, fn=lambda v: v) -> float:
        """int_0^1 fn(step(t)) dt, evaluated exactly."""
        return float(np.dot(self.interval_lengths, fn(self.values)))


def _scale_from_values(vals: np.ndarray, weights: np.ndarray) -> StepFunction:
    order = np.argsort(-vals, kind="stable")
    v = vals[order]
    w = weights[order]
    cuts = np.cumsum(w)
    cuts[-1] = 1.0
    # merge equal consecutive values so breakpoints stay strictly increasing
    keep = np.ones(len(v), dtype=bool)
    for i in range(len(v) - 1):
        if v[i + 1] == v[i]:
            keep[i] = False
    return StepFunction(cuts[keep], v[keep])


def spectral_scale(x: np.ndarray, alg: TracialAlgebra) -> StepFunction:
    """Non-increasing rearrangement lambda_t(x) of a Hermitian element.

    Interval lengths equal the trace weights of the eigenvalues sorted in
    descending order; tau(f(x)) = int_0^1 f(lambda_t(x)) dt for Borel f.
    """
    x = _check_dim(x, alg)
    if not is_hermitian(x):
        raise ValueError("spectral_scale requires a Hermitian argument")
    return _scale_from_values(_block_eigvalsh(x, alg), _diag_weights(alg))


def s_numbers(z: np.ndarray, alg: TracialAlgebra) -> StepFunction:
    """Generalized s-numbers mu_t(z) = lambda_t(|z|), for any matrix z."""
    z = _check_dim(z, alg)
    return _scale_from_values(_block_svdvals(z, alg), _diag_weights(alg))


def _sawtooth(t: np.ndarray) -> np.ndarray:
    """Reduce mod 2pi into (-pi, pi] above pi and [-pi, pi) below -pi;
    the identity on [-pi, pi]."""
    t = np.asarray(t, dtype=float)
    out = t.copy()
    hi = t > np.pi
    lo = t < -np.pi
    out[hi] = t[hi] - 2 * np.pi * np.ceil((t[hi] - np.pi) / (2 * np.pi))
    out[lo] = t[lo] - 2 * np.pi * np.floor((t[lo] + np.pi) / (2 * np.pi))
    return out


def fold_symbol(z: np.ndarray) -> np.ndarray:
    """Fold a Hermitian symbol through the 2pi-periodic sawtooth.

    Each eigenvalue is reduced mod 2pi into [-pi, pi], so e^{i fold(z)} =
    e^{iz}, ||fold(z)|| <= pi, and ||fold(z)||_p <= ||z||_p with strict
    inequality for finite p whenever ||z|| > pi.
    """
    z = np.asarray(z, dtype=complex)
    if not is_hermitian(z, tol=1e-10 * z.shape[0]):
        raise ValueError("fold_symbol requires a Hermitian argument")
    frame = Eigenframe(1j * z)
    folded = (frame.frame * _sawtooth(frame.lam)[None, :]) @ frame.frame.conj().T
    return (folded + folded.conj().T) / 2.0


# ---------------------------------------------------------------------------
# the degree-p bilinear form
# ---------------------------------------------------------------------------


def _check_even_p(p) -> int:
    """p as an int; a fractional, non-finite, odd or small p, or one above
    MAX_EVEN_P, is a ValueError (never truncated)."""
    if not (float(p).is_integer() and p >= 2 and p % 2 == 0):
        raise ValueError(f"an even integer p >= 2 is required (got {p})")
    if p > MAX_EVEN_P:
        raise ValueError(f"even p above {MAX_EVEN_P} is not supported (got {float(p):g})")
    return int(p)


def h_form(a: np.ndarray, b: np.ndarray, c: np.ndarray, p: int, alg: TracialAlgebra) -> float:
    """H_a(b, c) = (-1)^(p/2) p sum_{k=0}^{p-2} tau(a^{p-2-k} b a^k c).

    Evaluated in the eigenframe of the skew-Hermitian a (Eigenframe): for
    skew-Hermitian c it is p Re sum_ab d_a gamma_ab b~_ab conj(c~_ab) with
    gamma_ab = sum_k lam_a^(p-2-k) lam_b^k >= 0, so it is symmetric and
    positive semidefinite; it is the Hessian of c |-> ||z - c.b||_p^p.
    """
    p = _check_even_p(p)
    a = _check_dim(a, alg)
    if not is_skew_hermitian(a, tol=1e-9 * alg.dim) or not in_algebra(a, alg):
        raise ValueError("h_form needs a skew-Hermitian element a of the algebra")
    frame = Eigenframe(a, alg)
    bt = frame.transform(np.asarray(b, dtype=complex))
    ct = frame.transform(np.asarray(c, dtype=complex))
    return float(frame.h_matrix(bt[None], ct[None], p)[0, 0])


def quadratic_form(a: np.ndarray, b: np.ndarray, p: int, alg: TracialAlgebra) -> float:
    """Q_a(b) = H_a(b, b) >= 0."""
    return h_form(a, b, b, p, alg)
