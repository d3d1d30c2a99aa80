"""The example homogeneous spaces: quotients by a central subalgebra, by
the diagonal and the constant-diagonal algebras of M(x)M2, unitary orbits
of projections, and orbits of partial isometries, with their
special-case verifiers.

``MODELS`` maps each model kind to everything the kind decides: its
builder (ambient algebra, basepoint, exact isotropy basis), its action,
its trace-preserving conditional expectation onto the isotropy
subalgebra and its fact verifier (neither for the partial-isometry
orbit), and its exact constants: K = 3 for central subalgebras, K = 1
where the best approximant coincides with the conditional expectation
(diagonal algebra, projection orbits), and C = 2 whenever the isotropy
is the unitary group of a subalgebra (the horizontal projection is
1 - E).  A constant the table leaves open is an inflated empirical
estimate (its samples are drawn as one stack and projected in one
stacked solve).  ``build_model_space`` is one lookup in the table, and
the built HomSpace carries its expectation.

``model_facts`` runs a kind's ``facts`` verifier from the table: the
kind-specific inequalities and projection facts on random inputs, with
violation counts and worst margins reported without raising.  The
verifiers and ``validate_space`` draw their samples in the order of a
per-sample loop and evaluate them as stacks, with the per-sample values
bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import core
from .core import TracialAlgebra
from .geometry import HomSpace
from .projection import (
    SkewSubspace,
    best_approximant,
    best_approximants,
    hermitian_best_approximant,
    orthonormal_basis,
    quotient_norm,
    standard_skew_basis,
)

__all__ = [
    "ModelSpec",
    "ModelKind",
    "MODELS",
    "CheckResult",
    "ModelReport",
    "build_model_space",
    "conditional_expectation",
    "validate_space",
    "model_facts",
]

#: fixed stream for the empirical constant estimates (deterministic builds)
_CONSTANTS_SEED = 20260810


@dataclass
class ModelSpec:
    """Parameters of a model space.

    ``blocks``: block dimensions of M (center-quotient), the inner dimension m
    of M(x)M2 = M_2m, or the dimension n of the partial-isometry orbit; unset,
    (2,) unless a given ``e`` (2m x 2m) or ``v0`` (n x n) sizes the space.  A
    ``blocks`` that disagrees with them, or a field the kind does not read
    (``ModelKind.reads``), is a ValueError naming it.
    """

    kind: str
    blocks: tuple | None = None
    weights: tuple | None = None
    e: np.ndarray | None = None
    v0: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in MODELS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {tuple(MODELS)}")
        if self.blocks is not None or (self.e is None and self.v0 is None):
            self.blocks = tuple(core._check_integer(b, f"blocks[{i}]")
                                for i, b in enumerate((2,) if self.blocks is None else self.blocks))
            if not self.blocks or min(self.blocks) < 1:
                raise ValueError("blocks must be a non-empty list of positive dimensions")
        for name, given in (("blocks", len(self.blocks or ()) > 1), ("weights", self.weights is not None),
                            ("e", self.e is not None), ("v0", self.v0 is not None)):
            if given and name not in MODELS[self.kind].reads:
                raise ValueError(f"{name}: expected {'one block' if name == 'blocks' else 'none'} for kind {self.kind}")
        if self.e is not None:
            self.e = np.asarray(self.e, dtype=complex)
            if core.operator_norm(self.e @ self.e - self.e) > 1e-10 or not core.is_hermitian(self.e):
                raise ValueError("e must be an orthogonal projection (e = e* = e^2)")
        if self.v0 is not None:
            self.v0 = np.asarray(self.v0, dtype=complex)
            p0 = self.v0.conj().T @ self.v0
            if core.operator_norm(p0 @ p0 - p0) > 1e-10:
                raise ValueError("v0 must be a partial isometry (v0* v0 a projection)")
        for name, x, per_block in (("e", self.e, 2), ("v0", self.v0, 1)):
            if x is not None and self.blocks is not None and len(x) != per_block * self.blocks[0]:
                raise ValueError(f"blocks: expected none or a size agreeing with the {len(x)}x{len(x)} {name}")


def _corner_skew_basis(frame: np.ndarray) -> list:
    """Skew basis of the corner algebra spanned by the given orthonormal columns."""
    r = frame.shape[1]
    out = []
    for j in range(r):
        out.append(1j * np.outer(frame[:, j], frame[:, j].conj()))
    for j in range(r):
        for k in range(j + 1, r):
            ejk = np.outer(frame[:, j], frame[:, k].conj())
            out.append(ejk - ejk.conj().T)
            out.append(1j * (ejk + ejk.conj().T))
    return out


def _unit_samples(alg: TracialAlgebra, rng: np.random.Generator, samples: int) -> np.ndarray:
    """``samples`` successive draws of random_skew, scaled to unit operator
    norm (one batched call); draws of norm below 1e-12 are dropped."""
    zs = 1j * core._random_hermitians(alg, rng, samples)
    norms = core._operator_norms(zs)
    keep = norms >= 1e-12
    return zs[keep] / norms[keep, None, None]


def _estimate_c(space_iso: SkewSubspace, alg: TracialAlgebra) -> float:
    """Empirical lower bound of ||1 - P_G|| on 2000 unit vectors, inflated x1.5."""
    zs = _unit_samples(alg, np.random.default_rng(_CONSTANTS_SEED), 2000)
    return 1.5 * core._max_operator_norm(zs - space_iso.project(zs))


def _estimate_k(space_iso: SkewSubspace, alg: TracialAlgebra, p: int) -> float:
    """Empirical lower bound of sup ||Q_p(z)|| / ||z|| on 400 unit vectors, inflated x1.5."""
    zs = _unit_samples(alg, np.random.default_rng(_CONSTANTS_SEED + p), 400)
    q = best_approximants(zs, space_iso, p, tol=1e-9).projection
    return 1.5 * max(core._max_operator_norm(q), 1e-6)


def _center_quotient(spec):
    alg = TracialAlgebra.direct_sum(spec.blocks, spec.weights)
    basis = []
    n = alg.dim
    for sl, d in zip(alg.block_slices(), alg.block_dims):
        b = np.zeros((n, n), dtype=complex)
        b[sl, sl] = 1j * np.eye(d)
        basis.append(b)
    return alg, alg.identity(), basis


def _tensor_diagonal(spec, placements):
    """Isotropy of the M(x)M2 kinds: each skew basis element b of M put into
    the diagonal corners named by each placement ((0,), (1,): diag-m2;
    (0, 1): diag(b, b), special-diag-m2)."""
    m = spec.blocks[0]
    alg = TracialAlgebra.full(2 * m)
    basis = []
    for b in standard_skew_basis(TracialAlgebra.full(m)):
        for corners in placements:
            big = np.zeros((2 * m, 2 * m), dtype=complex)
            for c in corners:
                big[c * m : (c + 1) * m, c * m : (c + 1) * m] = b
            basis.append(big)
    return alg, alg.identity(), basis


def _projection_orbit(spec):
    e = spec.e
    if e is None:
        m = spec.blocks[0]
        e = np.zeros((2 * m, 2 * m), dtype=complex)
        e[:m, :m] = np.eye(m)
    alg = TracialAlgebra.full(len(e))
    lam, vecs = np.linalg.eigh(e)
    return alg, e, _corner_skew_basis(vecs[:, lam > 0.5]) + _corner_skew_basis(vecs[:, lam <= 0.5])


def _partial_isometry_orbit(spec):
    if spec.v0 is not None:
        v0, n = spec.v0, spec.v0.shape[0]
    else:
        n = spec.blocks[0]
        if n < 2:
            raise ValueError("partial-isometry-orbit needs ambient dimension >= 2")
        v0 = np.eye(n, k=-1, dtype=complex)  # the shift e_j -> e_{j+1}
    alg = TracialAlgebra.full(n)
    lam, vecs = np.linalg.eigh(v0 @ v0.conj().T)
    kernel = vecs[:, lam <= 0.5]
    if kernel.shape[1] == 0:
        raise ValueError("v0 must have co-rank >= 1 so the isotropy is nontrivial")
    return alg, v0, _corner_skew_basis(kernel)


# the conditional expectations take one matrix or a stack (K, n, n)


def _block_scalars(x, space):
    """E onto the center: each block replaced by its normalized trace."""
    alg = space.ambient
    out = np.zeros_like(x)
    for sl, d in zip(alg.block_slices(), alg.block_dims):
        out[..., sl, sl] = (np.trace(x[..., sl, sl], axis1=-2, axis2=-1) / d)[..., None, None] * np.eye(d)
    return out


def _block_diagonal(x, space):
    """E onto the diagonal algebra of M(x)M2: the off-diagonal corners dropped."""
    m = space.ambient.dim // 2
    out = np.zeros_like(x)
    out[..., :m, :m], out[..., m:, m:] = x[..., :m, :m], x[..., m:, m:]
    return out


def _constant_diagonal(x, space):
    """E onto {diag(x, x)}: both diagonal corners replaced by their mean."""
    m = space.ambient.dim // 2
    out = np.zeros_like(x)
    out[..., :m, :m] = out[..., m:, m:] = (x[..., :m, :m] + x[..., m:, m:]) / 2.0
    return out


def _commutant(x, space):
    """E onto the commutant of the basepoint projection e: exe + (1-e)x(1-e)."""
    e = space.basepoint
    rest = np.eye(space.ambient.dim) - e
    return e @ x @ e + rest @ x @ rest


def build_model_space(spec: ModelSpec) -> HomSpace:
    """Wire a HomSpace for the requested model kind from its MODELS entry.

    Every shipped isotropy group is exponential (a unitary group of a
    subalgebra or of a corner).  An estimated K_p is sampled on first use and kept.
    """
    model = MODELS[spec.kind]
    alg, basepoint, basis = model.build(spec)
    iso = orthonormal_basis(SkewSubspace(alg, basis))
    c = model.c_exact if model.c_exact is not None else _estimate_c(iso, alg)
    k = functools.cache(functools.partial(_estimate_k, iso, alg)) if model.k_exact is None else lambda p: model.k_exact
    space = HomSpace(alg, model.action, basepoint, iso, c, k, spec.kind, model.expectation)
    _structural_checks(space)
    return space


def conditional_expectation(x: np.ndarray, space: HomSpace) -> np.ndarray:
    """The conditional expectation of x onto the isotropy subalgebra of a model
    space (unital, positive, tau(E(x)) = tau(x)); ValueError for a kind without one."""
    if space.expectation is None:
        raise ValueError(f"model kind {space.model_kind!r} has no conditional expectation onto its isotropy")
    return space.expectation(np.asarray(x, dtype=complex), space)


def _structural_checks(space: HomSpace):
    if not space.isotropy.lie_closed(tol=1e-8):
        raise ValueError("isotropy subspace is not a Lie algebra")
    # eight unit directions at radius 0.5, drawn and checked as one stack
    c = np.random.default_rng(_CONSTANTS_SEED + 1).standard_normal((8, space.isotropy.dim))
    y = space.isotropy.combine(0.5 * c / np.maximum(np.linalg.norm(c, axis=1), 1e-12)[:, None])
    if space.isotropy_defect(core.unitary_exp(y)) > 1e-9:
        raise ValueError("isotropy algebra does not fix the basepoint")


def validate_space(space: HomSpace, trials: int = 50, seed: int = 0) -> dict:
    """Sampled invariants of a space from ``build_model_space``, which has
    already checked that its isotropy basis is Lie-closed and fixes the
    basepoint.

    Checks that c_O dominates both the sampled operator-norm ratio of the
    horizontal projection and the sampled quotient ratio
    ||P_F(z)|| / inf_y ||z - y|| over the first 10 samples, and returns the
    norm-equivalence constants c_p ||z|| <= ||z||_p <= ||z|| on the isotropy
    algebra at p = 2 and 4.  The infimum is bracketed (``quotient_norm`` at
    p = inf) and the ratio divides by the lower end, the conservative side
    of the c_O check; ``c_width`` is the largest relative bracket width
    (upper - lower) / upper.  The samples are drawn as one stack and
    measured by stacked norms and one lockstep quotient norm.
    """
    alg = space.ambient
    zs = 1j * core._random_hermitians(alg, np.random.default_rng(seed), max(trials, 0))
    nz = core._operator_norms(zs)
    keep = ~(nz < 1e-12)
    zs, nz, first = zs[keep], nz[keep], np.flatnonzero(keep) < 10
    horiz = core._operator_norms(space.horizontal_project(zs))
    lower, upper = quotient_norm(zs[first], space.isotropy, np.inf)
    pos = lower > 1e-12
    worst_c_ratio = max([0.0, *(horiz / nz).tolist(), *(horiz[first][pos] / lower[pos]).tolist()])
    c_width = max([0.0, *((upper - lower)[upper > 0.0] / upper[upper > 0.0]).tolist()])
    ys = space.isotropy.project(zs)
    ny = core._operator_norms(ys)
    ys, ny = ys[ny > 1e-12], ny[ny > 1e-12]
    c_p = {p: _worst(core._p_norms(ys, p, alg) / ny, 1.0) for p in (2, 4)}
    if worst_c_ratio > space.c_O + 1e-9:
        raise ValueError("sampled horizontal projection exceeds the recorded c_O")
    if any(v <= 0 for v in c_p.values()):
        raise ValueError("norm equivalence constant on the isotropy algebra degenerated")
    return {"c_ratio": worst_c_ratio, "c_p": c_p, "c_width": c_width}


# ---------------------------------------------------------------------------
# kind-specific facts: facts(space, p, rng, trials, tol) -> (checks, ratios)
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    trials: int
    violations: int
    worst_margin: float


@dataclass
class ModelReport:
    kind: str
    p: int
    checks: list = field(default_factory=list)
    ratios: dict = field(default_factory=dict)

    @property
    def violations(self) -> int:
        return sum(c.violations for c in self.checks)


def _field_stack(draws, i, *shape) -> np.ndarray:
    """Field i of every draw (a tuple per trial) as one stack, (trials, *shape)."""
    return np.reshape([t[i] for t in draws], (len(draws), *shape))


def _worst(margins, start=math.inf) -> float:
    """min(w, m) folded over the margins from w = start, as a per-sample loop
    folds them (a NaN margin is passed over)."""
    return min([start, *np.asarray(margins).tolist()])


def _check(name, margins) -> CheckResult:
    """One check over a stack of per-trial margins; a negative margin is a violation."""
    return CheckResult(name, len(margins), int(np.count_nonzero(margins < 0)), _worst(margins))


def _center_facts(space, p, rng, trials, tol):
    """Central-subalgebra facts: Q preserves positivity, 0 <= Q(x) <= ||x||
    for x >= 0, ||Q(z)|| <= 3 ||z||, and the commuting Jordan inequality
    ||x - y+||_p <= ||x - y||_p."""
    alg = space.ambient
    n = alg.dim
    draws = [(core.random_hermitian(alg, rng), core.random_skew(alg, rng), core.random_unitary(alg, rng),
              np.abs(rng.standard_normal(n)), rng.standard_normal(n)) for _ in range(trials)]
    hs, zs, us = (_field_stack(draws, i, n, n) for i in range(3))
    a, b = _field_stack(draws, 3, n), _field_stack(draws, 4, n)
    # x = h shifted to be positive; Q(x) = -i Q(ix), solved with Q(z) in one stack
    lo = core._block_eigvalsh(hs, alg).min(axis=-1)
    x = hs - np.minimum(lo - 0.05, 0.0)[:, None, None] * alg.identity()
    q = best_approximants(np.concatenate([1j * x, zs]), space.isotropy, p, tol=1e-11).projection
    qx, qz = -1j * q[: len(x)], q[len(x):]
    eigs = core._block_eigvalsh((qx + qx.conj().mT) / 2, alg)
    gap = core._operator_norms(x) + tol - eigs.max(axis=-1)
    margin3 = 3.0 * core._operator_norms(zs) + tol - core._operator_norms(qz)

    x_c, y_c, y_plus = (us * d[:, None, :] @ us.conj().mT for d in (a, b, np.maximum(b, 0.0)))  # u diag(d) u*
    margin_j = core._p_norms(x_c - y_c, p, alg) + 1e-10 - core._p_norms(x_c - y_plus, p, alg)
    one = alg.identity()
    q_one = hermitian_best_approximant(one, space.isotropy, p).projection
    unit_ok = core.operator_norm(q_one - one) <= 1e-8
    return [_check("positivity-preserved", eigs.min(axis=-1) + tol), _check("squeeze-0-to-norm", gap),
            _check("uniform-bound-3", margin3), _check("jordan-inequality", margin_j),
            CheckResult("unit-fixed", 1, 0 if unit_ok else 1, 0.0)], {}


def _diag_facts(space, p, rng, trials, tol):
    """Diagonal-algebra facts: the best approximant is the diagonal block
    truncation, and removing the off-diagonal corner never increases the
    p-norm."""
    alg = space.ambient
    # each trial draws a skew z, then a Hermitian h
    draws = core._random_hermitians(alg, rng, 2 * max(trials, 0))
    zs, hs = 1j * draws[0::2], draws[1::2]
    q = best_approximants(zs, space.isotropy, p, tol=1e-11).projection
    m_t = tol - core._p_norms(q - conditional_expectation(zs, space), p, alg)
    off = hs - conditional_expectation(hs, space)
    m_o = core._p_norms(hs, p, alg) + 1e-10 - core._p_norms(off, p, alg)
    z_diag = conditional_expectation(core.random_skew(alg, rng), space)
    fixed_ok = core.p_norm(best_approximant(z_diag, space.isotropy, p).residual, p, alg) <= 1e-8
    z_off = core.random_skew(alg, rng)
    z_off = z_off - conditional_expectation(z_off, space)
    killed_ok = core.p_norm(best_approximant(z_off, space.isotropy, p).projection, p, alg) <= 1e-8
    return [_check("projection-is-truncation", m_t), _check("offdiagonal-contraction", m_o),
            CheckResult("diagonal-fixed", 1, 0 if fixed_ok else 1, 0.0),
            CheckResult("offdiagonal-annihilated", 1, 0 if killed_ok else 1, 0.0)], {}


def _embed_blocks(a, b, c, m):
    """[[a, b], [b, c]] of m x m blocks, or of each triple of three stacks."""
    out = np.zeros(np.shape(a)[:-2] + (2 * m, 2 * m), dtype=complex)
    out[..., :m, :m] = a
    out[..., :m, m:] = b
    out[..., m:, :m] = b
    out[..., m:, m:] = c
    return out


def _special_diag_facts(space, p, rng, trials, tol):
    """Constant-diagonal algebra facts: the centered-difference inequality
    under constant-diagonal shifts, contractivity of E on the symmetric and
    off-diagonal patterns, agreement of Q with E there, and recorded
    (not asserted) uniform ratios outside those patterns.  The slack is
    min(tol, 1e-10): a larger tol never loosens it."""
    tol = min(tol, 1e-10)
    alg = space.ambient
    m = alg.dim // 2
    inner = TracialAlgebra.full(m)

    def gauss():
        return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))

    draws = [(*(core.random_hermitian(inner, rng) for _ in range(3)),
              core.random_hermitian(inner, rng) if k % 2 else gauss(), gauss(), core.random_skew(alg, rng))
             for k in range(trials)]
    a, b, c, d, g = (_field_stack(draws, i, m, m) for i in range(5))
    zs = _field_stack(draws, 5, 2 * m, 2 * m)
    lhs = core._p_norms(_embed_blocks((a - c) / 2, b, (c - a) / 2, m), p, alg)
    shifted = _embed_blocks(a, b, c, m)
    shifted[..., :m, :m] += d
    shifted[..., m:, m:] += d
    margin = core._p_norms(shifted, p, alg) + tol - lhs

    sym = _embed_blocks(a, b, c, m)
    e_sym = conditional_expectation(sym, space)
    m_c = core._p_norms(sym, p, alg) + tol - core._p_norms(e_sym, p, alg)

    # Q on the Hermitian patterns, -i Q(i x), for sym and offd in one stack
    offd = np.zeros_like(sym)
    offd[..., :m, m:] = g
    offd[..., m:, :m] = g.conj().mT
    q = -1j * best_approximants(1j * np.concatenate([sym, offd]), space.isotropy, p, tol=1e-11).projection
    e_sym_gap, off_norm = core._p_norms(q[: len(sym)] - e_sym, p, alg), core._p_norms(q[len(sym):], p, alg)
    m_a = 1e-8 - np.where(off_norm > e_sym_gap, off_norm, e_sym_gap)  # max(gap, off) as Python takes it

    nz = core._operator_norms(zs)
    zs, nz = zs[nz > 1e-12], nz[nz > 1e-12]
    qz = best_approximants(zs, space.isotropy, p, tol=1e-10).projection
    ratios = (core._operator_norms(qz) / nz).tolist()
    return [_check("shifted-difference-inequality", margin), _check("expectation-contractive-on-patterns", m_c),
            _check("projection-matches-expectation-on-patterns", m_a)], {
        "uniform_ratio_max": float(np.max(ratios)) if ratios else 0.0,
        "uniform_ratio_mean": float(np.mean(ratios)) if ratios else 0.0,
    }


@dataclass(frozen=True)
class ModelKind:
    """What a model kind decides: ``build(spec)`` gives the ambient algebra,
    the basepoint and an isotropy basis; ``action`` is the HomSpace action
    kind; ``expectation(x, space)`` is the conditional expectation onto the
    isotropy subalgebra (None: no *-subalgebra); ``facts(space, p, rng,
    trials, tol)`` gives the kind's fact checks and recorded ratios for
    ``model_facts`` (None: none); ``c_exact`` / ``k_exact`` are the
    closed-form c_O and K_p (None: sampled maxima x1.5); ``reads`` names
    the optional spec fields ``build`` reads ("blocks": a second one)."""

    build: Callable
    action: str
    expectation: Callable | None
    facts: Callable | None
    c_exact: float | None
    k_exact: float | None
    reads: tuple

    @property
    def constants(self) -> str:
        """"exact" when c_O and every K_p are closed-form, else "estimated"."""
        return "exact" if self.c_exact is not None and self.k_exact is not None else "estimated"


#: every model kind; the one place that maps a kind to its data
MODELS = {
    "center-quotient": ModelKind(_center_quotient, "coset", _block_scalars, _center_facts, 2.0, 3.0,
                                 ("blocks", "weights")),
    "diag-m2": ModelKind(lambda s: _tensor_diagonal(s, ((0,), (1,))), "coset", _block_diagonal, _diag_facts,
                         2.0, 1.0, ()),
    "special-diag-m2": ModelKind(lambda s: _tensor_diagonal(s, ((0, 1),)), "coset", _constant_diagonal,
                                 _special_diag_facts, 2.0, None, ()),
    "partial-isometry-orbit": ModelKind(_partial_isometry_orbit, "partial-isometry", None, None, None, None, ("v0",)),
    "projection-orbit": ModelKind(_projection_orbit, "conjugation", _commutant, _diag_facts, 2.0, 1.0, ("e",)),
}


def model_facts(space: HomSpace, p: int, trials: int = 200, seed: int = 0, tol: float = 1e-8) -> ModelReport:
    """The kind-specific facts of a model space (its ``ModelKind.facts``) on
    ``trials`` random inputs drawn from ``seed``: violation counts and worst
    margins, without raising; ValueError for a kind without fact checks."""
    facts = getattr(MODELS.get(space.model_kind), "facts", None)
    if facts is None:
        raise ValueError(f"model kind {space.model_kind!r} has no fact checks")
    p = core._check_even_p(p)
    checks, ratios = facts(space, p, np.random.default_rng(seed), trials, tol)
    return ModelReport(space.model_kind, p, checks, ratios)
