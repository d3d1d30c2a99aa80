"""Trace, p-norms, exponential calculus, spectral scale, folding, H-form."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgeo import core
from ncgeo.core import (
    TracialAlgebra,
    apply_analytic_ad,
    exp_differential,
    fold_symbol,
    h_form,
    operator_norm,
    p_norm,
    principal_log,
    quadratic_form,
    s_numbers,
    spectral_scale,
    trace_tau,
    unitary_exp,
)
from ncgeo.geometry import exp_curve
from ncgeo.suites import SuiteConfig, run_verification_suite

ALGS = {
    "m2": TracialAlgebra.full(2),
    "m4": TracialAlgebra.full(4),
    "sum": TracialAlgebra.direct_sum((2, 3), (0.4, 0.6)),
}


# ---------------------------------------------------------------------------
# trace and p-norms
# ---------------------------------------------------------------------------


def test_trace_of_identity_is_one():
    for alg in ALGS.values():
        assert trace_tau(alg.identity(), alg) == pytest.approx(1.0, abs=1e-14)


def test_trace_of_rank_one_projection_in_m2(m2):
    assert trace_tau(np.diag([1.0, 0.0]).astype(complex), m2) == pytest.approx(0.5)


def test_trace_is_cyclic(rng):
    for alg in ALGS.values():
        for _ in range(20):
            x = core.random_hermitian(alg, rng) + 1j * core.random_hermitian(alg, rng)
            y = core.random_hermitian(alg, rng) + 1j * core.random_hermitian(alg, rng)
            assert abs(trace_tau(x @ y, alg) - trace_tau(y @ x, alg)) < 1e-13


def test_trace_is_faithful(rng):
    alg = ALGS["sum"]
    for _ in range(50):
        x = core.random_hermitian(alg, rng)
        val = trace_tau(x.conj().T @ x, alg).real
        assert val >= 0.0
        if val < 1e-14:
            assert operator_norm(x) < 1e-6


def test_p_norm_of_identity_is_one():
    for alg in ALGS.values():
        for p in (1, 1.5, 2, 4, 6, np.inf):
            assert p_norm(alg.identity(), p, alg) == pytest.approx(1.0, abs=1e-12)


def test_p_norm_example_m2(m2):
    x = np.diag([1j * np.pi, 0.0])
    assert p_norm(x, 4, m2) == pytest.approx(np.pi * 0.5**0.25, abs=1e-12)


def test_p_norm_rejects_p_below_one(m2):
    with pytest.raises(ValueError):
        p_norm(m2.identity(), 0.5, m2)


def test_p_norm_unitary_invariance(rng):
    for alg in ALGS.values():
        for _ in range(25):
            x = core.random_hermitian(alg, rng) + 1j * core.random_hermitian(alg, rng)
            u = core.random_unitary(alg, rng)
            v = core.random_unitary(alg, rng)
            for p in (2, 4, np.inf):
                assert p_norm(u @ x @ v, p, alg) == pytest.approx(p_norm(x, p, alg), abs=1e-10)


def _svd_p_norms(x, p, alg):
    # reference oracle: the p-norms from blockwise singular values (p = inf:
    # the largest singular value of the whole matrix)
    if np.isinf(p):
        return np.linalg.svd(x, compute_uv=False)[..., 0]
    s = np.concatenate([np.linalg.svd(x[..., sl, sl], compute_uv=False) for sl in alg.block_slices()], axis=-1)
    return (s**p @ core._diag_weights(alg)) ** (1.0 / p)


@pytest.mark.parametrize("alg", [TracialAlgebra.direct_sum((2, 3), (0.3, 0.7)), TracialAlgebra.tensor_square(2)])
@pytest.mark.parametrize("p", [2, 4, 6, 8, 16, np.inf])
@pytest.mark.parametrize("count", [1, 65])
def test_p_norms_match_svd_reference(alg, p, count, rng):
    x = np.zeros((count, alg.dim, alg.dim), dtype=complex)
    for sl, d in zip(alg.block_slices(), alg.block_dims):
        x[:, sl, sl] = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    x[0] *= 1e-3  # an uneven stack: each matrix is scaled by its own largest entry
    ref = _svd_p_norms(x, p, alg)
    got = core._p_norms(x, p, alg)
    assert np.max(np.abs(got - ref) / ref) <= 1e-14
    if np.isinf(p):
        assert np.array_equal(core._operator_norms(x), got)
    # one matrix is measured as it is inside the stack, bit for bit
    assert np.array_equal(got, [p_norm(xk, p, alg) for xk in x])


@pytest.mark.parametrize("t", [1.0, 1e-170, 1e200])
def test_max_operator_norm_is_the_largest_norm_bit_for_bit(t, rng, monkeypatch):
    # _max_operator_norm returns float(_operator_norms(x).max()) bit for bit on
    # random stacks of any leading shape, exact and rounding-level ties, zero
    # matrices, extreme scales and one matrix, and measures only the matrices
    # whose Frobenius norm reaches the largest column norm
    x = rng.standard_normal((3, 7, 4, 4)) + 1j * rng.standard_normal((3, 7, 4, 4))
    x[0, :3] *= 1e-3
    tie = x[1, 2]
    cases = [x, x[0], x[0, 0], np.zeros((5, 3, 3), dtype=complex), np.zeros((3, 3), dtype=complex),
             np.concatenate([np.zeros((2, 4, 4)), x[2]]), np.array([tie, tie, tie]),
             np.array([tie, -tie, tie.T, tie[::-1], 1j * tie.conj()]),
             np.array([np.eye(4), -np.eye(4), 1j * np.eye(4)])]
    for c in cases:
        c = t * c
        assert core._max_operator_norm(c) == float(core._operator_norms(c).max())
    measured = []
    eigvalsh = np.linalg.eigvalsh

    def counted(g):
        measured.append(len(g))
        return eigvalsh(g)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    one_large = t * np.concatenate([1e-3 * x[0], x[1, :1]])
    assert core._max_operator_norm(one_large) == float(core._operator_norms(one_large).max())
    assert measured[0] == 1


@pytest.mark.parametrize("t", [0.0, 1e-170, 1e-30, 1e25, 1e200])
@pytest.mark.parametrize("p", [1.5, 2, 3, 4, 16, np.inf])
def test_p_norm_is_homogeneous_at_extreme_scales(t, p, rng):
    alg = ALGS["sum"]
    x = core.random_hermitian(alg, rng) + 1j * core.random_hermitian(alg, rng)
    assert p_norm(t * x, p, alg) == pytest.approx(t * p_norm(x, p, alg), rel=1e-14)


def _clarkson_holds(a, b, p, alg, tol=1e-10):
    q = p / (p - 1.0)
    na, nb = p_norm(a, p, alg), p_norm(b, p, alg)
    nplus, nminus = p_norm(a + b, p, alg), p_norm(a - b, p, alg)
    if p <= 2:
        lhs = (nplus**q + nminus**q) ** (1.0 / q)
    else:
        lhs = (nplus**p + nminus**p) ** (1.0 / p)
    rhs = 2.0 ** (1.0 / q) * (na**p + nb**p) ** (1.0 / p)
    return lhs <= rhs + tol


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 4.0, 6.0])
def test_clarkson_inequalities(p, rng):
    for alg in ALGS.values():
        for _ in range(400):
            a = core.random_skew(alg, rng)
            b = core.random_skew(alg, rng)
            assert _clarkson_holds(a, b, p, alg)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.sampled_from([1.5, 2.0, 4.0, 6.0]),
    scale=st.floats(min_value=1e-3, max_value=50.0),
)
def test_clarkson_property(seed, p, scale):
    alg = ALGS["m2"]
    gen = np.random.default_rng(seed)
    a = core.random_skew(alg, gen, scale)
    b = core.random_skew(alg, gen, scale)
    assert _clarkson_holds(a, b, p, alg, tol=1e-10 * max(1.0, scale**1.0))


# ---------------------------------------------------------------------------
# exponential and logarithm
# ---------------------------------------------------------------------------


def test_exp_of_zero(m4):
    assert operator_norm(unitary_exp(np.zeros((4, 4), complex)) - np.eye(4)) < 1e-14


def test_exp_of_i_pi_is_minus_one(m2):
    z = np.diag([1j * np.pi, 1j * np.pi])
    assert operator_norm(unitary_exp(z) + np.eye(2)) < 1e-12


def test_exp_rejects_non_skew(m2):
    with pytest.raises(ValueError):
        unitary_exp(np.diag([1.0, 2.0]).astype(complex))


def test_frame_without_algebra_is_the_full_algebra_frame(rng, m4):
    w = core.random_skew(m4, rng)
    one, full = core.Eigenframe(w), core.Eigenframe(w, m4)
    for attr in ("lam", "frame", "weights"):
        assert np.array_equal(getattr(one, attr), getattr(full, attr))


def test_stacked_exp_takes_one_parameter_per_frame(rng, m4):
    ws = np.array([core.random_skew(m4, rng) for _ in range(5)])
    ts = rng.uniform(-1.0, 1.0, 5)
    for w, t, e in zip(ws, ts, core.Eigenframe(ws).exp(ts)):
        assert np.max(np.abs(e - core.Eigenframe(w).exp(t))) <= 1e-15


def test_exp_of_a_parameter_array(rng, m4):
    z = core.random_skew(m4, rng)
    ts = np.linspace(-1.0, 1.0, 9)
    stack = unitary_exp(z, ts)
    assert stack.shape == (9, 4, 4)
    for t, e in zip(ts, stack):
        assert operator_norm(e - unitary_exp(t * z)) <= 1e-14


def test_log_of_identity(m3):
    assert operator_norm(principal_log(np.eye(3, dtype=complex))) < 1e-14


def test_log_of_minus_one_has_norm_pi():
    z = principal_log(-np.eye(3, dtype=complex))
    assert core.is_skew_hermitian(z)
    assert operator_norm(z) == pytest.approx(np.pi, abs=1e-12)
    assert operator_norm(unitary_exp(z) + np.eye(3)) < 1e-12
    # every eigenvalue -1 gets +pi, also beside other angles
    assert np.diag(z).imag == pytest.approx([np.pi] * 3, abs=1e-15)
    z = principal_log(np.diag([1.0, -1.0, 1j, -1.0]))
    assert np.abs(z - np.diag(np.diag(z))).max() <= 1e-15
    assert np.diag(z).imag == pytest.approx([0.0, np.pi, np.pi / 2, np.pi], abs=1e-15)


def test_log_rejects_non_unitary(m2):
    with pytest.raises(ValueError):
        principal_log(np.diag([2.0, 1.0]).astype(complex))


def test_log_exp_roundtrip_inside_ball(rng):
    # oracle: scipy.linalg.expm is an independent exponential
    for alg in ALGS.values():
        for _ in range(30):
            z = core.random_skew(alg, rng)
            nz = operator_norm(z)
            z = z * (rng.uniform(0.05, 0.95) * np.pi / max(nz, 1e-12))
            u = unitary_exp(z)
            assert operator_norm(u - scipy.linalg.expm(z)) < 1e-11
            assert operator_norm(principal_log(u) - z) < 1e-9


def test_exp_log_roundtrip_all_unitaries(rng):
    for alg in ALGS.values():
        for _ in range(30):
            u = core.random_unitary(alg, rng)
            z = principal_log(u)
            assert operator_norm(z) <= np.pi + 1e-12
            assert operator_norm(unitary_exp(z) - u) < 1e-9


def test_log_norm_below_pi_iff_far_from_cut(rng, m3):
    for _ in range(20):
        z = core.random_skew(m3, rng)
        z = z * (0.9 * np.pi / max(operator_norm(z), 1e-12))
        u = unitary_exp(z)
        assert operator_norm(np.eye(3) - u) < 2.0
        assert operator_norm(principal_log(u)) < np.pi


def _schur_log(u):
    # reference oracle: the principal log from a complex Schur form, each
    # eigen-angle in (-pi, pi] with the same branch snap at -1
    t, q = scipy.linalg.schur(u, output="complex")
    lam = np.diagonal(t) / np.abs(np.diagonal(t))
    theta = np.angle(lam)
    theta[theta <= -np.pi + 1e-10] += 2 * np.pi
    z = (q * (1j * np.clip(theta, -np.pi, np.pi))) @ q.conj().T
    return (z - z.conj().T) / 2.0


def _log_inputs(n, gen):
    """Haar, exponentials from near the identity out to scale 3.1,
    degenerate spectra and cut-locus unitaries in M_n."""
    alg = TracialAlgebra.full(n)
    out = [core.random_unitary(alg, gen) for _ in range(20)]
    for scale in (1e-8, 1e-5, 1e-2, 0.5, 2.0, 3.1):
        for _ in range(5):
            z = core.random_skew(alg, gen)
            out.append(unitary_exp(z * (scale / operator_norm(z))))
    q = core.random_unitary(alg, gen)
    for spectrum in (np.ones(n), np.exp(0.7j * (np.arange(n) % 2)), -np.ones(n), (-1.0) ** np.arange(n),
                     np.where(np.arange(n) % 2, -1.0, 1j), np.where(np.arange(n) == 0, -1.0, 1.0)):
        out += [np.diag(spectrum).astype(complex), q @ np.diag(spectrum) @ q.conj().T]
    for spectrum in _frobenius_bound_spectra(n):
        out += [np.diag(spectrum), q @ np.diag(spectrum) @ q.conj().T]
    return np.array(out)


def _frobenius_bound_spectra(n, rel=1e-9):
    """Spectra with ||u - 1||_F^2 a relative rel inside (first three) and
    outside (last three) the bound (2 cos(pi/2n))^2 under which
    from_unitary takes no eigvals: one angle near pi - pi/n, n angles of
    alternating sign, and n angles of one sign."""
    out = []
    for side in (-1.0, 1.0):
        half = np.cos(np.pi / (2 * n)) * np.sqrt(1.0 + side * rel)  # sin(theta/2) of one angle
        one = np.where(np.arange(n) == 0, 2.0 * np.arcsin(half), 0.0)
        spread = np.full(n, 2.0 * np.arcsin(half / np.sqrt(n)))
        out += [np.exp(1j * one), np.exp(1j * spread * (-1.0) ** np.arange(n)), np.exp(1j * spread)]
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_near_identity_logs_take_no_eigvals(n, monkeypatch):
    # from_unitary sends only the matrices outside the Frobenius bound
    # through eigvals: in a stack of Haar, cut-locus and bound-straddling
    # unitaries, eigvals sees exactly the ones outside
    gen = np.random.default_rng(200 + n)
    q = core.random_unitary(TracialAlgebra.full(n), gen)
    spectra = _frobenius_bound_spectra(n)
    stack = np.array([q @ np.diag(s) @ q.conj().T for s in spectra] + [-np.eye(n, dtype=complex)]
                     + [core.random_unitary(TracialAlgebra.full(n), gen) for _ in range(4)])
    inside = np.arange(len(stack)) < 3
    seen = []
    eigvals = np.linalg.eigvals

    def recorded(a):
        seen.append(a.copy())
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    core.Eigenframe.from_unitary(stack)
    assert len(seen) == 1 and np.array_equal(seen[0], stack[~inside])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_log_stack_matches_schur_reference(n):
    stack = _log_inputs(n, np.random.default_rng(100 + n))
    logs = principal_log(stack)
    assert logs.shape == stack.shape
    for z, u in zip(logs, stack):
        assert operator_norm(z - _schur_log(u)) <= 1e-13
    # a stack is the per-matrix calls, bit for bit
    assert np.array_equal(logs, np.array([principal_log(u) for u in stack]))


def _blockwise_unitaries(alg, gen):
    """Haar and near-identity unitaries of the algebra, cut-locus ones (an
    eigenvalue -1 in one block) and spectra shared across blocks, where a
    full eigendecomposition could mix the blocks."""
    out = [core.random_unitary(alg, gen) for _ in range(6)]
    out += [unitary_exp(core.random_skew(alg, gen, s)) for s in (1e-6, 0.5, 3.0)]
    q = core.random_unitary(alg, gen)
    idx = np.arange(alg.dim)
    for spectrum in (np.ones(alg.dim), np.exp(0.9j * (idx % 2)), np.where(idx == 0, -1.0, 1j)):
        out.append(q @ np.diag(spectrum) @ q.conj().T)
    return np.array(out)


@pytest.mark.parametrize("alg", [TracialAlgebra.full(3), TracialAlgebra.direct_sum((2, 3), (0.4, 0.6)),
                                 TracialAlgebra.direct_sum((2, 2)), TracialAlgebra.tensor_square(2)])
def test_blockwise_log_frame(alg):
    # from_unitary(u, alg) diagonalizes block by block: no off-block entries,
    # the trace weights of the algebra, the principal log to 1e-13, and each
    # matrix of a stack as on its own, bit for bit
    stack = _blockwise_unitaries(alg, np.random.default_rng(7))
    frame = core.Eigenframe.from_unitary(stack, alg)
    off = np.ones((alg.dim, alg.dim), dtype=bool)
    for sl in alg.block_slices():
        off[sl, sl] = False
    assert np.all(frame.frame[:, off] == 0.0)
    assert np.array_equal(frame.weights, core._diag_weights(alg))
    logs = (frame.frame * (1j * frame.lam)[..., None, :]) @ frame.frame.conj().mT
    for z, u in zip(logs, stack):
        assert operator_norm(z - principal_log(u)) <= 1e-13
    for k, u in enumerate(stack):
        one = core.Eigenframe.from_unitary(u, alg)
        assert np.array_equal(one.lam, frame.lam[k]) and np.array_equal(one.frame, frame.frame[k])


def test_angle_guard_is_the_distance_to_the_cut_locus(rng, m4):
    # ||1 - u|| = 2 sin(max |theta| / 2) for the angles of the principal log,
    # on Haar unitaries and on unitaries within 1e-3 to 1e-9 of the cut locus
    q = core.random_unitary(m4, rng)
    near = [q @ np.diag(np.exp(1j * np.r_[np.pi - eps, rng.uniform(-3, 3, 3)])) @ q.conj().T
            for eps in (1e-3, 1e-6, 1e-9, 0.0)]
    stack = np.array([core.random_unitary(m4, rng) for _ in range(20)] + near)
    theta = core.Eigenframe.from_unitary(stack, m4).lam
    guard = 2.0 * np.sin(np.abs(theta).max(axis=-1) / 2.0)
    for g, u in zip(guard, stack):
        assert g == pytest.approx(operator_norm(np.eye(4) - u), abs=1e-12)


def _haar_one_at_a_time(alg, rng):
    # per block, a real and an imaginary normal d x d matrix and a 2-D QR
    out = np.zeros((alg.dim, alg.dim), dtype=complex)
    for sl, d in zip(alg.block_slices(), alg.block_dims):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(a)
        out[sl, sl] = q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]
    return out


def test_stacked_draws_are_successive_draws(rng):
    # _random_unitaries (random_unitary is its count-1 case) and
    # _random_hermitians take the normals of their draws in one call: the
    # draws of the one-at-a-time calls, bit for bit, with the generator left
    # in the same state
    for alg in (TracialAlgebra.full(3), TracialAlgebra.direct_sum((2, 3), (0.4, 0.6))):
        seed = int(rng.integers(1 << 30))
        one, many = np.random.default_rng(seed), np.random.default_rng(seed)
        singles = [_haar_one_at_a_time(alg, one) for _ in range(6)]
        singles += [core.random_hermitian(alg, one) for _ in range(3)]
        stacks = list(core._random_unitaries(alg, many, 5)) + [core.random_unitary(alg, many)]
        stacks += list(core._random_hermitians(alg, many, 3))
        assert all(np.array_equal(a, b) for a, b in zip(singles, stacks))
        assert one.random() == many.random()


def test_log_stack_rejects_one_non_unitary_member(rng, m3):
    stack = np.array([core.random_unitary(m3, rng) for _ in range(4)])
    assert core.is_unitary(stack)
    stack[2, 0, 0] *= 1.01
    assert not core.is_unitary(stack)
    with pytest.raises(ValueError, match="unitary"):
        principal_log(stack)


def test_validate_unitary_names_first_bad_node(rng, m3):
    curve = exp_curve(core.random_skew(m3, rng, 0.5), 9)
    curve.validate_unitary()
    curve.nodes[5] *= 1.01
    curve.nodes[3] *= 1.01
    with pytest.raises(ValueError, match="curve node 3 is not unitary"):
        curve.validate_unitary()


def test_one_spectral_route():
    # core diagonalizes through Eigenframe alone: it imports no scipy, and no
    # module of the package brings back a Schur decomposition
    src = Path(core.__file__).parent
    for node in ast.walk(ast.parse((src / "core.py").read_text())):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "scipy" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] != "scipy"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", ""))
                assert name != "schur", f"{path.name}:{node.lineno} calls schur"


def _assert_called_only_in(call, *owner):
    """No module of the package calls ``call`` outside the definition that
    the names ``owner`` reach from the top of core.py."""
    src = Path(core.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "core.py":
            scope = tree
            for name in owner:
                scope = next(n for n in scope.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)
            allowed = {id(n) for n in ast.walk(scope)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed:
                name = getattr(node.func, "attr", getattr(node.func, "id", ""))
                assert name != call, f"{path.name}:{node.lineno} calls {call}"


def test_no_svd_outside_block_svdvals():
    # every norm but the fractional/odd-p, large-p and s-number ones is
    # SVD-free: the one svd call of the package sits in core._block_svdvals
    _assert_called_only_in("svd", "_block_svdvals")


def test_no_eigvals_outside_from_unitary():
    # the widest-gap search of Eigenframe.from_unitary is the one eigvals
    # call of the package
    _assert_called_only_in("eigvals", "Eigenframe", "from_unitary")


# ---------------------------------------------------------------------------
# analytic ad calculus
# ---------------------------------------------------------------------------


def test_ad_symbols_at_zero_generator(rng, m3):
    b = core.random_skew(m3, rng)
    for tag in ("F", "G", "F_inv", "G_inv"):
        out = apply_analytic_ad(np.zeros((3, 3), complex), tag, b)
        assert operator_norm(out - b) < 1e-13


@pytest.mark.parametrize("x", [0.0, 1e-12, -1e-12, 1e-2, -1e-2, 1.0, -1.0, 3.0, -3.0, 6.0, -6.0])
def test_ad_symbols_match_quadrature(x):
    # F(ix) = int_0^1 e^{ixt} dt and G(ix) = int_0^1 e^{-ixt} dt, referenced
    # by 40-digit Gauss-Legendre quadrature
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for symbol, sign in ((core._sym_F, 1), (core._sym_G, -1)):
            ref = mpmath.quad(lambda t: mpmath.expj(sign * x * t), [0, 1], method="gauss-legendre")
            val = complex(symbol(np.array(x)))
            assert abs(mpmath.mpc(val) - ref) <= 1e-15 * abs(ref)
            assert abs(mpmath.mpc(1.0 / val) - 1 / ref) <= 1e-15 * abs(1 / ref)


def test_ad_inverse_composition(rng, m4):
    for _ in range(20):
        a = core.random_skew(m4, rng)
        a = a * (rng.uniform(0.1, 0.9) * (np.pi / 2) / max(operator_norm(a), 1e-12))
        b = core.random_skew(m4, rng)
        for tag, inv in (("F", "F_inv"), ("G", "G_inv")):
            back = apply_analytic_ad(a, inv, apply_analytic_ad(a, tag, b))
            assert operator_norm(back - b) < 1e-10


def test_ad_inverse_requires_small_generator(rng, m3):
    a = core.random_skew(m3, rng)
    a = a * (2.0 / max(operator_norm(a), 1e-12))
    with pytest.raises(ValueError):
        apply_analytic_ad(a, "F_inv", a)


def test_entry_points_reject_non_skew_generators(rng, m3):
    h, b = core.random_hermitian(m3, rng), core.random_skew(m3, rng)
    calls = [
        lambda: unitary_exp(h),
        lambda: unitary_exp(h, np.linspace(0.0, 1.0, 3)),
        lambda: apply_analytic_ad(h, "F", b),
        lambda: exp_differential(h, b),
        lambda: exp_curve(h),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="skew-Hermitian"):
            call()


def test_apply_analytic_ad_rejects_unknown_tag(rng, m3):
    with pytest.raises(ValueError, match="unknown symbol tag"):
        apply_analytic_ad(core.random_skew(m3, rng), "H", core.random_skew(m3, rng))


def test_inverse_symbol_norm_bound(rng, m4):
    # ||F(ad a)^{-1}|| <= g(||a||) = ||a|| / sin(||a||) for ||a|| < pi/2
    for _ in range(15):
        a = core.random_skew(m4, rng)
        a = a * (rng.uniform(0.05, 0.95) * (np.pi / 2) / max(operator_norm(a), 1e-12))
        r = operator_norm(a)
        bound = r / math.sin(r)
        calc = core.Eigenframe(a)
        worst = 0.0
        for _ in range(100):
            b = core.random_skew(m4, rng)
            nb = operator_norm(b)
            if nb < 1e-12:
                continue
            worst = max(worst, operator_norm(calc.apply(lambda x: 1.0 / core._sym_F(x), b)) / nb)
        assert worst <= bound + 1e-9


# ---------------------------------------------------------------------------
# the exponential differential
# ---------------------------------------------------------------------------


def _exp_diff_van_loan(a, b):
    # independent oracle: int_0^1 e^{(1-t)a} b e^{ta} dt is the upper right
    # block of the exponential of [[a, b], [0, a]] (Van Loan 1978)
    n = len(a)
    return scipy.linalg.expm(np.block([[a, b], [np.zeros_like(a), a]]))[:n, n:]


def test_exp_differential_at_zero(rng, m3):
    b = core.random_skew(m3, rng)
    assert operator_norm(exp_differential(np.zeros((3, 3), complex), b) - b) < 1e-13


def test_exp_differential_matches_quadrature(rng, m4):
    for _ in range(10):
        a = core.random_skew(m4, rng)
        a = a * (rng.uniform(0.0, 2.0) / max(operator_norm(a), 1e-12))
        b = core.random_skew(m4, rng)
        b = b * (rng.uniform(0.0, 2.0) / max(operator_norm(b), 1e-12))
        assert operator_norm(exp_differential(a, b) - _exp_diff_van_loan(a, b)) < 1e-12


def test_exp_differential_quadrature_corner():
    # pinned at ||a|| = ||b|| = 2, the corner of the sampled box
    gen = np.random.default_rng(1)
    alg = ALGS["m4"]
    a = core.random_skew(alg, gen)
    a = a * (2.0 / operator_norm(a))
    b = core.random_skew(alg, gen)
    b = b * (2.0 / operator_norm(b))
    assert operator_norm(exp_differential(a, b) - _exp_diff_van_loan(a, b)) < 1e-12


@pytest.mark.parametrize("seed", [4004, 8007])
def test_suite_exp_differential_record_has_no_false_violation(seed):
    # at these report seeds one trial draws ||a|| and ||b|| near 1.3 in M_2,
    # where a 64-panel Simpson reference alone errs by 1.2e-8 to 1.4e-8
    # against the tolerance 1e-8, while exp_differential is exact to 1e-15
    rep = run_verification_suite(SuiteConfig(seed=seed, trials=1, suites=("core",)))
    (rec,) = [r for r in rep.records if r.anchor == "exponential-differential"]
    assert rec.violations == 0


def test_exp_differential_is_contraction(rng):
    for alg in ALGS.values():
        for _ in range(25):
            a = core.random_skew(alg, rng, 1.5)
            b = core.random_skew(alg, rng)
            for p in (1, 2, 4, np.inf):
                assert p_norm(exp_differential(a, b), p, alg) <= p_norm(b, p, alg) + 1e-11


def test_exp_differential_finite_difference_order(rng, m3):
    # (e^{a+hb} - e^a)/h converges at rate O(h)
    for _ in range(5):
        a = core.random_skew(m3, rng)
        b = core.random_skew(m3, rng)
        d = exp_differential(a, b)
        errs = []
        for h in (1e-4, 5e-5, 2.5e-5):
            fd = (scipy.linalg.expm(a + h * b) - scipy.linalg.expm(a)) / h
            errs.append(operator_norm(fd - d))
        assert errs[1] <= 0.6 * errs[0] + 1e-12
        assert errs[2] <= 0.6 * errs[1] + 1e-12


# ---------------------------------------------------------------------------
# spectral scale and s-numbers
# ---------------------------------------------------------------------------


def test_spectral_scale_of_identity():
    for alg in ALGS.values():
        lam = spectral_scale(alg.identity(), alg)
        ts = np.linspace(0.01, 1.0, 17)
        assert np.allclose(lam(ts), 1.0)


def test_spectral_scale_integral_identity(rng):
    for alg in ALGS.values():
        for _ in range(20):
            x = core.random_hermitian(alg, rng)
            lam = spectral_scale(x, alg)
            assert lam.integrate() == pytest.approx(trace_tau(x, alg).real, abs=1e-10)
            assert lam.integrate(lambda v: v**2) == pytest.approx(
                trace_tau(x @ x, alg).real, abs=1e-10
            )
            for p in (3, 4):
                assert lam.integrate(lambda v: np.abs(v) ** p) == pytest.approx(
                    p_norm(x, p, alg) ** p, abs=1e-10
                )


def test_spectral_scale_is_nonincreasing(rng, m2_plus_m3):
    for _ in range(10):
        x = core.random_hermitian(m2_plus_m3, rng)
        assert np.all(np.diff(spectral_scale(x, m2_plus_m3).values) <= 0.0)


def test_spectral_scale_rejects_non_hermitian(m2):
    with pytest.raises(ValueError):
        spectral_scale(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), m2)


def test_s_numbers_match_scale_of_modulus(rng, m4):
    for _ in range(10):
        z = core.random_hermitian(m4, rng) + 1j * core.random_hermitian(m4, rng)
        mu = s_numbers(z, m4)
        mod = scipy.linalg.sqrtm(z.conj().T @ z)
        lam = spectral_scale((mod + mod.conj().T) / 2, m4)
        ts = np.linspace(0.013, 0.993, 29)
        assert np.allclose(mu(ts), lam(ts), atol=1e-9)


# ---------------------------------------------------------------------------
# folding
# ---------------------------------------------------------------------------


def test_fold_identity_inside_band(rng, m3):
    for _ in range(10):
        x = core.random_hermitian(m3, rng)
        x = x * (0.95 * np.pi / max(operator_norm(x), 1e-12))
        assert operator_norm(fold_symbol(x) - x) < 1e-12


def test_fold_example():
    z = np.diag([3 * np.pi / 2, 0.0]).astype(complex)
    out = fold_symbol(z)
    assert np.allclose(np.diagonal(out), [-np.pi / 2, 0.0], atol=1e-12)


def test_fold_preserves_exponential_and_shrinks(rng):
    for alg in ALGS.values():
        for _ in range(20):
            z = core.random_hermitian(alg, rng)
            z = z * (rng.uniform(1.2, 6.0) * np.pi / max(operator_norm(z), 1e-12))
            f = fold_symbol(z)
            assert operator_norm(f) <= np.pi + 1e-12
            assert operator_norm(unitary_exp(1j * f) - unitary_exp(1j * z)) < 1e-10
            for p in (2, 4):
                assert p_norm(f, p, alg) < p_norm(z, p, alg) - 1e-9
            # s-numbers dominate pointwise
            mu_f, mu_z = s_numbers(f, alg), s_numbers(z, alg)
            ts = np.linspace(0.017, 0.997, 41)
            assert np.all(mu_f(ts) <= mu_z(ts) + 1e-10)


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(min_value=-40.0, max_value=40.0))
def test_fold_scalar_semantics(lam):
    z = np.array([[lam]], dtype=complex)
    f = fold_symbol(z)[0, 0].real
    assert -np.pi - 1e-12 <= f <= np.pi + 1e-12
    assert abs(np.exp(1j * f) - np.exp(1j * lam)) < 1e-10
    assert abs(f) <= abs(lam) + 1e-12
    if -np.pi <= lam <= np.pi:
        assert f == pytest.approx(lam, abs=1e-12)


def test_fold_rejects_non_hermitian(m2):
    with pytest.raises(ValueError):
        fold_symbol(1j * np.eye(2))


# ---------------------------------------------------------------------------
# H-form
# ---------------------------------------------------------------------------


def test_h_form_p2_at_zero(rng, m3):
    b = core.random_skew(m3, rng)
    expected = 2.0 * p_norm(b, 2, m3) ** 2
    assert quadratic_form(np.zeros((3, 3), complex), b, 2, m3) == pytest.approx(expected, abs=1e-12)


def test_h_form_rejects_odd_p(rng, m2):
    with pytest.raises(ValueError):
        h_form(core.random_skew(m2, rng), core.random_skew(m2, rng), core.random_skew(m2, rng), 3, m2)


@pytest.mark.parametrize("p", [2, 4, 6])
def test_quadratic_form_nonnegative(p, rng):
    for alg in ALGS.values():
        for _ in range(100):
            a = core.random_skew(alg, rng)
            b = core.random_skew(alg, rng)
            assert quadratic_form(a, b, p, alg) >= -1e-10


@pytest.mark.parametrize("p", [2, 4, 6, 8])
def test_quadratic_form_decomposition(p, rng, m4):
    # Q_a(b) = p ||b a^{p/2-1}||_2^2 + (p/2) sum_{l+m=p/2-2} ||a^l(ab+ba)a^m||_2^2
    for _ in range(25):
        a = core.random_skew(m4, rng)
        b = core.random_skew(m4, rng)
        lhs = quadratic_form(a, b, p, m4)
        rhs = p * p_norm(b @ np.linalg.matrix_power(a, p // 2 - 1), 2, m4) ** 2
        anti = a @ b + b @ a
        for l in range(p // 2 - 1):
            m = p // 2 - 2 - l
            rhs += (p / 2.0) * p_norm(
                np.linalg.matrix_power(a, l) @ anti @ np.linalg.matrix_power(a, m), 2, m4
            ) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))


@pytest.mark.parametrize("p", [4, 6])
def test_commutator_bound(p, rng, m4):
    for _ in range(100):
        a = core.random_skew(m4, rng)
        b = core.random_skew(m4, rng)
        lhs = quadratic_form(a, b @ a - a @ b, p, m4)
        rhs = 4.0 * operator_norm(a) ** 2 * quadratic_form(a, b, p, m4)
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)


def test_h_form_symmetry_and_bilinearity(rng, m3):
    a = core.random_skew(m3, rng)
    b = core.random_skew(m3, rng)
    c = core.random_skew(m3, rng)
    d = core.random_skew(m3, rng)
    assert h_form(a, b, c, 4, m3) == pytest.approx(h_form(a, c, b, 4, m3), abs=1e-11)
    lhs = h_form(a, b + 2.5 * d, c, 4, m3)
    rhs = h_form(a, b, c, 4, m3) + 2.5 * h_form(a, d, c, 4, m3)
    assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------------------------------------------------------------------------
# the eigenframe layer against the power-sum formula
# ---------------------------------------------------------------------------

ORACLE_ALGS = {
    "m3": TracialAlgebra.full(3),
    "m5": TracialAlgebra.full(5),
    "m2xm2": TracialAlgebra.tensor_square(2),
    "m2+m3": TracialAlgebra.direct_sum((2, 3), (0.3, 0.7)),
}


def power_sum_h_form(a, b, c, p, alg):
    """Reference H_a(b, c) = (-1)^(p/2) p sum_k tau(a^{p-2-k} b a^k c) by explicit products."""
    total = sum(
        trace_tau(np.linalg.matrix_power(a, p - 2 - k) @ b @ np.linalg.matrix_power(a, k) @ c, alg)
        for k in range(p - 1)
    )
    return float(np.real((-1) ** (p // 2) * p * total))


def shared_eigenvalue_element(alg, rng):
    """Skew element of M2 (+) M3 whose two blocks share the eigenvalue 0.7i.

    A full-matrix eigendecomposition may mix the blocks' eigenvectors for
    the shared eigenvalue and so detach the trace weights (0.3/2 vs 0.7/3).
    """
    out = np.zeros((alg.dim, alg.dim), dtype=complex)
    for sl, lam in zip(alg.block_slices(), ([0.7, -0.4], [0.7, 0.2, -1.1])):
        q = core.random_unitary(TracialAlgebra.full(len(lam)), rng)
        out[sl, sl] = (q * (1j * np.array(lam))) @ q.conj().T
    return out


@pytest.mark.parametrize("p", [2, 4, 6, 8])
@pytest.mark.parametrize("name", sorted(ORACLE_ALGS))
def test_eigenframe_h_matrix_matches_power_sum_oracle(name, p, rng):
    alg = ORACLE_ALGS[name]
    for trial in range(3):
        if name == "m2+m3" and trial < 2:
            a = shared_eigenvalue_element(alg, rng)
        else:
            a = core.random_skew(alg, rng)
        stack = np.array([core.random_skew(alg, rng) for _ in range(5)])
        ref = np.array([[power_sum_h_form(a, b, c, p, alg) for c in stack] for b in stack])
        frame = core.Eigenframe(a, alg)
        bt = frame.transform(stack)
        hess = frame.h_matrix(bt, bt, p)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(hess - ref)) <= 1e-12 * scale
        assert np.max(np.abs(hess - hess.T)) <= 1e-12 * scale
        assert np.min(np.linalg.eigvalsh((hess + hess.T) / 2.0)) >= -1e-12 * scale
        assert h_form(a, stack[0], stack[1], p, alg) == pytest.approx(ref[0, 1], abs=1e-12 * scale)
        # the frame stays block diagonal, so the weights stay attached
        for i, si in enumerate(alg.block_slices()):
            for j, sj in enumerate(alg.block_slices()):
                if i != j:
                    assert not frame.frame[si, sj].any()


def test_eigenframe_reconstructs_and_h_form_rejects_bad_input(rng, m2_plus_m3):
    a = shared_eigenvalue_element(m2_plus_m3, rng)
    frame = core.Eigenframe(a, m2_plus_m3)
    rebuilt = (frame.frame * (1j * frame.lam)) @ frame.frame.conj().T
    assert operator_norm(rebuilt - a) < 1e-13
    assert np.sum(np.isclose(frame.lam, 0.7, atol=1e-12)) == 2
    b = core.random_skew(m2_plus_m3, rng)
    with pytest.raises(ValueError):
        h_form(core.random_hermitian(m2_plus_m3, rng), b, b, 4, m2_plus_m3)
    off = a.copy()
    off[0, 4], off[4, 0] = 0.3, -0.3
    with pytest.raises(ValueError):
        h_form(off, b, b, 4, m2_plus_m3)


# ---------------------------------------------------------------------------
# predicates and algebra structure
# ---------------------------------------------------------------------------


def test_predicates(rng, m4):
    h = core.random_hermitian(m4, rng)
    assert core.is_hermitian(h)
    assert core.is_skew_hermitian(1j * h)
    assert core.is_unitary(core.random_unitary(m4, rng))
    assert not core.is_unitary(2.0 * np.eye(4, dtype=complex))


def test_in_algebra_respects_blocks(rng, m2_plus_m3):
    x = core.random_hermitian(m2_plus_m3, rng)
    assert core.in_algebra(x, m2_plus_m3)
    y = x.copy()
    y[0, 4] = 0.3
    assert not core.in_algebra(y, m2_plus_m3)


def test_algebra_validation():
    with pytest.raises(ValueError):
        TracialAlgebra((2, 2), (0.5, 0.6))
    with pytest.raises(ValueError):
        TracialAlgebra((2,), (-1.0,))
    with pytest.raises(ValueError):
        TracialAlgebra((3,), (1.0,), tensor_m2=True)


def test_tensor_square_trace_matches_mean_of_inner_traces(rng, m2_tensor):
    x = core.random_hermitian(m2_tensor, rng)
    inner = TracialAlgebra.full(2)
    expected = 0.5 * (trace_tau(x[:2, :2], inner) + trace_tau(x[2:, 2:], inner))
    assert trace_tau(x, m2_tensor) == pytest.approx(expected, abs=1e-13)
