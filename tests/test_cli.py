"""Command-line surface: compute commands, exit codes, report determinism."""

import ast
import itertools
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import ncgeo
from ncgeo import core, geometry, suites
from ncgeo.cli import main
from ncgeo.core import TracialAlgebra
from ncgeo.geometry import exp_curve
from ncgeo.models import build_model_space
from ncgeo.projection import ConvergenceError
from ncgeo.rng import trial_stream
from ncgeo.serialization import canonical_dumps, curve_to_json, matrix_from_json, matrix_to_json, modelspec_from_json
from ncgeo.suites import _run_trials


def _write(path, obj):
    path.write_text(canonical_dumps(obj))
    return str(path)


@pytest.fixture
def files(tmp_path):
    return tmp_path


def test_distance_one_to_minus_one(files, capsys):
    one = _write(files / "u.json", matrix_to_json(np.eye(2)))
    minus = _write(files / "v.json", matrix_to_json(-np.eye(2)))
    assert main(["distance", "--u", one, "--v", minus, "--p", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["d_p"] == pytest.approx(np.pi, abs=1e-12)


def test_distance_at_infinite_and_large_p(files, capsys, rng, m4):
    # p = inf prints the operator norm of log(u* v); p = 2000 and 1e6, where
    # the trace polynomial would overflow, print finite distances between
    # d_64 and d_inf
    u, v = core.random_unitary(m4, rng), core.random_unitary(m4, rng)
    argv = ["distance", "--u", _write(files / "u.json", matrix_to_json(u)),
            "--v", _write(files / "v.json", matrix_to_json(v)), "--p"]
    printed = {}
    for p in ("inf", "64", "2000", "1e6"):
        assert main(argv + [p]) == 0
        printed[p] = json.loads(capsys.readouterr().out)
    assert printed["inf"] == {"d_p": core.operator_norm(core.principal_log(u.conj().T @ v)), "p": "inf"}
    for p in ("2000", "1e6"):
        assert math.isfinite(printed[p]["d_p"]) and printed[p]["p"] == float(p)
        assert printed["64"]["d_p"] <= printed[p]["d_p"] <= printed["inf"]["d_p"] * (1.0 + 1e-14)


def test_project_onto_zero_subspace_returns_input(files, capsys, rng, m3):
    z = core.random_skew(m3, rng)
    zp = _write(files / "z.json", matrix_to_json(z))
    sub = _write(
        files / "g.json",
        {"ambient": {"blocks": [3], "weights": [1.0], "tensor_m2": False}, "kind": "basis", "basis": []},
    )
    assert main(["project", "--z", zp, "--subspace", sub, "--p", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    resid = np.array(out["residual"]["re"]) + 1j * np.array(out["residual"]["im"])
    assert np.allclose(resid, z, atol=1e-14)
    assert out["optimality_residual"] == 0.0


def test_project_at_infinity_prints_the_bracket_and_its_witness(files, capsys, rng):
    # both ends of the certified bracket; the witness y attains the upper end
    spec = {"kind": "special-diag-m2", "blocks": [2], "p_list": [2, 4]}
    space = _write(files / "s.json", spec)
    z = core.random_skew(build_model_space(modelspec_from_json(spec)).ambient, rng)
    assert main(["project", "--z", _write(files / "z.json", matrix_to_json(z)), "--space", space, "--p", "inf"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["p"] == "inf" and out["certificate"] == "bracket"
    assert 0.0 < out["quotient_norm_lower"] <= out["quotient_norm"]
    witness = matrix_from_json(out["witness"])
    assert core.operator_norm(z - witness) == pytest.approx(out["quotient_norm"], abs=1e-12)


def test_project_rejects_a_non_skew_or_off_block_z_at_every_p(files, capsys, rng):
    # p = inf used to print a number for both inputs and exit 0
    diag = _write(files / "d.json", {"kind": "diag-m2", "blocks": [2], "p_list": [2, 4]})
    center = _write(files / "c.json", {"kind": "center-quotient", "blocks": [2, 2], "p_list": [2, 4]})
    alg = TracialAlgebra.direct_sum((2, 2))
    off_block = core.random_skew(alg, rng)
    off_block[0, 3], off_block[3, 0] = 0.5, -0.5
    cases = [
        (diag, core.random_hermitian(TracialAlgebra.full(4), rng), "a skew-Hermitian input"),
        (center, off_block, "an element of the algebra (no off-block entries)"),
    ]
    for space, z, what in cases:
        zp = _write(files / "z.json", matrix_to_json(z))
        for p in ("inf", "4"):
            capsys.readouterr()
            assert main(["project", "--z", zp, "--space", space, "--p", p]) == 2, (what, p)
            captured = capsys.readouterr()
            assert captured.out == "" and "Traceback" not in captured.err
            assert captured.err == f"ncgeo: best_approximant requires {what}\n"


def test_fold_command(files, capsys):
    z = _write(files / "z.json", matrix_to_json(np.diag([3 * np.pi / 2, 0.0])))
    assert main(["fold", "--z", z]) == 0
    out = json.loads(capsys.readouterr().out)
    diag = np.diag(np.array(out["folded"]["re"]))
    assert np.allclose(diag, [-np.pi / 2, 0.0], atol=1e-12)


def test_qdistance_and_geodesic_commands(files, capsys, rng):
    space = _write(files / "s.json", {"kind": "diag-m2", "blocks": [2], "p_list": [2, 4]})
    alg = TracialAlgebra.full(4)
    u = _write(files / "u.json", matrix_to_json(np.eye(4)))
    z = core.random_skew(alg, rng, 0.3)
    z[:2, :2] = 0
    z[2:, 2:] = 0
    target = _write(files / "t.json", matrix_to_json(core.unitary_exp(z)))
    assert main(["qdistance", "--space", space, "--u", u, "--v", target, "--p", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["qd_p"] == pytest.approx(core.p_norm(z, 4, alg), abs=1e-6)
    assert main(["geodesic", "--space", space, "--target", target, "--p", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["length_p"] == pytest.approx(core.p_norm(z, 4, alg), abs=1e-6)
    assert out["minimality_certificate"] < 1e-8
    assert out["constants"] == "exact"


@pytest.mark.parametrize("kind, n", [("special-diag-m2", 4), ("partial-isometry-orbit", 3)])
def test_geodesic_labels_estimated_constants(kind, n, files, capsys, rng):
    # radius and epsilon_band rest on sampled c_O or K_p for these kinds
    space = _write(files / "s.json", {"kind": kind, "blocks": [n if n % 2 else n // 2], "p_list": [4]})
    z = core.random_skew(TracialAlgebra.full(n), rng, 0.05)
    target = _write(files / "t.json", matrix_to_json(core.unitary_exp(z)))
    assert main(["geodesic", "--space", space, "--target", target, "--p", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["constants"] == "estimated"
    assert out["minimality_certificate"] < 1e-8


def test_geodesic_at_p_six_estimates_its_bound_on_first_use(files, capsys, rng):
    # a modelspec names no exponents: K_6 is sampled when the radius asks for it
    spec = {"kind": "special-diag-m2", "blocks": [2]}
    space = _write(files / "s.json", spec)
    z = core.random_skew(TracialAlgebra.full(4), rng, 0.05)
    target = _write(files / "t.json", matrix_to_json(core.unitary_exp(z)))
    assert main(["geodesic", "--space", space, "--target", target, "--p", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    built = build_model_space(modelspec_from_json(spec))
    assert (out["radius"], out["epsilon_band"]) == (built.radius(6), built.epsilon_band(6))
    assert out["constants"] == "estimated"
    assert out["minimality_certificate"] < 1e-8


def test_lift_command(files, capsys, rng):
    space = _write(files / "s.json", {"kind": "diag-m2", "blocks": [2], "p_list": [2, 4]})
    alg = TracialAlgebra.full(4)
    z = core.random_skew(alg, rng, 0.3)
    curve = _write(files / "c.json", curve_to_json(exp_curve(z, 33)))
    assert main(["lift", "--space", space, "--curve", curve, "--p", "4", "--epsilon", "1e-2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["length_p"] < out["quotient_length_p"] + 1e-2 + 1e-5
    assert out["ode_defect"] < 1e-6


def test_lift_non_convergence_exits_three(files, capsys, rng, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ConvergenceError("lifting ODE defect 1.000e-03 above 1.0e-06 after 6 refinements")

    monkeypatch.setattr("ncgeo.cli.epsilon_isometric_lift", no_convergence)
    space = _write(files / "s.json", {"kind": "diag-m2", "blocks": [2], "p_list": [2, 4]})
    z = core.random_skew(TracialAlgebra.full(4), rng, 0.3)
    curve = _write(files / "c.json", curve_to_json(exp_curve(z, 33)))
    assert main(["lift", "--space", space, "--curve", curve, "--p", "4", "--epsilon", "1e-2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert "lifting ODE defect" in captured.err


def test_overflowing_projection_exits_three(files, rng, m3):
    # ||z|| = 1e60 overflows w^7 at p = 8: one line on stderr, no warnings
    basis = [matrix_to_json(core.random_skew(m3, rng)) for _ in range(3)]
    sub = _write(files / "g.json", {"ambient": {"blocks": [3], "weights": [1.0], "tensor_m2": False},
                                    "kind": "basis", "basis": basis})
    z = _write(files / "z.json", matrix_to_json(1e60 * core.random_skew(m3, rng)))
    src = str(Path(ncgeo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "ncgeo", "project", "--z", z, "--subspace", sub, "--p", "8"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr.splitlines() == ["ncgeo: no convergence: best approximant certificate nan above tol "
                                       "1.0e-10 after 0 line-search trials"]


def test_project_ignores_the_m2_flag_of_older_subspaces(files, capsys, rng):
    # a subspace document prints the same bytes with the old tensor_m2 key
    # as without it, also on an odd block, where the key was refused
    for n, flag in ((4, True), (4, False), (3, True)):
        alg = TracialAlgebra.full(n)
        z = _write(files / "z.json", matrix_to_json(core.random_skew(alg, rng)))
        doc = {"ambient": {"blocks": [n], "weights": [1.0]}, "basis": [matrix_to_json(core.random_skew(alg, rng))]}
        printed = []
        for ambient in (doc["ambient"], {**doc["ambient"], "tensor_m2": flag}):
            sub = _write(files / "g.json", {**doc, "ambient": ambient})
            assert main(["project", "--z", z, "--subspace", sub, "--p", "4"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]


def _diag_m2_inputs(files, rng):
    """A diag-m2 (2,) space, the identity, a target and a curve on it."""
    space = _write(files / "s.json", {"kind": "diag-m2", "blocks": [2], "p_list": [2, 4]})
    z = core.random_skew(TracialAlgebra.full(4), rng, 0.3)
    eye = _write(files / "u.json", matrix_to_json(np.eye(4)))
    target = _write(files / "t.json", matrix_to_json(core.unitary_exp(z)))
    curve = _write(files / "c.json", curve_to_json(exp_curve(z, 33)))
    return {
        "qdistance": ["qdistance", "--space", space, "--u", eye, "--v", target],
        "geodesic": ["geodesic", "--space", space, "--target", target],
        "lift": ["lift", "--space", space, "--curve", curve, "--epsilon", "1e-2"],
    }


@pytest.mark.parametrize("command", ["qdistance", "geodesic", "lift"])
def test_p_must_be_an_even_integer(command, files, capsys, rng):
    # neither truncated (4.5 ran as 4) nor a traceback (inf overflowed int())
    argv = _diag_m2_inputs(files, rng)[command]
    for p in ("inf", "4.5"):
        capsys.readouterr()
        assert main(argv + ["--p", p]) == 2, p
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err == f"ncgeo: an even integer p >= 2 is required (got {p})\n"
    assert main(argv + ["--p", "4.0"]) == 0
    assert json.loads(capsys.readouterr().out)


def test_bad_numeric_arguments_are_named(files, capsys, rng):
    # a NaN tol used to print the uncertified start as the projection, a NaN
    # epsilon failed only when the result was written, a negative seed
    # surfaced numpy's message, a tol at p = inf and multistarts below 1
    # were silently accepted, and a NaN p gave a nan distance that only the
    # JSON encoder refused, naming no input
    argv = _diag_m2_inputs(files, rng)
    z = _write(files / "z.json", matrix_to_json(core.random_skew(TracialAlgebra.full(4), rng)))
    project = ["project", "--z", z, "--space", argv["qdistance"][2], "--p", "4", "--tol"]
    cases = [(project + [tol], "tol") for tol in ("nan", "inf", "0")]
    cases += [(project[:-2] + ["inf", "--tol", "-1"], "argument --tol: expected a positive finite number")]
    cases += [(argv["lift"][:-1] + [eps, "--p", "4"], "epsilon") for eps in ("nan", "inf")]
    cases += [(argv[command] + ["--p", "4", "--seed", "-1"], "--seed") for command in ("qdistance", "geodesic")]
    cases += [(argv[command] + ["--p", "4", "--multistarts", count], f"multistarts must be at least 1 (got {count})")
              for command, count in (("qdistance", "-3"), ("geodesic", "0"))]
    eye = argv["qdistance"][4]
    cases += [(["distance", "--u", eye, "--v", eye, "--p", "nan"], "p_norm requires p >= 1 (got p = nan)")]
    for args, name in cases:
        capsys.readouterr()
        assert main(args) == 2, args
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert name in captured.err, captured.err


def test_matrix_sizes_are_checked(files, capsys):
    space = _write(files / "s.json", {"kind": "diag-m2", "blocks": [2], "p_list": [2, 4]})
    eye2 = _write(files / "eye2.json", matrix_to_json(np.eye(2)))
    eye4 = _write(files / "eye4.json", matrix_to_json(np.eye(4)))
    cases = [
        (["qdistance", "--space", space, "--u", eye2, "--v", eye4, "--p", "4"], eye2, 4, 2),
        (["qdistance", "--space", space, "--u", eye4, "--v", eye2, "--p", "4"], eye2, 4, 2),
        (["geodesic", "--space", space, "--target", eye2, "--p", "4"], eye2, 4, 2),
        (["project", "--z", eye2, "--space", space, "--p", "4"], eye2, 4, 2),
        (["distance", "--u", eye2, "--v", eye4, "--p", "2"], eye4, 2, 4),
    ]
    for argv, path, n, got in cases:
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"ncgeo: {path}: expected a {n}x{n} matrix, got {got}x{got}\n"


def test_usage_errors(files, capsys):
    bad = _write(files / "bad.json", {"n": 2, "re": [[0.0, 0.0]], "im": [[0.0, 0.0]]})
    good = _write(files / "good.json", matrix_to_json(np.eye(2)))
    assert main(["distance", "--u", bad, "--v", good, "--p", "2"]) == 2
    assert "re/im" in capsys.readouterr().err
    # non-unitary input surfaces the precondition by name
    herm = _write(files / "h.json", matrix_to_json(np.diag([2.0, 1.0])))
    assert main(["distance", "--u", herm, "--v", good, "--p", "2"]) == 2
    assert "unitary" in capsys.readouterr().err
    assert main(["distance", "--u", good, "--v", good]) == 2  # missing --p
    assert main(["nonsense"]) == 2
    assert main(["distance", "--u", str(files / "missing.json"), "--v", good, "--p", "2"]) == 2


def test_verify_config_rejections(files, capsys):
    cfg = _write(files / "cfg.json", {"trials": 0})
    assert main(["verify", "--config", cfg]) == 2
    cfg = _write(files / "cfg2.json", {"tolerances": {"clarkson": -1.0}})
    assert main(["verify", "--config", cfg]) == 2
    cfg = _write(files / "cfg3.json", {"bogus": 1})
    assert main(["verify", "--config", cfg]) == 2
    # wrong types exit 2 with one line naming the offending path
    cases = [
        ({"p_list": ["inf"]}, "config.p_list[0]"),
        # JSON's non-standard Infinity is refused before any trial runs
        ('{"p_list": [2, Infinity]}', "config.p_list[1]"),
        ({"seed": None}, "config.seed"),
        ({"tolerances": {"clarkson": "x"}}, "config.tolerances.clarkson"),
        ({"dims": [2.5]}, "config.dims[0]"),
        ({"dims": [2, True]}, "config.dims[1]"),
        ({"trials": False}, "config.trials"),
        ({"suites": "core"}, "config.suites"),
    ]
    for k, (obj, path) in enumerate(cases):
        capsys.readouterr()
        cfg = files / f"bad{k}.json"
        if isinstance(obj, str):
            cfg.write_text(obj)
        else:
            _write(cfg, obj)
        assert main(["verify", "--config", str(cfg)]) == 2, obj
        err = capsys.readouterr().err
        assert err.startswith(f"ncgeo: {path}: expected") and err.count("\n") == 1, err


def test_huge_p_is_refused_without_a_traceback(files, capsys, rng, m3):
    # 1e308 parses to a 309-digit int, which np.isinf refused with a
    # TypeError (exit 1, the code for violations); even p above
    # core.MAX_EVEN_P and p_list entries above it are refused by name
    u = _write(files / "u.json", matrix_to_json(core.random_unitary(m3, rng)))
    z = _write(files / "z.json", matrix_to_json(core.random_skew(m3, rng)))
    sub = _write(files / "s.json", {"ambient": {"blocks": [3], "weights": [1.0]}, "basis": []})
    commands = [
        ["distance", "--u", u, "--v", u, "--p", "1e308"],
        ["project", "--z", z, "--subspace", sub, "--p", "1e308"],
        ["project", "--z", z, "--subspace", sub, "--p", "66"],
        ["verify", "--config", _write(files / "cfg.json", {"p_list": [2, 1e308]})],
        ["verify", "--config", _write(files / "cfg2.json", {"p_list": [1e6]})],
    ]
    for argv in commands:
        capsys.readouterr()
        assert main(argv) in (0, 2), argv
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") <= 1, err
    assert main(commands[2]) == 2
    assert capsys.readouterr().err == "ncgeo: even p above 64 is not supported (got 66)\n"
    assert main(commands[4]) == 2
    assert capsys.readouterr().err == "ncgeo: config.p_list[0]: expected a number <= 64, got 1000000.0\n"
    assert main(commands[3]) == 2
    assert capsys.readouterr().err.startswith("ncgeo: config.p_list[1]: expected a number <= 64")
    assert main(["project", "--z", z, "--subspace", sub, "--p", "64"]) == 0


def test_document_rejections(files, capsys):
    # a document of the wrong JSON type exits 2 with one line naming the
    # offending path once ("{}" in a command stands for the document)
    eye2 = _write(files / "eye2.json", matrix_to_json(np.eye(2)))
    eye4 = _write(files / "eye4.json", matrix_to_json(np.eye(4)))
    z3 = _write(files / "z3.json", matrix_to_json(np.zeros((3, 3))))
    m3 = {"blocks": [3], "weights": [1.0], "tensor_m2": False}
    distance = ["distance", "--u", eye2, "--v", eye2, "--p", "2", "--algebra", "{}"]
    geodesic = ["geodesic", "--space", "{}", "--target", eye4, "--p", "4"]
    e4, v3 = matrix_to_json(np.diag([1.0, 0, 1, 0])), matrix_to_json(np.eye(3, k=-1))
    cases = [
        ({"blocks": 3, "weights": [1.0]}, distance, ".blocks"),
        ({"blocks": "ab", "weights": [1.0]}, distance, ".blocks"),
        ({"ambient": m3, "basis": 5}, ["project", "--z", z3, "--subspace", "{}", "--p", "4"], ".basis"),
        ({"n": 2, "re": "ab", "im": [[0, 0], [0, 0]]}, ["distance", "--u", "{}", "--v", eye2, "--p", "2"], ".re"),
        ({"n": 2, "re": [[1, 0], [0, "ab"]], "im": [[0, 0], [0, 0]]}, ["fold", "--z", "{}"], ".re[1][1]"),
        ({"n": "2", "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}, ["fold", "--z", "{}"], ".n"),
        ({"kind": "diag-m2", "blocks": 3}, geodesic, ".blocks"),
        ({"kind": "diag-m2", "blocks": "ab"}, geodesic, ".blocks"),
        ({"kind": "diag-m2", "blocks": [2, 3]}, geodesic, ": blocks"),
        ({"kind": "projection-orbit", "blocks": [3], "e": e4}, geodesic, ": blocks"),
        ({"kind": "partial-isometry-orbit", "blocks": [5], "v0": v3}, geodesic, ": blocks"),
        ({"kind": ["diag-m2"], "blocks": [2]}, geodesic, ".kind"),
        ({"kind": "diag-m2", "blocks": [2], "e": {"n": 1, "re": [[1]], "im": [[None]]}}, geodesic, ".e.im[0][0]"),
    ]
    for k, (doc, argv, suffix) in enumerate(cases):
        path = _write(files / f"doc{k}.json", doc)
        capsys.readouterr()
        assert main([path if a == "{}" else a for a in argv]) == 2, doc
        err = capsys.readouterr().err
        assert err.startswith(f"ncgeo: {path}{suffix}: expected"), err
        assert err.count(path) == 1 and err.count("\n") == 1, err


def test_verify_runs_and_is_deterministic(files, capsys, monkeypatch):
    cfg = _write(
        files / "cfg.json",
        {"seed": 7, "dims": [2], "p_list": [2], "trials": 3, "suites": ["core", "projection"]},
    )
    r1 = files / "r1.json"
    r2 = files / "r2.json"
    assert main(["verify", "--config", cfg, "--report", str(r1)]) == 0
    # a different worker-pool size must not change a single byte
    monkeypatch.setenv("NCGEO_THREADS", "4")
    assert main(["verify", "--config", cfg, "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    rep = json.loads(r1.read_text())
    assert rep["passed"] is True
    assert rep["violations"] == 0
    assert all("runtime_s" not in r for r in rep["records"])


def test_verify_at_p_one_writes_its_report(files, capsys):
    # Clarkson's inequalities need 1 < p < inf: p = 1 drops out of their
    # record instead of dividing by p - 1
    cfg = _write(files / "cfg.json", {"p_list": [1], "trials": 1})
    report = files / "r.json"
    assert main(["verify", "--config", cfg, "--report", str(report)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rep = json.loads(report.read_text())
    assert rep["passed"] is True
    (rec,) = [r for r in rep["records"] if r["anchor"] == "clarkson-inequalities"]
    assert rec["trials"] == 2 * len(suites.SuiteConfig().dims)


def test_verify_reaches_a_report_at_p_six_and_eight(files, capsys):
    # the default spaces estimate K_p at whatever even p the config asks
    # for; a violation at p = 8 is a finding (exit 1), not a crash
    cfg6 = _write(files / "cfg6.json", {"p_list": [6], "trials": 1})
    r1, r2, r8 = files / "r1.json", files / "r2.json", files / "r8.json"
    assert main(["verify", "--config", cfg6, "--report", str(r1)]) == 0
    assert main(["verify", "--config", cfg6, "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    cfg8 = _write(files / "cfg8.json", {"p_list": [8], "trials": 1})
    assert main(["verify", "--config", cfg8, "--report", str(r8)]) in (0, 1)
    assert json.loads(r8.read_text())["records"]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["abc", "0"])
def test_verify_rejects_bad_thread_count(threads, files, capsys, monkeypatch):
    cfg = _write(files / "cfg.json", {"seed": 7, "dims": [2], "p_list": [2], "trials": 1, "suites": ["core"]})
    monkeypatch.setenv("NCGEO_THREADS", threads)
    assert main(["verify", "--config", cfg, "--report", str(files / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "NCGEO_THREADS" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not (files / "r.json").exists()


def test_verify_exit_one_on_violation(files, monkeypatch):
    # an absurdly tight tolerance forces a recorded violation
    cfg = _write(
        files / "cfg.json",
        {
            "seed": 7,
            "dims": [2],
            "p_list": [2],
            "trials": 3,
            "suites": ["core"],
            "tolerances": {"roundtrip": 1e-300},
        },
    )
    assert main(["verify", "--config", cfg, "--report", str(files / "r.json")]) == 1


@pytest.mark.parametrize("margins, bad", [((1.0, math.nan, -0.5), 2), ((math.nan, 1.0, 2.0), 1)])
def test_nan_margin_is_a_violation_in_any_order(margins, bad):
    for order in itertools.permutations(margins):
        violations, worst = _run_trials(7, "nan-margins", len(order), lambda k, rng: order[k])
        assert violations == bad, order
        assert math.isnan(worst), order


def test_run_trials_runs_in_order_in_the_calling_thread(monkeypatch):
    monkeypatch.setenv("NCGEO_THREADS", "2")
    calls = []

    def fn(k, rng):
        calls.append((k, threading.get_ident(), rng.random()))
        return 1.0

    assert _run_trials(7, "in-order", 6, fn) == (0, 1.0)
    assert [k for k, _, _ in calls] == list(range(6))
    assert {ident for _, ident, _ in calls} == {threading.get_ident()}
    assert [draw for _, _, draw in calls] == [trial_stream(7, "in-order", k).random() for k in range(6)]


def test_suites_start_no_threads():
    # the trials hold the interpreter lock, so a thread pool only slows them
    tree = ast.parse(Path(suites.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        for name in modules:
            assert name.split(".")[0] not in ("concurrent", "threading"), f"suites.py:{node.lineno} imports {name}"


def test_coset_vs_curve_trial_runs_one_coset_solve(monkeypatch):
    # the distance and the geodesic of the pair (1, v) share one lockstep
    # solve; counting geometry's own entry point also catches a solve hidden
    # inside minimal_geodesic or quotient_distance
    label = "geometry:coset-vs-curve-infimum"
    _, trial = suites.RECORDS[label]
    cfg = suites.SuiteConfig(seed=1000, trials=1, suites=("geometry",))
    calls = []
    solve = geometry.quotient_distances

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(suites, "quotient_distances", counted)
    monkeypatch.setattr(geometry, "quotient_distances", counted)
    for k in range(2):
        calls.clear()
        assert trial(cfg, k, trial_stream(cfg.seed, label, k)) >= 0.0
        assert calls == [2]


def test_verify_nan_margin_writes_report_and_exits_one(files, capsys, monkeypatch):
    cfg = _write(files / "cfg.json", {"seed": 7, "dims": [2], "p_list": [2], "trials": 1, "suites": ["core"]})
    monkeypatch.setattr("ncgeo.suites._clarkson_margin", lambda *args: math.nan)
    report = files / "r.json"
    assert main(["verify", "--config", cfg, "--report", str(report)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    rep = json.loads(report.read_text())
    (rec,) = [r for r in rep["records"] if r["anchor"] == "clarkson-inequalities"]
    assert rec["worst_margin"] is None
    assert rec["violations"] == rec["trials"]
    assert rep["passed"] is False


def test_verify_trial_that_raises_exits_three_and_names_its_key(files, capsys, monkeypatch):
    # the config is valid, so a ValueError inside a trial is a numerical
    # fault (exit 3), not a usage error (exit 2); the message names the
    # (seed, label, trial) key that replays it
    label = "core:clarkson-inequalities"

    def trial(cfg, k, rng):
        if k == 1:
            raise ValueError("basis elements must be skew-Hermitian")
        return 1.0

    monkeypatch.setitem(suites.RECORDS, label, (lambda cfg: 3, trial))
    cfg = _write(files / "cfg.json", {"seed": 7, "dims": [2], "p_list": [2], "trials": 1, "suites": ["core"]})
    assert main(["verify", "--config", cfg]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"ncgeo: no convergence: {label} trial 1 (seed 7): basis elements must be skew-Hermitian\n"


def test_python_dash_m_runs_the_cli():
    src = str(Path(ncgeo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-m", "ncgeo", "--help"], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert "verify" in out.stdout


def test_import_loads_no_scipy_submodule():
    # the Simpson rule and the exp-differential record's oracle are numpy's,
    # and the report's environment stamp names no scipy: no scipy module loads
    src = str(Path(ncgeo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ncgeo, ncgeo.cli"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0
    modules = {line.split("|")[-1].strip() for line in out.stderr.splitlines() if line.startswith("import time:")}
    assert "ncgeo.cli" in modules
    assert not [m for m in modules if m.split(".")[0] == "scipy"]


def test_core_suite_loads_no_scipy_linalg():
    # the exp-differential record's expm oracle is a numpy Taylor series, so a
    # verification run of the core suite never loads scipy.linalg
    src = str(Path(ncgeo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; from ncgeo import suites; "
            "rep = suites.run_verification_suite(suites.SuiteConfig(trials=1, suites=('core',))); "
            "print(len(rep.records), 'scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    n, loaded = out.stdout.split()
    assert int(n) > 0 and loaded == "False"
