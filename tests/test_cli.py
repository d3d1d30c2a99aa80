"""Command-line surface: compute commands, exit codes, report determinism."""

import json

import numpy as np
import pytest

from ncgeo import core
from ncgeo.cli import main
from ncgeo.core import TracialAlgebra
from ncgeo.geometry import exp_curve
from ncgeo.projection import ConvergenceError
from ncgeo.serialization import canonical_dumps, curve_to_json, matrix_to_json


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


def test_fold_command(files, capsys):
    z = _write(files / "z.json", matrix_to_json(np.diag([3 * np.pi / 2, 0.0])))
    assert main(["fold", "--z", z]) == 0
    out = json.loads(capsys.readouterr().out)
    diag = np.diag(np.array(out["folded"]["re"]))
    assert np.allclose(diag, [-np.pi / 2, 0.0], atol=1e-12)


def test_qdistance_and_geodesic_commands(files, capsys, rng):
    space = _write(files / "s.json", {"kind": "diag-m2", "blocks": [2], "p_list": [2, 4]})
    alg = TracialAlgebra.tensor_square(2)
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


def test_lift_command(files, capsys, rng):
    space = _write(files / "s.json", {"kind": "diag-m2", "blocks": [2], "p_list": [2, 4]})
    alg = TracialAlgebra.tensor_square(2)
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
    z = core.random_skew(TracialAlgebra.tensor_square(2), rng, 0.3)
    curve = _write(files / "c.json", curve_to_json(exp_curve(z, 33)))
    assert main(["lift", "--space", space, "--curve", curve, "--p", "4", "--epsilon", "1e-2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert "lifting ODE defect" in captured.err


def _diag_m2_inputs(files, rng):
    """A diag-m2 (2,) space, the identity, a target and a curve on it."""
    space = _write(files / "s.json", {"kind": "diag-m2", "blocks": [2], "p_list": [2, 4]})
    z = core.random_skew(TracialAlgebra.tensor_square(2), rng, 0.3)
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
    # epsilon failed only when the result was written, and a negative seed
    # surfaced numpy's message
    argv = _diag_m2_inputs(files, rng)
    z = _write(files / "z.json", matrix_to_json(core.random_skew(TracialAlgebra.tensor_square(2), rng)))
    project = ["project", "--z", z, "--space", argv["qdistance"][2], "--p", "4", "--tol"]
    cases = [(project + [tol], "tol") for tol in ("nan", "inf", "0")]
    cases += [(argv["lift"][:-1] + [eps, "--p", "4"], "epsilon") for eps in ("nan", "inf")]
    cases += [(argv[command] + ["--p", "4", "--seed", "-1"], "--seed") for command in ("qdistance", "geodesic")]
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


def test_document_rejections(files, capsys):
    # a document of the wrong JSON type exits 2 with one line naming the
    # offending path once ("{}" in a command stands for the document)
    eye2 = _write(files / "eye2.json", matrix_to_json(np.eye(2)))
    eye4 = _write(files / "eye4.json", matrix_to_json(np.eye(4)))
    z3 = _write(files / "z3.json", matrix_to_json(np.zeros((3, 3))))
    m3 = {"blocks": [3], "weights": [1.0], "tensor_m2": False}
    distance = ["distance", "--u", eye2, "--v", eye2, "--p", "2", "--algebra", "{}"]
    geodesic = ["geodesic", "--space", "{}", "--target", eye4, "--p", "4"]
    cases = [
        ({"blocks": 3, "weights": [1.0]}, distance, ".blocks"),
        ({"blocks": "ab", "weights": [1.0]}, distance, ".blocks"),
        ({"blocks": [2], "weights": [1.0], "tensor_m2": "no"}, ["fold", "--z", eye2, "--algebra", "{}"], ".tensor_m2"),
        ({"ambient": m3, "basis": 5}, ["project", "--z", z3, "--subspace", "{}", "--p", "4"], ".basis"),
        ({"ambient": {**m3, "tensor_m2": 1}, "basis": []}, ["project", "--z", z3, "--subspace", "{}", "--p", "4"],
         ".ambient.tensor_m2"),
        ({"n": 2, "re": "ab", "im": [[0, 0], [0, 0]]}, ["distance", "--u", "{}", "--v", eye2, "--p", "2"], ".re"),
        ({"n": 2, "re": [[1, 0], [0, "ab"]], "im": [[0, 0], [0, 0]]}, ["fold", "--z", "{}"], ".re[1][1]"),
        ({"n": "2", "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}, ["fold", "--z", "{}"], ".n"),
        ({"kind": "diag-m2", "blocks": 3}, geodesic, ".blocks"),
        ({"kind": "diag-m2", "blocks": "ab"}, geodesic, ".blocks"),
        ({"kind": "diag-m2", "blocks": [2], "p_list": "24"}, geodesic, ".p_list"),
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
