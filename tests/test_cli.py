"""Command-line interface tests.

Oracles:
  - paraboloid at the origin: g = 2*I, sigma = log 2, dsigma = 0,
    coordinate Hessian of sigma is -2*I (covariant equals coordinate here
    since dsigma = 0 kills the Christoffel correction), laplace =
    (1/2)*tr(-2*I) = -2, Ric(nabla) = (n-1)*lambda*g = g = 2*I.
  - half-plane-exp at (0,1): g = I, sigma = 1/e, dsigma = (0, -1/e),
    covariant Hessian [[1/e, 0], [0, 0]] (Gamma^2_11 = 1/x2, Gamma^2_22 =
    -1/x2 cancel or add the first-derivative terms), laplace = 1/e,
    C_ijk = ds_i g_jk + ds_j g_ki + ds_k g_ij so C_112 = -1/e and
    C_222 = -3/e, and trace of K over the upper index gives -2*dsigma.
  - conjugate(paraboloid) has conformal metric e^{-sigma} g =
    ((1+r^2)/2)(2/(1+r^2)) I = I, so connecting (0,0) to (1,0) under
    --conjugate must report tilde_length 1; the plain paraboloid gives
    2*arctan(1) = pi/2, and rho((0,0),(1,0)) = e^{-log 2}(pi/2)^2 = pi^2/8.
  - a straight euclidean line from (0,0) with velocity (1,2) sampled at
    5 points hits (t, 2t) at t in {0, 1/4, 1/2, 3/4, 1}; a euclidean
    chart cut at x1 < 2 stops a unit ray at x1 = 2, status exited-domain.
"""

import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest depends on tomli there
    import tomli as tomllib

import divstat
from divstat.cli import run
from divstat.manifold import load_manifold

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

CUT_PLANE = {
    "name": "cut-plane",
    "dim": 2,
    "coords": ["x1", "x2"],
    "domain": "x1 < 2",
    "metric": [["1", "0"], ["0", "1"]],
    "sigma": "0",
    "sample_box": [[-1, 1], [-1, 1]],
}

DESCRIBE_KEYS = [
    "manifold", "point", "g", "g_inv", "sigma", "dsigma", "grad_sigma",
    "hess_sigma", "laplace_sigma", "K", "C", "gamma", "ricci_nabla",
    "conjugate_symmetry_residual",
]

SUITE_CHECKS = {
    "metric-compatibility", "codazzi", "duality", "connection-mean",
    "conformal-projective", "curvature-eq3", "curvature-eq4",
    "curvature-eq5", "ricci-symmetry", "volume-parallel", "trace-k",
    "sectional-tilde-agreement", "conjugate-symmetry",
    "constant-curvature-fit",
}


def run_out(capsys, argv):
    code = run(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_describe_paraboloid_origin(capsys):
    code, out, err = run_out(capsys, ["describe", "paraboloid", "--at", "0,0"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc) == DESCRIBE_KEYS
    assert doc["manifold"] == "paraboloid"
    assert doc["point"] == [0.0, 0.0]
    assert np.allclose(doc["g"], 2.0 * np.eye(2), atol=1e-15)
    assert np.allclose(doc["g_inv"], 0.5 * np.eye(2), atol=1e-15)
    assert abs(doc["sigma"] - math.log(2.0)) < 1e-15
    assert doc["dsigma"] == [0.0, 0.0] and doc["grad_sigma"] == [0.0, 0.0]
    assert np.allclose(doc["hess_sigma"], -2.0 * np.eye(2), atol=1e-12)
    assert abs(doc["laplace_sigma"] + 2.0) < 1e-12
    assert np.max(np.abs(doc["K"])) < 1e-15
    assert np.max(np.abs(doc["C"])) < 1e-15
    assert list(doc["gamma"]) == ["lc", "nabla", "bar", "lc-tilde"]
    for gam in doc["gamma"].values():
        assert np.max(np.abs(gam)) < 1e-15
    assert np.allclose(doc["ricci_nabla"], 2.0 * np.eye(2), atol=1e-12)
    assert abs(doc["conjugate_symmetry_residual"]) < 1e-12
    # full-precision text: 17 significant digits for sigma = log 2
    assert f"{math.log(2.0):.17g}" in out


def test_describe_half_plane_point(capsys):
    code, out, err = run_out(capsys, ["describe", "half-plane-exp", "--at", "0,1"])
    assert code == 0
    doc = json.loads(out)
    e = math.exp(-1.0)
    assert np.allclose(doc["g"], np.eye(2), atol=1e-15)
    assert abs(doc["sigma"] - e) < 1e-15
    assert np.allclose(doc["dsigma"], [0.0, -e], atol=1e-15)
    assert np.allclose(doc["hess_sigma"], [[e, 0.0], [0.0, 0.0]], atol=1e-15)
    assert abs(doc["laplace_sigma"] - e) < 1e-15
    C = np.array(doc["C"])
    assert np.max(np.abs(C - C.transpose(1, 0, 2))) == 0.0
    assert np.max(np.abs(C - C.transpose(0, 2, 1))) == 0.0
    assert abs(C[0, 0, 1] + e) < 1e-15
    assert abs(C[1, 1, 1] + 3.0 * e) < 1e-15
    K = np.array(doc["K"])
    trace = np.einsum("kkj->j", K)
    assert np.allclose(trace, [0.0, 2.0 * e], atol=1e-15)


def test_describe_invalid_inputs(capsys):
    for argv in (
        ["describe", "paraboloid", "--at", "0,0,0"],
        ["describe", "paraboloid", "--at", "0,zebra"],
        ["describe", "nosuch-manifold", "--at", "0,0"],
        ["describe", "half-plane-exp", "--at", "0,-1"],
        ["describe", "euclidean", "--at", "nan,0"],
    ):
        code, out, err = run_out(capsys, argv)
        assert code == 2, argv
        assert err.count("\n") == 1 and err.startswith("divstat:")


def test_geodesic_csv_straight_line(tmp_path, capsys):
    dest = tmp_path / "line.csv"
    argv = ["geodesic", "euclidean", "--conn", "nabla", "--from", "0,0",
            "--vel", "1,2", "--t-max", "1", "--steps", "5"]
    code, out, err = run_out(capsys, argv + ["--out", str(dest)])
    assert code == 0 and out == "" and err == ""
    lines = dest.read_text().splitlines()
    assert lines[0] == "t,x1,x2,v1,v2"
    assert lines[-1] == "# status=completed"
    assert len(lines) == 7
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:-1]])
    ts = np.linspace(0.0, 1.0, 5)
    assert np.allclose(rows[:, 0], ts, atol=1e-15)
    assert np.allclose(rows[:, 1], ts, atol=1e-12)
    assert np.allclose(rows[:, 2], 2.0 * ts, atol=1e-12)
    assert np.allclose(rows[:, 3:], [[1.0, 2.0]] * 5, atol=1e-12)
    # without --out the same bytes go to stdout
    code, out, err = run_out(capsys, argv)
    assert code == 0
    assert out == dest.read_text()


def test_geodesic_stops_at_chart_boundary(tmp_path, capsys):
    doc = tmp_path / "cut.json"
    doc.write_text(json.dumps(CUT_PLANE))
    code, out, err = run_out(capsys, [
        "geodesic", str(doc), "--conn", "lc", "--from", "0,0",
        "--vel", "1,0", "--t-max", "5",
    ])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "# status=exited-domain"
    last = [float(v) for v in lines[-2].split(",")]
    assert last[1] < 2.0 and abs(last[1] - 2.0) < 1e-6
    assert abs(last[0] - 2.0) < 1e-6


def test_geodesic_at_a_speed_whose_square_overflows(capsys):
    # the initial step's scaled norm of (x, v) would square 1e161
    code, out, err = run_out(capsys, [
        "geodesic", "euclidean", "--conn", "lc", "--from", "0,0",
        "--vel", "1e150,0", "--t-max", "1",
    ])
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "# status=completed"


def test_geodesic_rejects_bad_options(capsys):
    base = ["geodesic", "euclidean", "--from", "0,0", "--vel", "1,0"]
    for extra in (
        ["--conn", "warp", "--t-max", "1"],
        ["--conn", "lc", "--t-max", "0"],
        ["--conn", "lc", "--t-max", "-2"],
        ["--conn", "lc", "--t-max", "1", "--steps", "1"],
    ):
        code, out, err = run_out(capsys, base + extra)
        assert code == 2, extra
        assert err != ""


def test_connect_json_paraboloid(tmp_path, capsys):
    dest = tmp_path / "conn.json"
    argv = ["connect", "paraboloid", "--from", "0,0", "--to", "1,0",
            "--multistart", "4", "--seed", "42"]
    code, out, err = run_out(capsys, argv + ["--out", str(dest)])
    assert code == 0 and out == "" and err == ""
    doc = json.loads(dest.read_text())
    assert list(doc) == ["converged", "tilde_length", "endpoint_error",
                         "attempts", "samples"]
    assert doc["converged"] is True
    assert abs(doc["tilde_length"] - math.pi / 2.0) < 1e-8
    assert doc["endpoint_error"] < 1e-8
    assert isinstance(doc["attempts"], int) and doc["attempts"] >= 1
    rows = np.array(doc["samples"])
    assert rows.shape[1] == 5
    assert np.allclose(rows[0], [0.0, 0.0, 0.0, rows[0, 3], rows[0, 4]])
    assert np.allclose(rows[-1, 1:3], [1.0, 0.0], atol=1e-6)
    # stdout mode emits the same document
    code, out, err = run_out(capsys, argv)
    assert code == 0
    assert out == dest.read_text()


def test_connect_fuses_negative_coordinates(capsys):
    code, out, err = run_out(capsys, [
        "connect", "euclidean", "--from", "0,0", "--to", "-1,-2",
        "--multistart", "2",
    ])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["tilde_length"] - math.sqrt(5.0)) < 1e-8
    code, out, err = run_out(capsys, [
        "describe", "euclidean", "--at", "-1,-0.5",
    ])
    assert code == 0
    assert json.loads(out)["point"] == [-1.0, -0.5]


def test_connect_conjugate_flag(capsys):
    code, out, err = run_out(capsys, [
        "connect", "paraboloid", "--from", "0,0", "--to", "1,0",
        "--conjugate", "--multistart", "2",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert abs(doc["tilde_length"] - 1.0) < 1e-8


def test_connect_reports_no_convergence(tmp_path, capsys):
    dest = tmp_path / "fail.json"
    code, out, err = run_out(capsys, [
        "connect", "punctured-plane", "--from", "1,0", "--to", "-1,0",
        "--multistart", "4", "--out", str(dest),
    ])
    assert code == 3
    assert "no converged geodesic" in err
    doc = json.loads(dest.read_text())
    assert doc["converged"] is False
    assert doc["attempts"] == 4
    assert doc["endpoint_error"] > 0.1


def test_contrast_values(capsys):
    code, out, err = run_out(capsys, [
        "contrast", "paraboloid", "--p", "0,0", "--q", "1,0",
    ])
    assert code == 0
    assert abs(float(out) - math.pi ** 2 / 8.0) < 1e-6
    code, out, err = run_out(capsys, [
        "contrast", "euclidean", "--p", "1,1", "--q", "1,1",
    ])
    assert code == 0 and float(out) == 0.0


def test_check_pass_fail_and_file_doc(tmp_path, capsys):
    code, out, err = run_out(capsys, [
        "check", "paraboloid", "--samples", "20", "--seed", "42",
    ])
    assert code == 0
    assert "result: pass" in out
    for name in SUITE_CHECKS:
        assert name in out
    assert "lambda=" in out
    # impossible tolerance flips the exit code, informational rows stay info
    code, out, err = run_out(capsys, [
        "check", "paraboloid", "--samples", "20", "--tol", "1e-30",
    ])
    assert code == 1 and "result: FAIL" in out
    # manifold documents load from files
    doc = tmp_path / "cut.json"
    doc.write_text(json.dumps(CUT_PLANE))
    code, out, err = run_out(capsys, ["check", str(doc), "--samples", "10"])
    assert code == 0 and "result: pass" in out


def test_hadamard_grid_scan(capsys):
    code, out, err = run_out(capsys, [
        "hadamard", "half-plane-exp",
        "--grid", "x1:-5:5:12,x2:0.1:10:12", "--planes", "2", "--seed", "7",
    ])
    assert code == 0
    assert "result: pass" in out
    worst = [ln for ln in out.splitlines() if ln.startswith("worst:")]
    assert len(worst) == 1
    assert float(worst[0].split()[1]) <= 0.0
    code, out, err = run_out(capsys, [
        "hadamard", "paraboloid", "--grid", "x1:-1:1:3,x2:-1:1:3",
    ])
    assert code == 1 and "result: FAIL" in out
    worst = [ln for ln in out.splitlines() if ln.startswith("worst:")][0]
    assert abs(float(worst.split()[1]) - 4.0) < 1e-6
    assert worst.split()[-1] == "0,0"


def test_hadamard_rejects_bad_grids(capsys):
    for grid in (
        "y:0:1:3,x2:0:1:3",
        "x1:0:1:3",
        "x1:0:1:3,x2:0:1:3,x2:0:1:3",
        "x1:0:1,x2:0:1:3",
        "x1:0:1:0,x2:0:1:3",
        "x1:0:one:3,x2:0:1:3",
    ):
        code, out, err = run_out(capsys, ["hadamard", "euclidean", "--grid", grid])
        assert code == 2, grid
        assert err.startswith("divstat:")


NOT_SPD = {
    "name": "t",
    "dim": 2,
    "coords": ["x1", "x2"],
    "domain": "x1 > -1",
    "metric": [["1", "0"], ["0", "x1"]],
    "sigma": "0.1*x1",
    "sample_box": [[0.5, 2], [-1, 1]],
}


def test_hadamard_names_the_first_point_where_g_is_not_spd(tmp_path, capsys):
    # the scan reads its geometry in batches; the diagnostic still names
    # one point, the first grid row where g is not positive definite
    doc = tmp_path / "t.json"
    doc.write_text(json.dumps(NOT_SPD))
    code, out, err = run_out(capsys, ["hadamard", str(doc), "--grid", "x1:-0.5:1:4,x2:0:1:2"])
    assert code == 2 and out == ""
    assert err == "divstat: t: metric not SPD at (-0.5, 0.0)\n"


def test_oversized_scan_is_invalid_input(capsys):
    # numpy refuses the plane draws up front (hundreds of TiB) and
    # allocates nothing; the refusal is one diagnostic line and exit 2
    code, out, err = run_out(capsys, [
        "hadamard", "euclidean", "--grid", "x1:0:1:18,x2:0:1:18",
        "--planes", "100000000000",
    ])
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("divstat:")


ABS_WEIGHT = {
    "name": "abs-weight",
    "dim": 2,
    "coords": ["x1", "x2"],
    "metric": [["1", "0"], ["0", "1"]],
    "sigma": "abs(x1)",
}


_BAD_FIELDS = [
    {"metric": [[1, 0], [0, 1]]},
    {"metric": None},
    {"metric": ["10", "01"]},
    {"sigma": 0},
    {"sigma": ["0"]},
    {"domain": 5},
    {"sample_guard": 3},
    {"dim": 2.5},
    {"dim": "2"},
    {"coords": [1, 2]},
    {"name": 3},
    {"sample_box": [[{}, 1], [0, 1]]},
]


@pytest.mark.parametrize("bad", _BAD_FIELDS, ids=json.dumps)
def test_non_string_definition_fields_are_invalid_input(tmp_path, capsys, bad):
    # each document differs from a valid one in one field: exit 2 with one
    # diagnostic line that names the field, and no traceback
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps(dict(CUT_PLANE, **bad)))
    code, out, err = run_out(capsys, ["describe", str(doc), "--at", "0.3,0.2"])
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("divstat:")
    assert next(iter(bad)) in lines[0]
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("argv", [
    ["describe", "--at", "0,0"],
    ["hadamard", "--grid", "x1:-1:1:3,x2:0:1:2"],
])
def test_derivative_error_is_numerical_failure(tmp_path, capsys, argv):
    # the point lies in the chart and sigma is finite there, but dsigma
    # = x1/abs(x1) is not: exit 3 with one diagnostic line, no traceback
    doc = tmp_path / "abs.json"
    doc.write_text(json.dumps(ABS_WEIGHT))
    code, out, err = run_out(capsys, [argv[0], str(doc), *argv[1:]])
    assert code == 3
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("divstat:")
    assert "x1/abs(x1)" in lines[0]


def test_diagnostic_names_the_chart_coordinate(tmp_path, capsys):
    # on a chart whose coords are positional names in the other order the
    # failing node is printed with the names the user wrote
    doc = tmp_path / "swapped.json"
    doc.write_text(json.dumps(dict(ABS_WEIGHT, coords=["x2", "x1"], sigma="abs(x2)")))
    code, out, err = run_out(capsys, ["describe", str(doc), "--at", "0,0.5"])
    assert code == 3
    assert err == "divstat: division by zero in 'x2/abs(x2)' at (0.0, 0.5)\n"


def test_connect_converged_but_nabla_parameter_overflows(capsys):
    # the best gtilde path passes within about 0.078 of the puncture, where
    # e^{-2 sigma} = e^{4/r^2} overflows: the solve converged, but there
    # is no nabla parametrization to print
    code, out, err = run_out(capsys, [
        "connect", "punctured-plane", "--from", "1.507,0.606",
        "--to", "-1.313,-0.421", "--multistart", "6",
    ])
    assert code == 3
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["attempts"] == 6
    assert "samples" not in doc
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("divstat:")
    assert "nabla parameter overflows" in lines[0]


def test_seed_determinism(tmp_path, capsys):
    outs = []
    for name in ("a.json", "b.json"):
        dest = tmp_path / name
        code, _, _ = run_out(capsys, [
            "connect", "paraboloid", "--from", "0.3,-0.2", "--to", "-1,0.7",
            "--seed", "11", "--multistart", "2", "--out", str(dest),
        ])
        assert code == 0
        outs.append(dest.read_bytes())
    assert outs[0] == outs[1]
    texts = []
    for _ in range(2):
        code, out, _ = run_out(capsys, [
            "hadamard", "paraboloid", "--grid", "x1:1:2:4,x2:1:2:4",
            "--planes", "3", "--seed", "5",
        ])
        texts.append(out)
    assert texts[0] == texts[1]


def _same_divstat_env():
    # The subprocesses must run the same copy of divstat as this process.
    env = dict(os.environ)
    head = str(Path(divstat.__file__).resolve().parents[1])
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = head + (os.pathsep + rest if rest else "")
    return env


def test_entry_points():
    env = _same_divstat_env()
    proc = subprocess.run(
        [sys.executable, "-m", "divstat", "describe", "euclidean", "--at", "0,0"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["g"] == [[1.0, 0.0], [0.0, 1.0]]
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("divstat") == "divstat.cli:main"
    module, attr = scripts["divstat"].split(":")
    assert callable(getattr(importlib.import_module(module), attr))
    # Run the target the way pip's generated console-script wrapper does.
    wrapper = (
        f"import sys\nfrom {module} import {attr}\n"
        f"sys.argv[0] = 'divstat'\nsys.exit({attr}())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "check", "euclidean", "--samples", "5"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "result: pass" in proc.stdout


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency: importing every divstat module
    # in a fresh interpreter loads no scipy module
    script = (
        "import pkgutil, importlib, sys, divstat\n"
        "for m in pkgutil.iter_modules(divstat.__path__):\n"
        "    importlib.import_module('divstat.' + m.name)\n"
        "print(sorted(m for m in sys.modules if m.startswith('divstat.')))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=_same_divstat_env(),
    )
    assert proc.returncode == 0, proc.stderr
    loaded, scipy_mods = proc.stdout.splitlines()
    assert "'divstat.cli'" in loaded and "'divstat.connect'" in loaded
    assert scipy_mods == "[]"


def test_sample_guard_runs_on_floats(tmp_path):
    # sampling hands the guard plain floats: on numpy scalars the compiled
    # guard's overflow printed a RuntimeWarning before the tree walk
    # rejected the point
    doc = tmp_path / "guard.json"
    doc.write_text(json.dumps({
        "name": "g", "dim": 2, "coords": ["x1", "x2"],
        "metric": [["1", "0"], ["0", "1"]], "sigma": "0.1*x1",
        "sample_guard": "x1 * 1e300 * 1e10 < 1 or x2 > -10",
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "divstat", "check", str(doc), "--samples", "5"],
        capture_output=True, text=True, env=_same_divstat_env(),
    )
    assert proc.returncode == 0
    assert "result: pass" in proc.stdout
    assert proc.stderr == ""


@pytest.mark.skipif(
    shutil.which("divstat") is None,
    reason="divstat console script not on PATH (package not installed)",
)
def test_installed_console_script():
    script = shutil.which("divstat")
    assert script is not None
    proc = subprocess.run(
        [script, "check", "euclidean", "--samples", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "result: pass" in proc.stdout


def test_cut_plane_doc_loads():
    M = load_manifold(CUT_PLANE)
    assert M.name == "cut-plane" and M.n == 2
