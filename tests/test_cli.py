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

import builtins
import importlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest depends on tomli there
    import tomli as tomllib

import divstat
import divstat.geodesic
from divstat import cli, manifold
from divstat.cli import run
from divstat.exprcore import MAX_DEPTH
from divstat.manifold import BUILTINS, load_manifold

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"

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


@pytest.mark.parametrize("bad", ["0.5,0.5,0.5", "nan,0.5", "inf,0.5", "-inf,0.5", "0.5,1e400"])
@pytest.mark.parametrize("argv", [
    ["describe", "euclidean", "--at={}"],
    ["geodesic", "euclidean", "--conn", "lc", "--from={}", "--vel=1,0", "--t-max", "1"],
    ["geodesic", "euclidean", "--conn", "lc", "--from=0.5,0.5", "--vel={}", "--t-max", "1"],
    ["connect", "euclidean", "--from={}", "--to=1,0.25"],
    ["connect", "euclidean", "--from=0.5,0.5", "--to={}"],
    ["contrast", "euclidean", "--p={}", "--q=1,0.25"],
    ["contrast", "euclidean", "--p=0.5,0.5", "--q={}"],
], ids=["describe --at", "geodesic --from", "geodesic --vel", "connect --from",
        "connect --to", "contrast --p", "contrast --q"])
def test_a_bad_coordinate_is_refused_by_the_library(capsys, argv, bad):
    # the CLI only parses the numbers: the point's count and chart, and
    # the velocity's, are checked where the library takes them
    M = load_manifold("euclidean")
    vals = [float(s) for s in bad.split(",")]
    with pytest.raises((ValueError, manifold.OutOfDomainError)) as exc:
        if "--vel={}" in argv:
            divstat.geodesic.integrate_geodesic(M, "lc", (0.5, 0.5), vals, 1.0)
        else:
            M.at(vals)
    code, out, err = run_out(capsys, [a.format(bad) for a in argv])
    assert (code, out, err) == (2, "", f"divstat: {exc.value}\n")


def test_describe_names_the_member_and_point_of_a_numpy_overflow(tmp_path, capsys):
    # sigma = (x1 + x2)^-149: at 0.0085 every member before Ricci is
    # finite, and the Gamma Gamma product of nabla's curvature overflows
    doc = tmp_path / "steep.json"
    doc.write_text(json.dumps(dict(CUT_PLANE, name="steep", domain="x1 > 0 and x2 > 0",
                                   sigma="1/(x1+x2)" + "/(x1+x2)" * 148,
                                   sample_box=[[0.5, 1], [0.5, 1]])))
    code, out, err = run_out(capsys, ["describe", str(doc), "--at", "0.0085,0.0085"])
    assert (code, out) == (3, "")
    assert err == ("divstat: numerical failure: ricci_nabla at (0.0085, 0.0085): "
                   "overflow encountered in matmul\n")


def test_a_file_that_is_not_a_definition_is_invalid_input(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text("{not json")
    code, out, err = run_out(capsys, ["describe", str(doc), "--at", "0,0"])
    assert (code, out) == (2, "")
    assert err == (f"divstat: cannot read manifold file {doc}: Expecting property name "
                   "enclosed in double quotes: line 1 column 2 (char 1)\n")
    doc.write_text("[1, 2]")
    code, out, err = run_out(capsys, ["describe", str(doc), "--at", "0,0"])
    assert (code, out) == (2, "")
    assert err == "divstat: manifold document must be a dict or a name/path\n"


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
        ["--conn", "lc", "--t-max", "inf"],
        ["--conn", "lc", "--t-max", "-inf"],
        ["--conn", "lc", "--t-max", "1", "--steps", "1"],
    ):
        code, out, err = run_out(capsys, base + extra)
        assert code == 2, extra
        assert err != ""
    code, out, err = run_out(capsys, base + ["--conn", "lc", "--t-max", "-nan"])
    assert code == 2
    assert err == "divstat: --t-max must be positive and finite, got nan\n"


_LINE = ["geodesic", "euclidean", "--conn", "lc", "--from", "0,0", "--vel", "1,0",
         "--t-max", "1"]


@pytest.mark.parametrize("argv, names", [
    (_LINE + ["--steps", "abc"], "argument --steps: invalid int value: 'abc'"),
    (["connect", "paraboloid", "--from", "0,0", "--to", "1,0", "--multistart", "1.5"],
     "argument --multistart"),
    (_LINE[:3] + ["warp"] + _LINE[4:], "argument --conn: invalid choice: 'warp'"),
    (["describe", "paraboloid"], "required: --at"),
    ([], "required: command"),
    (["describe", "paraboloid", "--at", "0,0", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_usage_errors_are_one_line(capsys, argv, names):
    code, out, err = run_out(capsys, argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("divstat: ") and names in err


def test_help_prints_to_stdout(capsys):
    code, out, err = run_out(capsys, ["geodesic", "--help"])
    assert code == 0 and err == ""
    assert out.startswith("usage: divstat geodesic") and "--steps" in out


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


def test_contrast_reports_no_convergence(capsys):
    # every nabla-geodesic of the punctured plane is a straight line, and
    # the segment between these points passes through the puncture
    code, out, err = run_out(capsys, [
        "contrast", "punctured-plane", "--p", "1.2,0.3", "--q=-1.2,-0.3",
    ])
    assert (code, out) == (3, "")
    assert err == ("divstat: no converged geodesic from 1.2,0.3 to -1.2,-0.3 on "
                   "punctured-plane (best endpoint error 0.099756820191230958)\n")


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
        "--grid", "x1:-5:5:12,x2:0.1:10:12",
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
    # a bound that is not finite, or a span that overflows, is named with
    # its segment
    for seg in ("x1:nan:1:3", "x1:-inf:1:3", "x1:-1e308:1e308:3"):
        code, out, err = run_out(capsys, ["hadamard", "euclidean", "--grid", seg + ",x2:0:1:3"])
        assert (code, out) == (2, "")
        assert err == f"divstat: grid segment '{seg}' needs finite bounds and span\n"


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
    # numpy refuses a grid axis no array can hold up front and allocates
    # nothing; the refusal is one diagnostic line and exit 2
    code, out, err = run_out(capsys, [
        "hadamard", "euclidean", "--grid", "x1:0:1:10000000000000000000,x2:0:1:18",
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
    {"sample_box": [[float("nan"), 1], [0, 1]]},
    {"sample_box": [[-float("inf"), 1], [0, 1]]},
    {"sample_box": [[1, -1], [0, 1]]},
    {"sample_box": [[-1e308, 1e308], [0, 1]]},
    {"sample_box": [[-1, 10**400], [0, 1]]},
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


def test_check_where_the_conformal_factor_overflows(tmp_path, capsys):
    # e^sigma overflows for x1 > 709.78/400, inside the sample box: exit 3
    # naming the first such sample, not nan residuals and numpy warnings,
    # nor a traceback from connect and contrast
    doc = tmp_path / "steep.json"
    doc.write_text(json.dumps(dict(CUT_PLANE, name="steep", domain="true",
                                   sigma="400*x1", sample_box=[[1, 2], [-1, 1]])))
    code, out, err = run_out(capsys, ["check", str(doc)])
    assert code == 3 and out == ""
    assert err == ("divstat: overflow in 'exp(400.0*x1)' at "
                   "(1.8585979199113825, 0.3947360581187278)\n")
    # a shooting solve forms e^sigma g at its start: the same line there
    doc.write_text(json.dumps(dict(CUT_PLANE, name="heavy", domain="true",
                                   sigma="800 + 0.1*x1")))
    for argv in (["connect", str(doc), "--from", "0,0", "--to", "1,0"],
                 ["contrast", str(doc), "--p", "0,0", "--q", "1,0"]):
        code, out, err = run_out(capsys, argv)
        assert code == 3 and out == "", argv
        assert err == "divstat: overflow in 'exp(800.0 + 0.1*x1)' at (0.0, 0.0)\n", argv


def test_numpy_overflow_is_numerical_failure(tmp_path, capsys):
    # sigma = -1e300: the volume form's e^{-(n+2) sigma/2} overflows, and
    # e^sigma is 0; exit 3 with one line naming the quantity and the first
    # sample, not warnings and nan residuals
    doc = tmp_path / "deep.json"
    doc.write_text(json.dumps(dict(CUT_PLANE, domain="true", sigma="-(1e300)")))
    code, out, err = run_out(capsys, ["check", str(doc), "--samples", "3"])
    assert code == 3 and out == ""
    assert err == ("divstat: overflow in 'e^{-(n+2) sigma/2} sqrt(det g)' at "
                   "(0.5479120971119267, -0.12224312049589536)\n")


_SKEW = dict(CUT_PLANE, name="skew", domain="true", sigma="x1",
             metric=[["1", "0.99999999999"], ["0.99999999999", "1"]])
_SKEW_NOT_SPD = "divstat: skew: metric not SPD at (-0.6816920285312484, -0.3625406643531197)\n"


def test_check_where_a_coordinate_plane_degenerates(tmp_path, capsys):
    # g's unit-diagonal eigenvalue ratio, 5e-12, is below the one floor
    # that both the SPD test and the plane test read: the definition is
    # refused at load, invalid input, before the check picks a plane
    doc = tmp_path / "skew.json"
    doc.write_text(json.dumps(_SKEW))
    code, out, err = run_out(capsys, ["check", str(doc), "--samples", "5"])
    assert code == 2 and out == ""
    assert err == _SKEW_NOT_SPD


def test_hadamard_where_no_tested_plane_spans(tmp_path, capsys):
    # the same chart: refused at load, so the scan reads no point
    doc = tmp_path / "skew.json"
    doc.write_text(json.dumps(_SKEW))
    code, out, err = run_out(capsys, ["hadamard", str(doc), "--grid", "x1:-1:1:3,x2:-1:1:3"])
    assert code == 2 and out == ""
    assert err == _SKEW_NOT_SPD


def test_hadamard_fails_where_g_is_near_singular(tmp_path, capsys):
    # flat g = [[1, a], [a, 1]], a = 0.999999999, and sigma = x1: the plane
    # term is |dsigma|^2_g = 1/(1 - a^2) > 0 at every point
    doc = tmp_path / "near.json"
    doc.write_text(json.dumps(dict(_SKEW, name="near", metric=[["1", "0.999999999"],
                                                               ["0.999999999", "1"]])))
    code, out, err = run_out(capsys, ["hadamard", str(doc), "--grid", "x1:-1:1:3,x2:-1:1:3"])
    assert (code, err) == (1, "")
    assert out.splitlines()[-1] == "result: FAIL"
    worst = float(out.splitlines()[-2].split()[1])
    assert abs(worst / 500000014.1409661 - 1.0) <= 1e-9


def test_metric_with_unequal_coordinate_scales_loads_and_scans(tmp_path, capsys):
    # g = diag(1e6, 1e-6) is 1e-12 from singular by its raw eigenvalues
    # but the identity scaled to unit diagonal: it loads, and the plane
    # term is 2k + |dsigma|^2_g - Lap sigma = 0.25e-6 + 0.04e6 x2^2 - 2e5,
    # worst at x2 = -1 (the first grid row attaining it)
    doc = tmp_path / "stretch.json"
    doc.write_text(json.dumps(dict(CUT_PLANE, name="stretch", domain="true",
                                   metric=[["1e6", "0"], ["0", "1e-6"]],
                                   sigma="0.5*x1 + 0.1*x2^2")))
    code, out, err = run_out(capsys, ["hadamard", str(doc), "--grid", "x1:-1:1:3,x2:-1:1:3"])
    assert code == 0 and err == ""
    assert out.splitlines()[-2:] == ["worst: -159999.99999975 at -1,-1", "result: pass"]
    worst = float(out.splitlines()[-2].split()[1])
    assert abs(worst - (0.25e-6 + 0.04e6 - 2e5)) <= 1e-14 * 2e5


def test_contrast_and_connect_where_e_sigma_is_not_a_normal_double(tmp_path, capsys):
    # rho is invariant under x1 -> x1 + c for sigma = x1 and flat g.  A
    # gtilde length needs e^{sigma(p)} as a normal double: below
    # log(2.2e-308) ~ -708.4 it is subnormal or 0 and the solve exits 3
    # rather than print a length with few or no correct digits
    doc = tmp_path / "tilt.json"
    doc.write_text(json.dumps(dict(CUT_PLANE, name="tilt", domain="true", sigma="x1")))

    def rho(x1):
        code, out, err = run_out(capsys, ["contrast", str(doc), f"--p={x1},0",
                                          f"--q={x1 + 0.5},0.3"])
        assert code == 0 and err == ""
        return float(out)

    assert rho(-700) == 0.43802751994588657
    assert abs(rho(-708) / rho(-700) - 1.0) < 1e-9
    for x1 in (-709, -740, -744, -800):
        for argv in (["contrast", str(doc), f"--p={x1},0", f"--q={x1 + 0.5},0.3"],
                     ["connect", str(doc), f"--from={x1},0", f"--to={x1 + 0.5},0.3"]):
            code, out, err = run_out(capsys, argv)
            assert (code, out) == (3, ""), argv
            assert err == f"divstat: underflow in 'exp(x1)' at ({x1}.0, 0.0)\n"
    # p == q needs no solve; rho = 0 wherever the weight e^{-sigma(p)} fits
    code, out, err = run_out(capsys, ["contrast", str(doc), "--p=-709,0", "--q=-709,0"])
    assert (code, out, err) == (0, "0\n", "")
    code, out, err = run_out(capsys, ["contrast", str(doc), "--p=-800,0", "--q=-800,0"])
    assert (code, out) == (3, "")
    assert err == "divstat: overflow in 'e^{-sigma(p)} dtilde(p, q)^2' at (-800.0, 0.0)\n"


@pytest.mark.parametrize("argv, want", [
    # g reaches about 1e241 on this grid, every point in the chart; the
    # closed form 16 r^-6 e^(-2/r^2) > 0 fails the scan
    (["hadamard", "punctured-plane", "--grid", "x1:0.04:0.1:7,x2:0.04:0.1:7"], 1),
    (["hadamard", "paraboloid", "--grid", "x1:1e100:1e102:4,x2:1e100:1e102:4"], 3),
    (["hadamard", "half-plane-exp", "--grid", "x1:-1:1:5,x2:1e-80:1e-60:5"], 3),
    (["hadamard", "euclidean", "--grid", "x1:1e300:1e301:3,x2:0:1:3"], 0),
    (["describe", "punctured-plane", "--at", "0.06,0"], 0),
])
def test_exit_codes_near_walls_and_at_huge_coordinates(capsys, argv, want):
    # a matrix product raises under the CLI's np.errstate where einsum
    # would return inf: these exits hold either way
    code, out, err = run_out(capsys, argv)
    assert code == want, err
    if want == 3:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("divstat: ")
    else:
        assert err == ""
    if argv[0] == "hadamard" and want != 3:
        assert out.endswith("result: pass\n" if want == 0 else "result: FAIL\n")


def _scaled_identity(c):
    return dict(CUT_PLANE, name="scaled", domain="true", sigma="x1",
                metric=[[c, "0"], ["0", c]])


def test_check_where_the_fit_scale_underflows(tmp_path, capsys):
    # for g = c I and sigma = x1 the fit gives lambda = 1/(2c); at c =
    # 1e-150 every g_jk g_il is about 1e-300 and the sum of their squares
    # underflows to 0 unless it is taken on a rescaled copy
    doc = tmp_path / "small.json"
    doc.write_text(json.dumps(_scaled_identity("1e-150")))
    code, out, err = run_out(capsys, ["check", str(doc), "--samples", "5"])
    assert err == ""
    lines = out.splitlines()
    assert lines[-1] == ("result: pass" if code == 0 else "result: FAIL")
    fit = next(line for line in lines if line.startswith("constant-curvature-fit"))
    lam = float(fit.rpartition("lambda=")[2])
    assert abs(lam * 1e-150 - 0.5) <= 1e-15
    # at c = 1e-170 the products themselves underflow: nothing to fit
    doc.write_text(json.dumps(_scaled_identity("1e-170")))
    code, out, err = run_out(capsys, ["check", str(doc), "--samples", "5"])
    assert (code, out) == (3, "")
    assert err == ("divstat: numerical failure: the constant-curvature fit has "
                   "nothing to fit: g_jk g_il - g_ik g_jl underflows to 0 at every sample\n")


# each subcommand, and options that give it other values
_EACH_COMMAND = [
    (["describe", "half-plane-exp", "--at", "0.5,1"], ["--at", "0.25,2"]),
    (["geodesic", "euclidean", "--conn", "lc", "--from", "-1,0", "--vel", "1,2",
      "--t-max", "1", "--steps", "3"], ["--steps", "5"]),
    (["connect", "euclidean", "--from", "0,0", "--to", "1,-1", "--multistart", "1"],
     ["--seed", "7", "--conjugate"]),
    (["contrast", "euclidean", "--p", "0,0", "--q", "1,-1"], ["--seed", "7"]),
    (["check", "paraboloid", "--samples", "4"], ["--seed", "7", "--tol", "1"]),
    (["hadamard", "half-plane-exp", "--grid", "x1:-1:1:2,x2:0.5:1:2"],
     ["--grid", "x1:-1:1:3,x2:0.5:1:2"]),
]


def test_the_reused_parser_carries_no_state(capsys, monkeypatch):
    # one parser serves every run() in a process: a usage error, --help
    # and a run with other option values between two equal runs leave
    # the second run's output equal to the first's
    builds = []

    def build():
        builds.append(1)
        return real()

    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", build)
    cli._parser.cache_clear()
    try:
        for argv, other in _EACH_COMMAND:
            first = run_out(capsys, argv)
            assert first[0] == 0 and first[2] == "", argv
            assert run_out(capsys, argv[:2] + ["--bogus"])[0] == 2
            assert run_out(capsys, [argv[0], "--help"])[0] == 0
            assert run_out(capsys, argv + other)[0] == 0
            assert run_out(capsys, argv) == first, argv
        assert len(builds) == 1
    finally:
        cli._parser.cache_clear()
    # build_parser itself still makes a new parser on every call
    assert real() is not real()


def test_importing_the_cli_builds_no_parser():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import divstat.cli as c; print(c._parser.cache_info().currsize)"],
        capture_output=True, text=True, env=_same_divstat_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def _each_kind(name):
    # every command kind on the built-in `name`, each exit 0 or 1
    return [
        ["describe", name, "--at", "0.5,1"],
        ["check", name, "--samples", "4"],
        ["hadamard", name, "--grid", "x1:0.5:1:2,x2:0.5:1:2"],
        ["geodesic", name, "--conn", "nabla", "--from", "0.5,1", "--vel", "0.2,0.1",
         "--t-max", "1", "--steps", "3"],
        ["connect", name, "--from", "0.5,1", "--to", "1,0.5", "--multistart", "2"],
        ["contrast", name, "--p", "0.5,1", "--q", "1,0.5"],
    ]


# an exit-3 command on each built-in, each failing after its definition
# is loaded and some of its kernels are compiled
_FAILING = [
    ["geodesic", "euclidean", "--conn", "lc", "--from", "0,0", "--vel", "1,0",
     "--t-max", "1e308", "--steps", "3"],
    ["hadamard", "paraboloid", "--grid", "x1:1e100:1e102:4,x2:1e100:1e102:4"],
    ["describe", "punctured-plane", "--at", "0.0535,0"],
    ["hadamard", "half-plane-exp", "--grid", "x1:-1:1:5,x2:1e-80:1e-60:5"],
]

_REPEATS = """
import contextlib, io, json, sys
from divstat import manifold
from divstat.cli import run

def out(argv, fresh=False):
    if fresh:
        manifold._builtin.cache_clear()
    o, e = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):
        code = run(argv)
    return [code, o.getvalue(), e.getvalue()]

commands, between = json.loads(sys.argv[1]), json.loads(sys.argv[2])
first = [out(argv) for argv in commands]
errors = [out(argv) for argv in between]
again = [out(argv) for argv in commands]
loads = manifold._builtin.cache_info().misses
fresh = [out(argv, fresh=True) for argv in commands]
print(json.dumps([first, errors, again, loads, fresh]))
"""


def test_repeats_on_a_shared_builtin_print_what_the_first_use_printed():
    # in a fresh interpreter: every command kind on every built-in, then
    # an exit-3 command and usage errors on each, then the same commands
    # again on the shared definitions, then each on a definition loaded
    # afresh; the three passes print the same bytes
    commands = [argv for name in BUILTINS for argv in _each_kind(name)]
    between = _FAILING + [["check", name, "--bogus"] for name in BUILTINS]
    proc = subprocess.run(
        [sys.executable, "-c", _REPEATS, json.dumps(commands), json.dumps(between)],
        capture_output=True, text=True, env=_same_divstat_env(),
    )
    assert proc.returncode == 0, proc.stderr
    first, errors, again, loads, fresh = json.loads(proc.stdout)
    assert [code for code, _, _ in first] == [
        1 if argv[0] == "hadamard" and argv[1] in ("paraboloid", "punctured-plane") else 0
        for argv in commands]
    assert [code for code, _, _ in errors] == [3] * len(BUILTINS) + [2] * len(BUILTINS)
    assert all(out == "" and err.startswith("divstat: ") for _, out, err in errors)
    for argv, a, b, c in zip(commands, first, again, fresh):
        assert a == b == c, argv
    assert loads == len(BUILTINS)


def test_a_repeated_command_on_a_builtin_compiles_nothing(tmp_path, capsys, monkeypatch):
    # the first use of a built-in loads it and compiles its kernels; a
    # repeat builds no definition and compiles nothing, and a file with
    # the same document builds and compiles again
    commands = [argv for argv in _each_kind("half-plane-exp")
                if argv[0] in ("check", "hadamard", "geodesic")]
    first = [run_out(capsys, argv) for argv in commands]
    assert [code for code, _, _ in first] == [0, 0, 0]
    compiled, built = [], []
    real_compile, real_init = builtins.compile, manifold.ManifoldDef.__init__

    def counting_compile(src, filename, *args, **kwargs):
        compiled.append(filename)
        return real_compile(src, filename, *args, **kwargs)

    def counting_init(self, doc):
        built.append(doc["name"])
        real_init(self, doc)

    monkeypatch.setattr(builtins, "compile", counting_compile)
    monkeypatch.setattr(manifold.ManifoldDef, "__init__", counting_init)
    assert [run_out(capsys, argv) for argv in commands] == first
    assert (compiled, built) == ([], [])
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(BUILTINS["half-plane-exp"]))
    assert run_out(capsys, ["check", str(path), "--samples", "4"]) == first[0]
    assert built == ["half-plane-exp"] and compiled


def test_a_rewritten_definition_file_is_read_again(tmp_path, capsys):
    # one path, rewritten between two runs in one process: each run
    # prints the result of the definition the file holds at the time
    path = tmp_path / "surface.json"
    got = []
    for base in ("euclidean", "paraboloid"):
        path.write_text(json.dumps(dict(BUILTINS[base], name="surface")))
        got.append(run_out(capsys, ["check", str(path), "--samples", "4"]))
        code, out, err = run_out(capsys, ["check", base, "--samples", "4"])
        assert got[-1] == (code, out.replace(f"manifold: {base}", "manifold: surface", 1), err)
    assert got[0] != got[1]


def test_importing_the_cli_loads_no_builtin():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import divstat.cli, divstat.manifold as m; print(m._builtin.cache_info().currsize)"],
        capture_output=True, text=True, env=_same_divstat_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_linalg_error_is_numerical_failure(capsys, monkeypatch):
    # numpy's LinAlgError is a ValueError, but one of the numbers at a
    # point in the chart, not of the input
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    code, out, err = run_out(capsys, ["describe", "paraboloid", "--at", "0,0"])
    assert (code, out, err) == (3, "", "divstat: numerical failure: Singular matrix\n")


def test_geodesic_whose_dense_output_overflows(capsys):
    # the path reaches x1 = 1e308 in steps of 1e154 and more, where the
    # Hermite term h^2 a no longer fits in a double: exit 3, naming it and
    # the step that holds the middle sample
    code, out, err = run_out(capsys, [
        "geodesic", "euclidean", "--conn", "lc", "--from", "0,0", "--vel", "1,0",
        "--t-max", "1e308", "--steps", "3"])
    assert code == 3 and out == ""
    assert err == ("divstat: dense output overflows: h^2 a(t0) is not finite on the step "
                   "[3.7670739997437575e+307, 5.650610999615636e+307]\n")


def test_literal_out_of_range_is_invalid_input(tmp_path, capsys):
    # emitted code would spell 1e999 as inf, an undefined name
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps(dict(CUT_PLANE, sigma="1e999*x1")))
    code, out, err = run_out(capsys, ["describe", str(doc), "--at", "0.5,0.5"])
    assert code == 2 and out == ""
    assert err == "divstat: cut-plane: sigma: number out of range (offset 1)\n"


@pytest.mark.parametrize("field, value, message", [
    ("sigma", "1e999*x1", "sigma: number out of range (offset 1)"),
    ("metric", [["1", "0"], ["0", "x2 +"]], "metric[1][1]: unexpected end of input (offset 5)"),
    ("metric", [["1", "foo"], ["foo", "1"]], "metric[0][1]: unknown identifier 'foo' (offset 1)"),
    ("domain", "x1 < 2 and x2", "domain: domain predicate chunk 'x2' has no comparison (offset 12)"),
])
def test_parse_errors_name_their_field(tmp_path, capsys, field, value, message):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps(dict(CUT_PLANE, **{field: value})))
    code, out, err = run_out(capsys, ["describe", str(doc), "--at", "0.5,0.5"])
    assert code == 2 and out == ""
    assert err == f"divstat: cut-plane: {message}\n"


# sigma sources of n terms, factors, quotients, nested parentheses, nested
# calls, unary minuses and powers.  No walk over a tree recurses, so sums,
# products and quotients of any length load (n here is about where a
# recursive walk used up the default stack); only the parser's own recursion
# is bounded, MAX_DEPTH (300) calls, five per pair of parentheses or call and
# one per unary minus or ^, and for those shapes n is the largest it admits
_DEEP = {
    "sum": (lambda n: "+".join(("x1", "x2")[i % 2] for i in range(n)), 982, False),
    "product": (lambda n: "*".join(("x1", "x2")[i % 2] for i in range(n)), 327, False),
    "quotient": (lambda n: "/".join(("x1", "x2")[i % 2] for i in range(n)), 300, False),
    "parentheses": (lambda n: "(" * n + "x1" + ")" * n, 59, True),
    "sin": (lambda n: "sin(" * n + "x1" + ")" * n, 59, True),
    "minus": (lambda n: "-" * n + "x1", 296, True),
    "power": (lambda n: "x1" + "^1.0001" * n, 296, True),
}


@pytest.mark.parametrize("shape", list(_DEEP))
def test_nesting_is_bounded_by_the_parser(tmp_path, capsys, shape):
    source, largest, bounded = _DEEP[shape]
    assert MAX_DEPTH == 300
    doc = tmp_path / "deep.json"
    base = dict(CUT_PLANE, name="deep", sample_box=[[0.99, 1.01], [0.99, 1.01]])
    # the definition loads, and describe evaluates the deepest trees there
    # are, the second derivatives of sigma
    doc.write_text(json.dumps(dict(base, sigma=source(largest))))
    code, out, err = run_out(capsys, ["describe", str(doc), "--at", "1,1"])
    assert code == 0 and err == ""
    if not bounded:
        return
    # one more, and the parser refuses it: invalid input
    doc.write_text(json.dumps(dict(base, sigma=source(largest + 1))))
    code, out, err = run_out(capsys, ["describe", str(doc), "--at", "1,1"])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("divstat: deep: sigma: expression nested too deeply (offset ")


def test_derived_tree_too_deep_to_print_is_one_line(tmp_path, capsys):
    # the quotient loads, but at (0.0085, 0.0085) its first derivatives
    # overflow in a node about 450 levels deep, whose text the message cuts
    doc = tmp_path / "deep.json"
    doc.write_text(json.dumps(dict(CUT_PLANE, name="deep", sigma=_DEEP["quotient"][0](150))))
    code, out, err = run_out(capsys, ["describe", str(doc), "--at", "0.0085,0.0085"])
    assert code == 3 and out == ""
    # the node's text, 35893 characters, opens with hundreds of parentheses
    # and ends in the division that overflows: 50 characters of each end
    tail = "2/x1/x2/x1/x2/x1/x2/x1/x2/x1/x2/x1/x2*1.0)/(x1*x1)"
    assert err == f"divstat: overflow in '{'(' * 50}...{tail}' at (0.0085, 0.0085)\n"


_DEEP_GUARD = """
import contextlib, io, json, sys
from divstat.cli import run
from divstat.manifold import ManifoldDef
from divstat.statstruct import conjugate

sys.setrecursionlimit(250)
base, cases, path = json.loads(sys.argv[1]), json.loads(sys.argv[2]), sys.argv[3]
results = []
for sigma, at in cases:
    with open(path, "w") as fh:
        json.dump(dict(base, sigma=sigma), fh)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(["describe", path, "--at", at])
    if code == 0:
        conjugate(ManifoldDef(dict(base, sigma=sigma))).at((1.0, 1.0)).hess_sigma
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


def test_deep_trees_need_no_deep_stack(tmp_path):
    # with a recursion limit far below the trees' depth, a walk that
    # recursed once per level would fail here: loading, describe and
    # conjugate on a long sum and product, and the failing-node message
    base = dict(CUT_PLANE, name="deep", sample_box=[[0.99, 1.01], [0.99, 1.01]])
    cases = [
        (_DEEP["sum"][0](982), "1,1"),
        (_DEEP["product"][0](327), "1,1"),
        (_DEEP["quotient"][0](150), "0.0085,0.0085"),
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _DEEP_GUARD, json.dumps(base), json.dumps(cases),
         str(tmp_path / "deep.json")],
        capture_output=True, text=True, timeout=120, env=_same_divstat_env(),
    )
    assert proc.returncode == 0, proc.stderr
    (sum_code, sum_err), (prod_code, prod_err), (quot_code, quot_err) = json.loads(proc.stdout)
    assert (sum_code, sum_err, prod_code, prod_err) == (0, "", 0, "")
    assert quot_code == 3 and len(quot_err.splitlines()) == 1
    assert quot_err.startswith("divstat: overflow in '")


# hostile definition documents: well-formed expressions over extreme
# literals, and token soups, in one field of a valid document

_ATOMS = st.sampled_from(["x1", "x2", "0", "2.5", "1e300", "1e-320", "1e999"])
_EXPRS = st.recursive(_ATOMS, lambda e: st.one_of(
    st.tuples(e, st.sampled_from("+-*/^"), e).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
    st.tuples(st.sampled_from(["exp", "log", "sqrt", "abs", "-"]), e).map(
        lambda t: f"{t[0]}({t[1]})"),
), max_leaves=5)
_SOUPS = st.lists(st.sampled_from([
    "x1", "x2", "0", "1e999", "1e-320", "(", ")", "+", "*", "^", "exp", "<", ">",
    "=", "and", "or", "true", "&", "|", "!", ",",
]), min_size=1, max_size=8).map(" ".join)
_CMPS = st.tuples(_EXPRS, st.sampled_from(["<", "<=", ">", ">="]), _EXPRS).map(" ".join)
# wrong-typed and out-of-range values for any field: null, booleans,
# numbers (401-digit integers among them), strings, lists and dicts, and
# pairs of pairs, the shape of a 2-D sample_box, coords or metric
_JUNK_NUMBERS = st.one_of(st.integers(-10**401, 10**401), st.floats())
_JUNK_ATOMS = st.one_of(st.none(), st.booleans(), _JUNK_NUMBERS,
                        st.sampled_from(["", "x1", "x2", "1", "-1", "true"]))
_JUNK = st.one_of(
    st.recursive(_JUNK_ATOMS, lambda j: st.one_of(
        st.lists(j, max_size=3), st.dictionaries(st.sampled_from(["a", "x1"]), j, max_size=2),
    ), max_leaves=6),
    st.lists(st.lists(_JUNK_NUMBERS, min_size=2, max_size=2), min_size=2, max_size=2),
)
_FIELDS = st.one_of(
    st.tuples(st.sampled_from(["domain", "sample_guard"]),
              st.one_of(_CMPS, st.lists(_CMPS, min_size=2, max_size=3).map(" or ".join), _SOUPS)),
    st.tuples(st.sampled_from(["sigma", "metric"]), st.one_of(_EXPRS, _SOUPS)),
    st.tuples(st.sampled_from(["name", "dim", "coords", "metric", "sigma", "domain",
                               "sample_guard", "sample_box"]), _JUNK),
)


@settings(max_examples=160, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=_FIELDS)
def test_hostile_documents_exit_cleanly(tmp_path, capsys, field):
    # an expression or predicate string goes into its field (a metric's
    # into one entry); any other value replaces the whole field
    key, text = field
    value = [[text, "0"], ["0", "1"]] if key == "metric" and isinstance(text, str) else text
    doc = tmp_path / "hostile.json"
    doc.write_text(json.dumps({**CUT_PLANE, "domain": "true", key: value}))
    for argv in (["describe", str(doc), "--at", "0.5,0.5"],
                 ["check", str(doc), "--samples", "3"]):
        code, out, err = run_out(capsys, argv)
        assert code in (0, 1, 2, 3), (field, argv)
        if code in (2, 3):
            assert len(err.splitlines()) == 1 and err.startswith("divstat: "), (field, err)
        else:
            assert err == "", (field, argv, err)


# hostile argument vectors: extreme magnitudes, non-finite strings, points
# on and across chart walls, huge parameter ranges, too few samples

_NUMBERS = st.one_of(
    st.sampled_from(["0", "-0", "nan", "-nan", "inf", "-inf", "1e-300", "-1e300", "1e300"]),
    st.builds("{}{}e{}".format, st.sampled_from(["", "-"]), st.integers(1, 9),
              st.integers(-300, 300)),
)
# the half-plane's wall x2 = 0, the puncture (x1^2 + x2^2 underflows to 0
# near it), and the cut plane's wall x1 = 2 with its neighbouring doubles
_WALLS = st.sampled_from(["0", "1e-170", "-1e-200", "2", "1.9999999999999998",
                          "2.0000000000000004"])
_POINTS = st.lists(st.one_of(_NUMBERS, _WALLS), min_size=2, max_size=2).map(",".join)
_CHARTS = st.sampled_from(["euclidean", "paraboloid", "punctured-plane",
                           "half-plane-exp", "cut-plane"])
_ARGVS = st.one_of(
    st.tuples(st.just("describe"), _CHARTS, st.just("--at"), _POINTS),
    st.tuples(
        st.just("geodesic"), _CHARTS,
        st.just("--conn"), st.sampled_from(["lc", "nabla", "bar", "lc-tilde"]),
        st.just("--from"), _POINTS, st.just("--vel"), _POINTS,
        st.just("--t-max"), st.one_of(_NUMBERS, st.sampled_from(["1", "1e308"])),
        st.just("--steps"), st.sampled_from(["0", "1", "2", "abc", "1.5"]),
    ),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_ARGVS)
def test_hostile_argument_vectors_exit_cleanly(tmp_path, capsys, monkeypatch, argv):
    # a closed geodesic runs to the step budget: a small one keeps each
    # example short, and ends such paths `step-limit` as the default does
    monkeypatch.setattr(divstat.geodesic, "MAX_STEPS", 2000)
    doc = tmp_path / "cut-plane"
    doc.write_text(json.dumps(CUT_PLANE))
    argv = [str(doc) if a == "cut-plane" else a for a in argv]
    code, out, err = run_out(capsys, argv)
    assert code in (0, 1, 2, 3), argv
    if code in (2, 3):
        assert len(err.splitlines()) == 1 and err.startswith("divstat: "), (argv, err)
    else:
        assert err == "", (argv, err)


# counts no array can hold, for every integer option: numpy refuses the
# array before any work is done
_COUNTS = st.one_of(st.integers(10**19, 10**25), st.integers(10**400, 10**401 - 1)).map(str)
_HUGE_ARGVS = st.one_of(
    st.tuples(st.just("geodesic"), _CHARTS,
              st.just("--conn"), st.sampled_from(["lc", "nabla", "bar", "lc-tilde"]),
              st.just("--from"), st.just("0.5,0.5"), st.just("--vel"), st.just("1,0.5"),
              st.just("--t-max"), st.just("1"), st.just("--steps"), _COUNTS),
    st.tuples(st.just("check"), _CHARTS, st.just("--samples"), _COUNTS,
              st.just("--seed"), _COUNTS),
    st.tuples(st.just("hadamard"), _CHARTS,
              st.just("--grid"), st.one_of(
                  _COUNTS.map("x1:0.5:1:{},x2:0.5:1:2".format),
                  _COUNTS.map("x1:0.5:1:2,x2:0.5:1:{}".format))),
    st.tuples(st.just("connect"), _CHARTS, st.just("--from"), st.just("0.5,0.5"),
              st.just("--to"), st.just("1,0.75"), st.just("--multistart"), _COUNTS,
              st.just("--seed"), _COUNTS),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_HUGE_ARGVS)
def test_counts_no_array_can_hold_are_refused_at_once(tmp_path, capsys, argv):
    doc = tmp_path / "cut-plane"
    doc.write_text(json.dumps(CUT_PLANE))
    argv = [str(doc) if a == "cut-plane" else a for a in argv]
    code, out, err = run_out(capsys, argv)
    assert (code, out) == (2, ""), (argv, err)
    assert len(err.splitlines()) == 1 and err.startswith("divstat: "), (argv, err)
    assert "Maximum allowed" in err, (argv, err)


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


def test_connect_whose_weight_overflows_on_a_long_step(capsys):
    # the fine gtilde path passes within 0.084 of the puncture on steps
    # longer than t1 / 48, where e^{-2 sigma} overflows at stage points:
    # the dense test lets the overflow pass, so the path runs on; the
    # Gauss-Newton runs make no dense test, so the solve and its length
    # stay; and the nabla parameter overflows
    code, out, err = run_out(capsys, [
        "connect", "punctured-plane", "--from=-0.5380181689364749,-1.2769909134364705",
        "--to=1.021738202481488,1.963055461804913"])
    assert code == 3
    doc = json.loads(out)
    assert doc["converged"] is True and doc["tilde_length"] == 3.5959338775753031
    assert "samples" not in doc
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("divstat: the gtilde geodesic from ")
    assert "nabla parameter overflows" in lines[0]


@pytest.mark.parametrize("argv", [
    ["check", "euclidean", "--samples", "2"],
    ["connect", "euclidean", "--from", "0,0", "--to", "1,0", "--conjugate",
     "--multistart", "1"],
    ["connect", "euclidean", "--from", "0,0", "--to", "1,0", "--multistart", "1"],
    ["contrast", "euclidean", "--p", "0,0", "--q", "1,0"],
])
def test_negative_seed_is_a_usage_error(capsys, argv):
    # numpy's generators take non-negative seeds; the line names --seed
    code, out, err = run_out(capsys, argv + ["--seed", "-1"])
    assert (code, out) == (2, "")
    assert err == "divstat: argument --seed: expected a non-negative integer, got '-1'\n"


def test_non_integer_seed_is_a_usage_error(capsys):
    code, out, err = run_out(capsys, ["contrast", "euclidean", "--p", "0,0", "--q", "1,0",
                                      "--seed", "x"])
    assert (code, out) == (2, "")
    assert err == "divstat: argument --seed: expected a non-negative integer, got 'x'\n"


def test_hadamard_takes_no_planes_or_seed(capsys):
    # the scan reads every plane at a point at once: it draws none
    for opt in ("--planes", "--seed"):
        code, out, err = run_out(capsys, ["hadamard", "euclidean", "--grid",
                                          "x1:0:1:2,x2:0:1:2", opt, "2"])
        assert (code, out) == (2, ""), opt
        assert err == f"divstat: unrecognized arguments: {opt} 2\n"


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


def test_geodesic_residual_imports_no_numpy_ma():
    # np.unique's first call imports numpy.ma, some 20 ms once per
    # process; the residual picks its centers without it
    script = (
        "import sys\n"
        "from divstat.geodesic import geodesic_residual, integrate_geodesic\n"
        "from divstat.manifold import load_manifold\n"
        "M = load_manifold('paraboloid')\n"
        "path = integrate_geodesic(M, 'nabla', (0.1, 0.2), (0.5, 0.3), 1.0)\n"
        "print(geodesic_residual(M, 'nabla', path) < 1e-3, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=_same_divstat_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True False\n"


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


# the README's examples print what the code prints

def _readme_blocks():
    # the bodies of the README's fenced code blocks, in order
    return re.findall(r"```\w*\n(.*?)```", README.read_text(), re.S)


@pytest.mark.parametrize("command", ["contrast", "hadamard"])
def test_readme_shell_examples_print_what_the_code_prints(capsys, command):
    block = next(b for b in _readme_blocks() if b.startswith(f"$ divstat {command} "))
    line, _, want = block.partition("\n")
    code, out, err = run_out(capsys, shlex.split(line)[2:])
    assert code == 0 and err == ""
    assert out == want


def test_readme_connect_example_prints_what_the_code_prints(capsys):
    blocks = _readme_blocks()
    i = next(i for i, b in enumerate(blocks) if b.startswith("divstat connect "))
    code, out, err = run_out(capsys, shlex.split(blocks[i])[1:])
    assert code == 0 and err == ""
    got = json.loads(out)
    assert got.pop("samples")
    # the example elides the samples
    want = json.loads(re.sub(r',\s*"samples": \[ \.\.\. \]', "", blocks[i + 1]))
    assert list(got.items()) == list(want.items())


def test_readme_library_example_prints_its_comments(capsys):
    block = next(b for b in _readme_blocks() if b.startswith("from divstat."))
    exec(block, {})  # noqa: S102 - the README's own example
    comments = [line.split("# ", 1)[1] for line in block.splitlines()
                if line.startswith("print(") and "# " in line]
    assert capsys.readouterr().out.splitlines() == comments
