"""Acceptance gate: ten criteria, one test per criterion.

`pytest -v` prints one pass/fail line per criterion.  Everything runs
at seed 42 with 100 sample points per manifold unless a criterion says
otherwise.  Oracle values used below:

  - paraboloid at (1,0): with g = 2/(1+r^2) I and sigma =
    -log((1+r^2)/2), the conformal Christoffel is Gamma^1_11 = -1/2,
    dsigma_1 = -1, grad^1 = -1, K^1_11 = 3/2, so the nabla coefficient
    is -1/2 + 3/2 = 1 and the conjugate one is -1/2 - 3/2 = -2.
  - paraboloid gtilde = 4/(1+r^2)^2 I is the unit sphere under
    stereographic projection: sectional curvature 1, d~((0,0),(1,0)) =
    2 arctan 1 = pi/2, and rho((0,0),(1,0)) = e^{-log 2} (pi/2)^2 =
    pi^2/8.
  - conjugate(paraboloid) has gtilde = e^{-sigma} g = I, so connecting
    geodesics are straight chart segments and d~ is Euclidean distance.
  - half-plane-exp: g is the hyperbolic metric (k = -1), sigma = e^{-y},
    |dsigma|^2 = y^2 e^{-2y}, Delta sigma = y^2 e^{-y}, so the planar
    curvature-sign quantity is f(y) = -2 + y^2 (e^{-2y} - e^{-y}) with
    f(1) = -2.2325441579348297.  f < -2 for every y > 0 and the maximum
    over the scan grid sits at the y = 0.1 edge; the scan must stay
    nonpositive.  The condition holding means connecting geodesics are
    unique, so every converged multistart branch must share one initial
    velocity.
"""

import functools
import math

import numpy as np
import pytest

from divstat.analyze import CheckOpts, check_suite, hadamard2d_scan, hadamard_scan
from divstat.cli import run
from divstat.connect import ShootOpts, contrast, contrast_structure_check, shoot_connect
from divstat.curvature import (
    DegeneratePlaneError,
    constant_curvature_residual,
    ricci,
    sectional_tilde,
)
from divstat.geodesic import (
    geodesic_residual,
    integrate_geodesic,
    reparam_from_tilde,
    reparam_to_tilde,
)
from divstat.manifold import (
    BUILTINS,
    hess_sigma,
    laplace_sigma,
    load_manifold,
    metric_at,
    sample_domain,
)
from divstat.statstruct import ConnKind, conjugate, connection_coeffs

NAMES = tuple(BUILTINS)


@functools.lru_cache(maxsize=None)
def suite(name):
    M = load_manifold(name)
    reports = check_suite(M, CheckOpts(samples=100, tol=1e-8, seed=42))
    return {r.check: r for r in reports}


def hausdorff(a, b):
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def test_criterion_01_structure_identities():
    worst = {}
    for name in NAMES:
        reps = suite(name)
        for check in ("codazzi", "duality", "connection-mean",
                      "conformal-projective"):
            val = reps[check].worst_value
            worst[check] = max(worst.get(check, 0.0), val)
            assert val < 1e-8, (name, check, val)
    print("criterion 1:", {k: f"{v:.2e}" for k, v in worst.items()})


def test_criterion_02_curvature_relations():
    for name in NAMES:
        reps = suite(name)
        for check in ("curvature-eq3", "curvature-eq4", "curvature-eq5"):
            assert reps[check].worst_value < 1e-8, (name, check)
        assert reps["ricci-symmetry"].worst_value < 1e-9, name
    print("criterion 2: curvature relations and Ricci symmetry hold")


def test_criterion_03_paraboloid_example():
    M = load_manifold("paraboloid")
    x = (1.0, 0.0)
    hat = connection_coeffs(M, x, ConnKind.NABLA)
    bar = connection_coeffs(M, x, ConnKind.NABLA_BAR)
    assert abs(hat[0, 0, 0] - 1.0) < 1e-10
    assert abs(bar[0, 0, 0] + 2.0) < 1e-10
    pts = sample_domain(M, 100, seed=42)
    cc = max(constant_curvature_residual(M, p, 1.0) for p in pts)
    assert cc < 1e-8
    ric = max(
        float(np.abs(ricci(M, p, ConnKind.NABLA) - metric_at(M, p)).max())
        for p in pts
    )
    assert ric < 1e-8
    hess = max(
        float(np.abs(hess_sigma(M, p)
                     - 0.5 * laplace_sigma(M, p) * metric_at(M, p)).max())
        for p in pts
    )
    assert hess < 1e-9
    print(f"criterion 3: lambda residual {cc:.2e}, Ric-g {ric:.2e}, "
          f"Hess {hess:.2e}")


def test_criterion_04_volume_form():
    for name in NAMES:
        reps = suite(name)
        assert reps["volume-parallel"].worst_value < 1e-8, name
        assert reps["trace-k"].worst_value < 1e-10, name
    print("criterion 4: parallel volume and trace identity hold")


def test_criterion_05_sectional_two_routes():
    rng = np.random.default_rng(42)
    worst_gap = 0.0
    for name in NAMES:
        M = load_manifold(name)
        for p in sample_domain(M, 100, seed=42):
            while True:
                try:
                    direct, via = sectional_tilde(M, p, rng.standard_normal((2, M.n)))
                    break
                except DegeneratePlaneError:
                    continue
            worst_gap = max(worst_gap, abs(direct - via))
            assert abs(direct - via) < 1e-7, (name, p)
            if name == "paraboloid":
                assert abs(direct - 1.0) < 1e-6, p
    print(f"criterion 5: worst two-route gap {worst_gap:.2e}")


def test_criterion_06_reparametrization():
    rng = np.random.default_rng(42)
    for name in NAMES:
        M = load_manifold(name)
        done = 0
        for x0 in sample_domain(M, 80, seed=42):
            if done == 20:
                break
            if name != "half-plane-exp" and np.linalg.norm(x0) > 2.0:
                continue
            v = rng.standard_normal(M.n)
            v = 0.5 * v / np.linalg.norm(v)
            path = integrate_geodesic(M, ConnKind.NABLA, x0, v, 0.8)
            if path.status != "completed":
                continue
            done += 1
            tout = reparam_to_tilde(M, path)
            assert geodesic_residual(M, ConnKind.LC_G_TILDE, tout) < 1e-6, name
            assert hausdorff(tout.xs, path.xs) < 1e-7, name
            back = reparam_from_tilde(M, tout)
            assert np.abs(back.ts - path.ts).max() < 1e-8, name
        assert done == 20, name
    print("criterion 6: 20 reparametrized geodesics per manifold check out")


def test_criterion_07_conjugate_connectedness():
    M = conjugate(load_manifold("paraboloid"))
    rng = np.random.default_rng(42)
    opts = ShootOpts(multistart=4, seed=42)
    worst_end = worst_line = worst_dist = 0.0
    for _ in range(50):
        pair = []
        while len(pair) < 2:
            x = rng.uniform(-3.0, 3.0, 2)
            if np.linalg.norm(x) < 3.0:
                pair.append(x)
        p, q = pair
        res = shoot_connect(M, p, q, opts)
        assert res.converged, (p, q)
        worst_end = max(worst_end, res.endpoint_error)
        assert res.endpoint_error < 1e-8
        t = (res.nabla_path.xs - p) @ (q - p) / np.dot(q - p, q - p)
        off = res.nabla_path.xs - (p + t[:, None] * (q - p))
        worst_line = max(worst_line, float(np.abs(off).max()))
        assert np.abs(off).max() < 1e-6
        worst_dist = max(worst_dist,
                         abs(res.tilde_length - float(np.linalg.norm(q - p))))
        assert abs(res.tilde_length - np.linalg.norm(q - p)) < 1e-8
    print(f"criterion 7: endpoint {worst_end:.2e}, collinearity "
          f"{worst_line:.2e}, distance {worst_dist:.2e} over 50 pairs")


def test_criterion_08_punctured_counterexample(capsys):
    code = run(["connect", "punctured-plane", "--from", "1,0", "--to", "-1,0"])
    cap = capsys.readouterr()
    assert code == 3
    assert "no converged geodesic" in cap.err
    assert '"converged": false' in cap.out
    M = load_manifold("punctured-plane")
    pts = [p for p in sample_domain(M, 200, seed=42) if p[0] > 0.75][:16]
    assert len(pts) == 16
    opts = ShootOpts(multistart=4, seed=42)
    for p, q in zip(pts[:8], pts[8:]):
        res = shoot_connect(M, p, q, opts)
        assert res.converged and res.endpoint_error < 1e-8, (p, q)
    print("criterion 8: antipodal pair fails, 8 same-side pairs connect")


def test_criterion_09_contrast_function():
    opts = ShootOpts(multistart=4, seed=42)
    for name in NAMES:
        M = load_manifold(name)
        for p in sample_domain(M, 3, seed=42):
            assert contrast(M, p, p, opts) == 0.0, name
    M = load_manifold("paraboloid")
    rho = contrast(M, (0.0, 0.0), (1.0, 0.0), opts)
    assert abs(rho - math.pi ** 2 / 8.0) < 1e-6
    worst_g = worst_n = 0.0
    for name in NAMES:
        M = load_manifold(name)
        for p in sample_domain(M, 3, seed=42):
            rep = contrast_structure_check(M, p, 1e-2)
            worst_g = max(worst_g, rep.g_dev)
            worst_n = max(worst_n, rep.nabla_dev)
            assert rep.g_dev < 5e-3, (name, p)
            assert rep.nabla_dev < 5e-2, (name, p)
    print(f"criterion 9: rho(p,p)=0, rho((0,0),(1,0))={rho:.9f}, "
          f"FD g {worst_g:.2e}, FD nabla {worst_n:.2e}")


def test_criterion_10_cartan_hadamard():
    M = load_manifold("half-plane-exp")
    xs = np.linspace(-5.0, 5.0, 50)
    ys = np.linspace(0.1, 10.0, 50)
    mesh = np.meshgrid(xs, ys, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    rep = hadamard2d_scan(M, grid)
    assert rep.passed and rep.worst_value <= 0.0
    # the planar quantity depends on y alone and tops out at the grid edge
    f = lambda y: -2.0 + y * y * (math.exp(-2.0 * y) - math.exp(-y))
    assert abs(rep.worst_value - max(f(y) for y in ys)) < 1e-9
    one = hadamard2d_scan(M, [(0.0, 1.0)])
    assert abs(one.worst_value - (-2.232544)) < 1e-6
    para = load_manifold("paraboloid")
    origin = hadamard2d_scan(para, [(0.0, 0.0)])
    assert not origin.passed
    assert abs(origin.worst_value - 4.0) < 1e-6
    for name in NAMES:
        m = load_manifold(name)
        pts = sample_domain(m, 25, seed=42)
        full = hadamard_scan(m, pts)
        planar = hadamard2d_scan(m, pts)
        assert abs(full.worst_value - planar.worst_value) < 1e-8, name
        assert np.allclose(full.worst_point, planar.worst_point), name
    pts = sample_domain(M, 40, seed=42)
    for p, q in zip(pts[:20], pts[20:]):
        res = shoot_connect(M, p, q, ShootOpts(multistart=6, seed=42))
        assert res.converged, (p, q)
        v0s = [s["v0"] for s in res.solutions]
        for i in range(len(v0s)):
            for j in range(i + 1, len(v0s)):
                assert np.abs(v0s[i] - v0s[j]).max() < 1e-6, (p, q)
    print(f"criterion 10: grid worst {rep.worst_value:.10f} <= 0, "
          f"paraboloid origin {origin.worst_value:.6f}, unique velocities")
