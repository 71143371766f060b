"""Two-point connection, tilde distance, and the contrast function.

Closed-form oracles:
  - conjugate(paraboloid): gtilde = e^{-sigma} g = Euclidean metric, so
    tilde geodesics are straight chart segments and d~ is the chart
    distance ((0,0)->(1,0) gives 1, (0,0)->(3,4) gives 5).
  - paraboloid: gtilde = 4/(1+r^2)^2 delta is the stereographic sphere
    metric, d~((0,0),(r,0)) = 2 arctan(r); at (1,0) that is pi/2.
  - punctured-plane: every nabla-geodesic image is a straight line and the
    segment (1,0)->(-1,0) passes through the deleted disk, so the
    antipodal problem cannot converge.
  - contrast derivatives on the diagonal: rho(X|Y) = -g(X,Y) and
    rho(XY|Z) = -g(nabla_X Y, Z).
"""

import math

import numpy as np
import pytest

from divstat.connect import (
    ConnectResult,
    NoConvergenceError,
    ShootOpts,
    contrast,
    contrast_structure_check,
    distance_symmetry_gap,
    distance_tilde,
    shoot_connect,
)
from divstat.geodesic import geodesic_residual
from divstat.manifold import load_manifold, metric_at, sigma_at
from divstat.statstruct import ConnKind, conjugate


def hausdorff(a, b):
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def test_conjugate_paraboloid_straight_segment():
    m = conjugate(load_manifold("paraboloid"))
    p, q = np.zeros(2), np.array([1.0, 0.0])
    res = shoot_connect(m, p, q)
    assert isinstance(res, ConnectResult)
    assert res.converged
    assert res.endpoint_error <= 1e-8
    assert abs(res.tilde_length - 1.0) < 1e-8
    assert res.attempts >= 1
    assert res.solutions
    # straight image: the nabla path stays on the segment
    assert np.abs(res.nabla_path.xs[:, 1]).max() < 1e-7
    assert np.all(np.diff(res.nabla_path.xs[:, 0]) > -1e-12)
    # endpoints of the reparametrized path hit p and q
    assert np.linalg.norm(res.nabla_path.xs[0] - p) <= 1e-8
    assert np.linalg.norm(res.nabla_path.xs[-1] - q) <= 1e-8
    assert geodesic_residual(m, ConnKind.NABLA, res.nabla_path) < 1e-6
    assert hausdorff(res.nabla_path.xs, res.tilde_path.xs) < 1e-7


def test_paraboloid_sphere_distance():
    m = load_manifold("paraboloid")
    res = shoot_connect(m, [0.0, 0.0], [1.0, 0.0])
    assert res.converged
    assert abs(res.tilde_length - math.pi / 2.0) < 1e-6
    # the selected solution is the shortest converged one
    assert res.tilde_length == min(s["tilde_length"] for s in res.solutions)
    assert geodesic_residual(m, ConnKind.NABLA, res.nabla_path) < 1e-6


def test_distance_oracles():
    m = conjugate(load_manifold("paraboloid"))
    assert distance_tilde(m, [0.2, -0.4], [0.2, -0.4]) == 0.0
    assert abs(distance_tilde(m, [0.0, 0.0], [3.0, 4.0]) - 5.0) < 1e-6
    p = load_manifold("paraboloid")
    assert abs(distance_tilde(p, [0.0, 0.0], [1.0, 0.0]) - math.pi / 2.0) < 1e-6
    assert distance_symmetry_gap(p, [0.0, 0.0], [0.6, 0.2]) < 1e-6


def test_punctured_antipodal_fails_same_side_works():
    m = load_manifold("punctured-plane")
    res = shoot_connect(m, [1.0, 0.0], [-1.0, 0.0])
    assert not res.converged
    assert res.endpoint_error > 0.05
    with pytest.raises(NoConvergenceError) as exc:
        distance_tilde(m, [1.0, 0.0], [-1.0, 0.0])
    assert exc.value.best_error > 0.05
    # a pair whose segment stays clear of the deleted disk connects, and
    # gtilde is exactly Euclidean there
    p, q = np.array([1.0, 0.0]), np.array([0.2, 1.0])
    res2 = shoot_connect(m, p, q)
    assert res2.converged and res2.endpoint_error <= 1e-8
    assert abs(res2.tilde_length - np.linalg.norm(q - p)) < 1e-7
    # collinear image
    t = (res2.nabla_path.xs - p) @ (q - p) / np.dot(q - p, q - p)
    offsets = res2.nabla_path.xs - (p + t[:, None] * (q - p))
    assert np.abs(offsets).max() < 1e-6


def test_contrast_values():
    m = load_manifold("paraboloid")
    assert contrast(m, [0.4, -0.1], [0.4, -0.1]) == 0.0
    assert abs(contrast(m, [0.0, 0.0], [1.0, 0.0]) - math.pi**2 / 8.0) < 1e-6
    c = conjugate(m)
    assert abs(contrast(c, [0.0, 0.0], [1.0, 0.0]) - 2.0) < 1e-7


def test_contrast_structure_euclidean():
    m = load_manifold("euclidean")
    rep = contrast_structure_check(m, [0.0, 0.0], 1e-3)
    assert rep.g_dev < 1e-5
    assert rep.nabla_dev < 1e-5
    # contrast axiom proxy: the mixed-derivative matrix is positive definite
    assert np.linalg.eigvalsh(rep.g_fd).min() > 0.0


def test_contrast_structure_paraboloid():
    m = load_manifold("paraboloid")
    p = np.array([0.0, 0.0])
    rep = contrast_structure_check(m, p, 1e-2)
    assert rep.g_dev < 5e-3
    assert rep.nabla_dev < 5e-2
    assert np.abs(rep.g_fd - metric_at(m, p)).max() == rep.g_dev
    assert np.linalg.eigvalsh(rep.g_fd).min() > 0.0


def test_shoot_opts_validation_and_determinism():
    with pytest.raises(ValueError):
        ShootOpts(multistart=0)
    with pytest.raises(ValueError):
        ShootOpts(eps_bvp=-1.0)
    m = load_manifold("paraboloid")
    p, q = [0.0, 0.0], [0.4, 0.3]
    a = shoot_connect(m, p, q, ShootOpts(seed=7))
    b = shoot_connect(m, p, q, ShootOpts(seed=7))
    assert a.tilde_length == b.tilde_length
    assert a.endpoint_error == b.endpoint_error
    assert np.array_equal(a.tilde_path.vs[0], b.tilde_path.vs[0])
    assert len(a.solutions) == len(b.solutions)
    for sa, sb in zip(a.solutions, b.solutions):
        assert np.array_equal(sa["v0"], sb["v0"])


def test_contrast_scaling_against_sigma():
    # rho scales the squared tilde distance by e^{-sigma(p)}, so the same
    # geometry probed from p and q differs exactly by the sigma factors
    m = load_manifold("paraboloid")
    p, q = [0.0, 0.0], [0.5, 0.2]
    d2 = distance_tilde(m, p, q) ** 2
    assert abs(contrast(m, p, q) - math.exp(-sigma_at(m, np.array(p))) * d2) < 1e-9


def test_converged_solve_with_overflowing_nabla_parameter():
    # a converged gtilde solve whose path passes close enough to the
    # puncture that e^{-2 sigma} overflows is reported, not raised
    punct = load_manifold("punctured-plane")
    res = shoot_connect(punct, (1.507, 0.606), (-1.313, -0.421), ShootOpts(multistart=6))
    assert res.converged
    assert res.nabla_path is None
    assert res.tilde_path.status == "completed"
    assert np.linalg.norm(res.tilde_path.xs, axis=1).min() < 0.078
    assert res.endpoint_error <= 1e-8
