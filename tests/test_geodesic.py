"""Geodesic integration, exponential map, and parameter transformations.

Closed-form oracles used here:
  - hyperbolic upper half plane: the vertical unit-speed geodesic from (0,1)
    is (0, e^t)
  - the conformal metric of the curvature-one example is the stereographic
    sphere metric, whose axis geodesic from the origin is x(t) = tan(t) when
    started with chart velocity (1,0)
  - the matching statistical-connection geodesic satisfies t = x + x^3/3
    (integrating dt/ds = e^{-2 sigma} along the tangent line), so the tilde
    parameter at its endpoint is 4 arctan(x_end)
"""

import io
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from divstat.exprcore import EvalDomainError
from divstat.geodesic import (
    ExitedDomainError,
    GeodesicError,
    GeodesicPath,
    IntegratorOpts,
    exp_map,
    geodesic_residual,
    integrate_geodesic,
    reparam_from_tilde,
    reparam_to_tilde,
)
from divstat.manifold import (
    BUILTINS,
    OutOfDomainError,
    in_domain,
    load_manifold,
    sample_domain,
)
from divstat.statstruct import ConnKind, conjugate

HALF_SPACE = {
    "name": "half-space-flat",
    "dim": 2,
    "coords": ["x1", "x2"],
    "domain": "x2 > 0",
    "metric": [["1", "0"], ["0", "1"]],
    "sigma": "0",
    "sample_box": [[-1.0, 1.0], [0.1, 1.0]],
}


def test_euclidean_straight_line():
    eucl = load_manifold("euclidean")
    path = integrate_geodesic(eucl, ConnKind.NABLA, (0.0, 0.0), (1.0, 0.0), 1.0)
    assert path.status == "completed"
    assert np.allclose(path.xs[-1], (1.0, 0.0), atol=1e-12)
    assert np.allclose(path.vs[-1], (1.0, 0.0), atol=1e-12)
    assert len(path.ts) == IntegratorOpts().dense_samples
    assert np.all(np.diff(path.ts) > 0)
    assert geodesic_residual(eucl, ConnKind.NABLA, path) < 1e-12


def test_halfplane_vertical_geodesic():
    half = load_manifold("half-plane-exp")
    path = integrate_geodesic(half, ConnKind.LC_G, (0.0, 1.0), (0.0, 1.0), 1.0)
    assert path.status == "completed"
    assert np.abs(path.xs[:, 0]).max() < 1e-12
    assert abs(path.xs[-1, 1] - math.e) < 1e-8


def test_paraboloid_tilde_geodesic_tangent_law():
    para = load_manifold("paraboloid")
    path = integrate_geodesic(para, ConnKind.LC_G_TILDE, (0.0, 0.0), (1.0, 0.0), 0.5)
    assert path.status == "completed"
    assert abs(path.xs[-1, 0] - math.tan(0.5)) < 1e-8
    assert abs(path.xs[-1, 1]) < 1e-10


def test_paraboloid_nabla_geodesic_cubic_law():
    para = load_manifold("paraboloid")
    path = integrate_geodesic(para, ConnKind.NABLA, (0.0, 0.0), (1.0, 0.0), 0.5)
    x_want = brentq(lambda u: u + u**3 / 3.0 - 0.5, 0.0, 1.0, xtol=1e-14)
    assert abs(path.xs[-1, 0] - x_want) < 1e-8
    assert abs(path.xs[-1, 1]) < 1e-10


def test_punctured_nabla_image_is_vertical_line():
    punc = load_manifold("punctured-plane")
    path = integrate_geodesic(punc, ConnKind.NABLA, (1.0, 0.0), (0.0, 1.0), 2.0)
    assert path.status == "completed"
    assert np.abs(path.xs[:, 0] - 1.0).max() < 1e-6


def test_punctured_tilde_geodesic_exits_at_wall():
    punc = load_manifold("punctured-plane")
    path = integrate_geodesic(punc, ConnKind.LC_G_TILDE, (1.0, 0.0), (-1.0, 0.0), 2.0)
    assert path.status == "exited-domain"
    assert 0.9 < path.ts[-1] < 0.96
    for t, x, v in path.samples:
        assert in_domain(punc, x)


def test_exit_bisection_is_tight():
    m = load_manifold(HALF_SPACE)
    path = integrate_geodesic(m, ConnKind.LC_G, (0.0, 1.0), (0.0, -1.0), 2.0)
    assert path.status == "exited-domain"
    assert abs(path.ts[-1] - 1.0) < 1e-8
    assert path.xs[-1, 1] > 0.0


def test_time_rescale_consistency():
    rng = np.random.default_rng(81)
    for name in BUILTINS:
        m = load_manifold(name)
        x0 = sample_domain(m, 1, seed=82)[0]
        v = rng.standard_normal(2)
        v = 0.5 * v / np.linalg.norm(v)
        a = integrate_geodesic(m, ConnKind.NABLA, x0, v, 0.6)
        b = integrate_geodesic(m, ConnKind.NABLA, x0, 2.0 * v, 0.3)
        if a.status == b.status == "completed":
            assert np.abs(a.xs[-1] - b.xs[-1]).max() < 1e-8, name


def test_exp_map():
    para = load_manifold("paraboloid")
    for kind in ConnKind:
        assert np.allclose(exp_map(para, kind, (0.3, -0.2), (0.0, 0.0)), (0.3, -0.2))
    eucl = load_manifold("euclidean")
    assert np.allclose(exp_map(eucl, ConnKind.LC_G, (0.0, 0.0), (1.0, 2.0)), (1.0, 2.0), atol=1e-12)
    conj = conjugate(para)
    got = exp_map(conj, ConnKind.LC_G_TILDE, (0.0, 0.0), (1.0, 0.0))
    assert np.abs(got - np.array([1.0, 0.0])).max() < 1e-9
    punc = load_manifold("punctured-plane")
    with pytest.raises(ExitedDomainError) as err:
        exp_map(punc, ConnKind.LC_G_TILDE, (1.0, 0.0), (-1.0, 0.0))
    assert 0.0 < err.value.t_exit < 1.0


def test_step_limit_reported():
    para = load_manifold("paraboloid")
    opts = IntegratorOpts(max_steps=2)
    path = integrate_geodesic(para, ConnKind.NABLA, (0.0, 0.0), (1.0, 0.0), 10.0, opts)
    assert path.status == "step-limit"
    assert path.ts[-1] < 10.0


def test_integrate_validates_input():
    para = load_manifold("paraboloid")
    with pytest.raises(ValueError):
        integrate_geodesic(para, ConnKind.NABLA, (0.0, 0.0), (1.0, 0.0), 0.0)
    half = load_manifold("half-plane-exp")
    with pytest.raises(OutOfDomainError):
        integrate_geodesic(half, ConnKind.LC_G, (0.0, -1.0), (1.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        IntegratorOpts(rtol=-1.0)


def test_reparam_euclidean_is_identity():
    eucl = load_manifold("euclidean")
    path = integrate_geodesic(eucl, ConnKind.NABLA, (0.0, 0.0), (0.3, 0.4), 1.0)
    tout = reparam_to_tilde(eucl, path)
    assert tout.kind is ConnKind.LC_G_TILDE
    assert np.abs(tout.ts - path.ts).max() < 1e-12
    assert np.array_equal(tout.xs, path.xs)
    assert np.abs(tout.vs - path.vs).max() < 1e-12
    back = reparam_from_tilde(eucl, tout)
    assert back.kind is ConnKind.NABLA
    assert np.abs(back.ts - path.ts).max() < 1e-12


def test_reparam_paraboloid_oracle_and_residual():
    para = load_manifold("paraboloid")
    path = integrate_geodesic(para, ConnKind.NABLA, (0.0, 0.0), (1.0, 0.0), 0.5)
    tout = reparam_to_tilde(para, path)
    # the tilde parameter of the endpoint is 4 arctan(x_end)
    assert abs(tout.ts[-1] - 4.0 * math.atan(path.xs[-1, 0])) < 1e-7
    assert np.all(np.diff(tout.ts) > 0)
    assert np.array_equal(tout.xs, path.xs)
    assert geodesic_residual(para, ConnKind.LC_G_TILDE, tout) < 1e-6
    back = reparam_from_tilde(para, tout)
    assert np.abs(back.ts - path.ts).max() < 1e-8
    assert np.abs(back.vs - path.vs).max() < 1e-8


def test_reparam_roundtrip_all_builtins():
    rng = np.random.default_rng(83)
    for name in BUILTINS:
        m = load_manifold(name)
        done = 0
        for x0 in sample_domain(m, 12, seed=84):
            # keep moderate radii where the radial conformal factors are tame;
            # the half-plane scale is set by y alone, not the radius
            if name != "half-plane-exp" and np.linalg.norm(x0) > 2.0:
                continue
            v = rng.standard_normal(2)
            v = 0.5 * v / np.linalg.norm(v)
            path = integrate_geodesic(m, ConnKind.NABLA, x0, v, 0.8)
            if path.status != "completed":
                continue
            done += 1
            tout = reparam_to_tilde(m, path)
            assert np.all(np.diff(tout.ts) > 0), name
            back = reparam_from_tilde(m, tout)
            assert np.abs(back.ts - path.ts).max() < 1e-8, name
            assert np.abs(back.vs - path.vs).max() < 1e-8, name
            assert np.array_equal(tout.xs, path.xs) and np.array_equal(
                back.xs, path.xs
            ), name
        assert done >= 4, name


def test_residual_bound_and_sensitivity():
    rng = np.random.default_rng(85)
    for name in BUILTINS:
        m = load_manifold(name)
        x0 = sample_domain(m, 1, seed=86)[0]
        v = rng.standard_normal(2)
        v = 0.5 * v / np.linalg.norm(v)
        path = integrate_geodesic(m, ConnKind.NABLA, x0, v, 0.7)
        if path.status != "completed":
            continue
        assert geodesic_residual(m, ConnKind.NABLA, path) < 1e-7, name
    para = load_manifold("paraboloid")
    path = integrate_geodesic(para, ConnKind.NABLA, (0.0, 0.0), (1.0, 0.0), 1.0)
    clean = geodesic_residual(para, ConnKind.NABLA, path)
    assert clean < 1e-7
    jittered = GeodesicPath(
        kind=path.kind,
        ts=path.ts,
        xs=path.xs + 1e-3 * rng.standard_normal(path.xs.shape),
        vs=path.vs,
        status=path.status,
    )
    assert geodesic_residual(para, ConnKind.NABLA, jittered) > 1e-3


def test_residual_needs_five_samples():
    para = load_manifold("paraboloid")
    stub = GeodesicPath(
        kind=ConnKind.NABLA,
        ts=np.array([0.0, 0.1, 0.2]),
        xs=np.zeros((3, 2)),
        vs=np.zeros((3, 2)),
        status="completed",
    )
    with pytest.raises(ValueError):
        geodesic_residual(para, ConnKind.NABLA, stub)


def test_csv_export():
    eucl = load_manifold("euclidean")
    path = integrate_geodesic(eucl, ConnKind.LC_G, (0.0, 0.0), (1.0, -0.5), 1.0)
    buf = io.StringIO()
    path.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,x1,x2,v1,v2"
    assert lines[-1] == "# status=completed"
    rows = lines[1:-1]
    assert len(rows) == len(path.ts)
    first = [float(tok) for tok in rows[0].split(",")]
    assert first == [0.0, 0.0, 0.0, 1.0, -0.5]
    last = [float(tok) for tok in rows[-1].split(",")]
    assert last[0] == path.ts[-1]
    assert np.allclose(last[1:3], path.xs[-1], atol=0)


def _reparam_per_sample(M, path, sign, in_kind):
    """The parameter change of geodesic._reparam, one sample at a time.

    This is its definition: the weight F = e^{sign * sigma} and its first
    two parameter derivatives at each sample, then two-point quintic
    Hermite quadrature.  Returns (ts, vs, quadrature_error).
    """
    ts, xs, vs = path.ts, path.xs, path.vs
    m = len(ts)
    F = np.empty(m)
    Fp = np.empty(m)
    Fpp = np.empty(m)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m):
            P = M.at(xs[j])
            sig, dsig, hsig = P.sigma, P.dsigma, P.d2sigma
            v = vs[j]
            acc = -np.einsum("kij,i,j->k", P.gamma(in_kind), v, v)
            lp = sign * float(dsig @ v)
            lpp = sign * float(v @ hsig @ v + dsig @ acc)
            F[j] = np.exp(sign * sig)
            Fp[j] = lp * F[j]
            Fpp[j] = (lpp + lp * lp) * F[j]
    if not (np.all(np.isfinite(F)) and np.all(F > 0.0)
            and np.all(np.isfinite(Fp)) and np.all(np.isfinite(Fpp))):
        raise GeodesicError("weight overflows or underflows")
    h = np.diff(ts)
    seg = (0.5 * h * (F[:-1] + F[1:])
           + 0.1 * h * h * (Fp[:-1] - Fp[1:])
           + h ** 3 / 120.0 * (Fpp[:-1] + Fpp[1:]))
    cubic = 0.5 * h * (F[:-1] + F[1:]) + h * h / 12.0 * (Fp[:-1] - Fp[1:])
    s = np.concatenate([[0.0], np.cumsum(seg)])
    return s, vs / F[:, None], abs(float(np.sum(seg - cubic)))


def test_reparam_matches_its_per_sample_definition():
    # a gtilde-straight line past the puncture at distance 0.2: sigma moves
    # fast, so refinement leaves thousands of samples
    punct = load_manifold("punctured-plane")
    tilde = integrate_geodesic(punct, ConnKind.LC_G_TILDE, (1.0, 0.2), (-2.0, 0.0), 1.0)
    assert tilde.status == "completed" and len(tilde.ts) > 5000
    # the other direction reads the same samples as a nabla curve; both
    # transforms are defined for any sampled curve
    curve = GeodesicPath(kind=ConnKind.NABLA, ts=tilde.ts, xs=tilde.xs,
                         vs=tilde.vs, status="completed")
    for got, path, sign, in_kind in (
        (reparam_from_tilde(punct, tilde), tilde, -2.0, ConnKind.LC_G_TILDE),
        (reparam_to_tilde(punct, curve), curve, 2.0, ConnKind.NABLA),
    ):
        ts, vs, quad = _reparam_per_sample(punct, path, sign, in_kind)
        assert np.abs(got.ts - ts).max() <= 1e-13 * np.abs(ts).max()
        assert np.all(np.abs(got.vs - vs) <= 1e-13 * np.abs(vs))
        assert abs(got.meta["quadrature_error"] - quad) <= 1e-13 * quad
        assert np.array_equal(got.xs, path.xs)
    # passing at 0.06 the path stays in the chart, but e^{-2 sigma} = e^{4/r^2}
    # overflows
    close = integrate_geodesic(punct, ConnKind.LC_G_TILDE, (1.0, 0.06), (-2.0, 0.0), 1.0)
    assert close.status == "completed"
    with pytest.raises(GeodesicError):
        _reparam_per_sample(punct, close, -2.0, ConnKind.LC_G_TILDE)
    with pytest.raises(GeodesicError, match="overflows"):
        reparam_from_tilde(punct, close)
