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
from scipy.integrate import RK45
from scipy.integrate._ivp import common as _ivp_common
from scipy.integrate._ivp.common import select_initial_step
from scipy.optimize import brentq

from divstat.exprcore import EvalDomainError
from divstat.geodesic import (
    EXIT_BISECT_TOL,
    ExitedDomainError,
    GeodesicError,
    GeodesicPath,
    IntegratorOpts,
    _chord_ok,
    _DomainExit,
    _eval_pieces,
    _initial_step,
    _integrate_core,
    _rhs_factory,
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
    # a gtilde-straight line past the puncture at distance 0.4: sigma moves
    # fast, so refinement leaves over a thousand samples, and the weights
    # e^{-+4/r^2} still span few enough orders of magnitude for both new
    # parameters to keep increasing (at 0.2 they do not: see below)
    punct = load_manifold("punctured-plane")
    tilde = integrate_geodesic(punct, ConnKind.LC_G_TILDE, (1.0, 0.4), (-2.0, 0.0), 1.0)
    assert tilde.status == "completed" and len(tilde.ts) > 1000
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


def test_reparam_raises_where_the_new_parameter_stops_increasing():
    # past the puncture at 0.2 the weight e^{-2 sigma} = e^{4/r^2} reaches
    # e^100: the nabla parameter grows to about 4.8e41, and the increments
    # of order one after the pass vanish in the sum.  Read as a nabla curve,
    # the same samples have weight e^{-100} there, whose increments vanish
    # against the parameter gathered before the pass.
    punct = load_manifold("punctured-plane")
    tilde = integrate_geodesic(punct, ConnKind.LC_G_TILDE, (1.0, 0.2), (-2.0, 0.0), 1.0)
    assert tilde.status == "completed" and len(tilde.ts) > 5000
    curve = GeodesicPath(kind=ConnKind.NABLA, ts=tilde.ts, xs=tilde.xs,
                         vs=tilde.vs, status="completed")
    for transform, path, sign, in_kind in (
        (reparam_from_tilde, tilde, -2.0, ConnKind.LC_G_TILDE),
        (reparam_to_tilde, curve, 2.0, ConnKind.NABLA),
    ):
        # the definition itself gives a parameter with zero steps
        ts, _, _ = _reparam_per_sample(punct, path, sign, in_kind)
        assert np.any(np.diff(ts) <= 0.0)
        with pytest.raises(GeodesicError, match="stops increasing"):
            transform(punct, path)


def _hermite_per_segment(seg, tq):
    """The quintic Hermite dense output of one step, at the times tq.

    This is its definition: (x, h v, h^2 a) at both ends of the step
    against the factored quintic basis, one step at a time.
    """
    t0, t1 = seg[:2]
    y0, y1, f0, f1 = map(np.asarray, seg[2:])
    h = t1 - t0
    u = (np.asarray(tq, dtype=float) - t0) / h
    w = 1.0 - u
    H = np.stack([
        w**3 * (1.0 + 3.0 * u + 6.0 * u**2),
        u * w**3 * (1.0 + 3.0 * u),
        0.5 * u**2 * w**3,
        u**3 * (10.0 - 15.0 * u + 6.0 * u**2),
        -u**3 * w * (4.0 - 3.0 * u),
        0.5 * u**3 * w**2,
    ], axis=-1)
    Hp = np.stack([
        -30.0 * u**2 * w**2,
        w**2 * (1.0 + 5.0 * u) * (1.0 - 3.0 * u),
        0.5 * u * w**2 * (2.0 - 5.0 * u),
        30.0 * u**2 * w**2,
        -u**2 * (6.0 - 5.0 * u) * (2.0 - 3.0 * u),
        0.5 * u**2 * w * (3.0 - 5.0 * u),
    ], axis=-1)
    n = len(y0) // 2
    D = np.stack([y0[:n], h * y0[n:], h * h * f0[n:],
                  y1[:n], h * y1[n:], h * h * f1[n:]])
    return H @ D, (Hp @ D) / h


def _eval_pieces_per_segment(segs, ts, n):
    ends = np.array([seg[1] for seg in segs])
    idx = np.minimum(np.searchsorted(ends, ts, side="left"), len(segs) - 1)
    xs = np.empty((len(ts), n))
    vs = np.empty((len(ts), n))
    for k in np.unique(idx):
        sel = idx == k
        xs[sel], vs[sel] = _hermite_per_segment(segs[k], ts[sel])
    return xs, vs


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_dense_output_matches_per_segment_hermite(name):
    M = load_manifold(name)
    rng = np.random.default_rng(91)
    for kind in ConnKind:
        x0 = sample_domain(M, 1, seed=92)[0]
        v0 = rng.standard_normal(2)
        v0 = 0.7 * v0 / np.linalg.norm(v0)
        status, t_end, _, segs, _ = _integrate_core(M, kind, x0, v0, 1.0, IntegratorOpts(), True)
        assert len(segs) >= 48, (name, kind, status)
        # the sample grid, random times, and every step end
        ts = np.sort(np.concatenate([
            np.linspace(0.0, t_end, 129),
            rng.uniform(0.0, t_end, 200),
            [seg[1] for seg in segs],
        ]))
        xs, vs = _eval_pieces(segs, ts, 2)
        xr, vr = _eval_pieces_per_segment(segs, ts, 2)
        assert np.abs(xs - xr).max() <= 1e-13 * np.abs(xr).max(), (name, kind)
        assert np.abs(vs - vr).max() <= 1e-13 * np.abs(vr).max(), (name, kind)


def _chord_ok_numpy(M, x_a, x_b):
    """The chord probe on numpy arrays, np.linspace's fractions: the reference."""
    gap = np.abs(x_b - x_a).max()
    scale = 1.0 + max(np.abs(x_a).max(), np.abs(x_b).max())
    k = int(min(31, max(3, np.ceil(gap / (0.03 * scale)))))
    for frac in np.linspace(0.0, 1.0, k + 2)[1:-1]:
        if not in_domain(M, (1.0 - frac) * x_a + frac * x_b):
            return False
    return True


@pytest.mark.parametrize("name, center, spread", [
    # chords near and across the puncture, and across the wall x2 = 0
    ("punctured-plane", (0.0, 0.0), 0.12),
    ("half-plane-exp", (0.0, 0.05), 0.2),
])
def test_scalar_chord_probe_matches_numpy(name, center, spread):
    M = load_manifold(name)
    rng = np.random.default_rng(93)
    verdicts = []
    while len(verdicts) < 6000:
        x_a = np.array(center) + spread * rng.uniform(-1.0, 1.0, 2)
        if not in_domain(M, x_a):
            continue
        # lengths from far below to far above the probe spacing
        x_b = x_a + 10.0 ** rng.uniform(-4.0, 0.5) * rng.standard_normal(2)
        want = _chord_ok_numpy(M, x_a, x_b)
        assert _chord_ok(M, x_a.tolist(), x_b.tolist()) == want, (x_a, x_b)
        verdicts.append(want)
    assert 100 < sum(verdicts) < len(verdicts) - 100


def test_singular_metric_exits_the_domain():
    # g = diag(x1^2, 1) is singular on x1 = 0, which the chart does not
    # exclude: the spray's LDL^T solve divides by zero there, and the
    # integrator reports an exit rather than raising
    M = load_manifold({
        "name": "singular-line", "dim": 2, "coords": ["x1", "x2"],
        "metric": [["x1^2", "0"], ["0", "1"]], "sigma": "0",
    })
    path = integrate_geodesic(M, ConnKind.LC_G, (0.0, 0.5), (1.0, 0.0), 1.0)
    assert path.status == "exited-domain"
    assert len(path.ts) == 1 and path.ts[0] == 0.0


def _integrate_core_rk45(M, kind, x0, v0, t1, opts, collect, escape=None):
    """The integrator loop driven by scipy's RK45: the reference.

    Returns (status, t_end, y_end, segs, accepted steps), with segs as
    geodesic._integrate_core gives them when collect is set.
    """
    n = M.n
    y0 = np.concatenate([np.asarray(x0, dtype=float), np.asarray(v0, dtype=float)])
    rhs_list = _rhs_factory(M, kind)

    def rhs(t, y):
        return rhs_list(y.tolist())

    max_step = t1 / 48.0 if collect else np.inf
    try:
        rk = RK45(rhs, 0.0, y0, t_bound=t1,
                  rtol=opts.rtol, atol=opts.atol, max_step=max_step)
    except _DomainExit:
        return "exited-domain", 0.0, y0, [], 0
    segs = []
    status = "completed"
    steps = 0
    t_end, y_end = 0.0, y0
    while rk.status == "running":
        if steps >= opts.max_steps:
            status = "step-limit"
            break
        y = rk.y.tolist()
        speed = max(map(abs, y[n:]))
        if speed > 0.0:
            cap = 0.5 * (1.0 + max(map(abs, y[:n]))) / speed
            rk.max_step = min(max_step, cap)
        t_prev, y_prev, f_prev = rk.t, rk.y, rk.f
        try:
            rk.step()
        except _DomainExit:
            if rk.h_abs <= EXIT_BISECT_TOL:
                status = "exited-domain"
                break
            rk.h_abs = 0.5 * rk.h_abs
            continue
        if rk.status == "failed":
            status = "step-limit"
            break
        h_used = rk.t - t_prev
        if not _chord_ok(M, y[:n], rk.y[:n].tolist()):
            if h_used <= EXIT_BISECT_TOL:
                status = "exited-domain"
                break
            rk = RK45(rhs, t_prev, y_prev, t_bound=t1,
                      rtol=opts.rtol, atol=opts.atol, max_step=max_step,
                      first_step=min(0.5 * h_used, t1 - t_prev))
            continue
        t_end, y_end = rk.t, rk.y
        steps += 1
        if collect:
            segs.append((t_prev, rk.t, y_prev, rk.y, f_prev, rk.f))
        if escape is not None and max(map(abs, rk.y[:n].tolist())) > escape:
            status = "escaped"
            break
    return status, t_end, y_end, segs, steps


def _assert_same_run(M, kind, x0, v0, t1, opts, collect, escape=None, t_tol=1e-12):
    got = _integrate_core(M, kind, x0, v0, t1, opts, collect, escape)
    want = _integrate_core_rk45(M, kind, x0, v0, t1, opts, collect, escape)
    assert got[0] == want[0], (M.name, kind, got[0], want[0])
    if got[0] == "completed":
        assert got[4]["accepted"] == want[4], (M.name, kind)
        ends, ends_want = [s[1] for s in got[3]], [s[1] for s in want[3]]
        assert np.abs(np.subtract(ends, ends_want)).max(initial=0.0) <= t_tol * t1
        scale = np.abs(want[2]).max()
        assert np.abs(got[2] - want[2]).max() <= 1e-12 * scale, (M.name, kind)
    return got


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_integrator_matches_scipy_rk45(name):
    M = load_manifold(name)
    rng = np.random.default_rng(95)
    for kind in ConnKind:
        x0 = sample_domain(M, 1, seed=96)[0]
        v0 = rng.standard_normal(2)
        v0 = 0.7 * v0 / np.linalg.norm(v0)
        got = _assert_same_run(M, kind, x0, v0, 1.0, IntegratorOpts(), True)
        assert got[0] == "completed" and len(got[3]) >= 48, (name, kind)
        # over a longer range the error control, not the t1/48 cap, sets
        # most steps.  The embedded error estimate cancels down to about
        # rtol times the solution, so summing its terms in another order
        # (numpy's BLAS may also fuse multiply-adds) moves each step by up
        # to about eps / rtol relative; the endpoint stays at rounding level
        _assert_same_run(M, kind, x0, v0, 4.0, IntegratorOpts(), True, t_tol=1e-6)


def test_integrator_matches_scipy_rk45_at_walls_and_limits():
    punct = load_manifold("punctured-plane")
    tilde = ConnKind.LC_G_TILDE
    # into the puncture: domain exits halve the step down to the bisection
    got = _assert_same_run(punct, tilde, (1.0, 0.0), (-1.0, 0.0), 1.0, IntegratorOpts(), False)
    assert got[0] == "exited-domain" and got[4]["halvings"] > 0
    # a long step past the puncture: the chord probe rewinds it
    x0, v0 = (0.3456209967315167, -0.7556183548414255), (-0.5079181629548555, 1.3164552433014556)
    opts = IntegratorOpts(rtol=1e-5, atol=1e-7)
    got = _assert_same_run(punct, tilde, x0, v0, 1.0, opts, False)
    assert got[0] == "completed" and got[4]["rewinds"] > 0
    # a path that leaves the problem's scale
    got = _assert_same_run(punct, tilde, (1.0, 0.5), (3.0, 2.0), 1.0, opts, False, escape=2.0)
    assert got[0] == "escaped"
    para = load_manifold("paraboloid")
    got = _assert_same_run(para, ConnKind.NABLA, (0.0, 0.0), (1.0, 0.0), 10.0,
                           IntegratorOpts(max_steps=2), True)
    assert got[0] == "step-limit" and got[4]["accepted"] == 2


def test_initial_step_matches_scipy():
    rng = np.random.default_rng(97)
    for name in sorted(BUILTINS):
        M = load_manifold(name)
        for kind in ConnKind:
            rhs = _rhs_factory(M, kind)
            for x in sample_domain(M, 5, seed=98):
                y = [*x.tolist(), *(rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 1)).tolist()]
                f = rhs(y)
                for t1, max_step, rtol, atol in ((1.0, np.inf, 1e-9, 1e-11),
                                                 (2.0, 2.0 / 48.0, 1e-5, 1e-7)):
                    want = select_initial_step(
                        lambda t, yy: np.asarray(rhs(yy.tolist())), 0.0, np.array(y), t1,
                        max_step, np.array(f), 1.0, 4, rtol, atol)
                    got = _initial_step(rhs, y, f, t1, max_step, rtol, atol)
                    assert abs(got - want) <= 1e-14 * want, (name, kind, y)


def _scaled_norm(x):
    # scipy's RMS norm, rescaled by the largest magnitude before squaring
    big = np.abs(x).max()
    if big == 0.0 or big == np.inf:
        return big
    return big * np.linalg.norm(x / big) / x.size ** 0.5


@pytest.mark.parametrize("speed", [1e150, 1e300])
def test_initial_step_at_overflowing_speeds_matches_scipy(speed, monkeypatch):
    # at 1e150 the squares of the scaled state overflow, and scipy's norm
    # is inf where the rescaled one is not.  At 1e300 and atol 1e-11 the
    # scaled velocity itself is inf, so h0 = 0 and both steps are 0,
    # scipy's by dividing by h0
    monkeypatch.setattr(_ivp_common, "norm", _scaled_norm)
    rhs = _rhs_factory(load_manifold("euclidean"), ConnKind.LC_G)
    y = [0.0, 0.0, speed, 0.0]
    f = rhs(y)
    got = []
    for t1, max_step, rtol, atol in ((1.0, np.inf, 1e-9, 1e-11),
                                     (2.0, 2.0 / 48.0, 1e-5, 1e-7)):
        with np.errstate(all="ignore"):
            want = select_initial_step(
                lambda t, yy: np.asarray(rhs(yy.tolist())), 0.0, np.array(y), t1,
                max_step, np.array(f), 1.0, 4, rtol, atol)
        got.append(_initial_step(rhs, y, f, t1, max_step, rtol, atol))
        assert abs(got[-1] - want) <= 1e-14 * want, (speed, got[-1], want)
    assert (got[0] == 0.0) == (speed == 1e300) and got[1] > 0.0


def test_integrator_counts_in_meta():
    punct = load_manifold("punctured-plane")
    path = integrate_geodesic(punct, ConnKind.LC_G_TILDE, (1.0, 0.0), (-1.0, 0.0), 1.0)
    assert path.status == "exited-domain"
    counts = path.meta["integrator"]
    assert counts["halvings"] >= 1 and counts["accepted"] >= 1
    para = load_manifold("paraboloid")
    path = integrate_geodesic(para, ConnKind.NABLA, (0.3, -0.2), (1.0, 0.5), 1.0)
    assert path.status == "completed"
    counts = path.meta["integrator"]
    assert counts["halvings"] == 0 and counts["rewinds"] == 0
    assert counts["accepted"] >= 48
    # the counts travel with the path through the parameter change
    assert reparam_to_tilde(para, path).meta["integrator"] == counts
