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
import itertools
import math
import struct
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import RK45
from scipy.integrate._ivp import common as _ivp_common
from scipy.integrate._ivp import rk as _scipy_rk
from scipy.integrate._ivp.common import select_initial_step
from scipy.optimize import brentq

import divstat.geodesic
from divstat.connect import _COARSE, _FINE, _SCOUT
from divstat.exprcore import EvalDomainError
from divstat.geodesic import (
    _DP_B,
    EXIT_BISECT_TOL,
    ExitedDomainError,
    GeodesicError,
    GeodesicPath,
    IntegratorOpts,
    StepLimitError,
    MAX_STEPS,
    _COUNTS,
    _DomainExit,
    _eval_pieces,
    _fold,
    _integrate_core,
    _integrator,
    _replay,
    _run,
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
import integrator_reference
from integrator_reference import (
    chord_ok,
    dense_error,
    dopri5_step,
    initial_step,
    integrate_core,
    replay,
    rhs_factory,
    run as reference_run,
)
from test_analyze import SKEW3
from test_cli import _same_divstat_env

_RK_STEP = _scipy_rk.rk_step

# the lc-tilde geodesic from here is a straight line (e^sigma g = I on the
# punctured plane) that passes the puncture at r = 0.05046, inside the disk
# r < 0.05308 where g = e^{2/r^2} overflows: it leaves the chart there
INTO_THE_DISK = ((0.3456209967315167, -0.7556183548414255),
                 (-0.5079181629548555, 1.3164552433014556))


def _holed_great_circle():
    # the unit circle, a great circle of the paraboloid's sphere e^sigma g,
    # from (1, 0) at unit speed, on a chart with a hole of radius 0.003 cut
    # just inside it: the path clears the hole by about 0.005, and at rtol 1e-5
    # the chord of one long step crosses it, so the chord probe rewinds
    # that step and the path completes.  No lc-tilde line of the punctured
    # plane is rewound and clears the overflow disk: its chords lie on it
    M = load_manifold(dict(BUILTINS["paraboloid"], name="holed-paraboloid",
                           domain="(x1 - 0.8002)^2 + (x2 - 0.5864)^2 > 0.003^2"))
    return M, (1.0, 0.0), (0.0, 1.0)


def _core(M, kind, x0, v0, t1, opts, collect, escape=None, steps=None):
    # _integrate_core's result through the unchecked _run, with the
    # shooting trials' hooks: knots (and so the dense test) only where
    # collect is set, an escape radius, and a list for the step sizes
    rows = [] if collect else None
    status, t, y, _, _, *counts, _, _ = _run(
        M, kind, [*map(float, x0), *map(float, v0)], float(t1), opts, escape, steps, rows)
    return status, t, np.array(y), rows if collect else [], dict(zip(_COUNTS, counts))


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


_WALL = {
    "name": "walled", "dim": 2, "coords": ["x1", "x2"], "domain": "x1 < 2",
    "metric": [["1", "0"], ["0", "1 + x1^2"]], "sigma": "0.3*x1 + 0.2*x2^2",
}


def test_punctured_tilde_geodesic_exits_at_wall():
    punc = load_manifold("punctured-plane")
    path = integrate_geodesic(punc, ConnKind.LC_G_TILDE, (1.0, 0.0), (-1.0, 0.0), 2.0)
    assert path.status == "exited-domain"
    assert 0.9 < path.ts[-1] < 0.96
    # an exited path ends at its last accepted state, which the step or the
    # start has already found inside the chart: so does every sample, for
    # each connection, aimed at the puncture, at x2 = 0 and at a wall x1 = 2
    exited = 0
    for doc, x0, vels in [("punctured-plane", (1.0, 0.0), [(-1, 0), (-1, 0.05), (-2, -0.1)]),
                          ("half-plane-exp", (0.2, 1.0), [(3, -4), (0.5, -5), (0, -8)]),
                          (_WALL, (0.0, 0.0), [(1, 0), (3, 1), (5, -2)])]:
        M = load_manifold(doc)
        for kind in ConnKind:
            for v0 in vels:
                path = integrate_geodesic(M, kind, x0, v0, 20.0)
                if path.status == "exited-domain":
                    exited += 1
                    assert len(path.ts) == IntegratorOpts().dense_samples, (M.name, kind, v0)
                    assert all(in_domain(M, x) for x in path.xs), (M.name, kind, v0)
    assert exited >= 12


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


def test_step_limit_reported(monkeypatch):
    para = load_manifold("paraboloid")
    monkeypatch.setattr(divstat.geodesic, "MAX_STEPS", 2)
    path = integrate_geodesic(para, ConnKind.NABLA, (0.0, 0.0), (1.0, 0.0), 10.0)
    assert path.status == "step-limit"
    assert path.ts[-1] < 10.0


def test_a_state_that_overflows_ends_the_path():
    # the position passes the largest double near t = 1.8e8: the path ends
    # there, at its last finite state, instead of stepping on at infinity
    eu = load_manifold("euclidean")
    path = integrate_geodesic(eu, ConnKind.LC_G, (0.0, 0.0), (1e300, 0.0), 1e308,
                              IntegratorOpts(dense_samples=3))
    assert path.status == "exited-domain"
    assert np.all(np.isfinite(path.xs)) and path.xs[-1, 0] > 1e307
    assert path.meta["integrator"]["accepted"] < 2000


def test_step_limit_raised_by_exp_map(monkeypatch):
    para = load_manifold("paraboloid")
    monkeypatch.setattr(divstat.geodesic, "MAX_STEPS", 2)
    with pytest.raises(StepLimitError, match="geodesic integration on paraboloid stopped at"):
        exp_map(para, ConnKind.NABLA, (0.0, 0.0), (1.0, 0.0))


def test_exp_map_is_the_endpoint_of_integrate_geodesic(monkeypatch):
    # exp_map reads integrate_geodesic's run to t = 1, with its steps: the
    # endpoint is the path's last sample bit for bit, and where the path
    # stops short exp_map raises, at the path's last parameter.  Over the
    # built-ins, the four kinds and seeded starts at the default and the
    # fine tolerance.  The line into the overflow disk at the fine
    # tolerance exits, where a run without the dense test vaults the disk
    def check(M, kind, x0, v0, opts):
        path = integrate_geodesic(M, kind, x0, v0, 1.0, opts)
        where = (M.name, kind, tuple(x0), tuple(v0), opts)
        if path.status == "completed":
            assert _hex(exp_map(M, kind, x0, v0, opts)) == _hex(path.xs[-1]), where
        elif path.status == "exited-domain":
            with pytest.raises(ExitedDomainError) as info:
                exp_map(M, kind, x0, v0, opts)
            assert info.value.t_exit == path.ts[-1], where
        else:
            assert path.status == "step-limit", where
            with pytest.raises(StepLimitError):
                exp_map(M, kind, x0, v0, opts)
        return path.status

    punct = load_manifold("punctured-plane")
    assert check(punct, ConnKind.LC_G_TILDE, *INTO_THE_DISK, _FINE) == "exited-domain"
    assert _core(punct, ConnKind.LC_G_TILDE, *INTO_THE_DISK, 1.0, _FINE, False)[0] == "completed"
    rng = np.random.default_rng(105)
    seen = {}
    for name in sorted(BUILTINS):
        M = load_manifold(name)
        for kind in ConnKind:
            for i, x0 in enumerate(sample_domain(M, 4, seed=106)):
                # half aimed at the origin: through the puncture, into the
                # half plane's wall
                v0 = rng.standard_normal(2)
                v0 *= 10.0 ** rng.uniform(-1.0, 1.0) / np.linalg.norm(v0)
                if i % 2:
                    v0 = -x0 * 10.0 ** rng.uniform(0.0, 1.0)
                for opts in (IntegratorOpts(), _FINE):
                    status = check(M, kind, x0, v0, opts)
                    seen[status] = seen.get(status, 0) + 1
    assert seen["completed"] > 0 and seen["exited-domain"] > 0, seen
    monkeypatch.setattr(divstat.geodesic, "MAX_STEPS", 2)
    para = load_manifold("paraboloid")
    assert check(para, ConnKind.NABLA, (0.0, 0.0), (1.0, 0.0), IntegratorOpts()) == "step-limit"


def test_integrate_validates_the_velocity():
    para = load_manifold("paraboloid")
    with pytest.raises(ValueError, match="velocity must have 2 components"):
        integrate_geodesic(para, ConnKind.NABLA, (0.0, 0.0), (1.0, 0.0, 0.0), 1.0)
    for v0 in ((math.nan, 0.0), (0.0, -math.inf)):
        with pytest.raises(ValueError, match="velocity components must be finite"):
            integrate_geodesic(para, ConnKind.NABLA, (0.0, 0.0), v0, 1.0)


def test_replay_from_outside_the_chart_is_none():
    # the puncture is outside: the first derivative there is not taken
    punct = load_manifold("punctured-plane")
    for kind in ConnKind:
        assert _replay(punct, kind, (0.0, 0.0), (1.0, 0.0), [0.1]) is None


# a start with a NaN coordinate made every step NaN, so neither the step
# floor nor the end of the interval was ever reached and these never returned
_NAN_STARTS = """
import math
from divstat.geodesic import exp_map, integrate_geodesic
from divstat.manifold import OutOfDomainError, load_manifold
M = load_manifold("euclidean")
for call in (lambda: integrate_geodesic(M, "lc", (math.nan, 0.0), (1.0, 0.0), 1.0),
             lambda: exp_map(M, "nabla", (0.0, math.nan), (1.0, 0.0))):
    try:
        call()
    except OutOfDomainError as err:
        print(err)
"""


def test_integrate_validates_input():
    para = load_manifold("paraboloid")
    for t1 in (0.0, math.inf, math.nan, True):
        with pytest.raises(ValueError):
            integrate_geodesic(para, ConnKind.NABLA, (0.0, 0.0), (1.0, 0.0), t1)
    half = load_manifold("half-plane-exp")
    with pytest.raises(OutOfDomainError):
        integrate_geodesic(half, ConnKind.LC_G, (0.0, -1.0), (1.0, 0.0), 1.0)
    # in a subprocess, so that a start that hangs fails the test at its timeout
    proc = subprocess.run([sys.executable, "-c", _NAN_STARTS], capture_output=True, text=True,
                          timeout=60, env=_same_divstat_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["(nan, 0.0) is outside the domain of euclidean",
                                        "(0.0, nan) is outside the domain of euclidean"]
    # a NaN tolerance would fail every error test, so the path would end
    # at t = 0 with its start inside the chart; an infinite one would pass
    # every error test, so the path would complete with no error control
    for tol in (-1.0, 0.0, math.nan, math.inf):
        for key in ("rtol", "atol"):
            with pytest.raises(ValueError) as info:
                IntegratorOpts(**{key: tol})
            assert str(info.value) == f"{key} must be positive and finite, got {tol!r}"


def test_integrator_tolerances_must_be_numbers():
    # a string failed inside the range test with TypeError, and a bool
    # passed as 1; both are refused here, naming the field.  A numpy float
    # or an int passes, as a Python float
    for key in ("rtol", "atol"):
        for bad in ("1e-9", True, None):
            with pytest.raises(ValueError) as info:
                IntegratorOpts(**{key: bad})
            assert str(info.value) == f"{key} must be a real number, got {bad!r}"
    opts = IntegratorOpts(rtol=np.float32(0.5), atol=1)
    assert type(opts.rtol) is float and opts.rtol == 0.5
    assert type(opts.atol) is float and opts.atol == 1.0


def test_dense_samples_must_be_an_integer():
    # a count: a float or a string is refused here, naming the field, not
    # later inside numpy; a numpy integer passes, as a Python int
    for bad in (2.5, 3.0, "3", None):
        with pytest.raises(ValueError) as info:
            IntegratorOpts(dense_samples=bad)
        assert str(info.value) == f"dense_samples must be an integer, got {bad!r}"
    with pytest.raises(ValueError, match=r"^dense_samples must be at least 2$"):
        IntegratorOpts(dense_samples=np.int64(1))
    opts = IntegratorOpts(dense_samples=np.int32(3))
    assert type(opts.dense_samples) is int and opts.dense_samples == 3
    para = load_manifold("paraboloid")
    path = integrate_geodesic(para, ConnKind.NABLA, (0.0, 0.0), (1.0, 0.0), 1.0, opts)
    assert len(path.ts) == 3


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


def _residual_per_stride(M, kind, path):
    """geodesic_residual one stride at a time, in the Newton form: the reference.

    Each window's divided differences are taken column by column, and the
    centre second derivative of its quartic is
    2 c2 + 2 (d0 + d1 + d2) c3 + 2 e2(d0, ..., d3) c4 with d_j = -tau_j.
    """
    ts, xs, vs = (np.asarray(a, dtype=float) for a in (path.ts, path.xs, path.vs))
    m = len(ts)
    best = np.inf
    for stride in (s for s in (1, 2, 4, 8) if 4 * s <= m - 1):
        lo, hi = 2 * stride, m - 1 - 2 * stride
        cs = np.unique(np.linspace(lo, hi, min(48, hi - lo + 1)).astype(int))
        quad = -M.spray(kind).many(np.hstack([xs[cs], vs[cs]]))[:, -M.n:]
        win = cs[:, None] + stride * np.arange(-2, 3)
        tau = [ts[win[:, j]] - ts[cs] for j in range(5)]
        c = [xs[win[:, j]] for j in range(5)]
        for k in range(1, 5):
            for i in range(4, k - 1, -1):
                c[i] = (c[i] - c[i - 1]) / (tau[i] - tau[i - k])[:, None]
        d = [-t for t in tau]
        e1 = d[0] + d[1] + d[2]
        e2 = d[0] * d[1] + (d[0] + d[1]) * d[2] + e1 * d[3]
        acc = 2.0 * (c[2] + e1[:, None] * c[3] + e2[:, None] * c[4])
        best = min(best, float(np.abs(acc + quad).max()))
    return best


def _solve_acceleration(tau, X):
    # the centre second derivative of each window's quartic by a solve of
    # its scaled Vandermonde system: the route the Newton form replaced
    scale = np.abs(tau).max(axis=1)
    V = (tau / scale[:, None])[..., None] ** np.arange(5)
    return 2.0 * np.linalg.solve(V, X)[:, 2] / (scale * scale)[:, None]


def _exact_acceleration(tau, x):
    # the same quantity in exact rational arithmetic on the given doubles
    t = [Fraction(a) for a in tau]
    c = [Fraction(a) for a in x]
    for k in range(1, 5):
        for i in range(4, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (t[i] - t[i - k])
    e2 = sum(t[i] * t[j] for i, j in itertools.combinations(range(4), 2))
    return 2 * c[2] - 2 * (t[0] + t[1] + t[2]) * c[3] + 2 * e2 * c[4]


def test_centre_acceleration_rounds_less_than_the_solve():
    # 3000 random five-sample windows, step 1e-3 to 1 with neighbouring
    # gaps up to three to one, of smooth samples with an offset, against
    # exact rational arithmetic on the same doubles: the Newton form's
    # error, relative to max|x| / max|tau|^2, is no larger than the solve's
    # in the median and at p99 (about 5x smaller in both)
    rng = np.random.default_rng(131)
    N = 3000
    gaps = (10.0 ** rng.uniform(-3.0, 0.0, N))[:, None] * rng.uniform(0.5, 1.5, (N, 4))
    ts = rng.uniform(-2.0, 2.0, N)[:, None] + np.concatenate(
        [-gaps[:, 1::-1].cumsum(axis=1)[:, ::-1], np.zeros((N, 1)),
         gaps[:, 2:].cumsum(axis=1)], axis=1)
    tau = ts - ts[:, 2:3]
    k = rng.standard_normal((N, 5)) * 10.0 ** rng.uniform(-1.0, 1.0, (N, 1))
    X = (k[:, :1] + k[:, 1:2] * np.sin(tau + k[:, 2:3]) + k[:, 3:4] * np.exp(k[:, 4:5] * tau))
    exact = np.array([float(_exact_acceleration(tau[i], X[i])) for i in range(N)])
    norm = np.abs(X).max(axis=1) / np.abs(tau).max(axis=1) ** 2
    newton, solve = (np.abs(f(tau, X[..., None])[:, 0] - exact) / norm
                     for f in (divstat.geodesic._centre_acceleration, _solve_acceleration))
    for q in (0.5, 0.99):
        assert np.quantile(newton, q) <= np.quantile(solve, q), q
    assert np.quantile(newton, 0.99) < 1e-14


def test_residual_is_the_per_stride_reference():
    # the windows of all strides differenced at once give the per-stride
    # residual bit for bit: on reparametrized gtilde paths, on paths of 5 to 40
    # samples (one to four strides), and on a jittered path
    rng = np.random.default_rng(87)
    compared = 0
    for name in sorted(BUILTINS):
        M = load_manifold(name)
        for x0 in sample_domain(M, 4, seed=88):
            v = rng.standard_normal(2)
            v = 0.6 * v / np.linalg.norm(v)
            path = integrate_geodesic(M, ConnKind.NABLA, x0, v, 1.0)
            if path.status != "completed":
                continue
            tilde = reparam_to_tilde(M, path)
            short = integrate_geodesic(M, ConnKind.LC_G, x0, v, 0.5,
                                       IntegratorOpts(dense_samples=int(rng.integers(5, 41))))
            jittered = GeodesicPath(kind=path.kind, ts=path.ts, vs=path.vs, status=path.status,
                                    xs=path.xs + 1e-4 * rng.standard_normal(path.xs.shape))
            for kind, p in ((ConnKind.LC_G_TILDE, tilde), (ConnKind.LC_G, short),
                            (ConnKind.NABLA, jittered)):
                if p.status != "completed":
                    continue
                got = geodesic_residual(M, kind, p)
                assert got.hex() == _residual_per_stride(M, kind, p).hex(), (name, kind)
                compared += 1
    assert compared >= 30


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


@pytest.mark.parametrize("kind, t1", [
    (ConnKind.NABLA, 0.5), (ConnKind.NABLA, 2.0), (ConnKind.LC_G_TILDE, 0.5),
    (ConnKind.LC_G_TILDE, 1.0), (ConnKind.LC_G_TILDE, 1.4), (ConnKind.LC_G_TILDE, 1.5),
])
def test_reparam_is_the_closed_form_at_every_sample(kind, t1):
    # on the paraboloid axis from the origin with chart velocity (1, 0),
    # the gtilde parameter of the nabla-geodesic is s = 4 arctan(x1), and
    # the nabla parameter of the gtilde-geodesic t = (x1 + x1^3 / 3) / 4,
    # at every one of the 129 samples asked for, to 1e-9 relative.  The
    # weight e^{-+2 sigma} grows as (1 + x1^2)^2 / 4, and x1 reaches 14 by
    # s = 1.5
    para = load_manifold("paraboloid")
    path = integrate_geodesic(para, kind, (0.0, 0.0), (1.0, 0.0), t1)
    assert path.status == "completed" and len(path.ts) == 129
    x = path.xs[:, 0]
    if kind is ConnKind.NABLA:
        got, want = reparam_to_tilde(para, path).ts, 4.0 * np.arctan(x)
    else:
        got, want = reparam_from_tilde(para, path).ts, (x + x ** 3 / 3.0) / 4.0
    assert got[0] == want[0] == 0.0
    assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want)), np.max(np.abs(got / want - 1.0)[1:])


def test_reparam_raises_where_the_new_parameter_stops_increasing():
    # past the puncture at 0.2 the weight e^{-2 sigma} = e^{4/r^2} reaches
    # e^100: the nabla parameter grows to about 4.8e41, and the increments
    # of order one after the pass vanish in the sum
    punct = load_manifold("punctured-plane")
    tilde = integrate_geodesic(punct, ConnKind.LC_G_TILDE, (1.0, 0.2), (-2.0, 0.0), 1.0)
    assert tilde.status == "completed"
    # the integrator's quadrature stalls at the knots
    assert np.any(np.diff(tilde.knots[1]) <= 0.0)
    with pytest.raises(GeodesicError, match="stops increasing"):
        reparam_from_tilde(punct, tilde)


def test_an_overflowing_weight_diverges_the_parameter_not_the_path():
    # passing the puncture at 0.06, e^{-2 sigma} = e^{4/r^2} overflows at
    # stage points inside the chart: the new parameter is infinite from
    # that step on, and the path completes with the reference's knots bit
    # for bit, with no step retried for the overflow; the parameter change
    # refuses it
    punct = load_manifold("punctured-plane")
    x0, v0 = (1.0, 0.06), (-2.0, 0.0)
    (status, _, _, knots, counts), steps = _assert_is_the_reference(
        punct, ConnKind.LC_G_TILDE, x0, v0, 1.0, IntegratorOpts(), True)
    assert status == "completed"
    s = np.array([knot[-1] for knot in knots])
    first = int(np.argmax(np.isinf(s)))
    assert np.isinf(s[first:]).all() and np.isfinite(s[:first]).all() and first > 1
    path = integrate_geodesic(punct, ConnKind.LC_G_TILDE, x0, v0, 1.0)
    assert path.meta["integrator"] == counts and np.array_equal(path.knots[1], s)
    assert counts["halvings"] == counts["rewinds"] == 0, counts
    assert len(steps) == counts["accepted"]
    with pytest.raises(GeodesicError, match="overflows"):
        reparam_from_tilde(punct, path)


def test_reparam_validates_the_path():
    para = load_manifold("paraboloid")
    lc = integrate_geodesic(para, ConnKind.LC_G, (0.0, 0.0), (1.0, 0.0), 1.0)
    with pytest.raises(ValueError, match=r"^expected a nabla path, got lc$"):
        reparam_to_tilde(para, lc)
    with pytest.raises(ValueError, match=r"^expected a lc-tilde path, got lc$"):
        reparam_from_tilde(para, lc)
    path = integrate_geodesic(para, ConnKind.NABLA, (0.0, 0.0), (1.0, 0.0), 1.0)
    # a path of any number of samples reparametrizes: s is read at the
    # knots, and between them its Hermite at each sample time alone, so
    # the 2, 3 and 5 samples fall on the 129-sample path's s bit for bit
    full = reparam_to_tilde(para, path)
    for m in (2, 3, 5):
        short = integrate_geodesic(para, ConnKind.NABLA, (0.0, 0.0), (1.0, 0.0), 1.0,
                                   IntegratorOpts(dense_samples=m))
        assert len(short.ts) == m
        got = reparam_to_tilde(para, short)
        assert _hex(got.ts) == _hex(full.ts[::128 // (m - 1)]), m
    ts = path.ts.copy()
    ts[3] = ts[2]
    stalled = GeodesicPath(kind=ConnKind.NABLA, ts=ts, xs=path.xs, vs=path.vs,
                           status="completed", knots=path.knots)
    with pytest.raises(ValueError, match="strictly increasing"):
        reparam_to_tilde(para, stalled)


def test_reparam_refuses_a_path_with_no_knots():
    # the new parameter is read at the knots, the integrator's step ends:
    # samples alone do not carry it
    para = load_manifold("paraboloid")
    for transform, kind in ((reparam_to_tilde, ConnKind.NABLA),
                            (reparam_from_tilde, ConnKind.LC_G_TILDE)):
        path = integrate_geodesic(para, kind, (0.0, 0.0), (1.0, 0.0), 1.0)
        curve = GeodesicPath(kind=kind, ts=path.ts, xs=path.xs, vs=path.vs, status="completed")
        with pytest.raises(ValueError, match=r"^need the path's knots, its integrator's step "
                                             r"ends, to reparametrize$"):
            transform(para, curve)


def test_reparam_where_the_weight_is_finite_and_its_derivatives_are_not():
    # speeds of 1e308: e^{2 sigma} and dsigma(v) are finite at every knot,
    # but the weight's derivative 2 dsigma(v) e^{2 sigma} overflows
    para = load_manifold("paraboloid")
    xs = np.column_stack([np.linspace(0.1, 0.2, 6), np.full(6, 0.1)])
    vs = np.full((6, 2), 1e308)
    P = para.at_many(xs)
    assert np.all(np.isfinite(np.exp(2.0 * P.sigma)))
    assert np.all(np.isfinite(np.einsum("ni,ni->n", P.dsigma, vs)))
    ts = np.linspace(0.0, 1e-308, 6)
    fast = GeodesicPath(kind=ConnKind.NABLA, ts=ts, xs=xs, vs=vs, status="completed",
                        knots=(ts, ts, xs, vs))
    with pytest.raises(GeodesicError, match="parameter transform diverges"):
        reparam_to_tilde(para, fast)


def _hermite_per_segment(start, end, tq, n):
    """The quintic Hermite dense output of one step, at the times tq.

    This is its definition: (x, h v, h^2 a) at both ends of the step, the
    knots start and end, against the factored quintic basis, one step at
    a time.
    """
    t0, x0, v0, a0 = start[0], *np.split(np.asarray(start[1:1 + 3 * n]), 3)
    t1, x1, v1, a1 = end[0], *np.split(np.asarray(end[1:1 + 3 * n]), 3)
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
    D = np.stack([x0, h * v0, h * h * a0, x1, h * v1, h * h * a1])
    return H @ D, (Hp @ D) / h


def _eval_pieces_per_segment(knots, ts, n):
    ends = np.array([knot[0] for knot in knots[1:]])
    idx = np.minimum(np.searchsorted(ends, ts, side="left"), len(ends) - 1)
    xs = np.empty((len(ts), n))
    vs = np.empty((len(ts), n))
    for k in np.unique(idx):
        sel = idx == k
        xs[sel], vs[sel] = _hermite_per_segment(knots[k], knots[k + 1], ts[sel], n)
    return xs, vs


def _knot_columns(knots, n):
    # _eval_pieces's (t, X, V, A) from the knots of _integrate_core
    K = np.asarray(knots)
    return K[:, 0], K[:, 1:1 + n], K[:, 1 + n:1 + 2 * n], K[:, 1 + 2 * n:1 + 3 * n]


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_dense_output_matches_per_segment_hermite(name):
    M = load_manifold(name)
    rng = np.random.default_rng(91)
    for kind in ConnKind:
        x0 = sample_domain(M, 1, seed=92)[0]
        v0 = rng.standard_normal(2)
        v0 = 0.7 * v0 / np.linalg.norm(v0)
        status, t_end, _, knots, _ = _integrate_core(M, kind, x0, v0, 1.0, IntegratorOpts())
        assert len(knots) > 2, (name, kind, status)
        # the sample grid, random times, and every step end
        ts = np.sort(np.concatenate([
            np.linspace(0.0, t_end, 129),
            rng.uniform(0.0, t_end, 200),
            [knot[0] for knot in knots],
        ]))
        xs, vs = _eval_pieces(_knot_columns(knots, 2), ts)
        xr, vr = _eval_pieces_per_segment(knots, ts, 2)
        assert np.abs(xs - xr).max() <= 1e-13 * np.abs(xr).max(), (name, kind)
        assert np.abs(vs - vr).max() <= 1e-13 * np.abs(vr).max(), (name, kind)


def _dense_errors(M, kind, knots, t1, opts):
    """The dense test's de of each collected step longer than t1 / 48, in numpy.

    The re-check of the rule from the knots alone: the midpoint of each
    step's quintic Hermite from _eval_pieces, the Hermite
    acceleration there from the step's ends, and the spray's from
    M.spray(kind).many; h times their difference in the RMS norm of the
    velocity's error estimate, times max(1, e^{-4 sigma}) on nabla, and
    on nabla and lc-tilde at least the gap of the step's increment of s
    from Simpson's rule on e^{c sigma}, over atol + |s| rtol.  NaN where
    the arithmetic overflows, which the rule lets pass.
    """
    n = M.n
    t, X, V, A = columns = _knot_columns(knots, n)
    t0 = t[:-1]
    h = t[1:] - t0
    x0, v0, a0, x1, v1, a1 = X[:-1], V[:-1], A[:-1], X[1:], V[1:], A[1:]
    xm, vm = _eval_pieces(columns, t0 + 0.5 * h)
    out = M.spray(kind).many(np.hstack([xm, vm]))
    hermite = 1.5 * (v1 - v0) / h[:, None] - 0.25 * (a0 + a1)
    scale = opts.atol + np.maximum(np.abs(v0), np.abs(v1)) * opts.rtol
    d = h[:, None] * (out[:, -n:] - hermite) / scale
    de = np.sqrt(np.mean(d * d, axis=1))
    sigma = out[:, n * n]
    with np.errstate(over="ignore", invalid="ignore"):
        if kind is ConnKind.NABLA:
            de *= np.maximum(1.0, np.exp(-4.0 * sigma))
        if kind in divstat.geodesic._WEIGHT:
            c = divstat.geodesic._WEIGHT[kind]
            s = np.asarray(knots)[:, -1]
            s0, s1 = s[:-1], s[1:]
            F0, F1 = (np.exp(c * M.at_many(x).sigma) for x in (x0, x1))
            simpson = h / 6.0 * (F0 + 4.0 * np.exp(c * sigma) + F1)
            de = np.maximum(de, np.abs(s1 - s0 - simpson) / (opts.atol + np.abs(s1) * opts.rtol))
    de[~np.isfinite(de)] = np.nan
    return de[h > t1 / 48.0]


@pytest.mark.parametrize("doc", sorted(BUILTINS) + [SKEW3],
                         ids=lambda d: d if isinstance(d, str) else d["name"])
def test_long_collected_steps_meet_the_dense_bound(doc):
    # the rule, not a step cap, keeps the dense output: re-checked from the
    # knots, every collected step longer than t1 / 48 has a dense error
    # below 1, up to the rounding of the re-check's other arithmetic
    # (about eps / rtol), at both tolerances, for every connection
    M = load_manifold(doc)
    rng = np.random.default_rng(103)
    long = rejected = 0
    for kind in ConnKind:
        for x0 in sample_domain(M, 3, seed=104):
            v0 = rng.standard_normal(M.n)
            v0 *= 10.0 ** rng.uniform(-0.5, 0.5) / np.linalg.norm(v0)
            for opts in (IntegratorOpts(), IntegratorOpts(rtol=1e-5, atol=1e-7)):
                _, _, _, knots, counts = _integrate_core(M, kind, x0, v0, 1.0, opts)
                if len(knots) < 2:
                    continue
                de = _dense_errors(M, kind, knots, 1.0, opts)
                assert np.all(np.nan_to_num(de) < 1.0 + 1e-6), (M.name, kind, np.nanmax(de))
                long += len(de)
                rejected += counts["dense_rejected"]
    assert long > 20 and (rejected > 0 or M.name == "euclidean"), (long, rejected)


def test_a_dense_sample_outside_the_chart_is_a_geodesic_error():
    # step ends inside the punctured plane, and a sample interpolated
    # between them at the puncture: the parameter change raises
    # GeodesicError naming the sample, which shoot_connect reads as no
    # nabla path (exit 3), not the OutOfDomainError of bad input (exit 2)
    punct = load_manifold("punctured-plane")
    ts = np.linspace(0.0, 1.0, 5)
    xs = np.column_stack([2.0 * ts - 1.0, np.zeros(5)])
    vs = np.tile([2.0, 0.0], (5, 1))
    for transform, kind in ((reparam_from_tilde, ConnKind.LC_G_TILDE),
                            (reparam_to_tilde, ConnKind.NABLA)):
        path = GeodesicPath(kind=kind, ts=ts, xs=xs, vs=vs, status="completed",
                            knots=(ts[[0, -1]], np.array([0.0, 100.0]), xs[[0, -1]], vs[[0, -1]]))
        with pytest.raises(GeodesicError, match=r"^dense output leaves the chart at t = 0\.5: "
                                                r"\(0\.0, 0\.0\) is outside the domain of "
                                                r"punctured-plane$"):
            transform(punct, path)


def test_positions_only_hermite_is_the_dense_output_positions():
    # without velocities, _eval_pieces forms no velocity basis, and its
    # positions are those it gives with velocities, bit for bit: on the
    # knots of a path and on the parameter change's (s, F, F') knots
    para = load_manifold("paraboloid")
    path = integrate_geodesic(para, ConnKind.NABLA, (0.1, -0.2), (0.9, 0.4), 1.0)
    tk, sk, xk, vk = path.knots
    P = para.at_many(xk)
    F = np.exp(2.0 * P.sigma)
    Fp = 2.0 * np.einsum("ni,ni->n", P.dsigma, vk) * F
    ts = np.sort(np.concatenate([path.ts, np.random.default_rng(133).uniform(0.0, 1.0, 300)]))
    status, _, _, knots, _ = _integrate_core(para, ConnKind.NABLA, (0.1, -0.2), (0.9, 0.4), 1.0,
                                             IntegratorOpts())
    assert status == "completed"
    for columns in (_knot_columns(knots, 2), (tk, sk[:, None], F[:, None], Fp[:, None])):
        xs, vs = _eval_pieces(columns, ts)
        only, none = _eval_pieces(columns, ts, velocities=False)
        assert none is None and _hex(only.ravel()) == _hex(xs.ravel())


def test_a_sample_outside_the_chart_is_named_as_the_chart_names_it():
    # the parameter change reads sigma of the samples from one chart
    # evaluation; where samples lie outside, the error names the first of
    # them, at its t, in the words of M.at_many's OutOfDomainError
    half = load_manifold("half-plane-exp")
    ts = np.linspace(0.0, 1.0, 6)
    xs = np.column_stack([ts, [1.0, 0.5, -0.25, 0.25, np.nan, -1.0]])
    vs = np.tile([1.0, 0.0], (6, 1))
    with pytest.raises(OutOfDomainError) as info:
        half.at_many(xs)
    for transform, kind in ((reparam_from_tilde, ConnKind.LC_G_TILDE),
                            (reparam_to_tilde, ConnKind.NABLA)):
        path = GeodesicPath(kind=kind, ts=ts, xs=xs, vs=vs, status="completed",
                            knots=(ts[[0, 1]], np.array([0.0, 1.0]), xs[[0, 1]], vs[[0, 1]]))
        with pytest.raises(GeodesicError) as got:
            transform(half, path)
        assert str(got.value) == f"dense output leaves the chart at t = 0.4: {info.value}"


def test_dense_output_overflow_names_the_step():
    # steps of 1e154 and more: h^2 overflows, and h^2 a is 0 * inf.  Only
    # the steps that hold a sample count: with 2 samples the overflowing
    # steps lie between them (the last step, from 9.15e155, is short) and
    # the path completes, with 3 the middle sample falls in one of them.
    # The dense test skips the midpoints that overflow, so the steps grow
    # as the chart cap lets them, by half the position each
    M = load_manifold("euclidean")
    path = integrate_geodesic(M, ConnKind.LC_G, (0.0, 0.0), (1.0, 0.0), 9.2e155,
                              IntegratorOpts(dense_samples=2))
    assert path.status == "completed" and path.xs[-1, 0] == 9.199999999999998e+155
    with pytest.raises(GeodesicError) as info:
        integrate_geodesic(M, ConnKind.LC_G, (0.0, 0.0), (1.0, 0.0), 9.2e155,
                           IntegratorOpts(dense_samples=3))
    assert str(info.value) == ("dense output overflows: h^2 a(t0) is not finite on the "
                               "step [4.066751040327394e+155, 6.10012656049109e+155]")


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_replay_of_the_recorded_steps_is_the_endpoint(name):
    # the step sizes an integration records, taken again from its start,
    # give its endpoint bit for bit: also where steps were rejected,
    # rewound by the chord probe or shrunk by the dense test
    M = load_manifold(name)
    rng = np.random.default_rng(94)
    runs = 0
    for kind in ConnKind:
        x0 = sample_domain(M, 1, seed=97)[0]
        for speed, opts, collect in ((0.7, IntegratorOpts(rtol=1e-5, atol=1e-7), False),
                                     (2.0, IntegratorOpts(), True)):
            v0 = rng.standard_normal(2)
            v0 = speed * v0 / np.linalg.norm(v0)
            steps = []
            status, t_end, y_end, _, counts = _core(
                M, kind, x0, v0, 1.0, opts, collect, steps=steps)
            if status != "completed":
                continue
            assert len(steps) == counts["accepted"] and math.fsum(steps) == pytest.approx(t_end)
            got = _replay(M, kind, x0.tolist(), v0.tolist(), steps)
            assert [a.hex() for a in got] == [a.hex() for a in y_end], (name, kind)
            runs += 1
    assert runs >= 6, name
    # a step past a hole the path clears, which the chord probe rewinds
    holed, x0, v0 = _holed_great_circle()
    steps = []
    status, _, y_end, _, counts = _core(
        holed, ConnKind.LC_G_TILDE, x0, v0, 1.0, IntegratorOpts(rtol=1e-5, atol=1e-7), False,
        steps=steps)
    assert status == "completed" and counts["rewinds"] > 0
    got = _replay(holed, ConnKind.LC_G_TILDE, x0, v0, steps)
    assert [a.hex() for a in got] == [a.hex() for a in y_end]


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_spray_acceleration_on_a_path_matches_gamma(name):
    # the reparametrization reads -Gamma(v, v) from the batched spray, the
    # integrator's kernel; PointGeometry.gamma is its reference
    M = load_manifold(name)
    rng = np.random.default_rng(99)
    for kind in ConnKind:
        x0 = sample_domain(M, 1, seed=100)[0]
        v0 = rng.standard_normal(2)
        path = integrate_geodesic(M, kind, x0, 0.7 * v0 / np.linalg.norm(v0), 1.0)
        xs, vs = path.xs, path.vs
        got = M.spray(kind).many(np.hstack([xs, vs]))[:, -2:]
        P = M.at_many(xs)
        want = -np.einsum("nkij,ni,nj->nk", P.gamma(kind), vs, vs)
        # relative to the largest coefficient of the four connections: the
        # terms of lc-tilde on the punctured plane are that large and
        # cancel to 0, since e^sigma g is flat there
        big = np.max([np.abs(P.gamma(k)).max(axis=(1, 2, 3)) for k in ConnKind], axis=0)
        scale = big * np.einsum("ni,ni->n", vs, vs)
        assert np.all(np.abs(got - want) <= 1e-12 * scale[:, None]), (name, kind)


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
    # the scalar probe as the reference writes it, which the emitted
    # integrator inlines bit for bit (test_emitted_integrator_is_the_reference)
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
        assert chord_ok(M, x_a.tolist(), x_b.tolist()) == want, (x_a, x_b)
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


def _integrate_core_rk45(M, kind, x0, v0, t1, opts, escape=None):
    """The integrator loop driven by scipy's RK45, with no dense output: the reference.

    Returns (status, t_end, y_end, ends, accepted steps), ends being the
    parameters at the ends of the accepted steps.  Where a stage or the
    chord of an attempt leaves the chart, RK45 restarts from the last
    accepted state with half the step that attempt tried, and the step
    accepted after a restart does not grow: RK45's own clamp after a
    rejected attempt, min(1, factor).
    """
    n = M.n
    y0 = np.concatenate([np.asarray(x0, dtype=float), np.asarray(v0, dtype=float)])
    rhs_list = rhs_factory(M, kind)

    def rhs(t, y):
        return rhs_list(y.tolist())

    tried = [None]  # the step of RK45's last attempt

    def rk_step(fun, t, y, f, h, *tableau):
        tried[0] = h
        return _RK_STEP(fun, t, y, f, h, *tableau)

    try:
        rk = RK45(rhs, 0.0, y0, t_bound=t1, rtol=opts.rtol, atol=opts.atol)
    except _DomainExit:
        return "exited-domain", 0.0, y0, [], 0
    ends = []
    status = "completed"
    steps = 0
    t_end, y_end = 0.0, y0
    restarted = False
    while rk.status == "running":
        if steps >= divstat.geodesic.MAX_STEPS:
            status = "step-limit"
            break
        y = rk.y.tolist()
        speed = max(map(abs, y[n:]))
        if speed > 0.0:
            rk.max_step = 0.5 * (1.0 + max(map(abs, y[:n]))) / speed
        t_prev, y_prev = rk.t, rk.y
        try:
            with mock.patch.object(_scipy_rk, "rk_step", rk_step):
                rk.step()
        except _DomainExit:
            left = True
        else:
            if rk.status == "failed":
                status = "step-limit"
                break
            left = not _chord_ok_numpy(M, np.array(y[:n]), rk.y[:n])
        if left:
            h = tried[0]
            min_step = 10 * (np.nextafter(t_prev, np.inf) - t_prev)
            if h <= EXIT_BISECT_TOL or 0.5 * h < min_step:
                status = "exited-domain"
                break
            rk = RK45(rhs, t_prev, y_prev, t_bound=t1, rtol=opts.rtol, atol=opts.atol,
                      first_step=0.5 * h)
            restarted = True
            continue
        if restarted:
            # h_abs min(1, factor) is min(h_abs factor, h_abs), bit for bit
            rk.h_abs = min(rk.h_abs, abs(rk.h_previous))
            restarted = False
        t_end, y_end = rk.t, rk.y
        steps += 1
        ends.append(rk.t)
        if escape is not None and max(map(abs, rk.y[:n].tolist())) > escape:
            status = "escaped"
            break
    return status, t_end, y_end, ends, steps


def _assert_same_run(M, kind, x0, v0, t1, opts, escape=None, t_tol=1e-12):
    # an integration without dense output against RK45's: the status, the
    # step ends and the endpoint
    steps = []
    got = _core(M, kind, x0, v0, t1, opts, False, escape, steps)
    want = _integrate_core_rk45(M, kind, x0, v0, t1, opts, escape)
    assert got[0] == want[0], (M.name, kind, got[0], want[0])
    # an exited path takes the reference's chart retries too
    if got[0] in ("completed", "exited-domain"):
        assert got[4]["accepted"] == want[4], (M.name, kind)
        ends = np.cumsum(steps)
        assert np.abs(ends - want[3]).max(initial=0.0) <= t_tol * t1, (M.name, kind)
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
        # the error control sets the steps.  The embedded error estimate
        # cancels down to about rtol times the solution, so summing its
        # terms in another order (numpy's BLAS may also fuse multiply-adds)
        # moves each step by up to about eps / rtol relative; the endpoint
        # stays at rounding level
        got = _assert_same_run(M, kind, x0, v0, 1.0, IntegratorOpts(), t_tol=1e-6)
        assert got[0] == "completed", (name, kind)
        _assert_same_run(M, kind, x0, v0, 4.0, IntegratorOpts(), t_tol=1e-6)


def test_integrator_matches_scipy_rk45_at_walls_and_limits(monkeypatch):
    punct = load_manifold("punctured-plane")
    tilde = ConnKind.LC_G_TILDE
    # into the puncture: domain exits halve the step down to the bisection
    got = _assert_same_run(punct, tilde, (1.0, 0.0), (-1.0, 0.0), 1.0, IntegratorOpts())
    assert got[0] == "exited-domain" and got[4]["halvings"] > 0
    # a long step past a hole the path clears: the chord probe rewinds it
    holed, x0, v0 = _holed_great_circle()
    opts = IntegratorOpts(rtol=1e-5, atol=1e-7)
    got = _assert_same_run(holed, tilde, x0, v0, 1.0, opts)
    assert got[0] == "completed" and got[4]["rewinds"] > 0
    xs = integrate_geodesic(holed, tilde, x0, v0, 1.0, opts).xs
    assert np.hypot(xs[:, 0] - 0.8002, xs[:, 1] - 0.5864).min() > 0.003
    # into the disk where g overflows: rewound and halved, the step accepted
    # after each retry does not grow, and the path ends at the disk
    got = _assert_same_run(punct, tilde, *INTO_THE_DISK, 1.0, opts)
    assert got[0] == "exited-domain" and got[4]["rewinds"] > 0
    # a path that leaves the problem's scale
    got = _assert_same_run(punct, tilde, (1.0, 0.5), (3.0, 2.0), 1.0, opts, escape=2.0)
    assert got[0] == "escaped"
    para = load_manifold("paraboloid")
    monkeypatch.setattr(divstat.geodesic, "MAX_STEPS", 2)
    got = _assert_same_run(para, ConnKind.NABLA, (0.0, 0.0), (1.0, 0.0), 10.0, IntegratorOpts())
    assert got[0] == "step-limit" and got[4]["accepted"] == 2


def test_a_line_into_the_overflow_disk_exits_at_every_tolerance():
    # the line meets the disk where g overflows, so the path leaves the
    # chart there.  Without dense output, at the shooting solve's scout and
    # coarse tolerances and the default one, each run exits within 1e-9 of
    # the default run with dense output, and so does exp_map: none vaults
    # the disk on a step that grew after a chart retry
    punct = load_manifold("punctured-plane")
    tilde = ConnKind.LC_G_TILDE
    path = integrate_geodesic(punct, tilde, *INTO_THE_DISK, 1.0)
    assert path.status == "exited-domain"
    t_exit = path.ts[-1]
    for opts in (_SCOUT, _COARSE, IntegratorOpts()):
        status, t_end, *_ = _core(punct, tilde, *INTO_THE_DISK, 1.0, opts, False)
        assert status == "exited-domain" and abs(t_end - t_exit) < 1e-9, (opts, t_end, t_exit)
    with pytest.raises(ExitedDomainError) as info:
        exp_map(punct, tilde, *INTO_THE_DISK)
    assert abs(info.value.t_exit - t_exit) < 1e-9


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_integrator_counts_rhs_calls(name, monkeypatch):
    # RK45 calls the RHS once for f0, once for its initial step and six
    # times per step attempt, as the count in meta["integrator"] of an
    # integration without dense output says.  With dense output, the dense
    # test of each step longer than t1 / 48 evaluates the RHS once more, at
    # the step's midpoint, as the reference loop does
    calls = []
    factory = rhs_factory

    def counting(M, kind, sigmas=None):
        rhs = factory(M, kind, sigmas)
        return lambda y: calls.append(1) or rhs(y)

    monkeypatch.setattr(sys.modules[__name__], "rhs_factory", counting)
    monkeypatch.setattr(integrator_reference, "rhs_factory", counting)
    M = load_manifold(name)
    rng = np.random.default_rng(95)
    compared = midpoints = 0
    for kind in ConnKind:
        x0 = sample_domain(M, 1, seed=96)[0]
        v0 = rng.standard_normal(2)
        v0 = 0.7 * v0 / np.linalg.norm(v0)
        for t1 in (1.0, 4.0):
            del calls[:]
            want = _integrate_core_rk45(M, kind, x0, v0, t1, IntegratorOpts())
            if want[0] != "completed":
                continue
            counts = _core(M, kind, x0, v0, t1, IntegratorOpts(), False)[4]
            assert counts["accepted"] == want[4]
            assert counts["rhs_calls"] == len(calls) == 2 + 6 * (
                counts["accepted"] + counts["rejected"]), (name, kind, t1)
            del calls[:]
            _, _, _, knots, want = integrate_core(M, kind, x0, v0, t1, IntegratorOpts(), True)
            counts = integrate_geodesic(M, kind, x0, v0, t1).meta["integrator"]
            assert counts == want and counts["rhs_calls"] == len(calls), (name, kind, t1)
            attempts = sum(counts[k] for k in
                           ("accepted", "rejected", "rewinds", "halvings", "dense_rejected"))
            mids = counts["rhs_calls"] - 2 - 6 * attempts
            # each dense rejection and each long accepted step tested one
            # midpoint; a midpoint outside the chart is a halving
            tested = counts["dense_rejected"] + sum(
                b[0] - a[0] > t1 / 48.0 for a, b in zip(knots, knots[1:]))
            assert tested <= mids <= tested + counts["halvings"], (name, kind, t1)
            midpoints += mids
            compared += 1
    assert compared >= 6 and midpoints > 0


def test_initial_step_matches_scipy():
    rng = np.random.default_rng(97)
    for name in sorted(BUILTINS):
        M = load_manifold(name)
        for kind in ConnKind:
            rhs = rhs_factory(M, kind)
            for x in sample_domain(M, 5, seed=98):
                y = [*x.tolist(), *(rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 1)).tolist()]
                f = rhs(y)
                for t1, max_step, rtol, atol in ((1.0, np.inf, 1e-9, 1e-11),
                                                 (2.0, 2.0 / 48.0, 1e-5, 1e-7)):
                    want = select_initial_step(
                        lambda t, yy: np.asarray(rhs(yy.tolist())), 0.0, np.array(y), t1,
                        max_step, np.array(f), 1.0, 4, rtol, atol)
                    got = initial_step(rhs, y, f, t1, max_step, rtol, atol)
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
    rhs = rhs_factory(load_manifold("euclidean"), ConnKind.LC_G)
    y = [0.0, 0.0, speed, 0.0]
    f = rhs(y)
    got = []
    for t1, max_step, rtol, atol in ((1.0, np.inf, 1e-9, 1e-11),
                                     (2.0, 2.0 / 48.0, 1e-5, 1e-7)):
        with np.errstate(all="ignore"):
            want = select_initial_step(
                lambda t, yy: np.asarray(rhs(yy.tolist())), 0.0, np.array(y), t1,
                max_step, np.array(f), 1.0, 4, rtol, atol)
        got.append(initial_step(rhs, y, f, t1, max_step, rtol, atol))
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
    # the counts travel with the path through the parameter change
    assert reparam_to_tilde(para, path).meta["integrator"] == counts


def test_a_wall_met_at_large_t_ends_the_path():
    # the puncture is met near t = 9.47e6, where ten spacings of the
    # doubles (the shortest step) exceed the exit window: the halving
    # stops there, and the path ends at the wall, not at the step budget
    punct = load_manifold("punctured-plane")
    args = (punct, ConnKind.LC_G_TILDE, (1.0, 0.0), (-1e-7, 0.0), 1e7)
    path = integrate_geodesic(*args)
    assert path.status == "exited-domain"
    assert 9465064.19 < path.ts[-1] < 9465064.2
    counts = path.meta["integrator"]
    assert counts["accepted"] + counts["halvings"] < 300
    # the reference loop takes the path's steps bit for bit; RK45, whose
    # stage points round differently, meets the wall within a few of the
    # shortest steps there (1.9e-8)
    _assert_is_the_reference(*args, IntegratorOpts(), True)
    want = _integrate_core_rk45(*args, IntegratorOpts())
    assert want[0] == "exited-domain" and abs(want[1] - path.ts[-1]) < 1e-6


def _hex(values):
    return [float(a).hex() for a in values]


def _assert_is_the_reference(M, kind, x0, v0, t1, opts, collect, escape=None, log=None):
    # the emitted integrator against the reference loop, bit for bit: the
    # status, end, every knot, the counts and the recorded step sizes
    steps, steps_want = [], []
    got = _core(M, kind, x0, v0, t1, opts, collect, escape, steps)
    want = integrate_core(M, kind, x0, v0, t1, opts, collect, escape, steps_want, log)
    where = (M.name, kind, tuple(x0), tuple(v0), t1)
    assert got[0] == want[0] and got[1].hex() == want[1].hex(), where
    assert _hex(got[2]) == _hex(want[2]), where
    assert [_hex(r) for r in got[3]] == [_hex(r) for r in want[3]], where
    assert got[4] == want[4] and _hex(steps) == _hex(steps_want), where
    return got, steps


def test_a_chart_retry_tries_half_the_step():
    # where a stage or the chord of an attempt leaves the chart, the next
    # attempt starts from the same state with half the step tried, its
    # end rounded onto the doubles as every attempt's end is: exactly half
    # wherever t + h/2 is a double.  A retry is a rejection like the
    # others: the step accepted after it does not grow, so the next
    # state's first attempt is no longer than that step (rounded at its own
    # t).  The reference loop logs [t, y, h, outcome] per attempt, and the
    # emitted loop takes the same steps
    punct = load_manifold("punctured-plane")
    retries = {"halving": 0, "rewind": 0, "exact": 0, "no growth": 0}
    for M, x0, v0, t1, opts in [
            (punct, (1.0, 0.0), (-1.0, 0.0), 3.0, IntegratorOpts()),
            (punct, (1.0, 0.0), (-1e-7, 0.0), 1e7, IntegratorOpts()),
            (punct, *INTO_THE_DISK, 48.0, IntegratorOpts(rtol=1e-5, atol=1e-7)),
            (*_holed_great_circle(), 1.0, IntegratorOpts(rtol=1e-5, atol=1e-7))]:
        log = []
        (status, _, _, _, counts), _ = _assert_is_the_reference(
            M, ConnKind.LC_G_TILDE, x0, v0, t1, opts, True, log=log)
        after_retry = False  # whether an attempt from the current state was retried
        for (t, y, h, outcome), (t_next, y_next, h_next, _) in zip(log, log[1:]):
            if outcome in ("halving", "rewind"):
                assert y_next is y and h_next == (t + 0.5 * h) - t, (x0, t, h, h_next)
                retries[outcome] += 1
                retries["exact"] += h_next == 0.5 * h
                after_retry = True
            elif outcome == "accepted":
                if after_retry:
                    assert h_next <= (t_next + h) - t_next, (x0, t, h, h_next)
                    retries["no growth"] += 1
                after_retry = False
        # an exited path's last attempt is not retried, nor counted
        retried = log[:-1] if status == "exited-domain" else log
        assert counts["halvings"] == sum(e[3] == "halving" for e in retried)
        assert counts["rewinds"] == sum(e[3] == "rewind" for e in retried)
        if status == "exited-domain":
            # the last attempt left the chart with a step that may not be halved
            t, _, h, outcome = log[-1]
            assert outcome in ("halving", "rewind")
            assert h <= EXIT_BISECT_TOL or 0.5 * h < 10 * (math.nextafter(t, math.inf) - t)
    assert min(retries.values()) > 0, retries


_SPECIALS = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324)


def test_the_emitted_fold_is_the_builtin_bitwise():
    # the integrator writes max and min as conditionals (geodesic._fold):
    # on every ordered pair and triple of signed zeros, infinities, NaN and
    # the smallest subnormals, the builtin's result bit for bit, with the
    # items as names and as expressions (evaluated once, into _f)
    def bits(a):
        return struct.pack("<d", a)

    for op, builtin in ((">", max), ("<", min)):
        for k in (2, 3):
            for names in (["a", "b", "c"][:k], ["a", "(b)", "(c)"][:k]):
                ns = {}
                body = "".join(f"    {line}\n" for line in _fold("r", op, names))
                exec(f"def fold(a, b=0.0, c=0.0):\n{body}    return r\n", ns)
                for args in itertools.product(_SPECIALS, repeat=k):
                    assert bits(ns["fold"](*args)) == bits(builtin(*args)), (op, args)


def test_the_emitted_integrator_calls_no_builtin_max_or_min():
    for name in sorted(BUILTINS):
        M = load_manifold(name)
        for kind in ConnKind:
            code = _integrator(M, kind).__code__
            assert code.co_filename.startswith("<loop "), code.co_filename
            assert not {"_max", "_min", "max", "min"} & set(code.co_names), (name, kind)


def test_the_emitted_integrator_calls_the_dense_test():
    # the loop keeps the dense test's bookkeeping and calls the plain
    # function _dense_test builds: no midpoint (m0) or h^2 (hh) of its own
    for name in sorted(BUILTINS):
        M = load_manifold(name)
        for kind in ConnKind:
            code = _integrator(M, kind).__code__
            assert not {"hh", "m0"} & set(code.co_varnames), (name, kind)
            assert "_dense" in code.co_names, (name, kind)


def _hand_step(M, kind, x0, v0, h):
    # one reference Dormand-Prince step from (x0, v0): (y, f, y_new, f_new,
    # q, sigma_new, ds), sigma at the ends as the spray gives it, and the
    # order-5 quadrature of s's weight over the step (nabla and lc-tilde)
    sigmas = []
    rhs = rhs_factory(M, kind, sigmas)
    y = [*x0, *v0]
    f = rhs(y)
    y_new, f_new, _ = dopri5_step(rhs, y, f, h, 1e-9, 1e-11)
    c = divstat.geodesic._WEIGHT.get(kind, 0.0)
    ds = h * sum(math.exp(c * a) * b for a, b in zip(sigmas, _DP_B) if b != 0.0)
    return y, f, y_new, f_new, sigmas[0], sigmas[-1], ds


def test_the_dense_test_is_the_reference(monkeypatch):
    # _dense_test's function against integrator_reference.dense_error, bit
    # for bit, on steps built to reach each outcome: no test (a midpoint
    # that does not fit in doubles, with no chart or spray evaluation,
    # so the loop counts no RHS call), outside the chart (-1.0, where the
    # reference raises _DomainExit), the nabla weight e^{-4 sigma} above 1,
    # Simpson's term above the acceleration term, an overflowing weight
    # (de = 0), an infinite de, and a plain pass and rejection
    rtol, atol = 1e-9, 1e-11
    euclid, parab, punct = (load_manifold(m) for m in ("euclidean", "paraboloid",
                                                         "punctured-plane"))
    NABLA, LC, TILDE = ConnKind.NABLA, ConnKind.LC_G, ConnKind.LC_G_TILDE

    def outcome(M, kind, y, f, y_new, f_new, h, q=None, sigma_new=None, ds=None, s=0.25):
        domain, evaluated = M.domain, []
        monkeypatch.setattr(M, "domain", lambda x: evaluated.append(x) or domain(x))
        dense = divstat.geodesic._dense_test(M, kind)
        monkeypatch.undo()
        quad = kind in divstat.geodesic._WEIGHT
        n = M.n
        got = dense(y[:n], y[n:], f[n:], y_new[:n], y_new[n:], f_new[n:], h, rtol, atol,
                    *((ds, s, q, sigma_new) if quad else ()))
        assert len(evaluated) == (got is not None)
        sigmas = [0.0] * 5 + [sigma_new]
        try:
            want = dense_error(rhs_factory(M, kind, sigmas), sigmas, kind, y, f, y_new, f_new,
                               h, rtol, atol, q, s, ds if quad else None)
        except _DomainExit:
            want = -1.0
        assert got is want is None or got.hex() == want.hex(), (M.name, kind, got, want)
        return got, sigmas[6:]

    # the positions' sum overflows
    got, _ = outcome(euclid, LC, [1e308, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                     [1.5e308, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0], 1.0)
    assert got is None
    # the midpoint of a straight step through the puncture is the puncture
    got, _ = outcome(punct, LC, [-1.0, 0.0, 2.0, 0.0], [2.0, 0.0, 0.0, 0.0],
                     [1.0, 0.0, 2.0, 0.0], [2.0, 0.0, 0.0, 0.0], 1.0)
    assert got == -1.0
    # sigma < 0 everywhere on the punctured plane
    y, f, y_new, f_new, q, sigma_new, ds = _hand_step(punct, NABLA, (1.0, 0.2), (0.1, 0.3), 0.005)
    got, (sigma_mid,) = outcome(punct, NABLA, y, f, y_new, f_new, 0.005, q, sigma_new, ds)
    assert math.exp(-4.0 * sigma_mid) > 1.0 and 0.0 < got < 1.0, (sigma_mid, got)
    # a real step whose ds is off by 1e-3: Simpson's term is all of de
    y, f, y_new, f_new, q, sigma_new, ds = _hand_step(parab, TILDE, (0.3, 0.1), (0.5, -0.2), 0.1)
    acceleration, _ = outcome(parab, TILDE, y, f, y_new, f_new, 0.1, q, sigma_new, ds)
    ds *= 1.001
    got, (sigma_mid,) = outcome(parab, TILDE, y, f, y_new, f_new, 0.1, q, sigma_new, ds)
    c = divstat.geodesic._WEIGHT[TILDE]
    simpson = 0.1 / 6.0 * (math.exp(c * q) + 4.0 * math.exp(c * sigma_mid)
                           + math.exp(c * sigma_new))
    assert got.hex() == (abs(ds - simpson) / (atol + abs(0.25 + ds) * rtol)).hex()
    assert got > acceleration
    # the same step where the quadrature overflowed: Simpson's term is
    # inf / inf, a NaN that max(de, ...) leaves out
    got, _ = outcome(parab, TILDE, y, f, y_new, f_new, 0.1, q, sigma_new, math.inf)
    assert got.hex() == acceleration.hex()
    # a straight step whose end's acceleration is 1e305: the midpoint fits
    # in doubles, h times the defect over the error scale does not, and the
    # infinite de passes
    got, _ = outcome(euclid, LC, [0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                     [0.1, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1e305], 0.1)
    assert got == math.inf
    # near the puncture e^{-4 sigma} = e^{8 / r^2} overflows: de is 0
    y, f, y_new, f_new, q, sigma_new, ds = _hand_step(punct, NABLA, (0.1, 0.0), (0.0, 0.01),
                                                      0.05)
    got, (sigma_mid,) = outcome(punct, NABLA, y, f, y_new, f_new, 0.05, q, sigma_new, ds)
    assert -4.0 * sigma_mid > math.log(sys.float_info.max) and got == 0.0, (sigma_mid, got)
    # a plain pass, and a rejection where the end's acceleration is off by 1
    y, f, y_new, f_new, *_ = _hand_step(parab, LC, (0.3, 0.1), (0.5, -0.2), 0.1)
    got, _ = outcome(parab, LC, y, f, y_new, f_new, 0.1)
    assert 0.0 < got < 1.0, got
    got, _ = outcome(parab, LC, y, f, y_new, [*f_new[:3], f_new[3] + 1.0], 0.1)
    assert 1.0 <= got < math.inf, got


def _reference_sweep():
    # 4 kinds x 16 starts on each built-in, speeds from far below to far
    # above the chart's scale, a quarter aimed at the origin (through the
    # puncture, into the half plane's wall), both tolerances, an escape
    # radius on some: (M, kind, i, x0, v0, opts, escape)
    rng = np.random.default_rng(101)
    for name in sorted(BUILTINS):
        M = load_manifold(name)
        for kind in ConnKind:
            for i, x0 in enumerate(sample_domain(M, 16, seed=102)):
                v0 = rng.standard_normal(2)
                v0 *= 10.0 ** rng.uniform(-1.5, 1.5) / np.linalg.norm(v0)
                if i % 4 == 2:
                    v0 = -x0 * 10.0 ** rng.uniform(0.0, 2.0)
                opts = IntegratorOpts() if i % 2 else IntegratorOpts(rtol=1e-5, atol=1e-7)
                escape = 3.0 * (1.0 + np.abs(x0).max()) if i % 4 == 1 else None
                yield M, kind, i, x0, v0, opts, escape


def test_emitted_start_is_the_reference():
    # the emitted integrator's own start, its first derivative and first
    # step, is the reference's RHS and initial_step bit for bit, over the
    # sweep's starts, with dense output and without; a budget of 0 steps
    # returns right after the start, and with dense output the start's
    # knot (0, x, v, a[, s = 0]) is the only one
    for M, kind, _, x0, v0, opts, _ in _reference_sweep():
        y = [*x0.tolist(), *v0.tolist()]
        rhs = rhs_factory(M, kind)
        f = rhs(y)
        h_abs = initial_step(rhs, y, f, 1.0, math.inf, opts.rtol, opts.atol)
        for knots in ([], None):
            got = _integrator(M, kind)(y, None, False, 1.0, opts.rtol, opts.atol, None, 0, knots)
            where = (M.name, kind, tuple(x0), tuple(v0), knots)
            assert got[0] == "step-limit" and got[2] == y, where
            assert _hex(got[3]) == _hex(f) and got[4].hex() == h_abs.hex(), where
            if knots is not None:
                s = (0.0,) if kind in (ConnKind.NABLA, ConnKind.LC_G_TILDE) else ()
                assert [_hex(k) for k in knots] == [_hex((0.0, *y, *f[M.n:], *s))], where


def test_a_start_that_leaves_the_chart_ends_at_once():
    # outside the chart _integrate_core refuses the start and _replay
    # gives None.  From x1 = 0.99 at unit speed, the first-step evaluation
    # y + h0 f lies past the wall x1 = 1: the path ends "exited-domain" at
    # t = 0 with 2 RHS calls, as the reference's does, and the replay,
    # which takes no first step, is the reference's
    wall = load_manifold(dict(BUILTINS["euclidean"], name="wall", domain="x1 < 1"))
    x0, v0, outside = (0.99, 0.0), (1.0, 0.0), (1.5, 0.0)
    for kind in ConnKind:
        for collect in (True, False):
            want = integrate_core(wall, kind, x0, v0, 1.0, IntegratorOpts(), collect)
            got = (_integrate_core(wall, kind, x0, v0, 1.0, IntegratorOpts()) if collect
                   else _core(wall, kind, x0, v0, 1.0, IntegratorOpts(), False))
            assert got[:2] == want[:2] == ("exited-domain", 0.0), kind
            assert _hex(got[2]) == _hex(want[2]) == _hex((*x0, *v0))
            assert got[3] == want[3] == []
            assert got[4] == want[4] == {"accepted": 0, "rejected": 0, "rewinds": 0,
                                         "halvings": 0, "dense_rejected": 0, "rhs_calls": 2}
        with pytest.raises(OutOfDomainError):
            _integrate_core(wall, kind, outside, v0, 1.0, IntegratorOpts())
        path = integrate_geodesic(wall, kind, x0, v0, 1.0)
        assert path.status == "exited-domain" and path.ts.tolist() == [0.0]
        for start in ((*x0, *v0), (*outside, *v0)):
            out = _integrator(wall, kind)(list(start), None, False, 1.0, 1e-9, 1e-11, None,
                                          MAX_STEPS, None)
            assert out == reference_run(wall, kind, list(start), None, 1.0, 1e-9, 1e-11, None,
                                        MAX_STEPS, None)
            assert out == ("exited-domain", 0.0, list(start), None, None, 0, 0, 0, 0, 0, 2, 1,
                           None)
        got = _replay(wall, kind, x0, v0, [0.005])
        assert got is not None and _hex(got) == _hex(replay(wall, kind, x0, v0, [0.005]))
        assert _replay(wall, kind, outside, v0, [0.005]) is None
        assert replay(wall, kind, outside, v0, [0.005]) is None


def test_emitted_integrator_is_the_reference(monkeypatch):
    # the sweep's starts, with and without knots, a budget of 20 steps on
    # some: every path, its counts and steps, and the replays of its
    # steps from its start and a nearby one, are the reference's bit for
    # bit; so are the knots, one per step end, the new parameter s ending
    # each knot of a nabla or lc-tilde path, and the dense test's rejections
    seen = {"statuses": set(), "rejected": 0, "halvings": 0, "rewinds": 0, "dense_rejected": 0,
            "replays": 0, "quadratures": 0}
    for M, kind, i, x0, v0, opts, escape in _reference_sweep():
        with monkeypatch.context() as patch:
            if i % 4 == 3:
                patch.setattr(divstat.geodesic, "MAX_STEPS", 20)
            (status, _, _, knots, counts), steps = _assert_is_the_reference(
                M, kind, x0, v0, 1.0, opts, i % 3 != 0, escape)
        quad = kind in (ConnKind.NABLA, ConnKind.LC_G_TILDE)
        # the start's knot and one per accepted step; none where the start
        # left the chart (2 RHS calls), and none uncollected
        started = i % 3 != 0 and counts["rhs_calls"] > 2
        assert len(knots) == (counts["accepted"] + 1 if started else 0), (M.name, kind, i)
        assert all(len(knot) == 1 + 3 * M.n + quad for knot in knots)
        seen["quadratures"] += quad and len(knots) > 1
        seen["statuses"].add(status)
        for key in ("rejected", "halvings", "rewinds", "dense_rejected"):
            seen[key] += counts[key]
        for dv in (0.0, 1e-6):
            got = _replay(M, kind, x0.tolist(), (v0 + dv).tolist(), steps)
            want = replay(M, kind, x0, v0 + dv, steps)
            assert (got is None) == (want is None), (M.name, kind, x0, v0, dv)
            if got is not None:
                assert _hex(got) == _hex(want), (M.name, kind, x0, v0, dv)
                seen["replays"] += 1
    assert seen.pop("statuses") == {"completed", "exited-domain", "escaped", "step-limit"}
    assert min(seen.values()) > 0, seen
