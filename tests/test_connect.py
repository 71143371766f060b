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

import itertools
import math
from functools import cache
from statistics import NormalDist
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import qmc

import divstat.connect
from divstat.cli import run
from divstat.connect import (
    _COARSE,
    _FINE,
    _SCOUT,
    ConnectResult,
    NoConvergenceError,
    ShootOpts,
    _Branch,
    _gauss_newton,
    _halton,
    _jacobian,
    _norm,
    _solve_bvp,
    _start_directions,
    _start_velocities,
    contrast,
    contrast_structure_check,
    distance_tilde,
    shoot_connect,
)
from divstat.geodesic import _run, geodesic_residual
from divstat.manifold import BUILTINS, load_manifold, metric_at, sample_domain
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
    assert len(res.starts) >= 1
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
    a, b = [0.0, 0.0], [0.6, 0.2]
    assert abs(distance_tilde(p, a, b) - distance_tilde(p, b, a)) < 1e-6


def test_punctured_antipodal_fails_same_side_works():
    m = load_manifold("punctured-plane")
    res = shoot_connect(m, [1.0, 0.0], [-1.0, 0.0])
    assert not res.converged
    assert res.endpoint_error > 0.05
    assert len(res.starts) == 16
    assert all(s["ended"] == "failed" and s["branch"] is None for s in res.starts)
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


def _trial(M, p, v, opts, steps):
    # a shooting trial's run from (p, v) to t = 1, recording its step
    # sizes in steps: its status and end state
    status, _, y, *_ = _run(M, ConnKind.LC_G_TILDE, [*p.tolist(), *v.tolist()], 1.0, opts,
                            None, steps)
    return status, np.array(y)


class _Call(NamedTuple):
    start: int  # the start that made it: see _record
    what: str  # "trial" (connect._run) or "column" (connect._replay)
    opts: object  # a trial's tier options, None for a column
    y: tuple  # the state it starts from


class _Run(NamedTuple):
    found: list  # the branches found before the start, as it began
    got: tuple  # the start's end: _gauss_newton's (ok, v, err, joined)


def _record(monkeypatch):
    # from here on, every shooting trial and Jacobian column in call order
    # in rec.calls, as _Call records; rec.start is the index of the start
    # running, counted over the starts that _solve_bvp runs (-1 before the
    # first, and so for a direct call of _gauss_newton), and rec.runs holds
    # one _Run record per such start
    rec = SimpleNamespace(calls=[], start=-1, runs=[])
    gauss_newton = divstat.connect._gauss_newton
    run_, replay = divstat.connect._run, divstat.connect._replay

    def next_start(*args):
        rec.start += 1
        found = list(args[5])
        got = gauss_newton(*args)
        rec.runs.append(_Run(found, got))
        return got

    def trial(M, kind, y, t1, opts, *args):
        rec.calls.append(_Call(rec.start, "trial", opts, tuple(y)))
        return run_(M, kind, y, t1, opts, *args)

    def column(M, kind, x0, v0, steps):
        rec.calls.append(_Call(rec.start, "column", None, (*x0, *v0)))
        return replay(M, kind, x0, v0, steps)

    monkeypatch.setattr(divstat.connect, "_gauss_newton", next_start)
    monkeypatch.setattr(divstat.connect, "_run", trial)
    monkeypatch.setattr(divstat.connect, "_replay", column)
    return rec


@pytest.mark.parametrize("opts", [_SCOUT, _COARSE, _FINE])
def test_replayed_jacobian_on_the_punctured_plane_is_the_identity(opts):
    # e^sigma g is the Euclidean metric of the chart, so exptilde_p(v) is
    # p + v and its derivative the identity; the columns replay the base
    # path's steps, from starts that pass the puncture at 0.62 and 0.3
    m = load_manifold("punctured-plane")
    p, q = np.array([1.0, 0.0]), np.array([0.2, 1.0])
    for v in (np.array([-0.7, 0.9]), np.array([-2.0, 0.6])):
        steps = []
        status, y_end = _trial(m, p, v, opts, steps)
        assert status == "completed" and steps
        J = _jacobian(m, p.tolist(), q, v, y_end[:2] - q, steps)
        assert np.abs(J - np.eye(2)).max() <= 1e-8, (v, J)


def test_jacobian_column_that_leaves_the_chart_is_none():
    # a straight line that ends 1e-9 short of the wall x2 = 1: the column
    # that speeds it up crosses the wall
    m = load_manifold(dict(BUILTINS["euclidean"], name="below-one", domain="x2 < 1"))
    p, v = np.zeros(2), np.array([0.0, 1.0 - 1e-9])
    steps = []
    status, y_end = _trial(m, p, v, _SCOUT, steps)
    assert status == "completed"
    assert _jacobian(m, p.tolist(), np.array([0.0, 0.5]), v, y_end[:2] - [0.0, 0.5],
                     steps) is None


_NORM_VALUES = (0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-160, 1.0, -3.5,
                1e154, -1e155, 1e200, 1.7976931348623157e308, math.inf, -math.inf, math.nan)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_norm_is_numpys_bit_for_bit(n):
    # zeros, subnormals, squares that underflow or overflow, inf and nan,
    # in every arrangement of n entries; an overflowing dot warns in both
    for x in itertools.product(_NORM_VALUES, repeat=n):
        x = np.array(x)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _norm(x), np.linalg.norm(x)
        assert type(got) is float
        assert got.hex() == float(want).hex(), x


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
    target = np.einsum("mij,mk->ijk", m.at(p).gamma(ConnKind.NABLA), metric_at(m, p))
    assert np.abs(rep.nabla_fd - target).max() == rep.nabla_dev
    assert np.linalg.eigvalsh(rep.g_fd).min() > 0.0


def test_multistart_must_be_an_integer():
    # a count: 2.5 no longer runs 2 starts, nor "3" three; a numpy integer
    # passes, as a Python int
    for bad in (2.5, 3.0, "3", None):
        with pytest.raises(ValueError) as info:
            ShootOpts(multistart=bad)
        assert str(info.value) == f"multistart must be an integer, got {bad!r}"
    with pytest.raises(ValueError, match=r"^multistart must be at least 1$"):
        ShootOpts(multistart=np.int64(0))
    opts = ShootOpts(multistart=np.int32(3))
    assert type(opts.multistart) is int and opts.multistart == 3
    p, q = np.zeros(2), np.array([0.4, 0.3])
    assert len(_start_velocities(SimpleNamespace(n=2), p, q, opts)) == 3


def test_shoot_seed_must_be_a_non_negative_integer():
    # refused here, not later inside numpy's generator (with two or more
    # starts); a numpy integer passes, as a Python int
    for bad in (2.5, -1, "3", None):
        with pytest.raises(ValueError) as info:
            ShootOpts(multistart=2, seed=bad)
        assert str(info.value) == f"seed must be a non-negative integer, got {bad!r}"
    opts = ShootOpts(multistart=3, seed=np.uint8(7))
    assert type(opts.seed) is int and opts.seed == 7
    p, q = np.zeros(2), np.array([0.4, 0.3])
    got = _start_velocities(SimpleNamespace(n=2), p, q, opts)
    want = _start_velocities(SimpleNamespace(n=2), p, q, ShootOpts(multistart=3, seed=7))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_eps_bvp_must_be_a_positive_finite_number():
    # refused here, naming the field: an infinite tolerance called any
    # finite miss converged (from (0,0) to (1,0) on the paraboloid, a
    # length off by 1.7e-8), a bool passed as a number and a string failed
    # later with TypeError; a numpy float passes, as a Python float
    for bad in (True, "1e-8", None):
        with pytest.raises(ValueError) as info:
            ShootOpts(eps_bvp=bad)
        assert str(info.value) == f"eps_bvp must be a real number, got {bad!r}"
    for bad in (math.inf, math.nan, 0.0, -1e-8):
        with pytest.raises(ValueError) as info:
            ShootOpts(eps_bvp=bad)
        assert str(info.value) == f"eps_bvp must be positive and finite, got {bad!r}"
    opts = ShootOpts(eps_bvp=np.float64(1e-6))
    assert type(opts.eps_bvp) is float and opts.eps_bvp == 1e-6


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
    assert abs(contrast(m, p, q) - math.exp(-m.at(np.array(p)).sigma) * d2) < 1e-9


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


@pytest.mark.parametrize("n", [2, 3, 5])
def test_start_velocities_match_the_scipy_reference(n):
    # scipy's unscrambled Halton sequence from index 1 and its ndtri are
    # the reference: the points agree bit for bit, and the starts up to
    # the rounding of the inverse normal CDF
    M = SimpleNamespace(n=n)
    p = np.linspace(-0.3, 0.4, n)
    q = p + np.linspace(0.5, -0.2, n)
    for multistart in (2, 7, 64):
        k = multistart - 1
        halton = qmc.Halton(d=n, scramble=False)
        halton.fast_forward(1)
        pts = halton.random(k)
        assert np.array_equal(_halton(k, n), pts)
        opts = ShootOpts(multistart=multistart, seed=5)
        got = _start_velocities(M, p, q, opts)
        dirs = ndtri(pts)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        rot = np.linalg.qr(np.random.default_rng(5).standard_normal((n, n)))[0]
        mags = np.linalg.norm(q - p) * (1.0 + 0.5 * (np.arange(k) % 4))
        want = [q - p] + [mags[i] * (rot @ dirs[i]) for i in range(k)]
        assert len(got) == multistart
        assert np.array_equal(got[0], want[0])
        for a, b in zip(got, want):
            assert np.linalg.norm(a - b) <= 1e-15 * np.linalg.norm(b)


def test_start_velocities_are_built_once():
    # the unit directions are built once per (k, n, seed), read-only, and
    # the starts are those of an uncached build, bit for bit
    M = SimpleNamespace(n=2)
    p, q = np.array([0.3, -0.2]), np.array([-0.5, 0.4])
    for multistart, seed in ((6, 42), (16, 42), (6, 7), (1, 42)):
        opts = ShootOpts(multistart=multistart, seed=seed)
        first = _start_velocities(M, p, q, opts)
        k = multistart - 1
        if k:
            units = _start_directions(k, 2, seed)
            assert _start_directions(k, 2, seed) is units
            assert not units.flags.writeable
            with pytest.raises(ValueError):
                units[0, 0] = 1.0
            fresh = _start_directions.__wrapped__(k, 2, seed)
            assert fresh is not units and fresh.tobytes() == units.tobytes()
        # the build of every call, as it was before the directions were kept
        want = [q - p]
        if k:
            dirs = np.vectorize(NormalDist().inv_cdf)(_halton(k, 2))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            rot = np.linalg.qr(np.random.default_rng(seed).standard_normal((2, 2)))[0]
            mags = np.linalg.norm(q - p) * (1.0 + 0.5 * (np.arange(k) % 4))
            want += [mags[i] * (rot @ dirs[i]) for i in range(k)]
        again = _start_velocities(M, p, q, opts)
        assert len(first) == len(again) == multistart
        for a, b, c in zip(first, again, want):
            assert a.tobytes() == b.tobytes() == c.tobytes()
            assert a.flags.writeable and a is not b
    # a start handed out is the caller's: changing it changes no later start
    opts = ShootOpts(multistart=6, seed=42)
    starts = _start_velocities(M, p, q, opts)
    keep = [a.copy() for a in starts]
    for a in starts:
        a += 1.0
    assert all(a.tobytes() == b.tobytes() for a, b in zip(_start_velocities(M, p, q, opts), keep))


def test_shoot_connect_same_point():
    m = load_manifold("paraboloid")
    p = np.array([0.3, -0.2])
    res = shoot_connect(m, p, p)
    assert res.converged
    assert len(res.starts) == 0
    assert res.tilde_length == 0.0 and res.endpoint_error == 0.0
    assert len(res.solutions) == 1
    sol = res.solutions[0]
    assert sol["start"] == 0 and sol["tilde_length"] == 0.0
    assert np.array_equal(sol["v0"], np.zeros(2))
    # the dense output and the nabla parameter map interpolate constant
    # samples, so the paths stay at p up to rounding, with zero velocity
    assert np.array_equal(res.tilde_path.xs[-1], p)
    assert np.abs(res.tilde_path.xs - p).max() <= 1e-15
    assert res.nabla_path is not None
    assert np.abs(res.nabla_path.xs - p).max() <= 1e-15
    assert np.all(res.nabla_path.vs == 0.0)
    # the solve answers p == q before it computes any start
    sols, fail, starts = _solve_bvp(m, p, p.copy(), ShootOpts())
    assert fail is None and starts == [] and len(sols) == 1
    assert _same_record(sols[0], sol)
    assert distance_tilde(m, p, p) == 0.0
    assert contrast(m, p, p) == 0.0


# criterion 10's points: its pairs are (_HALF[i], _HALF[20 + i])
_HALF = sample_domain(load_manifold("half-plane-exp"), 40, seed=42)


def test_start_records_on_a_cartan_hadamard_pair():
    # one branch (criterion 10): every start converges to it or joins it
    m = load_manifold("half-plane-exp")
    res = shoot_connect(m, _HALF[0], _HALF[20], ShootOpts(multistart=6, seed=42))
    assert res.converged and len(res.solutions) == 1
    assert [s["start"] for s in res.starts] == list(range(6))
    assert all(s["ended"] in ("converged", "joined") and s["branch"] == 0
               for s in res.starts)
    assert res.starts[0]["ended"] == "converged"
    assert any(s["ended"] == "joined" for s in res.starts)
    # a joined start stopped inside the coarse basin: below the scout
    # tier's threshold, above the convergence target
    for s in res.starts:
        if s["ended"] == "joined":
            assert 0.25 * 1e-8 < s["endpoint_error"] < 1e-2


def _reference_bvp(M, p, q, opts):
    # every start run to its end with no branch to join, its converged
    # velocity kept unless one within 1e-6 (relative) is kept already.
    # Returns the solutions, the best failure where there is none (else
    # None) and each start's end, as _gauss_newton gives it
    gt = math.exp(M.at(p).sigma) * metric_at(M, p)
    sols, fail, runs = [], None, []
    for k, v0 in enumerate(_start_velocities(M, p, q, opts)):
        ok, v, err, joined = got = _gauss_newton(M, p, q, v0, 0.25 * opts.eps_bvp, [])
        runs.append(got)
        assert joined is None
        rec = {"start": k, "v0": v, "tilde_length": float(math.sqrt(v @ gt @ v)),
               "endpoint_error": err}
        if not ok:
            if fail is None or err < fail["endpoint_error"]:
                fail = rec
        elif not any(np.linalg.norm(v - s["v0"]) <= 1e-6 * max(1.0, np.linalg.norm(v))
                     for s in sols):
            sols.append(rec)
    sols.sort(key=lambda s: (s["tilde_length"], s["start"]))
    return sols, None if sols else fail, runs


def _same_record(a, b):
    if a is None or b is None:
        return a is b
    return (a["start"] == b["start"] and a["v0"].tobytes() == b["v0"].tobytes()
            and a["tilde_length"] == b["tilde_length"]
            and a["endpoint_error"] == b["endpoint_error"])


JOIN_CASES = [
    # one pair per class of the shooting benchmark, six starts
    ("half-plane-exp", (0.1182, 7.9603), (2.685, 7.1345), 6),
    ("paraboloid", (-0.1063, 0.522), (-0.0884, 0.2216), 6),
    ("punctured-plane", (-1.2651, 1.317), (1.3063, -1.588), 6),
    # criterion 10's pairs
    *[("half-plane-exp", tuple(_HALF[i]), tuple(_HALF[20 + i]), 6) for i in range(4)],
    # paraboloid pairs with two and three branches, sixteen starts
    ("paraboloid", (0.5566, 0.4514), (0.5653, -0.3332), 16),
    ("paraboloid", (-0.3251, 1.1708), (-0.8185, 0.3696), 16),
    ("paraboloid", (-0.0425, 1.1685), (1.3021, -0.4266), 16),
    # pairs of sample_domain(paraboloid, 80, seed=7) with two, four and
    # five branches, on which starts outside the coarse basin join on the
    # trial at their chord step's landing
    ("paraboloid", (2.2445, 0.9733), (1.0588, 1.3025), 16),
    ("paraboloid", (-2.9292, -1.8456), (-2.0936, 2.6005), 16),
    ("paraboloid", (-0.585, -2.4198), (-2.5877, -0.42), 16),
    # pairs 12 and 35 of those points, at full precision (rounded, they
    # keep fewer branches): with a chord chain that goes on where a step
    # merely comes closer to a branch, not half as close, later starts
    # join branches they do not head into, and five branches become three
    # and two
    ("paraboloid", (-2.785918327358423, 0.08933292162822148),
     (2.236855251388646, -0.934735998023843), 16),
    ("paraboloid", (1.0305909756677094, -1.1974795111255783),
     (-1.4940045200114511, 1.8362348835726525), 16),
    # pair 3 (points 3 and 43) of those points, at full precision: three
    # branches, and start 8, which fails alone, joins one on a chord chain,
    # so the best failure of the solve (start 3's) is not the reference's
    # (start 8's); both report none, since there is a solution
    ("paraboloid", (-2.9684081726065514, 1.9273705102965977),
     (0.41816564684284785, -0.7422729832204791), 16),
]


class _Solved(NamedTuple):
    solve: tuple  # _solve_bvp's (solutions, best failure, start records)
    calls: list  # its trials and columns in call order, as _Call records
    runs: list  # its starts, as _Run records
    reference: tuple  # _reference_bvp's (solutions, best failure, ends)
    reference_calls: list  # the reference's trials and columns


@cache
def _solved(case):
    # a JOIN_CASES pair solved once by _reference_bvp and once by
    # _solve_bvp, at seed 42, with every trial, column and start recorded
    name, p, q, k = case
    m, p, q = load_manifold(name), np.array(p), np.array(q)
    opts = ShootOpts(multistart=k, seed=42)
    with pytest.MonkeyPatch.context() as mp:
        rec = _record(mp)
        reference = _reference_bvp(m, p, q, opts)
        reference_calls, rec.calls = rec.calls, []
        solve = _solve_bvp(m, p, q, opts)
    return _Solved(solve, rec.calls, rec.runs, reference, reference_calls)


# float.hex of tilde_length, endpoint_error and every solution's v0 of
# shoot_connect with six starts on the first seven JOIN_CASES pairs
PINNED = [
    ("0x1.6c8c109064355p-2", "0x1.4589cfbc4223fp-36",
     [("0x1.66ff0f7f1b85bp+1", "-0x1.9c2f10bc4a52bp-2")]),
    ("0x1.0b94ddc759b84p-1", "0x1.17952c35b59b2p-38",
     [("0x1.b17470cb96abep-7", "-0x1.573fe69c92755p-2")]),
    ("0x1.f0960058c0681p+1", "0x1.965e89cd16738p-41",
     [("0x1.4923a29c779a6p+1", "-0x1.73d70a3d70a3ep+1")]),
    ("0x1.a5d698aed74b8p-1", "0x1.7ee445f9107edp-34",
     [("-0x1.9787732c83352p+0", "0x1.a31ad0bc2a3c6p+1")]),
    ("0x1.b4882965d8634p-1", "0x1.3eda5dd7c3ac6p-36",
     [("-0x1.8f38999ab30dfp+1", "-0x1.45b4fab190293p+2")]),
    ("0x1.a8b21b54bfcd3p-1", "0x1.eb711bf736edap-36",
     [("0x1.fecd20cfc9a02p+2", "0x1.5942f09382784p+0")]),
    ("0x1.36eb30feab13ap+0", "0x1.2299f74828ff7p-36",
     [("-0x1.fe0bf531ff0f7p+2", "-0x1.53395e9db7a7ep+2")]),
]


@pytest.mark.parametrize("case, pinned", list(zip(JOIN_CASES, PINNED)))
def test_the_solve_is_pinned_bit_for_bit(case, pinned):
    # one pair per class of the shooting benchmark and criterion 10's four:
    # no change to the solve's arithmetic may move a bit of its results
    name, p, q, k = case
    res = shoot_connect(load_manifold(name), np.array(p), np.array(q),
                        ShootOpts(multistart=k, seed=42))
    got = (res.tilde_length.hex(), float(res.endpoint_error).hex(),
           [tuple(a.hex() for a in s["v0"].tolist()) for s in res.solutions])
    assert got == pinned


def test_joined_starts_leave_the_solutions_as_they_were():
    # a start that joins a branch found before it adds nothing to the
    # result: the solutions and the best failure are those of running every
    # start to its end, with strictly fewer integrations
    multi = 0
    for case in JOIN_CASES:
        name, p, q, k = case
        solved = _solved(case)
        work = [{"_run": sum(c.what == "trial" for c in calls),
                 "_replay": sum(c.what == "column" for c in calls)}
                for calls in (solved.reference_calls, solved.calls)]
        (want, want_fail, _), (sols, fail, starts) = solved.reference, solved.solve
        assert len(sols) == len(want), (name, p, q)
        assert all(_same_record(a, b) for a, b in zip(sols, want)), (name, p, q)
        assert _same_record(fail, want_fail), (name, p, q)
        assert any(s["ended"] == "joined" for s in starts), (name, p, q)
        assert work[1]["_run"] < work[0]["_run"], (name, p, q)
        assert work[1]["_replay"] < work[0]["_replay"], (name, p, q)
        multi += len(sols) >= 2
    assert multi >= 2


@pytest.mark.parametrize("name, p, q", [JOIN_CASES[0][:3], JOIN_CASES[2][:3]])
def test_later_starts_join_before_the_fine_tier(name, p, q):
    # once start 0 has found the one branch, every later start reaches
    # its basin at the scout or coarse tier and joins there, before it
    # integrates at fine tolerance
    solved = _solved((name, p, q, 6))
    _, _, starts = solved.solve
    fine = [c.start for c in solved.calls if c.opts is _FINE]
    assert [s["ended"] for s in starts] == ["converged"] + ["joined"] * 5
    assert len(solved.runs) == 6 and fine and set(fine) == {0}


def test_joined_starts_stop_at_the_scout_tier():
    # a start that joins does so at the scout tier, on its Newton step
    # from inside the coarse basin: none of its trial paths runs at the
    # coarse or fine tolerance
    joined = 0
    for case in JOIN_CASES:
        name, p, q, k = case
        solved = _solved(case)
        _, _, starts = solved.solve
        finer = [c.start for c in solved.calls if c.what == "trial" and c.opts is not _SCOUT]
        late = {s["start"] for s in starts if s["ended"] == "joined"} & set(finer)
        assert not late, (name, p, q, sorted(late))
        joined += sum(s["ended"] == "joined" for s in starts)
    assert joined >= 30


def test_later_starts_on_an_affine_endpoint_map_form_no_jacobian():
    # e^sigma g = I on the punctured plane, so exptilde_p(v) = p + v: start
    # 0 converges from the chart difference without a Newton step and then
    # forms its branch's Jacobian once, on its fine steps; every later
    # start's chord step on that Jacobian lands on the branch, and one
    # scout trial there joins it.  calls holds one list per start, of
    # ("trial", tier options) and ("column",) entries
    k = JOIN_CASES[2][3]
    solved = _solved(JOIN_CASES[2])
    _, _, starts = solved.solve
    calls = [[("trial", c.opts) if c.what == "trial" else ("column",)
              for c in solved.calls if c.start == i] for i in range(k)]
    assert [s["ended"] for s in starts] == ["converged"] + ["joined"] * (k - 1)
    scout, coarse, fine = ("trial", _SCOUT), ("trial", _COARSE), ("trial", _FINE)
    assert calls[0] == [scout, coarse, fine] + [("column",)] * 2
    assert calls[1:] == [[scout, scout]] * (k - 1)


def _hex_result(got):
    ok, v, err, joined = got
    return ok, [a.hex() for a in v.tolist()], float(err).hex(), joined


def test_a_start_whose_chord_steps_miss_every_branch_iterates_as_alone():
    # the later starts that do not join, whether they converge to a branch
    # of their own or fail, with every branch found before them (each
    # keeping its Jacobian) to test their chord chains against, end bit
    # for bit as with no branch found: as the reference runs them alone
    ended = {True: 0, False: 0}
    for case in JOIN_CASES:
        solved = _solved(case)
        for (found, got), alone in zip(solved.runs, solved.reference[2], strict=True):
            if got[3] is None and found:
                assert all(s.J is not None for s in found)
                assert _hex_result(got) == _hex_result(alone)
                ended[got[0]] += 1
    assert ended[True] >= 4 and ended[False] >= 4


def test_a_chord_landing_whose_trial_misses_leaves_the_iteration(monkeypatch):
    # a branch forged so that the first chord step lands on it, where the
    # defect is larger than at the start: the one trial there is all the
    # start spends on it, and it then iterates as with no branch found
    m = load_manifold("paraboloid")
    p, q = np.zeros(2), np.array([0.4, 0.3])
    v0 = np.array([0.5, 0.2])
    rec = _record(monkeypatch)
    alone = _gauss_newton(m, p, q, v0, 0.25e-8, [])
    want, rec.calls = [(c.y, c.opts) for c in rec.calls if c.what == "trial"], []
    # J (-2 v0) = -r(v0): the chord step from v0 lands on -v0
    r = _trial(m, p, v0, _SCOUT, [])[1][:2] - q
    forged = _Branch(-v0, np.diag(r / (2.0 * v0)))
    got = _gauss_newton(m, p, q, v0, 0.25e-8, [forged])
    trials = [(c.y, c.opts) for c in rec.calls if c.what == "trial"]
    assert _hex_result(got) == _hex_result(alone) and alone[0]
    assert trials == want[:1] + [(tuple(p.tolist() + (-v0).tolist()), _SCOUT)] + want[1:]


def test_a_chord_chain_that_stops_halving_leaves_the_iteration(monkeypatch):
    # a branch forged a quarter of the way from the start's solution back
    # to v0, keeping twice the Jacobian at v0: the chord steps on it are
    # half Newton steps, which come half as close to the branch twice, each
    # lowering the defect, and then no longer.  The two trials at those
    # landings are all the start spends on the chain; no later iterate
    # comes half as close, and the start iterates as with no branch found
    m = load_manifold("paraboloid")
    p, q = np.zeros(2), np.array([0.4, 0.3])
    v0 = np.array([0.5, 0.2])
    rec = _record(monkeypatch)
    alone = _gauss_newton(m, p, q, v0, 0.25e-8, [])
    want, rec.calls = [(c.y, c.opts) for c in rec.calls if c.what == "trial"], []
    assert alone[0]
    steps = []
    r0 = _trial(m, p, v0, _SCOUT, steps)[1][:2] - q
    forged = _Branch(alone[1] + 0.25 * (v0 - alone[1]),
                     2.0 * _jacobian(m, p.tolist(), q, v0, r0, steps))
    chain, u, ru = [], v0, r0
    for _ in range(3):
        w = u + np.linalg.solve(forged.J, -ru)
        rw = _trial(m, p, w, _SCOUT, [])[1][:2] - q
        chain.append((w, _norm(w - forged.v) <= 0.5 * _norm(u - forged.v), _norm(rw) < _norm(ru)))
        u, ru = w, rw
    assert [c[1:] for c in chain] == [(True, True), (True, True), (False, True)]
    got = _gauss_newton(m, p, q, v0, 0.25e-8, [forged])
    trials = [(c.y, c.opts) for c in rec.calls if c.what == "trial"]
    assert _hex_result(got) == _hex_result(alone)
    assert trials == want[:1] + [(tuple(p.tolist() + w.tolist()), _SCOUT)
                                 for w, *_ in chain[:2]] + want[1:]


def test_later_starts_replay_fewer_columns_than_one_jacobian():
    # on the first three JOIN_CASES pairs (one branch each) the later
    # starts follow their chord chains into start 0's branch: all five
    # together replay fewer columns than one Jacobian has (2), where each
    # formed one or two Jacobians of its own on a single chord step
    for case in JOIN_CASES[:3]:
        name, p, q, k = case
        solved = _solved(case)
        _, _, starts = solved.solve
        assert [s["ended"] for s in starts] == ["converged"] + ["joined"] * (k - 1)
        later = sum(c.what == "column" and c.start > 0 for c in solved.calls)
        assert later <= 2, (name, later)


def test_a_final_iterate_within_join_of_a_branch_ends_joined(monkeypatch):
    # the iteration budget's exit runs the join test the loop runs: start 1
    # is 1 % off start 0's branch, one Gauss-Newton step brings it within
    # _JOIN of it, and the budget ends there, at the scout tier.  In the
    # solve start 1 joins on its chord step; the direct call passes a
    # branch that keeps no Jacobian, so only the budget's exit can join it
    m = load_manifold("half-plane-exp")
    p, q = np.array(JOIN_CASES[0][1]), np.array(JOIN_CASES[0][2])
    sols, _, _ = _solve_bvp(m, p, q, ShootOpts(multistart=1))
    s = sols[0]["v0"]
    monkeypatch.setattr(divstat.connect, "_MAX_ITER", 1)
    monkeypatch.setattr(divstat.connect, "_start_velocities",
                        lambda M, p, q, opts: [s.copy(), 1.01 * s])
    sols, fail, starts = _solve_bvp(m, p, q, ShootOpts(multistart=2))
    assert [(r["ended"], r["branch"]) for r in starts] == [("converged", 0), ("joined", 0)]
    assert len(sols) == 1 and fail is None
    assert 1e-5 < starts[1]["endpoint_error"] < 1e-2
    ok, v, err, joined = _gauss_newton(m, p, q, 1.01 * s, 0.25e-8, [_Branch(s, None)])
    assert ok and joined == 0
    assert np.linalg.norm(v - s) <= divstat.connect._JOIN * np.linalg.norm(s)


def test_the_iteration_budget_ends_the_solve(monkeypatch):
    # from the chart difference the paraboloid solve takes one step per
    # tier: with a budget of three the loop ends on the fine tier's iterate
    # and judges it after the loop, with two it ends short of the target
    m = load_manifold("paraboloid")
    p, q = np.zeros(2), np.array([0.4, 0.3])
    ok, v, err, joined = _gauss_newton(m, p, q, q - p, 0.25e-8, [])
    assert ok and joined is None
    monkeypatch.setattr(divstat.connect, "_MAX_ITER", 3)
    got = _gauss_newton(m, p, q, q - p, 0.25e-8, [])
    assert got[0] and np.array_equal(got[1], v) and got[2:] == (err, None)
    monkeypatch.setattr(divstat.connect, "_MAX_ITER", 2)
    ok, v, err, joined = _gauss_newton(m, p, q, q - p, 0.25e-8, [])
    assert not ok and joined is None and 0.25e-8 < err < 1e-5


def test_a_tier_whose_trial_path_does_not_complete_fails_the_start(monkeypatch):
    # a path the scout tier completes may leave the chart at the coarse
    # tier's tolerance: the start fails there, with its last scout error
    m = load_manifold("paraboloid")
    p, q = np.zeros(2), np.array([0.4, 0.3])
    core, tiers = divstat.connect._run, []

    def integrate(M, kind, y, t1, opts, *args, **kwargs):
        tiers.append(opts)
        status, *rest = core(M, kind, y, t1, opts, *args, **kwargs)
        return ("exited-domain" if opts is _COARSE else status), *rest

    monkeypatch.setattr(divstat.connect, "_run", integrate)
    ok, v, err, joined = _gauss_newton(m, p, q, q - p, 0.25e-8, [])
    assert not ok and joined is None
    assert 1e-5 < err < 1e-2 and tiers[-1] is _COARSE and _FINE not in tiers


def test_a_jacobian_column_that_leaves_the_chart_fails_the_start():
    # the base path ends 1e-9 short of the wall x2 = 1 and completes; the
    # column that speeds it up crosses the wall, so no step is taken
    m = load_manifold(dict(BUILTINS["euclidean"], name="below-one", domain="x2 < 1"))
    p, q, v0 = np.zeros(2), np.array([0.0, 0.5]), np.array([0.0, 1.0 - 1e-9])
    ok, v, err, joined = _gauss_newton(m, p, q, v0, 0.25e-8, [])
    assert not ok and joined is None
    assert np.array_equal(v, v0) and abs(err - 0.5) < 1e-8


def test_a_newton_step_that_is_not_finite_fails_the_start(monkeypatch, capsys):
    # a Newton step that overflows gives trial velocities that are not
    # finite: each is a failed trial, like one that leaves the chart, so
    # every start fails and the command exits 3, not 2 (invalid input)
    monkeypatch.setattr(np.linalg, "solve", lambda J, b: np.array([np.inf, 0.0]))
    m = load_manifold("paraboloid")
    res = shoot_connect(m, (0.0, 0.0), (0.4, 0.3), ShootOpts(multistart=2))
    assert not res.converged and not res.solutions
    assert [(s["ended"], s["branch"]) for s in res.starts] == [("failed", None)] * 2
    assert all(math.isfinite(s["endpoint_error"]) for s in res.starts)
    capsys.readouterr()
    code = run(["connect", "paraboloid", "--from", "0,0", "--to", "0.4,0.3"])
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.splitlines()) == 1 and "no converged geodesic" in err


def test_contrast_structure_check_needs_a_positive_step():
    m = load_manifold("euclidean")
    # an infinite step ran its solves from (inf, nan)
    for h in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="stencil step must be positive"):
            contrast_structure_check(m, [0.0, 0.0], h)
