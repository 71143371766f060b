"""Scanner tests.

Closed-form oracles used below:
  half-plane-exp: the metric 1/y^2 delta has Gauss curvature -1, and
  sigma = e^{-y} gives |dsigma|^2_g = y^2 e^{-2y} and Lap sigma = y^2 e^{-y},
  so the planar scan value is f(y) = -2 + y^2 (e^{-2y} - e^{-y}).  f < -2
  for all y > 0, f(1) = -2.2325441579348297, and on the standard grid
  y in [0.1, 10] the maximum sits at the y = 0.1 edge, f(0.1) ~ -2.0008611.
  paraboloid at the origin: Gauss curvature 1, Hess sigma = -delta and
  dsigma = 0 there, so the scan value is 2*1 + 1 + 1 = 4 (a failing point).
  euclidean: every quantity vanishes, the boundary case of the inequality.
"""

import math
import re
from itertools import combinations

import numpy as np
import pytest

from divstat import analyze
from divstat.analyze import (
    CheckOpts,
    ScanReport,
    check_suite,
    hadamard2d_scan,
    hadamard_scan,
    sigma_bounds_scan,
)
from divstat.curvature import ricci, sectional_tilde
from divstat.manifold import (
    BUILTINS,
    ConnKind,
    OutOfDomainError,
    load_manifold,
    metric_inverse_at,
    sample_domain,
    sigma_at,
    sigma_jet,
)

EUCL3 = {
    "name": "euclidean-3d",
    "dim": 3,
    "coords": ["x1", "x2", "x3"],
    "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "sigma": "0",
    "sample_box": [[-2, 2], [-2, 2], [-2, 2]],
}

SUITE_CHECKS = {
    "metric-compatibility",
    "codazzi",
    "duality",
    "connection-mean",
    "conformal-projective",
    "curvature-eq3",
    "curvature-eq4",
    "curvature-eq5",
    "ricci-symmetry",
    "volume-parallel",
    "trace-k",
    "sectional-tilde-agreement",
    "conjugate-symmetry",
    "constant-curvature-fit",
}


def f_half_plane(y):
    return -2.0 + y * y * (math.exp(-2.0 * y) - math.exp(-y))


def test_hadamard2d_point_oracles():
    half = load_manifold("half-plane-exp")
    rep = hadamard2d_scan(half, [(0.0, 1.0)])
    assert isinstance(rep, ScanReport)
    assert abs(rep.worst_value - f_half_plane(1.0)) < 1e-10
    assert rep.passed is True
    assert np.array_equal(rep.worst_point, [0.0, 1.0])

    para = load_manifold("paraboloid")
    rep = hadamard2d_scan(para, [(0.0, 0.0)])
    assert abs(rep.worst_value - 4.0) < 1e-10
    assert rep.passed is False

    eucl = load_manifold("euclidean")
    rep = hadamard2d_scan(eucl, [(0.0, 0.0), (1.5, -2.0)])
    assert rep.worst_value == 0.0
    assert rep.passed is True
    assert rep.tol == 0.0


def test_hadamard_matches_2d_reduction():
    for name in ("euclidean", "paraboloid", "punctured-plane", "half-plane-exp"):
        m = load_manifold(name)
        pts = sample_domain(m, 25, seed=91)
        full = hadamard_scan(m, pts, planes_per_point=3, seed=5)
        flat = hadamard2d_scan(m, pts)
        assert abs(full.worst_value - flat.worst_value) < 1e-8, name
        assert np.array_equal(full.worst_point, flat.worst_point), name
        assert full.passed == flat.passed, name


def test_hadamard_grid_half_plane():
    half = load_manifold("half-plane-exp")
    xs = np.linspace(-5.0, 5.0, 50)
    ys = np.linspace(0.1, 10.0, 50)
    pts = [(x, y) for x in xs for y in ys]
    rep = hadamard2d_scan(half, pts)
    assert rep.passed is True
    assert rep.worst_value <= 0.0
    # the x-independent value is maximized on the y = 0.1 grid edge
    assert abs(rep.worst_value - f_half_plane(0.1)) < 1e-9
    assert rep.worst_point[1] == 0.1


def test_hadamard_consistent_with_sectional():
    # on the coordinate plane the scan value equals
    # 2 e^sigma sec_tilde + |dsigma|^2_g
    for name, x in (("half-plane-exp", (0.4, 0.7)), ("paraboloid", (1.1, -0.3))):
        m = load_manifold(name)
        rep = hadamard_scan(m, [x], planes_per_point=0)
        _, ds = sigma_jet(m, x, 1)
        n2 = float(ds @ metric_inverse_at(m, x) @ ds)
        _, via = sectional_tilde(m, x, ((1.0, 0.0), (0.0, 1.0)))
        want = 2.0 * math.exp(sigma_at(m, x)) * via + n2
        assert abs(rep.worst_value - want) < 1e-10, name


def test_hadamard_dim3_smoke():
    m = load_manifold(EUCL3)
    rep = hadamard_scan(m, [(0.0, 0.0, 0.0), (1.0, -2.0, 0.5)], planes_per_point=2)
    assert rep.worst_value == 0.0
    assert rep.passed is True
    with pytest.raises(ValueError):
        hadamard2d_scan(m, [(0.0, 0.0, 0.0)])


def test_scan_input_validation():
    m = load_manifold("euclidean")
    with pytest.raises(ValueError):
        hadamard_scan(m, [])
    with pytest.raises(ValueError):
        hadamard2d_scan(m, [])
    with pytest.raises(ValueError):
        hadamard_scan(m, [(0.0, 0.0)], planes_per_point=-1)
    with pytest.raises(ValueError):
        sigma_bounds_scan(m, [])
    with pytest.raises(ValueError):
        CheckOpts(samples=0)
    with pytest.raises(ValueError):
        CheckOpts(tol=-1.0)


def test_sigma_bounds():
    eucl = load_manifold("euclidean")
    smin, pmin, smax, pmax = sigma_bounds_scan(eucl, [(0.0, 0.0), (2.0, -1.0)])
    assert smin == smax == 0.0

    half = load_manifold("half-plane-exp")
    smin, pmin, smax, pmax = sigma_bounds_scan(half, sample_domain(half, 200, seed=3))
    assert 0.0 < smin <= smax < 1.0
    assert pmin[1] > pmax[1]  # sigma = e^{-y} decreases in y

    # the punctured-plane weight is unbounded below toward the puncture
    punc = load_manifold("punctured-plane")
    far = [(1.0 + 0.2 * k, 0.0) for k in range(5)]
    near = far + [(0.1, 0.0)]
    fmin = sigma_bounds_scan(punc, far)
    nmin = sigma_bounds_scan(punc, near)
    assert fmin[2] < 0.0 and nmin[2] < 0.0
    assert nmin[0] < fmin[0]
    assert abs(nmin[0] + 200.0) < 1e-9  # sigma = -2/r^2 at r = 0.1


def test_check_suite_paraboloid_and_euclidean():
    para = load_manifold("paraboloid")
    reports = check_suite(para)
    assert {r.check for r in reports} == SUITE_CHECKS
    by = {r.check: r for r in reports}
    for r in reports:
        if r.passed is not None:
            assert r.passed is True, (r.check, r.worst_value)
            assert r.tol == 1e-8
    assert abs(by["constant-curvature-fit"].extra["lambda"] - 1.0) < 1e-8
    assert by["constant-curvature-fit"].worst_value < 1e-8
    assert by["conjugate-symmetry"].worst_value < 1e-9
    assert by["conjugate-symmetry"].passed is None

    eucl = load_manifold("euclidean")
    by = {r.check: r for r in check_suite(eucl)}
    for r in by.values():
        if r.passed is not None:
            assert r.passed is True, (r.check, r.worst_value)
    assert abs(by["constant-curvature-fit"].extra["lambda"]) < 1e-12


def test_check_suite_half_plane_and_punctured():
    half = load_manifold("half-plane-exp")
    by = {r.check: r for r in check_suite(half)}
    for r in by.values():
        if r.passed is not None:
            assert r.passed is True, (r.check, r.worst_value)
    # genuinely non-conjugate-symmetric: Hess sigma is not proportional to g
    assert by["conjugate-symmetry"].worst_value > 0.1
    assert by["conjugate-symmetry"].passed is None

    punc = load_manifold("punctured-plane")
    by = {r.check: r for r in check_suite(punc, CheckOpts(samples=25))}
    for r in by.values():
        if r.passed is not None:
            assert r.passed is True, (r.check, r.worst_value)


def test_scan_determinism():
    para = load_manifold("paraboloid")
    opts = CheckOpts(samples=25, seed=7)
    a = check_suite(para, opts)
    b = check_suite(para, opts)
    for ra, rb in zip(a, b):
        assert ra.check == rb.check
        assert ra.worst_value == rb.worst_value
        assert np.array_equal(ra.worst_point, rb.worst_point)
        assert ra.passed == rb.passed
        assert ra.extra == rb.extra

    half = load_manifold("half-plane-exp")
    pts = sample_domain(half, 20, seed=12)
    r1 = hadamard_scan(half, pts, planes_per_point=4, seed=11)
    r2 = hadamard_scan(half, pts, planes_per_point=4, seed=11)
    assert r1.worst_value == r2.worst_value
    assert np.array_equal(r1.worst_point, r2.worst_point)


# ---------------------------------------------------------------------------
# the scans read their geometry in blocks of rows; per-point references


def _close(got, want):
    # 1e-12 relative, or absolute for values below 1 (residuals at
    # rounding level differ between summation orders in their own last bits)
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _ref_hadamard(M, pts, planes, seed):
    # M.at(x) per point, Gram-Schmidt in g plane by plane, and every
    # point's planes drawn in one call
    draws = np.random.default_rng(seed).standard_normal((len(pts), planes, M.n, 2))
    eye = np.eye(M.n)
    coord = [(eye[a], eye[b]) for a, b in combinations(range(M.n), 2)]
    vals = []
    for x, d in zip(pts, draws):
        P = M.at(x)
        g, H = P.g_spd, P.hess_sigma
        S = 0.5 * (P.riemann(ConnKind.NABLA) + P.riemann(ConnKind.NABLA_BAR))
        best = -math.inf
        for u, v in coord + [(p[:, 0], p[:, 1]) for p in d]:
            X = u / math.sqrt(u @ g @ u)
            w = v - (X @ g @ v) * X
            Y = w / math.sqrt(w @ g @ w)
            sval = np.einsum("lm,mkij,i,j,k,l->", g, S, X, Y, Y, X)
            best = max(best, 2.0 * sval - X @ H @ X - Y @ H @ Y)
        vals.append(best)
    return vals


def _ref_hadamard2d(M, pts):
    vals = []
    for x in pts:
        P = M.at(x)
        scal = float(np.einsum("jk,jk->", P.g_inv, ricci(M, x, "lc")))
        vals.append(scal + float(P.dsigma @ P.grad_sigma) - P.laplace_sigma)
    return vals


def _ref_check_suite(M, opts):
    # the suite's per-point helpers on one M.at(x) at a time, aggregated
    # in a Python loop
    pts = sample_domain(M, opts.samples, seed=opts.seed)
    rows, num, den, terms = [], 0.0, 0.0, []
    for x in pts:
        P = M.at(x)
        rows.append(analyze._point_residuals(P))
        low, W = analyze._constant_curvature_terms(P, ConnKind.NABLA)
        num += float(np.sum(low * W))
        den += float(np.sum(W * W))
        terms.append((low, W))
    lam = num / den
    out = {name: [float(r[name]) for r in rows] for name in rows[0]}
    out["constant-curvature-fit"] = [float(np.abs(lo - lam * W).max()) for lo, W in terms]
    return pts, out, lam


# curved in 3-D, so that a point's value depends on which planes it draws
SKEW3 = {
    "name": "skew-3d",
    "dim": 3,
    "coords": ["x1", "x2", "x3"],
    "metric": [["2 + x1^2", "0.3*x2", "0.1*x3"],
               ["0.3*x2", "1 + x2^2", "0.2*sin(x1)"],
               ["0.1*x3", "0.2*sin(x1)", "1.5 + x3^2"]],
    "sigma": "sin(x1) + x2*x3",
}

SCAN_DOCS = sorted(BUILTINS) + [EUCL3, SKEW3]


@pytest.mark.parametrize("doc", SCAN_DOCS, ids=lambda d: d if isinstance(d, str) else d["name"])
def test_batched_scans_match_per_point_reference(doc):
    M = load_manifold(doc)
    pts = sample_domain(M, 40, seed=13)
    rep = hadamard_scan(M, pts, planes_per_point=3, seed=8)
    ref = _ref_hadamard(M, pts, 3, 8)
    k = int(np.argmax(ref))
    assert _close(rep.worst_value, ref[k]) and rep.passed == (ref[k] <= 0.0)
    assert np.array_equal(rep.worst_point, pts[k])
    if M.n == 2:
        rep = hadamard2d_scan(M, pts)
        ref = _ref_hadamard2d(M, pts)
        k = int(np.argmax(ref))
        assert _close(rep.worst_value, ref[k]) and rep.passed == (ref[k] <= 0.0)
        assert np.array_equal(rep.worst_point, pts[k])
    smin, pmin, smax, pmax = sigma_bounds_scan(M, pts)
    ref = [sigma_at(M, x) for x in pts]
    assert _close(smin, min(ref)) and _close(smax, max(ref))
    assert np.array_equal(pmin, pts[int(np.argmin(ref))])
    assert np.array_equal(pmax, pts[int(np.argmax(ref))])

    opts = CheckOpts(samples=30, seed=5)
    pts, ref, lam = _ref_check_suite(M, opts)
    reports = check_suite(M, opts)
    assert [r.check for r in reports] == list(ref)
    for r in reports:
        vals = ref[r.check]
        worst = max(vals)
        assert _close(r.worst_value, worst), (r.check, r.worst_value, worst)
        if r.passed is not None:
            assert r.passed == (worst <= opts.tol), r.check
        if worst > 1e-6:  # above rounding noise the worst sample is unique
            assert np.array_equal(r.worst_point, pts[int(np.argmax(vals))]), r.check
    assert _close(reports[-1].extra["lambda"], lam)


@pytest.mark.parametrize("doc", SCAN_DOCS, ids=lambda d: d if isinstance(d, str) else d["name"])
def test_scans_do_not_depend_on_the_block_size(doc, monkeypatch):
    M = load_manifold(doc)
    pts = sample_domain(M, 30, seed=17)
    opts = CheckOpts(samples=30, seed=3)

    def scans():
        out = [hadamard_scan(M, pts, planes_per_point=2, seed=4)]
        if M.n == 2:
            out.append(hadamard2d_scan(M, pts))
        return out + check_suite(M, opts), sigma_bounds_scan(M, pts)

    whole, bounds = scans()
    monkeypatch.setattr(analyze, "_BLOCK", 7)
    split, bounds7 = scans()
    for a, b in zip(whole, split):
        assert a.check == b.check and a.passed == b.passed, a.check
        assert np.array_equal(a.worst_point, b.worst_point), a.check
        assert _close(b.worst_value, a.worst_value), a.check
        if "lambda" in a.extra:
            assert _close(b.extra["lambda"], a.extra["lambda"])
    for a, b in zip(bounds, bounds7):
        assert np.array_equal(a, b)


def test_degenerate_plane_in_a_batch_is_skipped():
    # every value on the half plane is below -2; a zero plane left in
    # would read 0
    M = load_manifold("half-plane-exp")
    B = M.at_many([(0.5, 0.5), (1.0, 2.0)])
    draws = np.random.default_rng(2).standard_normal((2, 2, 2, 2))
    want = analyze._careq_worst(B, draws)
    assert (want < -2.0).all()
    bad = np.concatenate([draws, np.zeros((2, 2, 2, 2))], axis=1)
    bad[1, 2, :, 0] = bad[1, 2, :, 1] = (1.0, -3.0)  # two equal vectors
    assert np.array_equal(analyze._careq_worst(B, bad), want)


def test_scan_raises_the_first_outside_row(monkeypatch):
    half = load_manifold("half-plane-exp")
    xs = np.linspace(-1.0, 1.0, 3)
    ys = np.linspace(1.0, -1.0, 5)  # crosses the wall x2 = 0 on every column
    grid = [(x, y) for x in xs for y in ys]
    first = next(p for p in grid if p[1] <= 0.0)
    with pytest.raises(OutOfDomainError) as want:
        half.at(first)
    msg = re.escape(str(want.value))
    for block in (analyze._BLOCK, 4):
        monkeypatch.setattr(analyze, "_BLOCK", block)
        for scan in (hadamard_scan, hadamard2d_scan, sigma_bounds_scan):
            with pytest.raises(OutOfDomainError, match=f"^{msg}$"):
                scan(half, grid)
