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
from scipy.linalg import eigh

from divstat import analyze
from divstat.analyze import (
    CheckOpts,
    ScanReport,
    check_suite,
    hadamard2d_scan,
    hadamard_scan,
    sigma_bounds_scan,
)
from divstat.curvature import (
    _per_plane,
    _plane_basis,
    _plane_max,
    _scan_term,
    ricci,
    sectional_tilde,
)
from divstat.manifold import (
    BUILTINS,
    ConnKind,
    OutOfDomainError,
    load_manifold,
    sample_domain,
)

EUCL3 = {
    "name": "euclidean-3d",
    "dim": 3,
    "coords": ["x1", "x2", "x3"],
    "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "sigma": "0",
    "sample_box": [[-2, 2], [-2, 2], [-2, 2]],
}

# a large weight on a metric with an off-diagonal term
HEAVY = {
    "name": "heavy",
    "dim": 2,
    "coords": ["x1", "x2"],
    "metric": [["1 + x2^2", "0.1*x1"], ["0.1*x1", "1"]],
    "sigma": "30*x1 + sin(x2)",
    "sample_box": [[1, 2], [-1, 1]],
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
        full = hadamard_scan(m, pts)
        flat = hadamard2d_scan(m, pts)
        assert full.check == "cartan-hadamard", name
        assert abs(full.worst_value - flat.worst_value) < 1e-8, name
        assert np.array_equal(full.worst_point, flat.worst_point), name
        assert full.passed == flat.passed, name
        P = m.at_many(pts)
        assert np.abs(_plane_max(P) - analyze._careq2_at(P)).max() < 1e-8, name


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
        rep = hadamard_scan(m, [x])
        P = m.at(x)
        n2 = float(P.dsigma @ P.g_inv @ P.dsigma)
        _, via = sectional_tilde(m, x, ((1.0, 0.0), (0.0, 1.0)))
        want = 2.0 * math.exp(P.sigma) * via + n2
        assert abs(rep.worst_value - want) < 1e-10, name


def test_hadamard_dim3_smoke():
    m = load_manifold(EUCL3)
    rep = hadamard_scan(m, [(0.0, 0.0, 0.0), (1.0, -2.0, 0.5)])
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
        sigma_bounds_scan(m, [])
    with pytest.raises(ValueError):
        CheckOpts(samples=0)
    with pytest.raises(ValueError):
        CheckOpts(tol=-1.0)


def test_check_tol_must_be_a_positive_finite_number():
    # refused here, naming the field: an infinite tolerance passed every
    # check, a bool passed as 1 and a string failed later with TypeError;
    # a numpy float passes, as a Python float
    for bad in (True, "1e-8", None):
        with pytest.raises(ValueError) as info:
            CheckOpts(tol=bad)
        assert str(info.value) == f"tol must be a real number, got {bad!r}"
    for bad in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError) as info:
            CheckOpts(tol=bad)
        assert str(info.value) == f"tol must be positive and finite, got {bad!r}"
    opts = CheckOpts(tol=np.float64(1e-6))
    assert type(opts.tol) is float and opts.tol == 1e-6


def test_check_seed_must_be_a_non_negative_integer():
    # refused here, not later inside sample_domain's generator; a numpy
    # integer passes, as a Python int
    for bad in (2.5, -1, "3", None):
        with pytest.raises(ValueError) as info:
            CheckOpts(samples=3, seed=bad)
        assert str(info.value) == f"seed must be a non-negative integer, got {bad!r}"
    opts = CheckOpts(samples=3, seed=np.int64(5))
    assert type(opts.seed) is int and opts.seed == 5


def test_check_seed_refuses_a_bool():
    with pytest.raises(ValueError) as info:
        CheckOpts(samples=3, seed=False)
    assert str(info.value) == "seed must be a non-negative integer, got False"


def test_check_samples_must_be_an_integer():
    # a count: a float or a string is refused here, naming the field, not
    # later inside sample_domain; a numpy integer passes, as a Python int
    for bad in (2.5, 3.0, "3", None):
        with pytest.raises(ValueError) as info:
            CheckOpts(samples=bad)
        assert str(info.value) == f"samples must be an integer, got {bad!r}"
    with pytest.raises(ValueError, match=r"^samples must be at least 1$"):
        CheckOpts(samples=np.int64(0))
    opts = CheckOpts(samples=np.int32(3))
    assert type(opts.samples) is int and opts.samples == 3
    reports = check_suite(load_manifold("paraboloid"), opts)
    assert all(len(r.worst_point) == 2 for r in reports)


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

    # e^sigma reaches 1e26 here; metric compatibility of nabla-tilde is
    # judged in g's units, so the weight does not scale it past the tol
    heavy = load_manifold(HEAVY)
    by = {r.check: r for r in check_suite(heavy)}
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
    r1 = hadamard_scan(half, pts)
    r2 = hadamard_scan(half, pts)
    assert r1.worst_value == r2.worst_value
    assert np.array_equal(r1.worst_point, r2.worst_point)


# ---------------------------------------------------------------------------
# the scans read their geometry in blocks of rows; per-point references


def _close(got, want):
    # 1e-12 relative, or absolute for values below 1 (residuals at
    # rounding level differ between summation orders in their own last bits)
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _pencil(P):
    # the plane term's quadratic form Q on 2-vectors and g's Gram form G,
    # entry by entry on the pairs a < b, at the one point of P
    pairs = list(combinations(range(P.n), 2))
    g = P.g_spd
    T = np.einsum("lm,mkij->lkij", g, P.riemann(ConnKind.LC_G_TILDE))
    Q = [[(T[l, k, i, j] - T[k, l, i, j] - T[l, k, j, i] + T[k, l, j, i]) / 4.0
          for i, j in pairs] for l, k in pairs]
    G = [[g[a, c] * g[b, d] - g[a, d] * g[b, c] for c, d in pairs] for a, b in pairs]
    return np.array(Q), np.array(G)


def _ref_hadamard(M, pts):
    # M.at(x) per point, and the pencil's top eigenvalue from scipy
    vals = []
    for x in pts:
        P = M.at(x)
        top = eigh(*_pencil(P), eigvals_only=True)[-1]
        vals.append(2.0 * top + float(P.dsigma @ P.grad_sigma))
    return vals


def _sampled_worst(P, draws):
    # the largest plane term at each point of P over all coordinate planes
    # plus that point's random planes, draws[..., plane, :, (u, v)]; the
    # value depends on the plane only, not on the orthonormal basis chosen
    # inside it, and a random plane that does not span is left out
    E, F = analyze._coordinate_planes(P.n)
    shape = draws.shape[:-3] + E.shape  # the coordinate planes at each point
    U = np.concatenate([np.broadcast_to(E, shape), draws[..., 0]], axis=-2)
    V = np.concatenate([np.broadcast_to(F, shape), draws[..., 1]], axis=-2)
    X, Y, ok = _plane_basis(_per_plane(P.g_spd, U), U, V)
    return np.where(ok, _scan_term(P, X, Y), -np.inf).max(axis=-1)


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


# curved in 3-D, so that a point's value depends on the plane
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
    rep = hadamard_scan(M, pts)
    ref = _ref_hadamard(M, pts)
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
    ref = [M.at(x).sigma for x in pts]
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
        out = [hadamard_scan(M, pts)]
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


@pytest.mark.parametrize("doc", SCAN_DOCS, ids=lambda d: d if isinstance(d, str) else d["name"])
def test_lambda_fit_is_the_quotient_of_the_unscaled_sums(doc):
    # the fit sums a copy of W scaled by a power of two: where nothing
    # underflows, lambda is bit for bit the quotient of the plain sums
    M = load_manifold(doc)
    P = M.at_many(sample_domain(M, 30, seed=5))
    low, W = analyze._constant_curvature_terms(P, ConnKind.NABLA)
    lam, res = analyze._lambda_fit([(low[:7], W[:7]), (low[7:], W[7:])])
    assert lam == float(np.sum(low * W)) / float(np.sum(W * W))
    assert np.array_equal(res, np.abs(low - lam * W).reshape(30, -1).max(axis=1))


def test_degenerate_plane_in_a_batch_is_skipped():
    # every value on the half plane is below -2; a zero plane left in
    # would read 0
    M = load_manifold("half-plane-exp")
    B = M.at_many([(0.5, 0.5), (1.0, 2.0)])
    draws = np.random.default_rng(2).standard_normal((2, 2, 2, 2))
    want = _sampled_worst(B, draws)
    assert (want < -2.0).all()
    bad = np.concatenate([draws, np.zeros((2, 2, 2, 2))], axis=1)
    bad[1, 2, :, 0] = bad[1, 2, :, 1] = (1.0, -3.0)  # two equal vectors
    assert np.array_equal(_sampled_worst(B, bad), want)


def test_plane_max_is_the_maximum_over_planes_in_3d():
    # every 2-vector in dimension 3 is a plane: the value is at least the
    # best of 3000 random planes at each point, and the plane of the top
    # eigenvector attains it
    M = load_manifold(SKEW3)
    pts = sample_domain(M, 40, seed=13)
    P = M.at_many(pts)
    vals = _plane_max(P)
    sampled = _sampled_worst(P, np.random.default_rng(1).standard_normal((40, 3000, 3, 2)))
    assert (vals >= sampled).all()
    for x, val in zip(pts, vals):
        Px = M.at(x)
        w = eigh(*_pencil(Px))[1][:, -1]
        # X ^ Y has components w_01, w_02, w_12 on the pairs a < b, so the
        # plane is the Euclidean complement of (w_12, -w_02, w_01)
        U, V = np.linalg.svd([[w[2], -w[1], w[0]]])[2][1:]
        X, Y, ok = _plane_basis(Px.g_spd, U, V)
        assert ok
        assert abs(_scan_term(Px, X[None], Y[None])[0] - val) <= 1e-12 * abs(val)


# a 4-D definition, where a 2-vector need not be a plane
SKEW4 = {
    "name": "skew-4d",
    "dim": 4,
    "coords": ["x1", "x2", "x3", "x4"],
    "metric": [["2 + x1^2", "0.3*x2", "0", "0.1*x4"],
               ["0.3*x2", "1 + x2^2", "0.2*sin(x1)", "0"],
               ["0", "0.2*sin(x1)", "1.5 + x3^2", "0.1*x1"],
               ["0.1*x4", "0", "0.1*x1", "1 + x4^2"]],
    "sigma": "sin(x1) + x2*x3 - 0.2*x4^2",
}


def test_plane_max_bounds_the_planes_in_4d():
    M = load_manifold(SKEW4)
    pts = sample_domain(M, 20, seed=13)
    rep = hadamard_scan(M, pts)
    assert rep.check == "cartan-hadamard-bound"
    P = M.at_many(pts)
    vals = _plane_max(P)
    assert rep.worst_value == vals.max()
    sampled = _sampled_worst(P, np.random.default_rng(1).standard_normal((20, 1000, 4, 2)))
    assert (vals >= sampled).all()


def test_plane_max_near_a_singular_metric():
    # g = [[e^x2, a e^(x2/2)], [a e^(x2/2), 1]], a = 1 - 1e-9: the scan
    # agrees with the surface form where the sampled planes did not
    a = "0.999999999*exp(x2/2)"
    M = load_manifold({"name": "near-exp", "dim": 2, "coords": ["x1", "x2"],
                       "metric": [["exp(x2)", a], [a, "1"]], "sigma": "x1 + sin(x2)"})
    grid = [(x1, x2) for x1 in (-1.0, 0.0, 1.0) for x2 in (-1.0, 0.0, 1.0)]
    rep, flat = hadamard_scan(M, grid), hadamard2d_scan(M, grid)
    assert abs(rep.worst_value / flat.worst_value - 1.0) <= 1e-6


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
