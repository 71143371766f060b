"""Domain scanners: curvature-sign condition, sigma bounds, aggregate checks.

The central scan evaluates, over g-orthonormal tangent planes (X, Y),

    2 g(S(X,Y)Y, X) - Hess sigma(X,X) - Hess sigma(Y,Y)

with S the statistical curvature operator.  Nonpositivity of this quantity
forces the sectional curvature of the conformal metric e^sigma g below
-e^{-sigma} |dsigma|^2_g / 2, so a clean scan is evidence for the
Cartan-Hadamard situation in which connecting geodesics are unique.  In
dimension two the quantity collapses to 2k + |dsigma|^2_g - Lap sigma with
k the Gauss curvature of g, which hadamard2d_scan evaluates directly (2k
as the scalar curvature of g); the two scans agree on 2-manifolds and the
tests pin that down.

Scans sample: none of them can prove a global property, and
sigma_bounds_scan in particular only reports the extrema of sigma over the
points it was given.  All randomness is seeded.  The points are read in
blocks of _BLOCK rows in sample order, each block through one batched
PointGeometry (ManifoldDef.at_many), so a scan's memory does not grow with
its grid.  Each point's values are computed from its own row, and the
aggregation does not depend on where the blocks split: the worst point is
the first sample attaining the max, and the constant-curvature fit sums
over the whole sample set.  Fixed inputs give bit-identical reports.
"""

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .curvature import (
    _conjugate_symmetry_residual,
    _constant_curvature_terms,
    _max_abs,
    _plane_basis,
    _quad,
    _relation_residuals,
    _ricci,
    _sectional_tilde,
    _statistical_curvature,
)
from .manifold import ConnKind, sample_domain
from .statstruct import _cubic_form, _parallel_volume_residual, _trace_K

# rows per ManifoldDef.at_many call: large enough that numpy's per-call
# cost vanishes, small enough that a block's tensors stay a few MB
_BLOCK = 2048


@dataclass
class ScanReport:
    """One check's outcome over a sample set.

    passed is None for purely informational entries (quantities that are
    reported, not compared against an inequality); for those tol is None
    as well.  worst_point is the first sample attaining worst_value.
    """

    manifold: str
    check: str
    sample_spec: str
    worst_value: float
    worst_point: np.ndarray
    passed: bool | None
    tol: float | None
    extra: dict = field(default_factory=dict)


@dataclass
class CheckOpts:
    samples: int = 100
    tol: float = 1e-8
    seed: int = 42

    def __post_init__(self):
        if int(self.samples) < 1:
            raise ValueError("samples must be at least 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")


def _rows(points):
    xs = np.array(points, dtype=float)
    if not xs.size:
        raise ValueError("need at least one sample point")
    return xs


def _blocks(M, xs):
    # the geometry of the rows of xs, one batch per _BLOCK rows in sample
    # order; at_many raises for the first row outside the chart
    for start in range(0, len(xs), _BLOCK):
        yield M.at_many(xs[start:start + _BLOCK])


def _worst(M, check, spec, vals, xs, tol):
    # the report on the first sample attaining the largest value, judged
    # against tol, or informational when tol is None
    k = int(np.argmax(vals))
    return ScanReport(
        manifold=M.name,
        check=check,
        sample_spec=spec,
        worst_value=float(vals[k]),
        worst_point=xs[k],
        passed=None if tol is None else bool(vals[k] <= tol),
        tol=tol,
    )


def _careq_worst(P, draws):
    # the worst scan value at each point of P over all coordinate planes
    # plus that point's random planes, draws[..., plane, :, (u, v)]; the
    # value depends on the plane only, not on the orthonormal basis chosen
    # inside it, and a degenerate plane is left out
    n = P.n
    g = P.g_spd
    gS = np.einsum("...lm,...mkij->...lkij", g, _statistical_curvature(P))
    H = P.hess_sigma[..., None, :, :]
    a, b = np.array(list(combinations(range(n), 2))).T
    eye = np.eye(n)
    shape = draws.shape[:-3] + (len(a), n)  # the coordinate planes at each point
    U = np.concatenate([np.broadcast_to(eye[a], shape), draws[..., 0]], axis=-2)
    V = np.concatenate([np.broadcast_to(eye[b], shape), draws[..., 1]], axis=-2)
    X, Y, ok = _plane_basis(g[..., None, :, :], U, V)
    sval = np.einsum("...lkij,...pi,...pj,...pk,...pl->...p", gS, X, Y, Y, X)
    val = 2.0 * sval - _quad(X, H, X) - _quad(Y, H, Y)
    return np.where(ok, val, -np.inf).max(axis=-1)


def hadamard_scan(M, points, planes_per_point=4, seed=42):
    """Scan the plane-curvature condition; pass iff the worst value <= 0.

    Each point is tested on every coordinate plane plus planes_per_point
    seeded pseudo-random planes, all g-orthonormalized.
    """
    xs = _rows(points)
    planes_per_point = int(planes_per_point)
    if planes_per_point < 0:
        raise ValueError("planes_per_point must be nonnegative")
    rng = np.random.default_rng(seed)
    # block by block, the draws continue one stream in sample order, so
    # every point gets the planes one draw for all points would give it
    vals = np.concatenate([
        _careq_worst(P, rng.standard_normal((len(P.x), planes_per_point, M.n, 2)))
        for P in _blocks(M, xs)
    ])
    coord = M.n * (M.n - 1) // 2
    spec = (
        f"{len(xs)} points, {coord} coordinate planes"
        f" + {planes_per_point} random planes each, seed {seed}"
    )
    return _worst(M, "cartan-hadamard", spec, vals, xs, 0.0)


def _careq2_at(P):
    # on a surface the scalar curvature g^jk Ric_jk of g is 2k
    scal = np.einsum("...jk,...jk->...", P.g_inv, _ricci(P, ConnKind.LC_G))
    n2 = np.einsum("...i,...i->...", P.dsigma, P.grad_sigma)
    return scal + n2 - P.laplace_sigma


def hadamard2d_scan(M, points):
    """Surface form of hadamard_scan: 2k + |dsigma|^2_g - Lap sigma <= 0.

    Only defined in dimension two, where the tangent plane is the whole
    tangent space; agrees with hadamard_scan there.
    """
    if M.n != 2:
        raise ValueError("the planar scan needs a 2-dimensional manifold")
    xs = _rows(points)
    vals = np.concatenate([_careq2_at(P) for P in _blocks(M, xs)])
    return _worst(M, "cartan-hadamard-2d", f"{len(xs)} points", vals, xs, 0.0)


def sigma_bounds_scan(M, samples):
    """Extrema of sigma over the sample set: (min, argmin, max, argmax).

    A sampling heuristic only: it reports evidence about boundedness of
    sigma, it cannot certify a global bound.
    """
    xs = _rows(samples)
    vals = np.concatenate([P.sigma for P in _blocks(M, xs)])
    i = int(np.argmin(vals))
    j = int(np.argmax(vals))
    return float(vals[i]), xs[i], float(vals[j]), xs[j]


def _covariant_metric_residual(dg, conn, g):
    return (
        dg
        - np.einsum("...lki,...lj->...kij", conn, g)
        - np.einsum("...lkj,...il->...kij", conn, g)
    )


def _identity_residuals(P):
    g, dg, s, ds = P.g, P.dg, P.sigma, P.dsigma
    gam = P.gamma(ConnKind.LC_G)
    nab = P.gamma(ConnKind.NABLA)
    bar = P.gamma(ConnKind.NABLA_BAR)
    til = P.gamma(ConnKind.LC_G_TILDE)
    es = np.exp(s)[..., None, None]
    gt = es * g
    dgt = es[..., None] * (np.einsum("...k,...ij->...kij", ds, g) + dg)
    lc = _covariant_metric_residual(dg, gam, g)
    lct = _covariant_metric_residual(dgt, til, gt)
    cod = _covariant_metric_residual(dg, nab, g) - _cubic_form(P)
    dual = (
        dg
        - np.einsum("...lki,...lj->...kij", nab, g)
        - np.einsum("...lkj,...il->...kij", bar, g)
    )
    sym = P.projective
    contrans = til - gam - 0.5 * (sym - np.einsum("...ij,...k->...kij", g, P.grad_sigma))
    proj = til - nab - sym
    return {
        "metric-compatibility": np.maximum(_max_abs(P, lc), _max_abs(P, lct)),
        "codazzi": _max_abs(P, cod),
        "duality": _max_abs(P, dual),
        "connection-mean": _max_abs(P, nab + bar - 2.0 * gam),
        "conformal-projective": np.maximum(_max_abs(P, contrans), _max_abs(P, proj)),
    }


def _point_residuals(P):
    out = _identity_residuals(P)
    rel = _relation_residuals(P)
    out["curvature-eq3"] = rel["eq3"]
    out["curvature-eq4"] = rel["eq4"]
    out["curvature-eq5"] = rel["eq5"]
    ric = _ricci(P, ConnKind.NABLA)
    out["ricci-symmetry"] = _max_abs(P, ric - np.swapaxes(ric, -1, -2))
    out["volume-parallel"] = _max_abs(P, _parallel_volume_residual(P))
    out["trace-k"] = _max_abs(P, _trace_K(P) + (P.n + 2) / 2.0 * P.dsigma)
    eye = np.eye(P.n)
    sec = 0.0
    for a, b in combinations(range(P.n), 2):
        direct, via = _sectional_tilde(P, (eye[a], eye[b]))
        sec = np.maximum(sec, np.abs(direct - via))
    out["sectional-tilde-agreement"] = sec
    out["conjugate-symmetry"] = _conjugate_symmetry_residual(P)
    return out


_INFORMATIONAL = ("conjugate-symmetry",)


def _lambda_fit(terms):
    # least-squares constant-curvature coefficient over all samples, and
    # the residual that the fitted value leaves at each sample; terms
    # holds each block's _constant_curvature_terms for nabla
    low, W = (np.concatenate(t) for t in zip(*terms))
    lam = float(np.sum(low * W)) / float(np.sum(W * W))
    return lam, np.abs(low - lam * W).reshape(len(low), -1).max(axis=1)


def check_suite(M, opts=None):
    """Evaluate every structural identity at seeded domain samples.

    Returns a list of ScanReports, one per check, in a fixed order.  The
    pass/fail checks compare the worst sampled residual against opts.tol;
    the conjugate-symmetry residual and the constant-curvature fit (best
    lambda by least squares, stored under extra["lambda"]) are reported
    without a verdict.
    """
    opts = opts if opts is not None else CheckOpts()
    xs = sample_domain(M, opts.samples, seed=opts.seed)
    rows = {}
    terms = []
    for P in _blocks(M, xs):
        # every block lists the checks in the order _point_residuals builds them
        for name, vals in _point_residuals(P).items():
            rows.setdefault(name, []).append(vals)
        terms.append(_constant_curvature_terms(P, ConnKind.NABLA))
    spec = f"{opts.samples} seeded domain samples, seed {opts.seed}"
    reports = [
        _worst(M, name, spec, np.concatenate(vals), xs,
               None if name in _INFORMATIONAL else opts.tol)
        for name, vals in rows.items()
    ]
    lam, res = _lambda_fit(terms)
    fit = _worst(M, "constant-curvature-fit", spec, res, xs, None)
    fit.extra["lambda"] = lam
    reports.append(fit)
    return reports
