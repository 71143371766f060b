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
points it was given.  All randomness is seeded, points are processed one
after another in sample order, each through one PointGeometry, and the
aggregation is a deterministic function of that order, so fixed inputs
give bit-identical reports.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .curvature import (
    DegeneratePlaneError,
    _conjugate_symmetry_residual,
    _constant_curvature_terms,
    _plane_basis,
    _relation_residuals,
    _ricci,
    _sectional_tilde,
    _statistical_curvature,
)
from .manifold import ConnKind, _require, sample_domain, sigma_at
from .statstruct import _cubic_form, _parallel_volume_residual, _trace_K


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


def _points(M, points):
    pts = [np.array(_require(M, x)) for x in points]
    if not pts:
        raise ValueError("need at least one sample point")
    return pts


def _careq_worst(P, draws):
    # worst scan value at P over all coordinate planes plus the given
    # random plane draws; the value depends on the plane only, not on the
    # orthonormal basis chosen inside it
    n = P.n
    g = P.g_spd
    gS = np.einsum("lm,mkij->lkij", g, _statistical_curvature(P))
    H = P.hess_sigma
    eye = np.eye(n)
    planes = [(eye[a], eye[b]) for a, b in combinations(range(n), 2)]
    planes.extend((d[:, 0], d[:, 1]) for d in draws)
    worst = -math.inf
    for u, v in planes:
        try:
            X, Y = _plane_basis(g, (u, v))
        except DegeneratePlaneError:
            continue
        sval = float(np.einsum("lkij,i,j,k,l->", gS, X, Y, Y, X))
        val = 2.0 * sval - float(X @ H @ X) - float(Y @ H @ Y)
        worst = max(worst, val)
    return worst


def hadamard_scan(M, points, planes_per_point=4, seed=42, tol=0.0):
    """Scan the plane-curvature condition; pass iff the worst value <= tol.

    Each point is tested on every coordinate plane plus planes_per_point
    seeded pseudo-random planes, all g-orthonormalized.
    """
    pts = _points(M, points)
    planes_per_point = int(planes_per_point)
    if planes_per_point < 0:
        raise ValueError("planes_per_point must be nonnegative")
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((len(pts), planes_per_point, M.n, 2))

    vals = [_careq_worst(M.at(x), draws[i]) for i, x in enumerate(pts)]
    k = int(np.argmax(vals))
    coord = M.n * (M.n - 1) // 2
    return ScanReport(
        manifold=M.name,
        check="cartan-hadamard",
        sample_spec=(
            f"{len(pts)} points, {coord} coordinate planes"
            f" + {planes_per_point} random planes each, seed {seed}"
        ),
        worst_value=float(vals[k]),
        worst_point=pts[k],
        passed=bool(vals[k] <= tol),
        tol=float(tol),
    )


def _careq2_at(P):
    # on a surface the scalar curvature g^jk Ric_jk of g is 2k
    scal = float(np.einsum("jk,jk->", P.g_inv, _ricci(P, ConnKind.LC_G)))
    n2 = float(P.dsigma @ P.grad_sigma)
    return scal + n2 - P.laplace_sigma


def hadamard2d_scan(M, points, tol=0.0):
    """Surface form of hadamard_scan: 2k + |dsigma|^2_g - Lap sigma <= tol.

    Only defined in dimension two, where the tangent plane is the whole
    tangent space; agrees with hadamard_scan there.
    """
    if M.n != 2:
        raise ValueError("the planar scan needs a 2-dimensional manifold")
    pts = _points(M, points)
    vals = [_careq2_at(M.at(x)) for x in pts]
    k = int(np.argmax(vals))
    return ScanReport(
        manifold=M.name,
        check="cartan-hadamard-2d",
        sample_spec=f"{len(pts)} points",
        worst_value=float(vals[k]),
        worst_point=pts[k],
        passed=bool(vals[k] <= tol),
        tol=float(tol),
    )


def sigma_bounds_scan(M, samples):
    """Extrema of sigma over the sample set: (min, argmin, max, argmax).

    A sampling heuristic only: it reports evidence about boundedness of
    sigma, it cannot certify a global bound.
    """
    pts = _points(M, samples)
    vals = np.array([sigma_at(M, x) for x in pts])
    i = int(np.argmin(vals))
    j = int(np.argmax(vals))
    return float(vals[i]), pts[i], float(vals[j]), pts[j]


def _covariant_metric_residual(dg, conn, g):
    return (
        dg
        - np.einsum("lki,lj->kij", conn, g)
        - np.einsum("lkj,il->kij", conn, g)
    )


def _identity_residuals(P):
    g, dg, s, ds = P.g, P.dg, P.sigma, P.dsigma
    gam = P.gamma(ConnKind.LC_G)
    nab = P.gamma(ConnKind.NABLA)
    bar = P.gamma(ConnKind.NABLA_BAR)
    til = P.gamma(ConnKind.LC_G_TILDE)
    es = math.exp(s)
    gt = es * g
    dgt = es * (np.einsum("k,ij->kij", ds, g) + dg)
    lc = _covariant_metric_residual(dg, gam, g)
    lct = _covariant_metric_residual(dgt, til, gt)
    cod = _covariant_metric_residual(dg, nab, g) - _cubic_form(P)
    dual = (
        dg
        - np.einsum("lki,lj->kij", nab, g)
        - np.einsum("lkj,il->kij", bar, g)
    )
    sym = P.projective
    contrans = til - gam - 0.5 * (sym - np.einsum("ij,k->kij", g, P.grad_sigma))
    proj = til - nab - sym
    return {
        "metric-compatibility": max(
            float(np.abs(lc).max()), float(np.abs(lct).max())
        ),
        "codazzi": float(np.abs(cod).max()),
        "duality": float(np.abs(dual).max()),
        "connection-mean": float(np.abs(nab + bar - 2.0 * gam).max()),
        "conformal-projective": max(
            float(np.abs(contrans).max()), float(np.abs(proj).max())
        ),
    }


def _point_residuals(P):
    out = _identity_residuals(P)
    rel = _relation_residuals(P)
    out["curvature-eq3"] = rel["eq3"]
    out["curvature-eq4"] = rel["eq4"]
    out["curvature-eq5"] = rel["eq5"]
    ric = _ricci(P, ConnKind.NABLA)
    out["ricci-symmetry"] = float(np.abs(ric - ric.T).max())
    out["volume-parallel"] = float(np.abs(_parallel_volume_residual(P)).max())
    out["trace-k"] = float(np.abs(_trace_K(P) + (P.n + 2) / 2.0 * P.dsigma).max())
    eye = np.eye(P.n)
    sec = 0.0
    for a, b in combinations(range(P.n), 2):
        direct, via = _sectional_tilde(P, (eye[a], eye[b]))
        sec = max(sec, abs(direct - via))
    out["sectional-tilde-agreement"] = sec
    out["conjugate-symmetry"] = _conjugate_symmetry_residual(P)
    return out


_SUITE_ORDER = (
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
)
_INFORMATIONAL = ("conjugate-symmetry",)


def _lambda_fit(terms, pts):
    # least-squares constant-curvature coefficient over all samples, then
    # the worst residual that the fitted value leaves behind; terms holds
    # each sample's _constant_curvature_terms for nabla
    num = 0.0
    den = 0.0
    for low, W in terms:
        num += float(np.sum(low * W))
        den += float(np.sum(W * W))
    lam = num / den
    res = [float(np.abs(low - lam * W).max()) for low, W in terms]
    k = int(np.argmax(res))
    return lam, float(res[k]), pts[k]


def check_suite(M, opts=None):
    """Evaluate every structural identity at seeded domain samples.

    Returns a list of ScanReports, one per check, in a fixed order.  The
    pass/fail checks compare the worst sampled residual against opts.tol;
    the conjugate-symmetry residual and the constant-curvature fit (best
    lambda by least squares, stored under extra["lambda"]) are reported
    without a verdict.
    """
    opts = opts if opts is not None else CheckOpts()
    pts = [np.array(x) for x in sample_domain(M, opts.samples, seed=opts.seed)]
    rows = []
    terms = []
    for x in pts:
        P = M.at(x)
        rows.append(_point_residuals(P))
        terms.append(_constant_curvature_terms(P, ConnKind.NABLA))
    spec = f"{opts.samples} seeded domain samples, seed {opts.seed}"
    reports = []
    for name in _SUITE_ORDER:
        vals = [row[name] for row in rows]
        k = int(np.argmax(vals))
        info = name in _INFORMATIONAL
        reports.append(ScanReport(
            manifold=M.name,
            check=name,
            sample_spec=spec,
            worst_value=float(vals[k]),
            worst_point=pts[k],
            passed=None if info else bool(vals[k] <= opts.tol),
            tol=None if info else opts.tol,
        ))
    lam, res, argp = _lambda_fit(terms, pts)
    reports.append(ScanReport(
        manifold=M.name,
        check="constant-curvature-fit",
        sample_spec=spec,
        worst_value=res,
        worst_point=argp,
        passed=None,
        tol=None,
        extra={"lambda": lam},
    ))
    return reports
