"""Domain scanners: curvature-sign condition, sigma bounds, aggregate checks.

The central scan evaluates, over g-orthonormal tangent planes (X, Y),

    2 g(S(X,Y)Y, X) - Hess sigma(X,X) - Hess sigma(Y,Y)

with S the statistical curvature operator.  Nonpositivity of this quantity
forces the sectional curvature of the conformal metric e^sigma g below
-e^{-sigma} |dsigma|^2_g / 2, so a clean scan is evidence for the
Cartan-Hadamard situation in which connecting geodesics are unique.
hadamard_scan takes its maximum over all planes at each point.  In
dimension two the quantity collapses to 2k + |dsigma|^2_g - Lap sigma with
k the Gauss curvature of g, which hadamard2d_scan evaluates directly (2k
as the scalar curvature of g); the two scans agree on 2-manifolds and the
tests pin that down.

A scan reads the points it is given and nothing between them, so none of
them can prove a global property; sigma_bounds_scan in particular only
reports the extrema of sigma over its points.  check_suite's samples are
seeded.  The points are read in blocks of _BLOCK rows in sample order,
each block through one batched PointGeometry (ManifoldDef.at_many), so a
scan's memory does not grow with its grid.  Each point's values are
computed from its own row, and the aggregation does not depend on where
the blocks split: the worst point is the first sample attaining the max,
and the constant-curvature fit sums over the whole sample set.  Fixed
inputs give bit-identical reports.
"""

from dataclasses import dataclass, field

import numpy as np

from .curvature import (
    _conjugate_symmetry_residual,
    _constant_curvature_terms,
    _max_abs,
    _plane_max,
    _relation_residuals,
    _sectional_tilde,
)
from .manifold import ConnKind, _count, _generator_seed, _positive, sample_domain
from .statstruct import _parallel_volume_residual, _trace_K

# rows per ManifoldDef.at_many call, so that a block's tensors stay a few
# MB.  A typical CLI scan (check's default 100 samples, a grid of a few
# hundred points) is one block, and at 100 to 324 rows numpy's per-call
# cost is far from vanishing: the hot per-point contractions are matrix
# products on contiguous operands (see curvature), not einsum's generic
# loop
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
        self.samples = _count("samples", self.samples, 1)
        self.seed = _generator_seed(self.seed)
        # an infinite tolerance would pass every check
        self.tol = _positive("tol", self.tol)


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


def _worst(M, check, vals, xs, tol):
    # the report on the first sample attaining the largest value, judged
    # against tol, or informational when tol is None
    k = int(np.argmax(vals))
    return ScanReport(
        manifold=M.name,
        check=check,
        worst_value=float(vals[k]),
        worst_point=xs[k],
        passed=None if tol is None else bool(vals[k] <= tol),
        tol=tol,
    )


def _coordinate_planes(n):
    # (U, V), each (planes, n): the coordinate planes (e_a, e_b), a < b
    a, b = np.triu_indices(n, 1)
    return np.eye(n)[a], np.eye(n)[b]


def hadamard_scan(M, points, planes_per_point=4, seed=42):
    """Scan the plane-curvature condition; pass iff the worst value <= 0.

    A point's value is the plane term's maximum over all its planes,
    exact for n <= 3 ("cartan-hadamard"); for n >= 4 an upper bound
    ("cartan-hadamard-bound"), whose failure says only that the bound is
    positive.  planes_per_point and seed change nothing.
    """
    xs = _rows(points)
    vals = np.concatenate([_plane_max(P) for P in _blocks(M, xs)])
    check = "cartan-hadamard" if M.n <= 3 else "cartan-hadamard-bound"
    return _worst(M, check, vals, xs, 0.0)


def _careq2_at(P):
    # on a surface the scalar curvature g^jk Ric_jk of g is 2k
    scal = np.einsum("...jk,...jk->...", P.g_inv, P.ricci(ConnKind.LC_G))
    return scal + P.dsigma_sq - P.laplace_sigma


def hadamard2d_scan(M, points):
    """Surface form of hadamard_scan: 2k + |dsigma|^2_g - Lap sigma <= 0.

    Only defined in dimension two, where the tangent plane is the whole
    tangent space; agrees with hadamard_scan there.
    """
    if M.n != 2:
        raise ValueError("the planar scan needs a 2-dimensional manifold")
    xs = _rows(points)
    vals = np.concatenate([_careq2_at(P) for P in _blocks(M, xs)])
    return _worst(M, "cartan-hadamard-2d", vals, xs, 0.0)


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
    g, dg, ds = P.g, P.dg, P.dsigma
    gam = P.gamma(ConnKind.LC_G)
    nab = P.gamma(ConnKind.NABLA)
    bar = P.gamma(ConnKind.NABLA_BAR)
    til = P.gamma(ConnKind.LC_G_TILDE)
    lc = _covariant_metric_residual(dg, gam, g)
    # nabla-tilde(e^sigma g) / e^sigma, exactly: in g's units, whatever the weight
    lct = _covariant_metric_residual(np.einsum("...k,...ij->...kij", ds, g) + dg, til, g)
    cod = _covariant_metric_residual(dg, nab, g) - P.cubic_form
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
    ric = P.ricci(ConnKind.NABLA)
    out["ricci-symmetry"] = _max_abs(P, ric - np.swapaxes(ric, -1, -2))
    out["volume-parallel"] = _max_abs(P, _parallel_volume_residual(P))
    out["trace-k"] = _max_abs(P, _trace_K(P) + (P.n + 2) / 2.0 * P.dsigma)
    direct, via = _sectional_tilde(P, _coordinate_planes(P.n))
    out["sectional-tilde-agreement"] = np.abs(direct - via).max(axis=-1)
    out["conjugate-symmetry"] = _conjugate_symmetry_residual(P)
    return out


_INFORMATIONAL = ("conjugate-symmetry",)


def _lambda_fit(terms):
    # least-squares constant-curvature coefficient over all samples, and
    # the residual that the fitted value leaves at each sample; terms
    # holds each block's _constant_curvature_terms for nabla.  The sums
    # run on W scaled by a power of two, which is exact, so sum W^2 does
    # not underflow where W does not, and lambda is what the unscaled
    # sums give wherever neither underflows
    low, W = (np.concatenate(t) for t in zip(*terms))
    e = int(np.frexp(np.abs(W).max())[1])
    Ws = np.ldexp(W, -e)
    den = float(np.sum(Ws * Ws))
    if not den > 0.0:
        raise FloatingPointError(
            "the constant-curvature fit has nothing to fit: "
            "g_jk g_il - g_ik g_jl underflows to 0 at every sample"
        )
    # numpy's scalars: an overflow is numpy's, under the caller's errstate
    lam = float(np.ldexp(np.sum(low * Ws) / den, -e))
    return lam, np.abs(low - lam * W).reshape(len(low), -1).max(axis=1)


def check_suite(M, opts=None):
    """Evaluate every structural identity at seeded domain samples.

    Returns a list of ScanReports, one per check, in a fixed order.  The
    pass/fail checks compare the worst sampled residual against opts.tol,
    each in g's units (metric compatibility of the Levi-Civita connection
    of e^sigma g is taken on e^sigma g divided by e^sigma, so a large
    weight does not scale it); the conjugate-symmetry residual and the
    constant-curvature fit (best lambda by least squares, stored under
    extra["lambda"]) are reported without a verdict.
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
    reports = [
        _worst(M, name, np.concatenate(vals), xs,
               None if name in _INFORMATIONAL else opts.tol)
        for name, vals in rows.items()
    ]
    lam, res = _lambda_fit(terms)
    fit = _worst(M, "constant-curvature-fit", res, xs, None)
    fit.extra["lambda"] = lam
    reports.append(fit)
    return reports
