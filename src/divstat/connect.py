"""Two-point connection through the conformal metric, and the contrast.

Connecting p to q by a nabla-geodesic reduces to a Riemannian boundary
value problem: gtilde = e^{sigma} g has the same geodesic images, its
geodesics have conserved speed, and the parameter map back to nabla is a
plain quadrature.  So the solver shoots gtilde-geodesics from p with a
damped Gauss-Newton iteration on the endpoint defect and reparametrizes
the winner.  The canonical contrast rho(p, q) = e^{-sigma(p)} dtilde^2
comes from the shortest connecting geodesic found; differentiating it on
the diagonal recovers g and the nabla connection, which
contrast_structure_check verifies by finite differences.

Failure to connect is informative output (see the punctured plane, where
the antipodal problem has no solution), so shoot_connect reports a
non-converged result instead of raising; the distance and contrast
helpers raise NoConvergenceError since they must return a number.
"""

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .geodesic import (
    GeodesicError,
    GeodesicPath,
    IntegratorOpts,
    _integrate_core,
    integrate_geodesic,
    reparam_from_tilde,
)
from .manifold import ConnKind, _require, metric_at, sigma_at
from .statstruct import connection_coeffs

_SCOUT = IntegratorOpts(rtol=1e-5, atol=1e-7)
_COARSE = IntegratorOpts(rtol=1e-7, atol=1e-9)
_FINE = IntegratorOpts(rtol=1e-10, atol=1e-12)
# the integration tiers of a shooting start, each with the defect below
# which the next takes over: far from the basin only a descent direction is
# needed, so trial paths run at scout tolerance; convergence is only ever
# declared from a fine-tolerance defect, and the fine tier is never left
_TIERS = ((_SCOUT, 1e-2), (_COARSE, 1e-5), (_FINE, 0.0))
# Gauss-Newton iterations per start
_MAX_ITER = 60


class NoConvergenceError(Exception):
    """No shooting start produced a connecting geodesic."""

    def __init__(self, message, best_error):
        super().__init__(message)
        self.best_error = float(best_error)


@dataclass
class ShootOpts:
    multistart: int = 16
    eps_bvp: float = 1e-8
    seed: int = 42

    def __post_init__(self):
        if int(self.multistart) < 1:
            raise ValueError("multistart must be at least 1")
        if not self.eps_bvp > 0.0:
            raise ValueError("eps_bvp must be positive")


@dataclass
class ConnectResult:
    """Outcome of a two-point shooting solve.

    tilde_path/nabla_path describe the best geodesic found (the shortest
    converged one, or the closest failure); solutions lists every distinct
    converged branch as {start, v0, tilde_length, endpoint_error} so
    geodesic multiplicity stays observable.  nabla_path is None when the
    best tilde path left the domain with too few samples to reparametrize,
    or when the nabla parameter cannot be computed along it: the weight
    e^{-2 sigma} overflows where the path passes close to a complete end
    such as the puncture of the punctured plane, or grows so large there
    that the parameter's later increments vanish in double precision.
    That can happen on a converged solve too; converged then still
    reports the gtilde solve.
    """

    converged: bool
    tilde_path: GeodesicPath
    nabla_path: GeodesicPath | None
    tilde_length: float
    endpoint_error: float
    attempts: int
    solutions: list = field(default_factory=list)


def _gauss_newton(M, p, q, v0, target):
    # damped Gauss-Newton on r(v) = exptilde_p(v) - q
    n = len(p)
    v = np.asarray(v0, dtype=float).copy()
    limit = 50.0 * (np.linalg.norm(q - p) + 1.0)
    # a trial path that races off to chart radii far beyond the problem
    # scale cannot come back to q; cut it off instead of following the
    # excursion at full tolerance
    escape = 50.0 * (1.0 + max(np.abs(p).max(), np.abs(q).max()))

    def defect(vv, io):
        # the endpoint's miss, or None where the trial path did not complete
        status, _, y_end, _, _ = _integrate_core(
            M, ConnKind.LC_G_TILDE, p, vv, 1.0, io, False, escape=escape
        )
        return y_end[:n] - q if status == "completed" else None

    tier, io = 0, _SCOUT
    r = defect(v, io)
    if r is None:
        return False, v, np.inf
    err = float(np.linalg.norm(r))
    history = [err]
    for _ in range(_MAX_ITER):
        # closing nine orders of magnitude within the iteration budget needs
        # a mean contraction near 0.2 per five iterations; branches that
        # cannot even halve are stuck on a wall or a fold, so cut them loose
        if len(history) > 5 and history[-1] > 0.5 * history[-6]:
            return False, v, err
        while err < _TIERS[tier][1]:
            tier += 1
            io = _TIERS[tier][0]
            r = defect(v, io)
            if r is None:
                return False, v, err
            err = float(np.linalg.norm(r))
        if err <= target and io is _FINE:
            return True, v, err
        delta = 1e-6 * max(np.linalg.norm(v), 1e-8)
        J = np.empty((n, n))
        for c in range(n):
            vp = v.copy()
            vp[c] += delta
            rc = defect(vp, io)
            if rc is None:
                return False, v, err
            J[:, c] = (rc - r) / delta
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -r, rcond=None)[0]
        for halvings in range(12):
            vn = v + 0.5**halvings * step
            rn = defect(vn, io)
            if rn is not None and np.linalg.norm(rn) < err:
                v, r, err = vn, rn, float(np.linalg.norm(rn))
                break
        else:
            return False, v, err
        if np.linalg.norm(v) > limit:
            return False, v, err
        history.append(err)
    return err <= target and io is _FINE, v, err


def _halton(k, n):
    # points 1..k of the unscrambled Halton sequence in n dimensions:
    # coordinate j of point i is the radical inverse of i in the j-th prime
    # base, so every coordinate lies strictly inside (0, 1)
    primes, b = [], 1
    while len(primes) < n:
        b += 1
        if all(b % f for f in primes):
            primes.append(b)
    pts = np.empty((k, n))
    for j, b in enumerate(primes):
        for i in range(k):
            idx, scale, u = i + 1, 1.0 / b, 0.0
            while idx > 0:
                idx, digit = divmod(idx, b)
                u += digit * scale
                scale /= b
            pts[i, j] = u
    return pts


def _start_velocities(M, p, q, opts):
    # start 0 is the chart difference; the rest come from a deterministic
    # low-discrepancy sphere sequence (Halton points through the inverse
    # normal CDF), rotated by the seed and scaled by the chart distance
    n = M.n
    d = q - p
    starts = [d.copy()]
    k = int(opts.multistart) - 1
    if k > 0:
        # no direction is zero: the base-3 coordinate is never 1/2
        dirs = np.vectorize(NormalDist().inv_cdf)(_halton(k, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        rng = np.random.default_rng(opts.seed)
        rot = np.linalg.qr(rng.standard_normal((n, n)))[0]
        mags = np.linalg.norm(d) * (1.0 + 0.5 * (np.arange(k) % 4))
        starts.extend(mags[i] * (rot @ dirs[i]) for i in range(k))
    return starts


def _solve_bvp(M, p, q, opts):
    # returns (distinct solutions sorted by (length, start index), the best
    # failure or None, the number of starts); solutions and failure are
    # records {start, v0, tilde_length, endpoint_error}
    starts = _start_velocities(M, p, q, opts)
    gt = math.exp(sigma_at(M, p)) * metric_at(M, p)
    target = 0.25 * opts.eps_bvp
    # starts run in index order, so the reduction is a deterministic
    # function of that order
    sols, fail = [], None
    for k, v0 in enumerate(starts):
        ok, v, err = _gauss_newton(M, p, q, v0, target)
        rec = {
            "start": k,
            "v0": v,
            "tilde_length": float(math.sqrt(v @ gt @ v)),
            "endpoint_error": err,
        }
        if not ok:
            if fail is None or err < fail["endpoint_error"]:
                fail = rec
        elif not any(
            np.linalg.norm(v - s["v0"]) <= 1e-6 * max(1.0, np.linalg.norm(v))
            for s in sols
        ):
            sols.append(rec)
    sols.sort(key=lambda s: (s["tilde_length"], s["start"]))
    return sols, fail, len(starts)


def shoot_connect(M, p, q, opts=None):
    """Connect p to q by a nabla-geodesic via gtilde shooting.

    Returns a ConnectResult; a problem with no solution (every start
    failed) is reported through converged=False with the closest attempt,
    and a nabla parameter that overflows along the best path through
    nabla_path=None; neither is raised.  For p == q the one solution is
    the constant path, with no start attempted.
    """
    opts = opts if opts is not None else ShootOpts()
    p = np.array(_require(M, p))
    q = np.array(_require(M, q))
    if np.array_equal(p, q):
        sols = [{"start": 0, "v0": np.zeros(M.n), "tilde_length": 0.0,
                 "endpoint_error": 0.0}]
        fail, attempts = None, 0
    else:
        sols, fail, attempts = _solve_bvp(M, p, q, opts)
    best = sols[0] if sols else fail
    tilde = integrate_geodesic(M, ConnKind.LC_G_TILDE, p, best["v0"], 1.0, _FINE)
    # a solution's error is re-measured on the fine path it is reported by
    err = float(np.linalg.norm(tilde.xs[-1] - q)) if sols else fail["endpoint_error"]
    try:
        nabla = reparam_from_tilde(M, tilde)
    except (ValueError, GeodesicError):
        nabla = None  # see ConnectResult
    return ConnectResult(
        converged=bool(sols) and err <= opts.eps_bvp,
        tilde_path=tilde,
        nabla_path=nabla,
        tilde_length=best["tilde_length"],
        endpoint_error=err,
        attempts=attempts,
        solutions=sols,
    )


def distance_tilde(M, p, q, opts=None):
    """gtilde-distance by shooting: length of the shortest found geodesic.

    This is exact when the global minimizer is among the multistart
    solutions, otherwise an upper bound for the true distance; on the
    built-in geometries the closed-form oracles confirm the minimizer is
    found.  Raises NoConvergenceError when no start connects.
    """
    p = np.array(_require(M, p))
    q = np.array(_require(M, q))
    if np.array_equal(p, q):
        return 0.0
    opts = opts if opts is not None else ShootOpts()
    sols, fail, _ = _solve_bvp(M, p, q, opts)
    if not sols:
        raise NoConvergenceError(
            f"no converged geodesic from {p} to {q} on {M.name}",
            fail["endpoint_error"],
        )
    return sols[0]["tilde_length"]


def distance_symmetry_gap(M, p, q, opts=None):
    """|dtilde(p,q) - dtilde(q,p)|, a consistency check on the solver."""
    return abs(distance_tilde(M, p, q, opts) - distance_tilde(M, q, p, opts))


def contrast(M, p, q, opts=None):
    """Canonical contrast rho(p, q) = e^{-sigma(p)} dtilde(p, q)^2."""
    d = distance_tilde(M, p, q, opts)
    return math.exp(-sigma_at(M, p)) * d * d


@dataclass
class ContrastReport:
    """Finite-difference diagonal derivatives of the contrast at one point.

    g_fd estimates the metric from the mixed second derivative, nabla_fd
    estimates g(nabla_X Y, Z) from the third; the devs are the max
    absolute deviations from the exact tensors.
    """

    g_fd: np.ndarray
    nabla_fd: np.ndarray
    g_dev: float
    nabla_dev: float


def contrast_structure_check(M, p, h, opts=None):
    """Check that the contrast induces (g, nabla) at p by stencils of size h.

    Central differences of rho on the diagonal of M x M are compared
    against -g_p(X,Y) (one derivative in each slot) and -g_p(nabla_X Y, Z)
    (two in the first slot, one in the second) for coordinate fields.
    The contrast-calculus derivatives carry the usual 1/2 normalization of
    divergence derivatives, applied to the raw chart differences here.
    """
    p = np.array(_require(M, p))
    n = M.n
    h = float(h)
    if not h > 0.0:
        raise ValueError("stencil step must be positive")
    if opts is None:
        opts = ShootOpts(multistart=1, eps_bvp=1e-10)
    cache = {}

    def rho(a, b):
        key = (a.tobytes(), b.tobytes())
        if key not in cache:
            cache[key] = contrast(M, a, b, opts)
        return cache[key]

    E = h * np.eye(n)
    raw2 = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            raw2[i, j] = (
                rho(p + E[i], p + E[j]) - rho(p + E[i], p - E[j])
                - rho(p - E[i], p + E[j]) + rho(p - E[i], p - E[j])
            ) / (4.0 * h * h)

    def dq(a, k):
        return (rho(a, p + E[k]) - rho(a, p - E[k])) / (2.0 * h)

    raw3 = np.empty((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if i == j:
                    raw3[i, j, k] = (
                        dq(p + E[i], k) - 2.0 * dq(p, k) + dq(p - E[i], k)
                    ) / (h * h)
                else:
                    raw3[i, j, k] = (
                        dq(p + E[i] + E[j], k) - dq(p + E[i] - E[j], k)
                        - dq(p - E[i] + E[j], k) + dq(p - E[i] - E[j], k)
                    ) / (4.0 * h * h)
    g_fd = -0.5 * raw2
    nabla_fd = -0.5 * raw3
    g = metric_at(M, p)
    target = np.einsum("mij,mk->ijk", connection_coeffs(M, p, ConnKind.NABLA), g)
    return ContrastReport(
        g_fd=g_fd,
        nabla_fd=nabla_fd,
        g_dev=float(np.abs(g_fd - g).max()),
        nabla_dev=float(np.abs(nabla_fd - target).max()),
    )
