"""Two-point connection through the conformal metric, and the contrast.

Connecting p to q by a nabla-geodesic reduces to a Riemannian boundary
value problem: gtilde = e^{sigma} g has the same geodesic images, its
geodesics have conserved speed, and the parameter map back to nabla is a
plain quadrature.  So the solver shoots gtilde-geodesics from p with a
damped Gauss-Newton iteration on the endpoint defect and reparametrizes
the winner.  Each Gauss-Newton Jacobian is a forward difference taken on
the base path's own accepted steps (geodesic._replay: Bock's internal
numerical differentiation), so a column runs no step controller and
differences the same discrete map as the defect it corrects.  Each
trial path and each column is one call of the emitted integrator on
Python floats (geodesic._run, geodesic._replay), with no argument check:
p is checked once per solve.  Starts run in index order, and a start
whose iterate comes within _JOIN of a branch an earlier start converged
to, at any tier, joins it and stops: it is in that branch's Newton basin
and would only find it again.  That test runs on every iterate, the last
included.  Each found branch also keeps the Jacobian its start last
formed (one formed at its converged iterate where it formed none), and
every iteration of a later start follows a chain of chord steps on it
from the iterate (simplified Newton: Deuflhard, Newton Methods for
Nonlinear Problems): a step that lands within _JOIN of that branch joins
it at once inside the coarse basin (a defect below the scout tier's
threshold), and outside where one trial at the landing lowers the
defect; a step that comes half as close to the branch (_CONTRACT) goes
on where one trial at its landing lowers the defect.  So a start that
heads into a found branch forms no Jacobian of its own.  The canonical
contrast rho(p, q) = e^{-sigma(p)} dtilde^2 comes from the shortest
connecting geodesic found; differentiating it on the diagonal recovers g
and the nabla connection, which contrast_structure_check verifies by
finite differences.

Failure to connect is informative output (see the punctured plane, where
the antipodal problem has no solution), so shoot_connect reports a
non-converged result instead of raising; the distance and contrast
helpers raise NoConvergenceError since they must return a number.
"""

import math
import sys
from dataclasses import dataclass, field
from functools import cache
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .exprcore import EvalDomainError, Una
from .geodesic import (
    GeodesicError,
    GeodesicPath,
    IntegratorOpts,
    _replay,
    _run,
    integrate_geodesic,
    reparam_from_tilde,
)
from .manifold import ConnKind, _count, _generator_seed, _positive

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
# a start whose iterate comes within _JOIN (relative) of a branch an
# earlier start found, at any tier, joins that branch and stops
_JOIN = 1e-3
# a chain of chord steps on a found branch's Jacobian goes on only while
# each step comes at least this many times as close to the branch as the
# point it left: a chord iteration that contracts so is inside the branch's
# Newton basin (Deuflhard, Newton Methods for Nonlinear Problems, ch. 2-3),
# and the chain ends, since the distance falls geometrically
_CONTRACT = 0.5


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
        self.multistart = _count("multistart", self.multistart, 1)
        self.seed = _generator_seed(self.seed)
        # an infinite tolerance would call any finite miss converged
        self.eps_bvp = _positive("eps_bvp", self.eps_bvp)


@dataclass
class ConnectResult:
    """Outcome of a two-point shooting solve.

    tilde_path/nabla_path describe the best geodesic found (the shortest
    converged one, or the closest failure); solutions lists every distinct
    converged branch as {start, v0, tilde_length, endpoint_error}, sorted
    by length, so geodesic multiplicity stays observable.

    starts has one record {start, ended, branch, endpoint_error} per start,
    in start order (none for p == q).  ended is "converged", "joined" (an
    iterate of the start, or a chord step on the Jacobian a found branch
    keeps, came within _JOIN of a branch an earlier start had found, and
    it stopped there, at whatever tier it had reached; the chord steps
    run as a chain from the iterate, each landing half as close to the
    branch as the last and lowering the defect, and the final step joins
    below a defect of 1e-2 at once, above it where one trial at its
    landing lowered the defect) or "failed"; branch is the index into
    solutions of the branch the start reached, or None; endpoint_error is
    the defect it ended with, for a joined start measured at the tier it
    had reached, on the iterate or chain link it last integrated.  A
    joined start adds no solution; a converged one adds its own.

    nabla_path is None when the best tilde path has no knots (it left the
    domain before its first step), or when the nabla parameter cannot be
    computed along it: the weight e^{-2 sigma} overflows where the path
    passes close to a complete end such as the puncture of the punctured
    plane, or grows so large there that the parameter's later increments
    vanish in double precision.  That can happen on a converged solve
    too; converged then still reports the gtilde solve.
    """

    converged: bool
    tilde_path: GeodesicPath
    nabla_path: GeodesicPath | None
    tilde_length: float
    endpoint_error: float
    solutions: list = field(default_factory=list)
    starts: list = field(default_factory=list)


def _norm(x):
    # the 2-norm of a real vector as np.linalg.norm computes it, bit for
    # bit (its formula for a real vector), without its dispatch
    return math.sqrt(x.dot(x))


def _jacobian(M, x, q, v, r, steps):
    # d exptilde_p / dv at v by forward differences, each column replayed
    # on the base path's own accepted steps, so that it differences one
    # discrete map: x is p as a list of floats, r the base path's miss,
    # which the replay of v reproduces bit for bit.  None where a column
    # leaves the chart
    n = len(x)
    delta = 1e-6 * max(_norm(v), 1e-8)
    base = v.tolist()
    J = np.empty((n, n))
    for c in range(n):
        vp = base.copy()
        vp[c] += delta
        y = _replay(M, ConnKind.LC_G_TILDE, x, vp, steps)
        if y is None:
            return None
        J[:, c] = (np.subtract(y[:n], q) - r) / delta
    return J


def _solve(J, b):
    # J^+ b: the solution of J x = b, or its least-squares solution where
    # J is singular
    try:
        return np.linalg.solve(J, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(J, b, rcond=None)[0]


class _Branch(NamedTuple):
    # a branch an earlier start converged to: its velocity, and the
    # Jacobian its start last formed, or None where a column of the one
    # formed at its converged iterate left the chart
    v: np.ndarray
    J: np.ndarray | None


def _gauss_newton(M, p, q, v0, target, found, keep=False):
    # damped Gauss-Newton on r(v) = exptilde_p(v) - q.  Returns (ok, v,
    # err, joined): ok where the start ended on a branch, joined the index
    # into `found` (the _Branch records of the branches earlier starts
    # converged to) of the branch it joined, or None where it converged
    # itself.  With keep (a later start will read found) a start that
    # converges itself appends its _Branch to found, forming the Jacobian
    # at its converged iterate if it formed none.  p is a point in the
    # chart, checked by the caller; each trial and each Jacobian column
    # is one call of the emitted integrator on floats
    n = len(p)
    x = p.tolist()
    v = np.asarray(v0, dtype=float).copy()
    limit = 50.0 * (_norm(q - p) + 1.0)
    # a trial path that races off to chart radii far beyond the problem
    # scale cannot come back to q; cut it off instead of following the
    # excursion at full tolerance
    escape = float(50.0 * (1.0 + max(np.abs(p).max(), np.abs(q).max())))
    radii = [_JOIN * max(1.0, _norm(s.v)) for s in found]

    def joins(u):
        # the index of the first found branch within _JOIN of u, or None
        for i, s in enumerate(found):
            if _norm(u - s.v) <= radii[i]:
                return i
        return None

    def defect(vv, io):
        # the endpoint's miss and the path's accepted step sizes, or
        # (None, steps) where the velocity is not finite (a Newton step
        # that overflowed) or the trial path did not complete
        steps, vl = [], vv.tolist()
        if not all(map(math.isfinite, vl)):
            return None, steps
        status, _, y, *_ = _run(M, ConnKind.LC_G_TILDE, x + vl, 1.0, io, escape, steps)
        return (np.subtract(y[:n], q) if status == "completed" else None), steps

    tier, io = 0, _SCOUT
    r, steps = defect(v, io)
    if r is None:
        return False, v, np.inf, None
    err = _norm(r)
    history = [err]
    J = None
    for it in range(_MAX_ITER + 1):
        # inside the Newton basin of a branch already found, at whatever
        # tier, the rest of the iteration would only find it again; the
        # last pass tests only this, on the final iterate
        i = joins(v)
        if i is not None:
            return True, v, err, i
        if it == _MAX_ITER:
            break
        # the chord steps from v on each found branch's Jacobian (simplified
        # Newton steps) tell whether the start heads into it.  A step from
        # u that lands within _JOIN of that branch ends the chain: inside
        # the coarse basin (below the scout tier's threshold) the start
        # joins it at once, outside where one trial at the landing, at this
        # tier, lowers the defect.  A step that comes _CONTRACT times as
        # close to the branch as u gets one trial there, and where that
        # lowers the defect the chain goes on from the landing.  Anything
        # else ends the chain and leaves the iteration as it was
        for i, s in enumerate(found):
            if s.J is None:
                continue
            u, ru, eu = v, r, err
            while True:
                w = u + _solve(s.J, -ru)
                dw = _norm(w - s.v)
                lands = dw <= radii[i]
                if lands and eu < _TIERS[0][1]:
                    return True, w, eu, i
                if not lands and dw > _CONTRACT * _norm(u - s.v):
                    break
                rw, _ = defect(w, io)
                if rw is None or (ew := _norm(rw)) >= eu:
                    break
                if lands:
                    return True, w, ew, i
                u, ru, eu = w, rw, ew
        # closing nine orders of magnitude within the iteration budget needs
        # a mean contraction near 0.2 per five iterations; branches that
        # cannot even halve are stuck on a wall or a fold, so cut them loose
        if len(history) > 5 and history[-1] > 0.5 * history[-6]:
            return False, v, err, None
        while err < _TIERS[tier][1]:
            tier += 1
            io = _TIERS[tier][0]
            r, steps = defect(v, io)
            if r is None:
                return False, v, err, None
            err = _norm(r)
        if err <= target and io is _FINE:
            break
        J = _jacobian(M, x, q, v, r, steps)
        if J is None:
            return False, v, err, None
        step = _solve(J, -r)
        for halvings in range(12):
            vn = v + 0.5**halvings * step
            rn, sn = defect(vn, io)
            if rn is not None:
                en = _norm(rn)
                if en < err:
                    v, r, steps, err = vn, rn, sn, en
                    break
        else:
            return False, v, err, None
        if _norm(v) > limit:
            return False, v, err, None
        history.append(err)
    ok = err <= target and io is _FINE
    if ok and keep:
        found.append(_Branch(v, J if J is not None else _jacobian(M, x, q, v, r, steps)))
    return ok, v, err, None


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


@cache
def _start_directions(k, n, seed):
    # the k unit directions of starts 1..k: a deterministic
    # low-discrepancy sphere sequence (Halton points through the inverse
    # normal CDF), rotated by the seed; built once per (k, n, seed) and
    # kept read-only.  No direction is zero: the base-3 coordinate is
    # never 1/2
    dirs = np.vectorize(NormalDist().inv_cdf)(_halton(k, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rng = np.random.default_rng(seed)
    rot = np.linalg.qr(rng.standard_normal((n, n)))[0]
    out = np.array([rot @ dirs[i] for i in range(k)])
    out.flags.writeable = False
    return out


def _start_velocities(M, p, q, opts):
    # start 0 is the chart difference; the rest are _start_directions
    # scaled by the chart distance
    d = q - p
    starts = [d.copy()]
    k = opts.multistart - 1
    if k > 0:
        units = _start_directions(k, M.n, opts.seed)
        mags = _norm(d) * (1.0 + 0.5 * (np.arange(k) % 4))
        starts.extend(mags[i] * units[i] for i in range(k))
    return starts


def _solve_bvp(M, p, q, opts):
    # returns (the distinct solutions sorted by (length, start index), the
    # best failure where no start converged, else None, and one record per
    # start): records {start, v0, tilde_length, endpoint_error}, the last
    # {start, ended, branch, endpoint_error}.  For p == q the one solution
    # is the constant path, with no start attempted
    if np.array_equal(p, q):
        return [{"start": 0, "v0": np.zeros(M.n), "tilde_length": 0.0,
                 "endpoint_error": 0.0}], None, []
    starts = _start_velocities(M, p, q, opts)
    P = M.at(p)
    # math.exp, not P.exp_sigma: numpy's exp rounds differently on a few
    # percent of inputs, which would move tilde_length's last bits.  e^sigma
    # must be a normal double for a gtilde length to carry its digits, so
    # the solve is refused where it overflows or underflows to 0 or a
    # subnormal
    try:
        w = math.exp(P.sigma)
    except OverflowError:
        # the error P.exp_sigma gives where e^sigma overflows
        raise EvalDomainError(Una("exp", M._sigma), "overflow", p.tolist()) from None
    if w < sys.float_info.min:
        raise EvalDomainError(Una("exp", M._sigma), "underflow", p.tolist())
    gt = w * P.g_spd
    target = 0.25 * opts.eps_bvp
    # starts run in index order, so the reduction is a deterministic
    # function of that order
    sols, fail, ends, found = [], None, [], []
    for k, v0 in enumerate(starts):
        ok, v, err, joined = _gauss_newton(
            M, p, q, v0, target, found, k + 1 < len(starts))
        rec = {
            "start": k,
            "v0": v,
            "tilde_length": float(math.sqrt(v @ gt @ v)),
            "endpoint_error": err,
        }
        if not ok:
            if fail is None or err < fail["endpoint_error"]:
                fail = rec
            ends.append((k, "failed", None, err))
            continue
        ended = "converged" if joined is None else "joined"
        if joined is None:
            joined = len(sols)
            sols.append(rec)
        ends.append((k, ended, sols[joined]["start"], err))
    sols.sort(key=lambda s: (s["tilde_length"], s["start"]))
    rank = {s["start"]: i for i, s in enumerate(sols)}
    records = [
        {"start": k, "ended": ended, "branch": rank.get(b), "endpoint_error": err}
        for k, ended, b, err in ends
    ]
    return sols, None if sols else fail, records


def shoot_connect(M, p, q, opts=None):
    """Connect p to q by a nabla-geodesic via gtilde shooting.

    Returns a ConnectResult; a problem with no solution (every start
    failed) is reported through converged=False with the closest attempt,
    and a nabla parameter that overflows along the best path through
    nabla_path=None; neither is raised.  For p == q the one solution is
    the constant path, with no start attempted.
    """
    opts = opts if opts is not None else ShootOpts()
    p = np.array(M.at(p).x)
    q = np.array(M.at(q).x)
    sols, fail, starts = _solve_bvp(M, p, q, opts)
    best = sols[0] if sols else fail
    tilde = integrate_geodesic(M, ConnKind.LC_G_TILDE, p, best["v0"], 1.0, _FINE)
    # a solution's error is re-measured on the fine path it is reported by
    err = _norm(tilde.xs[-1] - q) if sols else fail["endpoint_error"]
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
        solutions=sols,
        starts=starts,
    )


def distance_tilde(M, p, q, opts=None):
    """gtilde-distance by shooting: length of the shortest found geodesic.

    This is exact when the global minimizer is among the multistart
    solutions, otherwise an upper bound for the true distance; on the
    built-in geometries the closed-form oracles confirm the minimizer is
    found.  Raises NoConvergenceError when no start connects.
    """
    p = np.array(M.at(p).x)
    q = np.array(M.at(q).x)
    opts = opts if opts is not None else ShootOpts()
    sols, fail, _ = _solve_bvp(M, p, q, opts)
    if not sols:
        err = fail["endpoint_error"]
        p_text, q_text = (",".join(map(repr, x.tolist())) for x in (p, q))
        raise NoConvergenceError(
            f"no converged geodesic from {p_text} to {q_text} on {M.name} "
            f"(best endpoint error {err:.17g})",
            err,
        )
    return sols[0]["tilde_length"]


def contrast(M, p, q, opts=None):
    """Canonical contrast rho(p, q) = e^{-sigma(p)} dtilde(p, q)^2.

    Raises EvalDomainError where rho overflows.
    """
    P = M.at(p)
    d = distance_tilde(M, p, q, opts)
    try:
        rho = math.exp(-P.sigma) * d * d
    except OverflowError:
        rho = math.inf
    if not math.isfinite(rho):
        raise EvalDomainError("e^{-sigma(p)} dtilde(p, q)^2", "overflow", P.x)
    return rho


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
    P = M.at(p)
    p = np.array(P.x)
    n = M.n
    h = _positive("stencil step", h)
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
    g = P.g_spd
    target = np.einsum("mij,mk->ijk", P.gamma(ConnKind.NABLA), g)
    return ContrastReport(
        g_fd=g_fd,
        nabla_fd=nabla_fd,
        g_dev=float(np.abs(g_fd - g).max()),
        nabla_dev=float(np.abs(nabla_fd - target).max()),
    )
