"""Geodesic integration and the parameter exchange with the conformal metric.

Geodesics of any of the four connections solve x'' + Gamma(x', x') = 0 in the
chart.  The integrator is an adaptive Dormand-Prince 5(4) loop on Python
floats with the coefficients and step controller of scipy's RK45, so its
steps follow RK45's up to rounding; when a trial step needs points outside
the chart domain the step is bisected down to a 1e-10 window so the exit
parameter is sharp.  Because nabla is projectively equivalent to the
Levi-Civita connection of gtilde = e^sigma g, a nabla-geodesic becomes a
gtilde-geodesic under the parameter change ds/dt = e^{2 sigma} along the path
(and back with the reciprocal weight); reparam_to_tilde / reparam_from_tilde
perform that change by two-point quintic Hermite quadrature between the dense
samples, with the weight's first two parameter derivatives taken from the
geodesic equation.

The integrator's right-hand side is one call of the domain predicate and
one call of the connection's compiled spray (ManifoldDef.spray), on
Python floats; it never builds a PointGeometry.  A point where the
predicate fails, or where g, sigma or the acceleration is not finite,
counts as outside the chart: the step is halved, down to the exit
bisection window.  The parameter change, the refinement of the samples by
sigma and geodesic_residual read the geometry of all a path's samples in
one batched call (ManifoldDef.at_many).  Batched jets come from numpy's
ufuncs, whose exp and power round differently from math's on a few
percent of inputs, so their results can differ from a sample-by-sample
evaluation in the last bits.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .exprcore import EvalDomainError
from .manifold import ConnKind, _require, in_domain

# unreachable parameter gap left by the exit bisection
EXIT_BISECT_TOL = 1e-10


class GeodesicError(Exception):
    pass


class ExitedDomainError(GeodesicError):
    """The geodesic left the chart domain before reaching its endpoint."""

    def __init__(self, message, t_exit):
        super().__init__(message)
        self.t_exit = float(t_exit)


class StepLimitError(GeodesicError):
    pass


class _DomainExit(Exception):
    # internal: a right-hand-side evaluation fell outside the chart
    pass


@dataclass
class IntegratorOpts:
    rtol: float = 1e-9
    atol: float = 1e-11
    max_steps: int = 10**6
    dense_samples: int = 129

    def __post_init__(self):
        if self.rtol <= 0.0 or self.atol <= 0.0:
            raise ValueError("integrator tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.dense_samples < 2:
            raise ValueError("dense_samples must be at least 2")


@dataclass
class GeodesicPath:
    """Sampled solution of the geodesic equation for one connection.

    status is "completed", "exited-domain" (stopped just inside the chart
    boundary), or "step-limit" (budget or step-size underflow; the prefix
    that was integrated is still returned).  meta["integrator"] counts the
    accepted and rejected steps, the chord rewinds and the domain-exit
    halvings of the integration.
    """

    kind: ConnKind
    ts: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    status: str
    meta: dict = field(default_factory=dict)

    @property
    def samples(self):
        return [(float(t), self.xs[i], self.vs[i]) for i, t in enumerate(self.ts)]

    @property
    def endpoint(self):
        return self.xs[-1]

    def to_csv(self, dest):
        """Write samples as CSV; dest is a path or an open text file."""
        if hasattr(dest, "write"):
            self._write(dest)
        else:
            with open(dest, "w") as fh:
                self._write(fh)

    def _write(self, fh):
        n = self.xs.shape[1]
        cols = ["t"] + [f"x{i + 1}" for i in range(n)] + [f"v{i + 1}" for i in range(n)]
        fh.write(",".join(cols) + "\n")
        for i, t in enumerate(self.ts):
            row = [t, *self.xs[i], *self.vs[i]]
            fh.write(",".join(f"{val:.17g}" for val in row) + "\n")
        fh.write(f"# status={self.status}\n")


def _rhs_factory(M, kind):
    # the geodesic equation as a first-order system on the list of 2n
    # floats y = (x, v): returns (v, -Gamma(v, v)), or raises _DomainExit
    n = M.n
    domain = M.domain
    spray = M.spray(kind).get

    def rhs(y):
        try:
            inside = domain(y)
        except EvalDomainError as err:
            raise _DomainExit from err
        # the verdict alone: no diagnostic names the node that failed
        out = spray(y) if inside else None
        if out is None:
            raise _DomainExit
        return [*y[n:], *out[-n:]]

    return rhs


def _chord_ok(M, x_a, x_b):
    # a large step can vault a hole in the chart even though all its stage
    # points land inside; probe the chord of the step at a resolution tied
    # to the displacement relative to the position scale.  x_a and x_b are
    # sequences of floats
    gap = max(abs(b - a) for a, b in zip(x_a, x_b))
    scale = 1.0 + max(max(map(abs, x_a)), max(map(abs, x_b)))
    r = gap / (0.03 * scale)
    k = 3 if not r > 3.0 else (31 if r > 30.0 else math.ceil(r))  # ceil(r) in [3, 31]
    # j * (1 / (k + 1)) is the fraction np.linspace gives, bit for bit
    step = 1.0 / (k + 1)
    for j in range(1, k + 1):
        frac = j * step
        x = tuple((1.0 - frac) * a + frac * b for a, b in zip(x_a, x_b))
        if M._values(x) is None:
            return False
    return True


# The Dormand-Prince 5(4) pair (Hairer, Norsett & Wanner, Solving ODEs I,
# II.5), with the coefficients and step controller of scipy's RK45, so that
# step sequences match scipy's and results differ only by rounding.  A_s
# builds stage s + 2 from stages 1..s + 1; B gives the order-5 solution
# and E, over all seven stages, its error estimate.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1 / 5


@functools.cache
def _dopri5(N):
    """One Dormand-Prince 5(4) step on N floats, emitted as straight-line code.

    step(rhs, y, f, h, rtol, atol) takes the state y and its derivative
    f = rhs(y), as lists, and returns (y_new, rhs(y_new), error) with error
    the RMS norm of the embedded estimate scaled by
    atol + max(|y|, |y_new|) * rtol, as scipy's RK45 computes it.  Zero
    tableau entries are left out; a _DomainExit from rhs propagates.
    """
    def combo(coeffs, i):
        # sum_s c_s k_s[i] over the nonzero c_s, left to right
        return " + ".join(f"k{s}_{i} * {c!r}"
                          for s, c in enumerate(coeffs, start=1) if c != 0.0)

    def names(fmt):
        return ", ".join(fmt.format(i) for i in range(N)) + ","

    lines = [f"    {names('y{}')} = y", f"    {names('k1_{}')} = f"]
    for s, row in enumerate(_DP_A, start=2):
        stage = ", ".join(f"y{i} + ({combo(row, i)}) * h" for i in range(N))
        lines.append(f"    {names(f'k{s}_{{}}')} = rhs([{stage}])")
    lines += [f"    n{i} = y{i} + h * ({combo(_DP_B, i)})" for i in range(N)]
    lines.append(f"    {names('k7_{}')} = rhs([{names('n{}')}])")
    lines += [f"    e{i} = ({combo(_DP_E, i)}) * h"
              f" / (atol + _max(abs(y{i}), abs(n{i})) * rtol)" for i in range(N)]
    sq = " + ".join(f"e{i} * e{i}" for i in range(N))
    lines.append(f"    return [{names('n{}')}], [{names('k7_{}')}], "
                 f"_sqrt({sq}) / {N ** 0.5!r}")
    src = "def step(rhs, y, f, h, rtol, atol):\n" + "\n".join(lines) + "\n"
    ns = {"_max": max, "_sqrt": math.sqrt}
    exec(compile(src, f"<dopri5 N={N}>", "exec"), ns)  # noqa: S102 - fixed template
    return ns["step"]


def _rms(xs):
    sq = sum(a * a for a in xs)
    if sq == math.inf:
        # the squares overflow: rescale by the largest magnitude, so that
        # the norm is infinite only where it does not fit in a double
        big = max(map(abs, xs))
        if big < math.inf:
            return big * math.sqrt(sum((a / big) ** 2 for a in xs) / len(xs))
    return math.sqrt(sq) / len(xs) ** 0.5


def _initial_step(rhs, y, f, t1, max_step, rtol, atol):
    # scipy's select_initial_step for an order-4 error estimate from t = 0
    # (Hairer, Norsett & Wanner, II.4)
    scale = [atol + abs(a) * rtol for a in y]
    d0 = _rms([a / s for a, s in zip(y, scale)])
    d1 = _rms([a / s for a, s in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t1)
    f1 = rhs([a + h0 * b for a, b in zip(y, f)])
    # h0 is 0 where d1 is infinite; numpy's division would give inf there
    d2 = _rms([(b - a) / s for a, b, s in zip(f, f1, scale)]) / h0 if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t1, max_step)


def _advance(step, rhs, t, y, f, h_abs, cap, t1, rtol, atol, counts):
    # one accepted step from (t, y, f), trying h_abs capped at cap and
    # shrinking on error rejections: (t_new, y_new, f_new, next h_abs), or
    # None once the step falls below ten spacings of the doubles at t
    min_step = 10 * (math.nextafter(t, math.inf) - t)
    h = cap if h_abs > cap else max(h_abs, min_step)
    rejected = False
    while h >= min_step:
        t_new = min(t + h, t1)
        h = t_new - t
        y_new, f_new, err = step(rhs, y, f, h, rtol, atol)
        if err < 1.0:
            factor = _MAX_FACTOR
            if err > 0.0:
                factor = min(_MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            if rejected:
                factor = min(1.0, factor)
            return t_new, y_new, f_new, h * factor
        h *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
        rejected = True
        counts["rejected"] += 1
    return None


def _integrate_core(M, kind, x0, v0, t1, opts, collect, escape=None):
    """Integrate the geodesic from (x0, v0) over [0, t1].

    Returns (status, t_end, y_end, segs, counts): the status, the last
    accepted parameter and state (x, v), the accepted steps as
    (t, t_new, y, y_new, f, f_new) when collect is set, and the counts of
    accepted and rejected steps, chord rewinds and domain-exit halvings.
    """
    x0 = np.array(_require(M, x0), dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (M.n,):
        raise ValueError(f"velocity must have {M.n} components")
    if not np.all(np.isfinite(v0)):
        raise ValueError("velocity components must be finite")
    t1 = float(t1)
    if not t1 > 0.0:
        raise ValueError("t1 must be positive")
    n = M.n
    rhs = _rhs_factory(M, kind)
    step = _dopri5(2 * n)
    rtol, atol = opts.rtol, opts.atol
    # keep steps short enough that the dense interpolant tracks the
    # acceleration, not just the position, of the solution
    max_step = t1 / 48.0 if collect else math.inf
    counts = {"accepted": 0, "rejected": 0, "rewinds": 0, "halvings": 0}
    t, y = 0.0, x0.tolist() + v0.tolist()
    try:
        f = rhs(y)
        h_abs = _initial_step(rhs, y, f, t1, max_step, rtol, atol)
    except _DomainExit:
        return "exited-domain", 0.0, np.array(y), [], counts
    segs = []
    status = "completed"
    while t < t1:
        if counts["accepted"] >= opts.max_steps:
            status = "step-limit"
            break
        # cap the chart displacement of one step so the chord probes below
        # cannot straddle a hole at a scale they do not resolve
        cap = max_step
        speed = max(map(abs, y[n:]))
        if speed > 0.0:
            cap = min(max_step, 0.5 * (1.0 + max(map(abs, y[:n]))) / speed)
        try:
            done = _advance(step, rhs, t, y, f, h_abs, cap, t1, rtol, atol, counts)
        except _DomainExit:
            if h_abs <= EXIT_BISECT_TOL:
                status = "exited-domain"
                break
            h_abs *= 0.5
            counts["halvings"] += 1
            continue
        if done is None:
            # step-size underflow: stiffness, reported through the status
            status = "step-limit"
            break
        t_new, y_new, f_new, h_next = done
        if not _chord_ok(M, y[:n], y_new[:n]):
            if t_new - t <= EXIT_BISECT_TOL:
                status = "exited-domain"
                break
            # rewind to the last good state and retry with half the step
            h_abs = min(0.5 * (t_new - t), t1 - t)
            counts["rewinds"] += 1
            continue
        counts["accepted"] += 1
        if collect:
            segs.append((t, t_new, y, y_new, f, f_new))
        t, y, f, h_abs = t_new, y_new, f_new, h_next
        if escape is not None and max(map(abs, y[:n])) > escape:
            status = "escaped"
            break
    return status, t, np.array(y), segs, counts


def _eval_pieces(segs, ts, n):
    # quintic Hermite from (x, v, a) at both ends of the step that holds
    # each query time, all times at once; the stored RHS values make the
    # interpolant match the accelerations the solver actually saw
    t0, t1, y0, y1, f0, f1 = map(np.array, zip(*segs))
    k = np.minimum(np.searchsorted(t1, ts, side="left"), len(segs) - 1)
    h = (t1 - t0)[k]
    u = (np.asarray(ts, dtype=float) - t0[k]) / h
    w = 1.0 - u
    u2 = u * u
    u3 = u2 * u
    w2 = w * w
    w3 = w2 * w
    # factored basis: bounded factors keep the cancellation error at a few ulp
    H = (
        w3 * (1.0 + 3.0 * u + 6.0 * u2),
        u * w3 * (1.0 + 3.0 * u),
        0.5 * u2 * w3,
        u3 * (10.0 - 15.0 * u + 6.0 * u2),
        -u3 * w * (4.0 - 3.0 * u),
        0.5 * u3 * w2,
    )
    Hp = (
        -30.0 * u2 * w2,
        w2 * (1.0 + 5.0 * u) * (1.0 - 3.0 * u),
        0.5 * u * w2 * (2.0 - 5.0 * u),
        30.0 * u2 * w2,
        -u2 * (6.0 - 5.0 * u) * (2.0 - 3.0 * u),
        0.5 * u2 * w * (3.0 - 5.0 * u),
    )
    h = h[:, None]
    y0, y1, f0, f1 = y0[k], y1[k], f0[k], f1[k]
    D = (y0[:, :n], h * y0[:, n:], h * h * f0[:, n:],
         y1[:, :n], h * y1[:, n:], h * h * f1[:, n:])
    xs = sum(c[:, None] * d for c, d in zip(H, D))
    vs = sum(c[:, None] * d for c, d in zip(Hp, D)) / h
    return xs, vs


SIGMA_STEP = 0.05
DENSE_CAP = 8192


def _refine_by_sigma(M, segs, ts, xs, vs):
    # subdivide dense-output intervals until the conformal weight e^{2 sigma}
    # changes slowly across each one; reparametrization quadrature needs the
    # weight resolved along the path, not just the positions.  sigma is NaN
    # outside the chart, so no gap there counts as too large
    n = xs.shape[1]
    sig = M._values_many(xs)[:, -1]
    for _ in range(16):
        gaps = np.abs(np.diff(2.0 * sig))
        bad = np.flatnonzero(gaps > SIGMA_STEP)
        if bad.size == 0 or len(ts) + bad.size > DENSE_CAP:
            break
        mid = 0.5 * (ts[bad] + ts[bad + 1])
        xm, vm = _eval_pieces(segs, mid, n)
        pos = bad + 1
        ts = np.insert(ts, pos, mid)
        xs = np.insert(xs, pos, xm, axis=0)
        vs = np.insert(vs, pos, vm, axis=0)
        sig = np.insert(sig, pos, M._values_many(xm)[:, -1])
    return ts, xs, vs


def integrate_geodesic(M, kind, x0, v0, t1, opts=None):
    """Integrate the geodesic of the given connection from (x0, v0) to t1.

    Returns a GeodesicPath with dense_samples evenly spaced samples over the
    integrated parameter range; completed paths get extra samples inserted
    where e^{2 sigma} moves quickly between neighbours, so reparametrization
    quadrature stays accurate on stiff conformal factors.  Leaving the chart
    or exhausting the step budget is reported through the status field,
    never raised.
    """
    opts = opts if opts is not None else IntegratorOpts()
    kind = ConnKind(kind)
    status, t_end, y_end, segs, counts = _integrate_core(M, kind, x0, v0, t1, opts, True)
    n = M.n
    if not segs:
        ts = np.zeros(1)
        xs = y_end[:n].reshape(1, n).copy()
        vs = y_end[n:].reshape(1, n).copy()
    else:
        ts = np.linspace(0.0, t_end, opts.dense_samples)
        xs, vs = _eval_pieces(segs, ts, n)
        xs[0], vs[0] = np.asarray(x0, dtype=float), np.asarray(v0, dtype=float)
        xs[-1], vs[-1] = y_end[:n], y_end[n:]
        if status == "completed":
            ts, xs, vs = _refine_by_sigma(M, segs, ts, xs, vs)
    if status == "exited-domain":
        keep = len(ts)
        while keep > 1 and not in_domain(M, xs[keep - 1]):
            keep -= 1
        ts, xs, vs = ts[:keep], xs[:keep], vs[:keep]
    return GeodesicPath(kind=kind, ts=ts, xs=xs, vs=vs, status=status,
                        meta={"integrator": counts})


def exp_map(M, kind, p, v, opts=None):
    """Endpoint of the unit-time geodesic from p with initial velocity v."""
    opts = opts if opts is not None else IntegratorOpts()
    kind = ConnKind(kind)
    status, t_end, y_end, _, _ = _integrate_core(M, kind, p, v, 1.0, opts, False)
    if status == "exited-domain":
        raise ExitedDomainError(
            f"geodesic left the domain of {M.name} at parameter {t_end:.12g}",
            t_exit=t_end,
        )
    if status == "step-limit":
        raise StepLimitError(
            f"geodesic integration on {M.name} stopped at parameter {t_end:.12g}"
        )
    return y_end[:M.n].copy()


def _reparam(M, path, sign, out_kind, in_kind):
    if ConnKind(path.kind) is not in_kind:
        raise ValueError(f"expected a {in_kind.value} path, got {path.kind}")
    ts = np.asarray(path.ts, dtype=float)
    xs = np.asarray(path.xs, dtype=float)
    vs = np.asarray(path.vs, dtype=float)
    if len(ts) < 5:
        raise ValueError("need at least 5 samples to reparametrize")
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("path parameters must be strictly increasing")
    # parameter derivatives of F = e^{sign * sigma} along the path come for
    # free from the chain rule plus the geodesic equation, so the new
    # parameter integrates by two-point quintic Hermite quadrature: local,
    # insensitive to grid spacing, per-interval error O(h^7)
    P = M.at_many(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        acc = -np.einsum("nkij,ni,nj->nk", P.gamma(in_kind), vs, vs)
        lp = sign * np.einsum("ni,ni->n", P.dsigma, vs)
        lpp = sign * (np.einsum("ni,nij,nj->n", vs, P.d2sigma, vs)
                      + np.einsum("ni,ni->n", P.dsigma, acc))
        F = np.exp(sign * P.sigma)
        Fp = lp * F
        Fpp = (lpp + lp * lp) * F
    usable = np.all(np.isfinite(F)) and np.all(F > 0.0)
    usable = usable and np.all(np.isfinite(Fp)) and np.all(np.isfinite(Fpp))
    if not usable:
        raise GeodesicError(
            "parameter transform diverges: the conformal weight overflows "
            "or underflows along the path"
        )
    h = np.diff(ts)
    seg = (0.5 * h * (F[:-1] + F[1:])
           + 0.1 * h * h * (Fp[:-1] - Fp[1:])
           + h ** 3 / 120.0 * (Fpp[:-1] + Fpp[1:]))
    cubic = 0.5 * h * (F[:-1] + F[1:]) + h * h / 12.0 * (Fp[:-1] - Fp[1:])
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if np.any(np.diff(s) <= 0.0):
        # where the weight spans more orders of magnitude than a double
        # holds, the later increments vanish in the sum
        raise GeodesicError(
            "parameter transform loses resolution: the new parameter stops "
            "increasing along the path"
        )
    meta = dict(path.meta)
    meta["quadrature_error"] = abs(float(np.sum(seg - cubic)))
    # F is the derivative of the new parameter with respect to the old one
    return GeodesicPath(
        kind=out_kind,
        ts=s,
        xs=xs.copy(),
        vs=vs / F[:, None],
        status=path.status,
        meta=meta,
    )


def reparam_to_tilde(M, path):
    """Turn a nabla-geodesic into the gtilde-geodesic with the same image.

    New parameter s(t) = integral of e^{2 sigma} along the path, velocities
    rescaled by e^{-2 sigma}.  A quadrature consistency estimate (difference
    against a lower-order rule) is stored under meta["quadrature_error"].
    """
    return _reparam(M, path, 2.0, ConnKind.LC_G_TILDE, ConnKind.NABLA)


def reparam_from_tilde(M, path):
    """Inverse of reparam_to_tilde: weight e^{-2 sigma}, velocities e^{2 sigma}."""
    return _reparam(M, path, -2.0, ConnKind.NABLA, ConnKind.LC_G_TILDE)


def geodesic_residual(M, kind, path):
    """Worst defect max_k |x''^k + Gamma^k_ij x'^i x'^j| over interior samples.

    Acceleration is estimated from the sampled positions by fourth-order
    differences (the classical five-point stencil on uniform grids, a local
    quartic fit otherwise); velocities are taken from the stored samples.
    """
    kind = ConnKind(kind)
    ts = np.asarray(path.ts, dtype=float)
    xs = np.asarray(path.xs, dtype=float)
    vs = np.asarray(path.vs, dtype=float)
    m = len(ts)
    if m < 5:
        raise ValueError("need at least 5 samples for a fourth-order residual")
    strides = [s for s in (1, 2, 4, 8) if 4 * s <= m - 1]
    dt = np.diff(ts)
    uniform = dt.max() - dt.min() < 1e-12 * dt.max()
    centers = {}
    for stride in strides:
        lo, hi = 2 * stride, m - 1 - 2 * stride
        centers[stride] = np.unique(np.linspace(lo, hi, min(48, hi - lo + 1)).astype(int))
    # the connection at every center of every stride, in one batch
    at = np.unique(np.concatenate(list(centers.values())))
    gam = M.at_many(xs[at]).gamma(kind)
    v = vs[at]
    # quad[c, k] = Gamma^k_ij v^i v^j at center at[c]
    quad = np.einsum("ckij,ci,cj->ck", gam, v, v)
    best = np.inf
    for stride, cs in centers.items():
        win = cs[:, None] + stride * np.arange(-2, 3)
        if uniform:
            h = ts[cs + stride] - ts[cs]
            acc = (-xs[win[:, 0]] + 16.0 * xs[win[:, 1]] - 30.0 * xs[win[:, 2]]
                   + 16.0 * xs[win[:, 3]] - xs[win[:, 4]]) / (12.0 * h * h)[:, None]
        else:
            tau = ts[win] - ts[cs][:, None]
            scale = np.abs(tau).max(axis=1)
            V = (tau / scale[:, None])[..., None] ** np.arange(5)
            coef = np.linalg.solve(V, xs[win])
            acc = 2.0 * coef[:, 2] / (scale * scale)[:, None]
        res = acc + quad[np.searchsorted(at, cs)]
        # every stride overestimates the true defect (truncation and sample
        # noise only add), so the smallest estimate is the sharpest
        best = min(best, float(np.abs(res).max()))
    return best
