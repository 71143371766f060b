"""Geodesic integration and the parameter exchange with the conformal metric.

Geodesics of any of the four connections solve x'' + Gamma(x', x') = 0 in the
chart.  The integrator is an adaptive RK5(4) loop; when a trial step needs
points outside the chart domain the step is bisected down to a 1e-10 window so
the exit parameter is sharp.  Because nabla is projectively equivalent to the
Levi-Civita connection of gtilde = e^sigma g, a nabla-geodesic becomes a
gtilde-geodesic under the parameter change ds/dt = e^{2 sigma} along the path
(and back with the reciprocal weight); reparam_to_tilde / reparam_from_tilde
perform that change by two-point quintic Hermite quadrature between the dense
samples, with the weight's first two parameter derivatives taken from the
geodesic equation.

The integrator's right-hand side reads the geometry of one point at a time
(ManifoldDef.at).  The parameter change, the refinement of the samples by
sigma and geodesic_residual read that of all a path's samples in one
batched call (ManifoldDef.at_many).  Batched jets come from numpy's ufuncs,
whose exp and power round differently from math's on a few percent of
inputs, so their results can differ from a sample-by-sample evaluation in
the last bits.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import RK45

from .exprcore import EvalDomainError
from .manifold import ConnKind, OutOfDomainError, _require, in_domain

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
    max_step: float | None = None

    def __post_init__(self):
        if self.rtol <= 0.0 or self.atol <= 0.0:
            raise ValueError("integrator tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.dense_samples < 2:
            raise ValueError("dense_samples must be at least 2")
        if self.max_step is not None and self.max_step <= 0.0:
            raise ValueError("max_step must be positive when given")


@dataclass
class GeodesicPath:
    """Sampled solution of the geodesic equation for one connection.

    status is "completed", "exited-domain" (stopped just inside the chart
    boundary), or "step-limit" (budget or step-size underflow; the prefix
    that was integrated is still returned).
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
    n = M.n
    kind = ConnKind(kind)

    def rhs(t, y):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                gam = M.at(y[:n]).gamma(kind)
        except (OutOfDomainError, EvalDomainError) as err:
            raise _DomainExit from err
        if not np.isfinite(gam).all():
            raise _DomainExit
        v = y[n:]
        out = np.empty(2 * n)
        out[:n] = v
        out[n:] = -(gam @ v) @ v
        return out

    return rhs


def _chord_ok(M, x_a, x_b):
    # a large step can vault a hole in the chart even though all its stage
    # points land inside; probe the chord of the step at a resolution tied
    # to the displacement relative to the position scale
    gap = np.abs(x_b - x_a).max()
    scale = 1.0 + max(np.abs(x_a).max(), np.abs(x_b).max())
    k = int(min(31, max(3, np.ceil(gap / (0.03 * scale)))))
    for frac in np.linspace(0.0, 1.0, k + 2)[1:-1]:
        if not in_domain(M, (1.0 - frac) * x_a + frac * x_b):
            return False
    return True


def _integrate_core(M, kind, x0, v0, t1, opts, collect, escape=None):
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
    y0 = np.concatenate([x0, v0])
    rhs = _rhs_factory(M, kind)
    max_step = np.inf if opts.max_step is None else opts.max_step
    if collect:
        # keep steps short enough that the dense interpolant tracks the
        # acceleration, not just the position, of the solution
        max_step = min(max_step, t1 / 48.0)
    try:
        rk = RK45(rhs, 0.0, y0, t_bound=t1,
                  rtol=opts.rtol, atol=opts.atol, max_step=max_step)
    except _DomainExit:
        return "exited-domain", 0.0, y0, []
    segs = []
    status = "completed"
    steps = 0
    t_end, y_end = 0.0, y0
    while rk.status == "running":
        if steps >= opts.max_steps:
            status = "step-limit"
            break
        # cap the chart displacement of one step so the chord probes below
        # cannot straddle a hole at a scale they do not resolve
        speed = np.abs(rk.y[n:]).max()
        if speed > 0.0:
            cap = 0.5 * (1.0 + np.abs(rk.y[:n]).max()) / speed
            rk.max_step = min(max_step, cap)
        t_prev, y_prev, f_prev = rk.t, rk.y, rk.f
        try:
            rk.step()
        except _DomainExit:
            if rk.h_abs <= EXIT_BISECT_TOL:
                status = "exited-domain"
                break
            rk.h_abs = 0.5 * rk.h_abs
            continue
        if rk.status == "failed":
            # step-size underflow: stiffness, reported through the status
            status = "step-limit"
            break
        h_used = rk.t - t_prev
        if not _chord_ok(M, y_prev[:n], rk.y[:n]):
            if h_used <= EXIT_BISECT_TOL:
                status = "exited-domain"
                break
            # rewind to the last good state and retry with half the step
            rk = RK45(rhs, t_prev, y_prev, t_bound=t1,
                      rtol=opts.rtol, atol=opts.atol, max_step=max_step,
                      first_step=min(0.5 * h_used, t1 - t_prev))
            continue
        t_end, y_end = rk.t, rk.y
        steps += 1
        if collect:
            segs.append((t_prev, rk.t, y_prev, rk.y, f_prev, rk.f))
        if escape is not None and np.abs(rk.y[:n]).max() > escape:
            status = "escaped"
            break
    return status, t_end, y_end, segs


def _hermite_eval(seg, tq):
    # quintic Hermite from (x, v, a) at both step ends; the stored RHS values
    # make the interpolant match the accelerations the solver actually saw
    t0, t1, y0, y1, f0, f1 = seg
    h = t1 - t0
    u = (np.asarray(tq, dtype=float) - t0) / h
    w = 1.0 - u
    u2 = u * u
    u3 = u2 * u
    w2 = w * w
    w3 = w2 * w
    # factored basis: bounded factors keep the cancellation error at a few ulp
    H = np.stack([
        w3 * (1.0 + 3.0 * u + 6.0 * u2),
        u * w3 * (1.0 + 3.0 * u),
        0.5 * u2 * w3,
        u3 * (10.0 - 15.0 * u + 6.0 * u2),
        -u3 * w * (4.0 - 3.0 * u),
        0.5 * u3 * w2,
    ], axis=-1)
    Hp = np.stack([
        -30.0 * u2 * w2,
        w2 * (1.0 + 5.0 * u) * (1.0 - 3.0 * u),
        0.5 * u * w2 * (2.0 - 5.0 * u),
        30.0 * u2 * w2,
        -u2 * (6.0 - 5.0 * u) * (2.0 - 3.0 * u),
        0.5 * u2 * w * (3.0 - 5.0 * u),
    ], axis=-1)
    n = len(y0) // 2
    D = np.stack([y0[:n], h * y0[n:], h * h * f0[n:],
                  y1[:n], h * y1[n:], h * h * f1[n:]])
    return H @ D, (Hp @ D) / h


def _eval_pieces(segs, ts, n):
    ends = np.array([seg[1] for seg in segs])
    idx = np.minimum(np.searchsorted(ends, ts, side="left"), len(segs) - 1)
    xs = np.empty((len(ts), n))
    vs = np.empty((len(ts), n))
    for k in np.unique(idx):
        sel = idx == k
        xs[sel], vs[sel] = _hermite_eval(segs[k], ts[sel])
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
    status, t_end, y_end, segs = _integrate_core(M, kind, x0, v0, t1, opts, True)
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
    return GeodesicPath(kind=kind, ts=ts, xs=xs, vs=vs, status=status)


def exp_map(M, kind, p, v, opts=None):
    """Endpoint of the unit-time geodesic from p with initial velocity v."""
    opts = opts if opts is not None else IntegratorOpts()
    kind = ConnKind(kind)
    status, t_end, y_end, _ = _integrate_core(M, kind, p, v, 1.0, opts, False)
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


def geodesic_residual(M, kind, path, stride=None):
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
    if stride is None:
        strides = [s for s in (1, 2, 4, 8) if 4 * s <= m - 1]
    else:
        strides = [max(1, min(int(stride), (m - 1) // 4))]
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
