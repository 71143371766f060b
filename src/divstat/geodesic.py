"""Geodesic integration and the parameter exchange with the conformal metric.

Geodesics of any of the four connections solve x'' + Gamma(x', x') = 0 in the
chart.  The integrator is an adaptive Dormand-Prince 5(4) loop on Python
floats with the coefficients and step controller of scipy's RK45, so its
steps follow RK45's up to rounding; a step attempt that leaves the chart
domain is retried at half its step, down to a 1e-10 window, so the exit
parameter is sharp.  Because nabla is projectively equivalent to the
Levi-Civita connection of gtilde = e^sigma g, a nabla-geodesic becomes a
gtilde-geodesic under the parameter change ds/dt = e^{2 sigma} along the path
(and back with the reciprocal weight); reparam_to_tilde / reparam_from_tilde
perform that change by two-point quintic Hermite quadrature between the dense
samples, with the weight's first two parameter derivatives taken from the
geodesic equation.

Each step is emitted per manifold and connection: every stage inlines,
on local Python floats, the chart test and the connection's spray
(ManifoldDef._inline, ManifoldDef.spray), and the chord probe inlines
the chart test and the values of g and sigma the same way; no
PointGeometry is built.  Both are compiled on the first integration and
kept in the manifold's cache of compiled code (ManifoldDef.compiled).
A point outside the chart (see manifold), or where the acceleration is
not finite, stops the stage.  One rule settles every attempt that leaves
the chart, at a stage or along its chord: the next attempt starts from
the same state with half the step tried, and the path ends
"exited-domain" once the step tried is within the exit window
(EXIT_BISECT_TOL) or half of it is below the shortest step at t, ten
spacings of the doubles there.  The generic step on the right-hand side
(_dopri5 on _rhs_factory's RHS) is the reference the emitted step is
tested against.
_replay takes the accepted step sizes an integration recorded through
the same steps again, with no step control, from any start: from the
integration's own start it gives its endpoint bit for bit, which makes
it the shooting Jacobian's column integrator.

The parameter change, the refinement of the samples by sigma and
geodesic_residual read the geometry of all a path's samples in one
batched call.  Each round of the refinement tests only the gaps the
round before bisected, a gap that passed once passing for good, and
evaluates positions at their midpoints only; the inserted samples are
merged once at the end, their velocities in one pass.  The parameter
change checks its weight e^{+-2 sigma} first and takes Gamma(v, v) from
the connection's spray kernel (spray(kind).many), never building the
connection tensors.  Batched jets come from numpy's
ufuncs, whose exp and power round differently from math's on a few
percent of inputs, so their results can differ from a sample-by-sample
evaluation in the last bits.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .exprcore import _exec_kernel
from .manifold import ConnKind, _require

# unreachable parameter gap left by the exit bisection
EXIT_BISECT_TOL = 1e-10
# accepted steps after which an integration stops, status "step-limit"
MAX_STEPS = 10**6


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
    dense_samples: int = 129

    def __post_init__(self):
        if self.rtol <= 0.0 or self.atol <= 0.0:
            raise ValueError("integrator tolerances must be positive")
        if self.dense_samples < 2:
            raise ValueError("dense_samples must be at least 2")


@dataclass
class GeodesicPath:
    """Sampled solution of the geodesic equation for one connection.

    status is "completed", "exited-domain" (stopped just inside the chart
    boundary, or at the last state before one that overflows), or
    "step-limit" (budget or step-size underflow; the prefix that was
    integrated is still returned).  meta["integrator"] counts the
    accepted steps, the attempts the error estimate rejected, the chart
    retries, each at half the step tried (rewinds where an attempt's
    chord left the chart, halvings where one of its stages did), and the
    RHS evaluations: 2 for the first derivative and step size, and 6 per
    step attempt, also where an attempt left the chart before its last
    stage.
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
        # the verdict alone: no diagnostic names the node that failed
        out = spray(y) if domain(y) else None
        if out is None:
            raise _DomainExit
        return [*y[n:], *out[-n:]]

    return rhs


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


def _dp_lines(N, stage):
    """The lines of one Dormand-Prince 5(4) step on N floats, unindented.

    They read the state y and its derivative f as lists and the floats h,
    rtol and atol, and return (y_new, f_new, error) with error the RMS norm
    of the embedded estimate scaled by atol + max(|y|, |y_new|) * rtol, as
    scipy's RK45 computes it.  stage(s, state) gives the lines that set the
    derivative k{s}_0, ..., k{s}_{N-1} at stage s = 2..7 from the texts of
    the stage's state.  Zero tableau entries are left out.
    """
    def combo(coeffs, i):
        # sum_s c_s k_s[i] over the nonzero c_s, left to right
        return " + ".join(f"k{s}_{i} * {c!r}"
                          for s, c in enumerate(coeffs, start=1) if c != 0.0)

    lines = [f"{_names('y{}', N)} = y", f"{_names('k1_{}', N)} = f"]
    for s, row in enumerate(_DP_A, start=2):
        lines += stage(s, [f"y{i} + ({combo(row, i)}) * h" for i in range(N)])
    lines += [f"n{i} = y{i} + h * ({combo(_DP_B, i)})" for i in range(N)]
    lines += stage(7, [f"n{i}" for i in range(N)])
    lines += [f"e{i} = ({combo(_DP_E, i)}) * h"
              f" / (atol + _max(abs(y{i}), abs(n{i})) * rtol)" for i in range(N)]
    sq = " + ".join(f"e{i} * e{i}" for i in range(N))
    lines.append(f"return [{_names('n{}', N)}], [{_names('k7_{}', N)}], "
                 f"_sqrt({sq}) / {N ** 0.5!r}")
    return lines


def _names(fmt, N):
    return ", ".join(fmt.format(i) for i in range(N)) + ","


def _exec(params, lines, filename, fallback=None, **names):
    # the function of `params` with `lines` as its body, compiled; with a
    # fallback, that statement runs where the lines raise ArithmeticError
    # or ValueError: where inlined code does not evaluate (_inline)
    if fallback:
        lines = ["try:", *(f"    {line}" for line in lines),
                 "except (ArithmeticError, ValueError):", f"    {fallback}"]
    src = f"def _kernel({params}):\n" + "".join(f"    {line}\n" for line in lines)
    code = compile(src, filename, "exec")
    return _exec_kernel(code, math, _max=max, _isfinite=math.isfinite, **names)


@functools.cache
def _dopri5(N):
    """The generic step on N floats: step(rhs, y, f, h, rtol, atol).

    Each stage calls rhs on a list, so a _DomainExit from rhs propagates.
    The fused steps are tested against it on _rhs_factory's RHS.
    """
    def stage(s, state):
        return [f"{_names(f'k{s}_{{}}', N)} = rhs([{', '.join(state)}])"]

    return _exec("rhs, y, f, h, rtol, atol", _dp_lines(N, stage), f"<dopri5 N={N}>")


def _fused_step(M, kind):
    """step(y, f, h, rtol, atol): _dopri5(2n) on _rhs_factory(M, kind)'s RHS.

    M's chart test and kind's spray are inlined in the stages: the same
    results bit for bit, and _DomainExit where a stage leaves the chart.
    Compiled on first use, kept in M's cache (M.compiled).
    """
    kind = ConnKind(kind)
    n = M.n

    def stage(s, state):
        # the positions z, then the velocities, which are the first n
        # derivatives; the spray's last n values are the other n
        args = [f"z{s}_{i}" for i in range(n)] + [f"k{s}_{i}" for i in range(n)]
        lines, outs = M._inline(M.spray(kind), args, f"_{s}", "raise _DomainExit")
        return ([f"{a} = {e}" for a, e in zip(args, state)] + lines
                + [f"k{s}_{n + i} = {a}" for i, a in enumerate(outs[-n:])])

    return M.compiled(("step", kind), lambda: _exec(
        "y, f, h, rtol, atol", _dp_lines(2 * n, stage), f"<step {M.name} {kind.value}>",
        "raise _DomainExit from None", _DomainExit=_DomainExit))


def _chord_probe(M):
    """probe(x_a, x_b): whether the chord from x_a to x_b stays in M's chart.

    A large step can vault a hole in the chart with all its stage points
    inside.  The chord is tested at np.linspace's k interior fractions, k =
    ceil(r) clamped to [3, 31] (3 for a NaN r), r the largest coordinate gap
    over 0.03 (1 + the largest |coordinate|).  Kept in M.compiled.
    """
    def build():
        a, b, x = ([f"{c}{i}" for i in range(M.n)] for c in "abx")
        lines, _ = M._inline(M.compiled("values"), x, "_", "return False")
        gap = ", ".join(f"abs({q} - {p})" for p, q in zip(a, b))
        body = [
            f"{', '.join(a)}, = x_a",
            f"{', '.join(b)}, = x_b",
            f"gap = _max({gap})",
            f"scale = 1.0 + _max(_max({', '.join(f'abs({p})' for p in a)}), "
            f"_max({', '.join(f'abs({q})' for q in b)}))",
            "r = gap / (0.03 * scale)",
            "k = 3 if not r > 3.0 else (31 if r > 30.0 else _ceil(r))",
            "step = 1.0 / (k + 1)",
            "for j in range(1, k + 1):",
            "    frac = j * step",
            "    w = 1.0 - frac",
            *(f"    {y} = w * {p} + frac * {q}" for y, p, q in zip(x, a, b)),
            *(f"    {line}" for line in lines),
            "return True",
        ]
        return _exec("x_a, x_b", body, f"<probe {M.name}>", "return False",
                     _ceil=math.ceil)

    return M.compiled("probe", build)


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


def _integrate_core(M, kind, x0, v0, t1, opts, collect, escape=None, steps=None):
    """Integrate the geodesic from (x0, v0) over [0, t1].

    Returns (status, t_end, y_end, segs, counts): the status, the last
    accepted parameter and state (x, v), the accepted steps as
    (t, t_new, y, y_new, f, f_new) when collect is set, and the counts of
    GeodesicPath.meta["integrator"].  Where steps is a list, the size of
    each accepted step is appended to it, for _replay.
    """
    x0 = np.array(_require(M, x0), dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (M.n,):
        raise ValueError(f"velocity must have {M.n} components")
    if not np.all(np.isfinite(v0)):
        raise ValueError("velocity components must be finite")
    t1 = float(t1)
    if not 0.0 < t1 < math.inf:
        raise ValueError("t1 must be positive and finite")
    n = M.n
    rhs = _rhs_factory(M, kind)
    step = _fused_step(M, kind)
    probe = _chord_probe(M)
    rtol, atol = opts.rtol, opts.atol
    # keep steps short enough that the dense interpolant tracks the
    # acceleration, not just the position, of the solution
    max_step = t1 / 48.0 if collect else math.inf
    counts = {"accepted": 0, "rejected": 0, "rewinds": 0, "halvings": 0, "rhs_calls": 2}
    t, y = 0.0, x0.tolist() + v0.tolist()
    try:
        f = rhs(y)
        h_abs = _initial_step(rhs, y, f, t1, max_step, rtol, atol)
    except _DomainExit:
        return "exited-domain", 0.0, np.array(y), [], counts
    segs = []
    status = "completed"
    h = None  # the step of the next attempt from (t, y), None after an accepted one
    while t < t1:
        if h is None:
            if counts["accepted"] >= MAX_STEPS:
                status = "step-limit"
                break
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            # cap the chart displacement of one step so the chord probes below
            # cannot straddle a hole at a scale they do not resolve
            cap = max_step
            speed = max(map(abs, y[n:]))
            if speed > 0.0:
                cap = min(max_step, 0.5 * (1.0 + max(map(abs, y[:n]))) / speed)
            h = cap if h_abs > cap else max(h_abs, min_step)
            rejected = False
        if h < min_step:
            # step-size underflow: stiffness, reported through the status
            status = "step-limit"
            break
        t_new = min(t + h, t1)
        h = t_new - t
        counts["rhs_calls"] += 6
        try:
            y_new, f_new, err = step(y, f, h, rtol, atol)
        except _DomainExit:
            left = "halvings"
        else:
            if not err < 1.0:
                # the error estimate is too large, or NaN: RK45's shrink
                h *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
                rejected = True
                counts["rejected"] += 1
                continue
            if not all(map(math.isfinite, y_new)):
                # the state no longer fits in doubles: it has left every chart
                status = "exited-domain"
                break
            left = None if probe(y[:n], y_new[:n]) else "rewinds"
        if left:
            # a stage or the chord left the chart: retry from (t, y) at half
            # the step tried, down to the exit window or the shortest step at t
            if h <= EXIT_BISECT_TOL or 0.5 * h < min_step:
                status = "exited-domain"
                break
            h *= 0.5
            rejected = False  # as in RK45 restarted from (t, y)
            counts[left] += 1
            continue
        factor = _MAX_FACTOR
        if err > 0.0:
            factor = min(_MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
        if rejected:
            factor = min(1.0, factor)
        counts["accepted"] += 1
        if collect:
            segs.append((t, t_new, y, y_new, f, f_new))
        if steps is not None:
            steps.append(h)
        t, y, f, h_abs, h = t_new, y_new, f_new, h * factor, None
        if escape is not None and max(map(abs, y[:n])) > escape:
            status = "escaped"
            break
    return status, t, np.array(y), segs, counts


def _replay(M, kind, x0, v0, steps):
    """The state (x, v) after the step sizes `steps` from (x0, v0), or None.

    The accepted steps of an _integrate_core run, taken again with the
    same fused step and chord probe but no step control: no initial step,
    no error test, no rejected attempt.  From the run's own start the
    state is the run's endpoint, bit for bit; from a nearby start it is
    the same discrete map's value, which is what a forward difference of
    the endpoint needs (internal numerical differentiation: Bock 1981;
    Hairer, Norsett & Wanner, Solving ODEs I, II.4).  None where a stage
    or a chord leaves the chart.
    """
    n = M.n
    rhs = _rhs_factory(M, kind)
    step = _fused_step(M, kind)
    probe = _chord_probe(M)
    y = [*map(float, x0), *map(float, v0)]
    try:
        f = rhs(y)
        for h in steps:
            # the error estimate is not read; unit tolerances keep it finite
            y_new, f, _ = step(y, f, h, 1.0, 1.0)
            if not probe(y[:n], y_new[:n]):
                return None
            y = y_new
    except _DomainExit:
        return None
    return np.array(y)


_TABLE = ("x(t0)", "h v(t0)", "h^2 a(t0)", "x(t1)", "h v(t1)", "h^2 a(t1)")


def _stack(segs):
    # the accepted steps of _integrate_core as arrays (t0, t1, y0, y1, f0,
    # f1), one row per step: what _eval_pieces reads
    return tuple(map(np.array, zip(*segs)))


def _eval_pieces(pieces, ts, n, velocities=True):
    # quintic Hermite from (x, v, a) at both ends of the step that holds
    # each query time, all times at once; the stored RHS values make the
    # interpolant match the accelerations the solver actually saw.
    # pieces is _stack's; returns (xs, vs), vs None unless velocities is
    # set.  Each time's row is computed alone, so any subset of the times
    # gives the same rows bit for bit.  Raises GeodesicError where a
    # position, or the Hermite data _TABLE of the step it is formed from,
    # do not fit in a double
    t0, t1, y0, y1, f0, f1 = pieces
    k = np.minimum(np.searchsorted(t1, ts, side="left"), len(t1) - 1)
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
    h = h[:, None]
    y0, y1, f0, f1 = y0[k], y1[k], f0[k], f1[k]
    with np.errstate(over="ignore", invalid="ignore"):
        D = (y0[:, :n], h * y0[:, n:], h * h * f0[:, n:],
             y1[:, :n], h * y1[:, n:], h * h * f1[:, n:])
        xs = sum(c[:, None] * d for c, d in zip(H, D))
    # a datum that does not fit in a double leaves its row of xs inf or nan
    bad = np.flatnonzero(~np.isfinite(xs).all(axis=1))
    if bad.size:
        i = bad[0]
        term = next((j for j, d in enumerate(D) if not np.isfinite(d[i]).all()), None)
        raise GeodesicError(
            f"dense output overflows: {'x(t)' if term is None else _TABLE[term]} "
            f"is not finite on the step [{float(t0[k[i]])!r}, {float(t1[k[i]])!r}]")
    if not velocities:
        return xs, None
    Hp = (
        -30.0 * u2 * w2,
        w2 * (1.0 + 5.0 * u) * (1.0 - 3.0 * u),
        0.5 * u * w2 * (2.0 - 5.0 * u),
        30.0 * u2 * w2,
        -u2 * (6.0 - 5.0 * u) * (2.0 - 3.0 * u),
        0.5 * u2 * w * (3.0 - 5.0 * u),
    )
    vs = sum(c[:, None] * d for c, d in zip(Hp, D)) / h
    return xs, vs


SIGMA_STEP = 0.05
DENSE_CAP = 8192


def _refine_by_sigma(M, pieces, ts, xs, vs):
    # subdivide dense-output intervals until the conformal weight e^{2 sigma}
    # changes slowly across each one; reparametrization quadrature needs the
    # weight resolved along the path, not just the positions.  sigma is NaN
    # outside the chart, so no gap there counts as too large.  A gap that
    # passes keeps its ends, so it passes in every later round: each round
    # tests only the frontier, the halves of the gaps the round before
    # bisected, and evaluates positions at their midpoints only.  A gap is
    # (left time, right time, 2 sigma at both ends, key of its left end),
    # the key being the sample index plus the dyadic fraction of the
    # original gap, exact in a double, which orders the one merge at the
    # end; the inserted samples' velocities come there in one pass
    n = xs.shape[1]
    s2 = 2.0 * M._values_many(xs)[:, -1]
    gaps = (ts[:-1], ts[1:], s2[:-1], s2[1:], np.arange(len(ts) - 1.0))
    width, size, added = 1.0, len(ts), []
    for _ in range(16):
        bad = np.abs(gaps[3] - gaps[2]) > SIGMA_STEP
        count = np.count_nonzero(bad)
        if count == 0 or size + count > DENSE_CAP:
            break
        t_lo, t_hi, s_lo, s_hi, key = (a[bad] for a in gaps)
        mid = 0.5 * (t_lo + t_hi)
        xm, _ = _eval_pieces(pieces, mid, n, velocities=False)
        sm = 2.0 * M._values_many(xm)[:, -1]
        width *= 0.5
        added.append((mid, xm, key + width))
        size += count
        gaps = tuple(map(np.concatenate, ((t_lo, mid), (mid, t_hi), (s_lo, sm),
                                          (sm, s_hi), (key, key + width))))
    if added:
        tm, xm, km = map(np.concatenate, zip(*added))
        order = np.argsort(np.concatenate((np.arange(len(ts)), km)))
        ts = np.concatenate((ts, tm))[order]
        xs = np.concatenate((xs, xm))[order]
        vs = np.concatenate((vs, _eval_pieces(pieces, tm, n)[1]))[order]
    return ts, xs, vs


def integrate_geodesic(M, kind, x0, v0, t1, opts=None):
    """Integrate the geodesic of the given connection from (x0, v0) to t1.

    Returns a GeodesicPath with dense_samples evenly spaced samples over the
    integrated parameter range; completed paths get extra samples inserted
    where e^{2 sigma} moves quickly between neighbours, so reparametrization
    quadrature stays accurate on stiff conformal factors.  Leaving the chart
    or exhausting the step budget is reported through the status field,
    never raised; a step that holds a sample and whose Hermite data h v
    or h^2 a do not fit in a double (steps of 1e154 and more) raises
    GeodesicError naming it.
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
        pieces = _stack(segs)
        ts = np.linspace(0.0, t_end, opts.dense_samples)
        xs, vs = _eval_pieces(pieces, ts, n)
        xs[0], vs[0] = np.asarray(x0, dtype=float), np.asarray(v0, dtype=float)
        xs[-1], vs[-1] = y_end[:n], y_end[n:]
        if status == "completed":
            ts, xs, vs = _refine_by_sigma(M, pieces, ts, xs, vs)
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


_DIVERGES = ("parameter transform diverges: the conformal weight overflows "
             "or underflows along the path")


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
    # insensitive to grid spacing, per-interval error O(h^7).  The weight
    # is checked before any derivative is evaluated, and the acceleration
    # is the integrator's own spray kernel
    P = M.at_many(xs)
    with np.errstate(over="ignore"):
        F = np.exp(sign * P.sigma)
    if not (np.all(np.isfinite(F)) and np.all(F > 0.0)):
        raise GeodesicError(_DIVERGES)
    acc = M.spray(in_kind).many(np.hstack([xs, vs]))[:, -M.n:]
    with np.errstate(over="ignore", invalid="ignore"):
        lp = sign * np.einsum("ni,ni->n", P.dsigma, vs)
        lpp = sign * (np.einsum("ni,nij,nj->n", vs, P.d2sigma, vs)
                      + np.einsum("ni,ni->n", P.dsigma, acc))
        Fp = lp * F
        Fpp = (lpp + lp * lp) * F
    if not (np.all(np.isfinite(Fp)) and np.all(np.isfinite(Fpp))):
        raise GeodesicError(_DIVERGES)
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

    Acceleration is estimated from the sampled positions by a local
    quartic fit through five samples, fourth-order accurate (on a uniform
    grid, the classical five-point stencil up to rounding); velocities are
    taken from the stored samples.
    """
    kind = ConnKind(kind)
    ts = np.asarray(path.ts, dtype=float)
    xs = np.asarray(path.xs, dtype=float)
    vs = np.asarray(path.vs, dtype=float)
    m = len(ts)
    if m < 5:
        raise ValueError("need at least 5 samples for a fourth-order residual")
    strides = [s for s in (1, 2, 4, 8) if 4 * s <= m - 1]
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
        tau = ts[win] - ts[cs][:, None]
        scale = np.abs(tau).max(axis=1)
        V = (tau / scale[:, None])[..., None] ** np.arange(5)
        acc = 2.0 * np.linalg.solve(V, xs[win])[:, 2] / (scale * scale)[:, None]
        res = acc + quad[np.searchsorted(at, cs)]
        # every stride overestimates the true defect (truncation and sample
        # noise only add), so the smallest estimate is the sharpest
        best = min(best, float(np.abs(res).max()))
    return best
