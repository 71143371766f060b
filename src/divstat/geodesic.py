"""Geodesic integration and the parameter exchange with the conformal metric.

Geodesics of any of the four connections solve x'' + Gamma(x', x') = 0 in
the chart.  The integrator is an adaptive Dormand-Prince 5(4) loop on
Python floats with the coefficients and step controller of scipy's RK45,
so its steps follow RK45's up to rounding; an attempt that leaves the
chart, at a stage or along its chord, is retried at half its step, down to
the exit window EXIT_BISECT_TOL, so the exit parameter is sharp.  A retry
is a rejection like one by the error estimate: the step accepted after it
does not grow (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  The
checked integration, _integrate_core, is the one run behind
integrate_geodesic and exp_map, so both answer with the same steps.  It
collects them: the integrator keeps one knot per step end, (t, x, v, a)
with the start as knot 0, and the dense output is the quintic Hermite
between consecutive knots (_eval_pieces); the error control sizes the
steps, and one longer than t1 / 48 also passes a test of its interpolant
at its midpoint (_dense_test).  The whole loop is one function emitted per
manifold and connection (_integrator, see there), with the chart test and
the spray inlined at every stage.  _run calls it on a list of floats with
no argument check, and without knots also with no dense test, which makes
it the shooting solve's trial integrator, and _replay runs it on the step
sizes an integration recorded, with no step control, which makes it the
shooting Jacobian's column integrator.  The tests hold a Python loop over
the generic step as its reference (tests/integrator_reference.py).

Because nabla is projectively equivalent to the Levi-Civita connection of
gtilde = e^sigma g, a nabla-geodesic becomes a gtilde-geodesic under the
parameter change ds/dt = e^{2 sigma} along the path (and back with the
reciprocal weight).  On a nabla or lc-tilde path the integrator carries
the new parameter s as a quadrature state: each accepted step adds the
order-5 sum of the weight at its stage points, s feeds back into no stage
and no error estimate, and each knot ends with s (GeodesicPath.knots).
reparam_to_tilde / reparam_from_tilde read s at the knots and, between
them, its quintic Hermite from the weight and its first parameter
derivative, through the same _eval_pieces.  The parameter change reads
the geometry of a path's knots and samples, and geodesic_residual that of
its samples, in batched calls; geodesic_residual takes Gamma(v, v) from
the connection's spray kernel (spray(kind).many), never building the
connection tensors.  Batched jets come from numpy's ufuncs, whose exp and
power round differently from math's on a few percent of inputs, so their
results can differ from a point-by-point evaluation in the last bits.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .exprcore import _exec_kernel
from .manifold import ConnKind, OutOfDomainError, _count, _positive

# unreachable parameter gap left by the exit bisection
EXIT_BISECT_TOL = 1e-10
# accepted steps after which an integration stops, status "step-limit"
MAX_STEPS = 10**6
# the kinds whose paths carry the new parameter s = int e^{c sigma}, by c:
# e^{2 sigma} takes nabla-geodesics to gtilde-geodesics, its reciprocal back
_WEIGHT = {ConnKind.NABLA: 2.0, ConnKind.LC_G_TILDE: -2.0}


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
    """Internal: a stage or chord point of the emitted integrator left the chart."""


@dataclass
class IntegratorOpts:
    rtol: float = 1e-9
    atol: float = 1e-11
    dense_samples: int = 129

    def __post_init__(self):
        self.rtol, self.atol = _positive("rtol", self.rtol), _positive("atol", self.atol)
        self.dense_samples = _count("dense_samples", self.dense_samples, 2)


@dataclass
class GeodesicPath:
    """Sampled solution of the geodesic equation for one connection.

    status is "completed", "exited-domain" (stopped just inside the chart
    boundary, or at the last state before one that overflows), or
    "step-limit" (budget or step-size underflow; the prefix that was
    integrated is still returned).  meta["integrator"] counts the
    accepted steps, the attempts the error estimate rejected, the chart
    retries, each at half the step tried (rewinds where an attempt's
    chord left the chart, halvings where one of its stages or its dense
    test's midpoint did), the attempts the dense test rejected
    (dense_rejected), and the RHS evaluations: 2 for the first
    derivative and step size, 6 per step attempt, also where an attempt
    left the chart before its last stage, and 1 per midpoint the dense
    test evaluates.  knots is (ts, ss, xs, vs) at the integrator's step
    ends, the start first: the parameter, the new parameter of
    reparam_to_tilde / reparam_from_tilde, the position and the velocity,
    each a column slice of the integrator's knot array; None on lc and bar
    paths and on a path with no accepted step.
    """

    kind: ConnKind
    ts: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    status: str
    meta: dict = field(default_factory=dict)
    knots: tuple = None

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
# a passed dense test caps the step's growth at 0.9 de^{-1/4}
_DENSE_EXPONENT = -1 / 4


def _combo(coeffs, i):
    # sum_s c_s k_s[i] over the nonzero c_s, left to right
    return " + ".join(f"k{s}_{i} * {c!r}" for s, c in enumerate(coeffs, start=1) if c != 0.0)


def _fold(target, op, items):
    # target = max(*items) (op ">") or min(*items) (op "<") as conditionals:
    # max(a, b) is b if b > a else a and min(a, b) is b if b < a else a, so
    # the fold is the builtin's result bit for bit, NaN, -0.0 and the
    # infinities included, without a call.  An item that is not a name is
    # evaluated once, into _f; only the first item may read target
    lines = [f"{target} = {items[0]}"] if items[0] != target else []
    for b in items[1:]:
        if not b.isidentifier():
            lines.append(f"_f = {b}")
            b = "_f"
        lines.append(f"{target} = {b} if {b} {op} {target} else {target}")
    return lines


def _step_lines(M, kind):
    """One Dormand-Prince 5(4) step of the geodesic equation, unindented.

    Returns (lines, sigmas).  The lines read the state y0, ..., y{N-1}
    (N = 2n, positions first), its derivative k1_0, ..., k1_{N-1} and the
    step h, and set the new state n0, ..., n{N-1} and its derivative
    k7_0, ..., k7_{N-1}.  Stage s inlines M's chart test and kind's spray
    (ManifoldDef._inline) at its positions z{s}_i and velocities k{s}_i,
    the first n derivatives; the spray's last n values are the other n.
    The spray lists the values of g and sigma first: sigmas holds the
    name (or literal) of sigma at stages 2, ..., 7.  Where a stage leaves
    the chart the lines raise _DomainExit, or ArithmeticError or
    ValueError.  Zero tableau entries are left out.
    """
    n = M.n
    spray = M.spray(kind)
    sigmas = []

    def stage(s, state):
        args = [f"z{s}_{i}" for i in range(n)] + [f"k{s}_{i}" for i in range(n)]
        lines, outs = M._inline(spray, args, f"_{s}", "raise _DomainExit")
        sigmas.append(outs[n * n])
        return ([f"{a} = {e}" for a, e in zip(args, state)] + lines
                + [f"k{s}_{n + i} = {a}" for i, a in enumerate(outs[-n:])])

    N = 2 * n
    lines = []
    for s, row in enumerate(_DP_A, start=2):
        lines += stage(s, [f"y{i} + ({_combo(row, i)}) * h" for i in range(N)])
    lines += [f"n{i} = y{i} + h * ({_combo(_DP_B, i)})" for i in range(N)]
    return lines + stage(7, [f"n{i}" for i in range(N)]), sigmas


def _probe_lines(M):
    """Whether the chord from y to n stays in M's chart, unindented.

    A large step can vault a hole in the chart with all its stage points
    inside.  The chord from the positions y0, ..., y{n-1} to n0, ...,
    n{n-1} is tested at np.linspace's k interior fractions, k = ceil(r)
    clamped to [3, 31] (3 for a NaN r), r the largest coordinate gap over
    0.03 (1 + the largest |coordinate|), y's being far and n's far_new.
    The lines raise _DomainExit, or ArithmeticError or ValueError, where a
    point of the chord is outside.
    """
    n = M.n
    a, b, x = ([f"{c}{i}" for i in range(n)] for c in "ync")
    lines, _ = M._inline(M.compiled("values"), x, "_p", "raise _DomainExit")
    return [
        *_fold("gap", ">", [f"abs({q} - {p})" for p, q in zip(a, b)]),
        *_fold("far_new", ">", [f"abs({q})" for q in b]),
        "scale = 1.0 + (far_new if far_new > far else far)",
        "r = gap / (0.03 * scale)",
        "k = 3 if not r > 3.0 else (31 if r > 30.0 else _ceil(r))",
        "frac_step = 1.0 / (k + 1)",
        "for i in range(1, k + 1):",
        "    frac = i * frac_step",
        "    w = 1.0 - frac",
        *(f"    {c} = w * {p} + frac * {q}" for c, p, q in zip(x, a, b)),
        *(f"    {line}" for line in lines),
    ]


def _indent(lines, depth):
    return [" " * (4 * depth) + line for line in lines]


def _integrator(M, kind):
    """The whole integration of kind's geodesics on M, as one function.

    run(y, steps, replay, t1, rtol, atol, escape, max_steps, rows)
    starts from the state y, the list of 2n floats (x, v), and takes its
    own start: the first derivative f, and, integrating, the first step
    h_abs by scipy's select_initial_step (_rms's norm), each of the two
    evaluations being the domain test and then the spray's get.  It
    returns (status, t, y, f, h_abs, accepted, rejected, rewinds,
    halvings, dense_rejected, rhs_calls, left, err): the status, the last
    accepted parameter, state and derivative, the step the controller
    proposes from that state (None in a replay), the counts of
    GeodesicPath.meta["integrator"] as local ints, and how the last
    attempt ended: left is 1 where one of its stages or its dense test's
    midpoint left the chart, 2 where its chord did, else 0, and err is
    the error estimate of the last attempt that computed one (None before
    any, and in a replay).  Where either start evaluation leaves the
    chart it returns ("exited-domain", 0.0, y, None, None, 0, 0, 0, 0, 0,
    2, 1, None).

    Integrating (replay false), it runs the adaptive loop: the
    Dormand-Prince step of _step_lines with RK45's controller from the first
    step h_abs, the chord probe of _probe_lines, the finiteness test of the
    new state, the chart retries at half the step, the step budget max_steps
    and the escape radius.  A chart retry, like a rejection by the error
    estimate or the dense test, caps the growth of the step accepted after
    it at 1, RK45's min(1, factor).  Where rows is a list, it gets one knot
    (t, x, v, a[, s]) per step end, a the acceleration and s there for kind
    nabla or lc-tilde (_WEIGHT): the start's once the start is in the
    chart, then one per accepted step; and a step longer than t1 / 48 also
    passes the dense test (_dense_test): a finite de of 1 or more rejects
    it, as the error estimate does, and a smaller one caps its growth at
    0.9 de^{-1/4}.  The size of each accepted step is appended to the list
    steps, unless that is None.  Replaying, it takes the sizes in steps one
    by one with no step control, and the status is "exited-domain" as soon
    as a stage or a chord leaves the chart.

    The emitted code is what every attempt runs: the stages and the probe,
    written once from the plans of the spray, values and domain kernels,
    the error estimate and the bookkeeping, each max and min written as
    conditionals (_fold), bit for bit the builtin's without its call.  A
    state's reach max |x_i| is folded once, at the start or by the probe
    that accepts it.  The function is compiled on the first integration of
    kind and kept in M's cache (M.compiled); a later call with a ConnKind
    reads it from there as it stands, with no ConnKind(kind) and no build
    closure, which took two thirds of such a call's time.
    """
    run = M._compiled.get(("loop", kind))
    if run is None:
        kind = ConnKind(kind)
        run = M.compiled(("loop", kind), lambda: _build_integrator(M, kind))
    return run


def _start_lines(n, quad):
    """The start of a run, unindented: its first derivative and first step.

    The lines read the state y0, ..., y{N-1} (N = 2n) and its list y, and
    set the derivative k1_0, ..., k1_{N-1}, where quad sigma at y as q and
    the new parameter s = 0, and, unless replaying, h_abs: scipy's
    select_initial_step for an order-4 error estimate from t = 0 (Hairer,
    Norsett & Wanner, II.4) with no max_step, with the RMS norm _rms.
    Each of the two evaluations is the domain test and then the spray's
    get, and the lines return the exit result where either leaves the
    chart.  Else, where rows is a list, they append the start's knot
    (0.0, y, a), with s where quad.
    """
    N = 2 * n
    join = ", ".join
    y, f, s = ([f"{c}{i}" for i in range(N)] for c in ("y", "k1_", "s"))
    leave = "    return 'exited-domain', 0.0, y, None, None, 0, 0, 0, 0, 0, 2, 1, None"
    f1 = [f"z[{n + i}]" for i in range(n)] + [f"out[{i - n}]" for i in range(n)]
    return [
        "out = _spray(y) if _domain(y) else None",
        "if out is None:",
        leave,
        f"{join(f)} = {join(y[n:])}, *out[{-n}:]",
        *([f"q, s = out[{n * n}], 0.0"] if quad else []),
        "h_abs = None",
        "if not replay:",
        f"    {join(s)} = {join(f'atol + abs({a}) * rtol' for a in y)}",
        f"    d0 = _rms(({join(f'{a} / {c}' for a, c in zip(y, s))}))",
        f"    d1 = _rms(({join(f'{a} / {c}' for a, c in zip(f, s))}))",
        "    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1",
        "    h0 = t1 if t1 < h0 else h0",
        f"    z = [{join(f'{a} + h0 * {b}' for a, b in zip(y, f))}]",
        "    out = _spray(z) if _domain(z) else None",
        "    if out is None:",
        f"    {leave}",
        "    # h0 is 0 where d1 is infinite; numpy's division would give inf there",
        f"    d2 = _rms(({join(f'({b} - {a}) / {c}' for a, b, c in zip(f, f1, s))})) / h0"
        " if h0 else _inf",
        "    if d1 <= 1e-15 and d2 <= 1e-15:",
        *_indent(_fold("h1", ">", ["1e-6", "h0 * 1e-3"]), 2),
        "    else:",
        f"        h1 = (0.01 / (d2 if d2 > d1 else d1)) ** {1 / 5!r}",
        *_indent(_fold("h_abs", "<", ["100 * h0", "h1", "t1"]), 1),
        "if rows is not None:",
        f"    rows.append((0.0, {join(y + f[n:])}{', s' if quad else ''}))",
    ]


def _dense_test(M, kind):
    """The dense test of a collected step longer than t1 / 48, as a function.

    dense(x0, v0, a0, x1, v1, a1, h, rtol, atol[, ds, s, q, sigma_new])
    reads the position, velocity and acceleration at the step's ends, n
    floats each, its size, and on nabla and lc-tilde (_WEIGHT) the step's
    increment ds of s from s, and sigma at its ends.  It evaluates the chart
    and the spray once, at the midpoint of the step's quintic Hermite
    interpolant (Hairer, Norsett & Wanner, II.6): None where that does not
    fit in a double (no test), -1.0 where it is outside the chart, else de,
    h times the defect of the interpolant's acceleration from the spray's in
    the velocity's error norm, times max(1, e^{-4 sigma}) on nabla, whose
    gtilde velocity sees the defect that much larger, and on nabla and
    lc-tilde at least ds's gap from Simpson's rule on e^{c sigma} over atol
    + |s + ds| rtol; 0 where a weight overflows.  The order of max's
    arguments decides a NaN.
    """
    n, domain, spray = M.n, M.domain, M.spray(kind).get
    nabla, c = kind is ConnKind.NABLA, _WEIGHT.get(kind)
    exp, isfinite, coords = math.exp, math.isfinite, range(n)

    # plain loops, and each max written out as the builtin decides it
    # (its first argument unless the second is larger), which makes a call
    # about a quarter cheaper than comprehensions and builtin calls
    def dense(x0, v0, a0, x1, v1, a1, h, rtol, atol, ds=None, s=None, q=None, sigma_new=None):
        hh = h * h
        m = [0.0] * (2 * n)
        for i in coords:
            m[i] = (0.5 * (x0[i] + x1[i]) + 0.15625 * h * (v0[i] - v1[i])
                    + 0.015625 * hh * (a0[i] + a1[i]))
            m[n + i] = (1.875 * (x1[i] - x0[i]) - 0.4375 * h * (v0[i] + v1[i])
                        + 0.03125 * hh * (a1[i] - a0[i])) / h
        if not all(map(isfinite, m)):
            return None
        out = spray(m) if domain(m) else None
        if out is None:
            return -1.0
        try:
            gaps = []
            for i in coords:
                a, b = abs(v0[i]), abs(v1[i])
                gaps.append(h * (out[i - n] - (1.5 * (v1[i] - v0[i]) / h - 0.25 * (a0[i] + a1[i])))
                            / (atol + (b if b > a else a) * rtol))
            de = _rms(gaps)
            if nabla:
                w = exp(-4.0 * out[n * n])
                de *= w if w > 1.0 else 1.0
            if c is not None:
                simpson = h / 6.0 * (exp(c * q) + 4.0 * exp(c * out[n * n]) + exp(c * sigma_new))
                gap = abs(ds - simpson) / (atol + abs(s + ds) * rtol)
                de = gap if gap > de else de
        except OverflowError:
            de = 0.0
        return de

    return dense


def _shrink(est):
    # RK45's shrink of a step its estimate est rejects:
    # h *= max(_MIN_FACTOR, _SAFETY est^_ERROR_EXPONENT), folded as in _fold
    return [f"_f = {_SAFETY!r} * {est} ** {_ERROR_EXPONENT!r}",
            f"h *= _f if _f > {_MIN_FACTOR!r} else {_MIN_FACTOR!r}"]


def _build_integrator(M, kind):
    n = M.n
    N = 2 * n
    join = ", ".join
    step, sigmas = _step_lines(M, kind)
    quad = kind in _WEIGHT
    y, f, new, f_new = ([f"{c}{i}" for i in range(N)] for c in ("y", "k1_", "n", "k7_"))
    dense = ["if not left and rows is not None:"]
    ends = (y[:n], y[n:], f[n:], new[:n], new[n:], f_new[n:])
    args = join(f"({join(a)},)" for a in ends) + ", h, rtol, atol"
    if quad:
        # s's increment over the step: e^{c sigma} at stages 1 (q) to 6 with
        # the order-5 weights; a weight that overflows makes it infinite, not
        # the path end
        terms = " + ".join(f"_exp({_WEIGHT[kind]!r} * {q}) * {b!r}"
                           for q, b in zip(["q", *sigmas], _DP_B) if b != 0.0)
        dense += ["    try:", f"        ds = h * ({terms})", "    except OverflowError:",
                  "        ds = _inf"]
        args += f", ds, s, q, {sigmas[5]}"
    # _dense_test's function gives None (no test), -1.0 (outside) or de
    dense += [
        "    if h > tested:",
        f"        de = _dense({args})",
        "        if de is None:",
        "            de = 0.0",
        "        else:",
        "            calls += 1",
        "            if de < 0.0:",
        "                left = 1",
        "            elif 1.0 <= de < _inf:",
        *_indent(_shrink("de"), 4),
        "                shrunk = True",
        "                dense_rejected += 1",
        "                continue",
    ]
    errors = []
    for i in range(N):
        errors += _fold("mag", ">", [f"abs(y{i})", f"abs(n{i})"])
        errors.append(f"e{i} = ({_combo(_DP_E, i)}) * h / (atol + mag * rtol)")
    finite = " and ".join(f"_isfinite({a})" for a in new)
    catch = "except (ArithmeticError, ValueError, _DomainExit):"
    body = [
        f"{join(y)}, = y",
        *_start_lines(n, quad),
        "# the reach max |x_i| of the state y; the chord probe gives the next one's",
        *_fold("far", ">", [f"abs({a})" for a in y[:n]]),
        "t = 0.0",
        "# the collected steps longer than this pass the dense test",
        "tested = t1 / 48.0",
        "accepted = rejected = rewinds = halvings = dense_rejected = j = 0",
        "calls = 2",
        "status = 'completed'",
        "h = None  # the step of the next attempt from (t, y), None after an accepted one",
        "left = 0",
        "err = None",
        "while True:",
        "    if replay:",
        "        if j == len(steps):",
        "            break",
        "        h = steps[j]",
        "        j += 1",
        "    else:",
        "        if not t < t1:",
        "            break",
        "        if h is None:",
        "            if accepted >= max_steps:",
        "                status = 'step-limit'",
        "                break",
        "            min_step = 10 * (_nextafter(t, _inf) - t)",
        "            # cap the chart displacement of one step so the chord probes",
        "            # cannot straddle a hole at a scale they do not resolve",
        "            cap = _inf",
        *_indent(_fold("speed", ">", [f"abs({a})" for a in y[n:]]), 3),
        "            if speed > 0.0:",
        "                cap = 0.5 * (1.0 + far) / speed",
        "            h = cap if h_abs > cap else (min_step if min_step > h_abs else h_abs)",
        "            shrunk = False",
        "        if h < min_step:",
        "            # step-size underflow: stiffness, reported through the status",
        "            status = 'step-limit'",
        "            break",
        *_indent(_fold("t_new", "<", ["t + h", "t1"]), 2),
        "        h = t_new - t",
        "        calls += 6",
        "    try:",
        *_indent(step, 2),
        f"    {catch}",
        "        left = 1",
        "    else:",
        "        left = 0",
        "        if not replay:",
        *_indent(errors, 3),
        f"            err = _sqrt({' + '.join(f'e{i} * e{i}' for i in range(N))}) / {N ** 0.5!r}",
        "            if not err < 1.0:",
        "                # the error estimate is too large, or NaN: RK45's shrink",
        *_indent(_shrink("err"), 4),
        "                shrunk = True",
        "                rejected += 1",
        "                continue",
        f"            if not ({finite}):",
        "                # the state no longer fits in doubles: it has left every chart",
        "                status = 'exited-domain'",
        "                break",
        "            de = 0.0",
        "        try:",
        *_indent(_probe_lines(M), 3),
        f"        {catch}",
        "            left = 2",
        *_indent(dense, 2),
        "    if left:",
        "        # a stage or the dense test's midpoint (1), or the chord (2), left",
        "        # the chart: retry from (t, y) at half the step tried, down to the",
        "        # exit window or the shortest step; a rejection like the others,",
        "        # so the step accepted after it does not grow",
        f"        if replay or h <= {EXIT_BISECT_TOL!r} or 0.5 * h < min_step:",
        "            status = 'exited-domain'",
        "            break",
        "        h *= 0.5",
        "        shrunk = True",
        "        if left == 1:",
        "            halvings += 1",
        "        else:",
        "            rewinds += 1",
        "        continue",
        "    if not replay:",
        f"        factor = {_MAX_FACTOR!r}",
        "        if err > 0.0:",
        *_indent(_fold("factor", "<", ["factor", f"{_SAFETY!r} * err ** {_ERROR_EXPONENT!r}"]), 3),
        "        if 0.0 < de < _inf:",
        *_indent(_fold("factor", "<", ["factor", f"{_SAFETY!r} * de ** {_DENSE_EXPONENT!r}"]), 3),
        "        if shrunk:",
        "            factor = factor if factor < 1.0 else 1.0",
        "        accepted += 1",
        "        if rows is not None:",
        *(["            s += ds", f"            q = {sigmas[5]}"] if quad else []),
        f"            rows.append((t_new, {join(new + f_new[n:])}{', s' if quad else ''}))",
        "        if steps is not None:",
        "            steps.append(h)",
        "        t, h_abs, h = t_new, h * factor, None",
        f"    {join(y)}, far = {join(new)}, far_new",
        f"    {join(f)} = {join(f_new)}",
        "    if escape is not None and far > escape:",
        "        status = 'escaped'",
        "        break",
        f"return (status, t, [{join(y)}], [{join(f)}], h_abs, accepted, rejected, rewinds,"
        " halvings, dense_rejected, calls, left, err)",
    ]
    src = ("def _kernel(y, steps, replay, t1=0.0, rtol=1.0, atol=1.0, escape=None, max_steps=0,"
           " rows=None):\n"
           + "".join(f"    {line}\n" for line in body))
    code = compile(src, f"<loop {M.name} {kind.value}>", "exec")
    return _exec_kernel(code, math, _isfinite=math.isfinite,
                        _ceil=math.ceil, _nextafter=math.nextafter, _inf=math.inf,
                        _DomainExit=_DomainExit, _rms=_rms, _dense=_dense_test(M, kind),
                        _domain=M.domain, _spray=M.spray(kind).get)


def _rms(xs):
    sq = sum(a * a for a in xs)
    if sq == math.inf:
        # the squares overflow: rescale by the largest magnitude, so that
        # the norm is infinite only where it does not fit in a double
        big = max(map(abs, xs))
        if big < math.inf:
            return big * math.sqrt(sum((a / big) ** 2 for a in xs) / len(xs))
    return math.sqrt(sq) / len(xs) ** 0.5


_COUNTS = ("accepted", "rejected", "rewinds", "halvings", "dense_rejected", "rhs_calls")


def _integrate_core(M, kind, x0, v0, t1, opts):
    """The checked integration from (x0, v0) over [0, t1], with its knots.

    The one run behind integrate_geodesic and exp_map.  Returns (status,
    t_end, y_end, knots, counts): the status, the last accepted parameter
    and state (x, v), the knots (t, x, v, a[, s]) of the start and of every
    accepted step's end (none where the start leaves the chart), and the
    counts of GeodesicPath.meta["integrator"].  The arguments are checked
    here, on floats; then _run makes one call of the emitted integrator.
    """
    x0 = M.at(x0).x
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (M.n,):
        raise ValueError(f"velocity must have {M.n} components")
    v0 = v0.tolist()
    if not all(map(math.isfinite, v0)):
        raise ValueError("velocity components must be finite")
    t1 = _positive("t1", t1)
    knots = []
    status, t, y, _, _, *counts, _, _ = _run(M, kind, [*x0, *v0], t1, opts, rows=knots)
    return status, t, np.array(y), knots, dict(zip(_COUNTS, counts))


def _run(M, kind, y, t1, opts, escape=None, steps=None, rows=None):
    """One integration over [0, t1] from the state y, unchecked.

    y is the list of 2n Python floats (x, v); nothing about it, t1 or opts
    is checked, so the caller answers for a start in the chart with a
    finite velocity: _integrate_core, which checks its arguments and
    passes rows, or a shooting trial, which passes none and so runs no
    dense test.  Returns the emitted integrator's tuple (_integrator) as
    it stands.  Where steps is a list the size of each accepted step is
    appended to it, for _replay, and where rows is a list it gets the
    knots.
    """
    return _integrator(M, kind)(y, steps, False, t1, opts.rtol, opts.atol, escape, MAX_STEPS,
                                rows)


def _replay(M, kind, x0, v0, steps):
    """The state (x, v) after the step sizes `steps` from (x0, v0), or None.

    The accepted steps of a _run run, taken again by
    the same emitted integrator (_integrator) with no step control: no
    initial step, no error test, no rejected attempt.  From the run's own
    start the state is the run's endpoint, bit for bit; from a nearby
    start it is the same discrete map's value, which is what a forward
    difference of the endpoint needs (internal numerical differentiation:
    Bock 1981; Hairer, Norsett & Wanner, Solving ODEs I, II.4).  The state
    is a list of 2n floats, None where the start, a stage or a chord
    leaves the chart.  x0 and v0 are sequences of Python floats, not
    checked: one call of the emitted integrator takes its first derivative
    and replays.
    """
    status, _, y, *_ = _integrator(M, kind)([*x0, *v0], steps, True)
    return y if status == "completed" else None


_TABLE = ("x(t0)", "h v(t0)", "h^2 a(t0)", "x(t1)", "h v(t1)", "h^2 a(t1)")


def _eval_pieces(knots, ts):
    # quintic Hermite from (x, v, a) at both ends of the step that holds
    # each query time, all times at once; the stored RHS values make the
    # interpolant match the accelerations the solver actually saw.
    # knots is (t, X, V, A): the step ends and, at each, the (m, n) rows of
    # x, v and a.  The Hermite data _TABLE are formed for the steps that
    # hold a time only, on (n, N) coordinate columns; returns (xs, vs),
    # each (N, n), their transposes.  Each time's row is computed alone, so
    # any subset of the times gives the same rows bit for bit.  Raises
    # GeodesicError where a position, or the Hermite data of the step it
    # is formed from, do not fit in a double
    t, X, V, A = knots
    k = np.minimum(np.searchsorted(t[1:], ts, side="left"), len(t) - 2)
    t0 = t[k]
    h = t[k + 1] - t0
    u = (np.asarray(ts, dtype=float) - t0) / h
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
    with np.errstate(over="ignore", invalid="ignore"):
        hh = h * h
        D = (X[k].T, V[k].T * h, A[k].T * hh, X[k + 1].T, V[k + 1].T * h, A[k + 1].T * hh)
        xs = sum(c * d for c, d in zip(H, D))
    # a datum that does not fit in a double leaves its column of xs inf or nan
    bad = np.flatnonzero(~np.isfinite(xs).all(axis=0))
    if bad.size:
        i = bad[0]
        term = next((j for j, d in enumerate(D) if not np.isfinite(d[:, i]).all()), None)
        raise GeodesicError(
            f"dense output overflows: {'x(t)' if term is None else _TABLE[term]} "
            f"is not finite on the step [{float(t0[i])!r}, {float(t[k[i] + 1])!r}]")
    Hp = (
        -30.0 * u2 * w2,
        w2 * (1.0 + 5.0 * u) * (1.0 - 3.0 * u),
        0.5 * u * w2 * (2.0 - 5.0 * u),
        30.0 * u2 * w2,
        -u2 * (6.0 - 5.0 * u) * (2.0 - 3.0 * u),
        0.5 * u2 * w * (3.0 - 5.0 * u),
    )
    vs = sum(c * d for c, d in zip(Hp, D)) / h
    return xs.T, vs.T


def integrate_geodesic(M, kind, x0, v0, t1, opts=None):
    """Integrate the geodesic of the given connection from (x0, v0) to t1.

    Returns a GeodesicPath with dense_samples evenly spaced samples over the
    integrated parameter range.  A nabla or lc-tilde path also keeps the
    integrator's step ends as its knots, with the new parameter of the
    parameter change there, which the integrator carries as a quadrature.
    Leaving the chart or exhausting the step budget is reported through
    the status field, never raised; a step that holds a sample and whose
    Hermite data h v or h^2 a do not fit in a double (steps of 1e154 and
    more) raises GeodesicError naming it.
    """
    opts = opts if opts is not None else IntegratorOpts()
    kind = ConnKind(kind)
    status, t_end, y_end, knots, counts = _integrate_core(M, kind, x0, v0, t1, opts)
    n = M.n
    if len(knots) < 2:
        ts = np.zeros(1)
        xs = y_end[:n].reshape(1, n).copy()
        vs = y_end[n:].reshape(1, n).copy()
        knots = None
    else:
        K = np.array(knots)
        t, X, V = K[:, 0], K[:, 1:1 + n], K[:, 1 + n:1 + 2 * n]
        ts = np.linspace(0.0, t_end, opts.dense_samples)
        xs, vs = _eval_pieces((t, X, V, K[:, 1 + 2 * n:1 + 3 * n]), ts)
        xs[0], vs[0] = np.asarray(x0, dtype=float), np.asarray(v0, dtype=float)
        xs[-1], vs[-1] = y_end[:n], y_end[n:]
        knots = (t, K[:, -1], X, V) if kind in _WEIGHT else None
    return GeodesicPath(kind=kind, ts=ts, xs=xs, vs=vs, status=status,
                        meta={"integrator": counts}, knots=knots)


def exp_map(M, kind, p, v, opts=None):
    """Endpoint of the unit-time geodesic from p with initial velocity v.

    The last state of integrate_geodesic's run to t = 1, with its steps,
    so its xs[-1] bit for bit; ExitedDomainError (t_exit its ts[-1]) or
    StepLimitError where that path ends "exited-domain" or "step-limit".
    """
    opts = opts if opts is not None else IntegratorOpts()
    status, t_end, y_end, _, _ = _integrate_core(M, kind, p, v, 1.0, opts)
    if status == "exited-domain":
        raise ExitedDomainError(f"geodesic left the domain of {M.name} at parameter {t_end:.12g}",
                                t_exit=t_end)
    if status == "step-limit":
        raise StepLimitError(f"geodesic integration on {M.name} stopped at parameter {t_end:.12g}")
    return y_end[:M.n].copy()


_DIVERGES = ("parameter transform diverges: the conformal weight overflows "
             "or underflows along the path")


def _weight(c):
    # e^c, GeodesicError where it is not a positive double
    with np.errstate(over="ignore"):
        F = np.exp(c)
    if not (np.all(np.isfinite(F)) and np.all(F > 0.0)):
        raise GeodesicError(_DIVERGES)
    return F


def _check_increasing(s):
    # where the weight spans more orders of magnitude than a double holds,
    # the later increments vanish in the sum
    if not np.all(np.isfinite(s)):
        raise GeodesicError(_DIVERGES)
    if np.any(np.diff(s) <= 0.0):
        raise GeodesicError("parameter transform loses resolution: the new parameter "
                            "stops increasing along the path")


def _reparam(M, path, out_kind, in_kind):
    kind = ConnKind(path.kind)
    if kind is not in_kind:
        raise ValueError(f"expected a {in_kind.value} path, got {kind.value}")
    if path.knots is None:
        raise ValueError("need the path's knots, its integrator's step ends, to reparametrize")
    ts = np.asarray(path.ts, dtype=float)
    xs = np.asarray(path.xs, dtype=float)
    vs = np.asarray(path.vs, dtype=float)
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("path parameters must be strictly increasing")
    sign = _WEIGHT[in_kind]
    tk, sk, xk, vk = path.knots
    # the integrator's new parameter is read, not computed, so one that
    # stops increasing costs no geometry
    _check_increasing(sk)
    # the weight F = e^{sign * sigma} at the knots, checked before any
    # derivative is evaluated, and F' = sign * dsigma(v) F
    P = M.at_many(xk)
    F = _weight(sign * P.sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        Fp = sign * np.einsum("ni,ni->n", P.dsigma, vk) * F
    if not np.all(np.isfinite(Fp)):
        raise GeodesicError(_DIVERGES)
    # between knots, the quintic Hermite of s in (s, F, F'); exact at the knots
    s = _eval_pieces((tk, sk[:, None], F[:, None], Fp[:, None]), ts)[0][:, 0]
    _check_increasing(s)
    try:
        sigma = M.at_many(xs).sigma
    except OutOfDomainError as exc:
        # a sample interpolated between two knots left the chart: the
        # path's numbers, not the input, are at fault
        t = float(ts[np.flatnonzero(np.isnan(M._values_many(xs)[:, 0]))[0]])
        raise GeodesicError(f"dense output leaves the chart at t = {t!r}: {exc}") from None
    # the weight is the derivative of the new parameter with respect to the old one
    return GeodesicPath(kind=out_kind, ts=s, xs=xs.copy(), vs=vs / _weight(sign * sigma)[:, None],
                        status=path.status, meta=dict(path.meta),
                        knots=(sk, tk, xk, vk / F[:, None]))


def reparam_to_tilde(M, path):
    """Turn a nabla-geodesic into the gtilde-geodesic with the same image.

    New parameter s(t) = integral of e^{2 sigma} along the path, velocities
    rescaled by e^{-2 sigma}.  s is read at the path's knots, where the
    integrator carries it as a quadrature, and between them is the quintic
    Hermite of s from the weight and its derivative there; the returned
    path's knots are the same step ends in s, with t there.  A path with no
    knots is refused with ValueError.
    """
    return _reparam(M, path, ConnKind.LC_G_TILDE, ConnKind.NABLA)


def reparam_from_tilde(M, path):
    """Inverse of reparam_to_tilde: weight e^{-2 sigma}, velocities e^{2 sigma}."""
    return _reparam(M, path, ConnKind.NABLA, ConnKind.LC_G_TILDE)


def _sample_indices(idx, m):
    # the distinct indices idx into m samples, sorted: np.unique's result
    # without its first call's import of numpy.ma
    mask = np.zeros(m, dtype=bool)
    mask[idx] = True
    return np.flatnonzero(mask)


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
    centers = []
    for stride in strides:
        lo, hi = 2 * stride, m - 1 - 2 * stride
        centers.append(_sample_indices(np.linspace(lo, hi, min(48, hi - lo + 1)).astype(int), m))
    sizes = [len(c) for c in centers]
    cs = np.concatenate(centers)
    # quad[c, k] = Gamma^k_ij v^i v^j at center at[c], every center of
    # every stride in one batch: the connection's spray kernel gives -quad
    at = _sample_indices(cs, m)
    quad = -M.spray(kind).many(np.hstack([xs[at], vs[at]]))[:, -M.n:]
    # the five-sample windows of every stride, in one solve
    win = cs[:, None] + np.repeat(strides, sizes)[:, None] * np.arange(-2, 3)
    tau = ts[win] - ts[cs][:, None]
    scale = np.abs(tau).max(axis=1)
    V = (tau / scale[:, None])[..., None] ** np.arange(5)
    acc = 2.0 * np.linalg.solve(V, xs[win])[:, 2] / (scale * scale)[:, None]
    res = np.abs(acc + quad[np.searchsorted(at, cs)])
    best = np.inf
    for part in np.split(res, np.cumsum(sizes)[:-1]):
        # every stride overestimates the true defect (truncation and sample
        # noise only add), so the smallest estimate is the sharpest
        best = min(best, float(part.max()))
    return best
