"""The Python reference the emitted integrator (geodesic._integrator) is tested against.

rhs_factory gives the geodesic equation's right-hand side on a list of
floats, initial_step scipy's first step on it, dopri5_step the generic
Dormand-Prince 5(4) step on it, chord_ok the scalar chord probe on the
chart test ManifoldDef._values, run the emitted integrator's start and
adaptive loop, integrate_core geodesic._integrate_core over it, and
replay geodesic._replay, with one Python call per evaluation, step,
stage and chord point, and dense_error the dense test of a long
collected step.  Each does, operation for operation, what the emitted
code does, so the results agree bit for bit.
"""

import math
from functools import reduce
from operator import add

import numpy as np

from divstat import geodesic
from divstat.geodesic import (
    _DP_A,
    _DP_B,
    _DP_E,
    _ERROR_EXPONENT,
    _MAX_FACTOR,
    _MIN_FACTOR,
    _COUNTS,
    _DENSE_EXPONENT,
    _SAFETY,
    EXIT_BISECT_TOL,
    _DomainExit,
    _rms,
)
from divstat.manifold import ConnKind


def rhs_factory(M, kind, sigmas=None):
    """The geodesic equation as a first-order system on the list of 2n floats.

    rhs(y), y = (x, v), returns (v, -Gamma(v, v)), or raises _DomainExit
    where x is outside the chart or the spray's get gives None: the
    domain test, then the spray, as each start evaluation of the emitted
    integrator makes them.  Where sigmas is a list, each evaluation that
    returns appends to it sigma at x, the spray's value there.
    """
    n = M.n
    domain = M.domain
    spray = M.spray(kind).get

    def rhs(y):
        out = spray(y) if domain(y) else None
        if out is None:
            raise _DomainExit
        if sigmas is not None:
            sigmas.append(out[n * n])
        return [*y[n:], *out[-n:]]

    return rhs


def initial_step(rhs, y, f, t1, max_step, rtol, atol):
    """scipy's select_initial_step for an order-4 error estimate from t = 0.

    Hairer, Norsett & Wanner, II.4; the norm is geodesic._rms, the one the
    emitted start calls.
    """
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


def _combo(coeffs, ks, i):
    # sum_s c_s k_s[i] over the nonzero c_s, left to right
    return reduce(add, (k[i] * c for k, c in zip(ks, coeffs) if c != 0.0))


def dopri5_step(rhs, y, f, h, rtol, atol):
    """One step from the state y with derivative f: (y_new, f_new, err).

    Each stage calls rhs on a list, so a _DomainExit from rhs propagates.
    err is the RMS norm of the embedded estimate scaled by atol +
    max(|y|, |y_new|) * rtol, as scipy's RK45 computes it.
    """
    N = len(y)
    ks = [f]
    for row in _DP_A:
        ks.append(rhs([y[i] + _combo(row, ks, i) * h for i in range(N)]))
    y_new = [y[i] + h * _combo(_DP_B, ks, i) for i in range(N)]
    ks.append(rhs(y_new))
    e = [_combo(_DP_E, ks, i) * h / (atol + max(abs(y[i]), abs(y_new[i])) * rtol)
         for i in range(N)]
    return y_new, ks[-1], math.sqrt(reduce(add, (a * a for a in e))) / N ** 0.5


def chord_ok(M, x_a, x_b):
    """Whether the chord from x_a to x_b stays in M's chart.

    It is tested at np.linspace's k interior fractions, k = ceil(r)
    clamped to [3, 31] (3 for a NaN r), r the largest coordinate gap over
    0.03 (1 + the largest |coordinate|).
    """
    gap = max(abs(q - p) for p, q in zip(x_a, x_b))
    scale = 1.0 + max(max(map(abs, x_a)), max(map(abs, x_b)))
    r = gap / (0.03 * scale)
    k = 3 if not r > 3.0 else (31 if r > 30.0 else math.ceil(r))
    step = 1.0 / (k + 1)
    for j in range(1, k + 1):
        frac = j * step
        w = 1.0 - frac
        if M._values([w * p + frac * q for p, q in zip(x_a, x_b)]) is None:
            return False
    return True


def dense_error(rhs, sigmas, kind, y, f, y_new, f_new, h, rtol, atol, q=None, s=None, ds=None):
    """The dense test of a collected step longer than t1 / 48: its de, or None.

    None where the midpoint of the step's quintic Hermite interpolant does
    not fit in a double (no test); _DomainExit from rhs where it is outside
    the chart.  Else de: h times the defect of the interpolant's
    acceleration from rhs's there, in the RMS norm of the velocity's error
    estimate, times max(1, e^{-4 sigma}) on nabla, and on a nabla or
    lc-tilde step at least the gap of its increment ds of s from Simpson's
    rule on e^{c sigma} (q and sigmas[5] being sigma at the step's ends),
    over atol + |s + ds| rtol; 0 where a weight overflows.
    """
    n = len(y) // 2
    x0, v0, a0 = y[:n], y[n:], f[n:]
    x1, v1, a1 = y_new[:n], y_new[n:], f_new[n:]
    hh = h * h
    m = [0.5 * (x0[i] + x1[i]) + 0.15625 * h * (v0[i] - v1[i])
         + 0.015625 * hh * (a0[i] + a1[i]) for i in range(n)]
    m += [(1.875 * (x1[i] - x0[i]) - 0.4375 * h * (v0[i] + v1[i])
           + 0.03125 * hh * (a1[i] - a0[i])) / h for i in range(n)]
    if not all(map(math.isfinite, m)):
        return None
    acc = rhs(m)[n:]
    sm = sigmas[-1]
    sign = geodesic._WEIGHT.get(ConnKind(kind))
    try:
        de = _rms([h * (acc[i] - (1.5 * (v1[i] - v0[i]) / h - 0.25 * (a0[i] + a1[i])))
                   / (atol + max(abs(v0[i]), abs(v1[i])) * rtol) for i in range(n)])
        if ConnKind(kind) is ConnKind.NABLA:
            de = de * max(1.0, math.exp(-4.0 * sm))
        if sign is not None:
            de = max(de, abs(ds - h / 6.0 * (math.exp(sign * q) + 4.0 * math.exp(sign * sm)
                                             + math.exp(sign * sigmas[5])))
                     / (atol + abs(s + ds) * rtol))
    except OverflowError:
        de = 0.0
    return de


def run(M, kind, y, steps, t1, rtol, atol, escape, max_steps, rows, log=None):
    """The emitted integrator's start and adaptive loop in Python: the same return value.

    The arguments are those of geodesic._integrator(M, kind)'s function
    integrating (steps before t1, no replay flag), and so is the value:
    (status, t, y, f, h_abs, accepted, rejected, rewinds, halvings,
    dense_rejected, rhs_calls, left, err).  The start is rhs_factory's
    first derivative and initial_step's first step; where either
    evaluation raises _DomainExit the value is ("exited-domain", 0.0, y,
    None, None, 0, 0, 0, 0, 0, 2, 1, None).  With rows, a step longer than
    t1 / 48 that passes the error test and the chord probe also passes
    dense_error's test, or is retried at half its step (a midpoint outside
    the chart, counted under halvings) or shrunk as the error test shrinks
    it (a de of 1 or more, under dense_rejected); a passed test caps the
    step's growth at 0.9 de^{-1/4}.  rows gets one knot (t, x, v, a) per
    step end: the start's once the start is in the chart, then one per
    accepted step.  On a nabla or lc-tilde run each knot ends with the
    new parameter s there: s = 0 at t = 0, and each accepted step adds its
    quadrature of e^{c sigma}, c being geodesic._WEIGHT[kind], with the
    weights _DP_B at the stage points, or makes s infinite where a weight
    overflows.  Where log is a list, each step attempt appends [t, y, h,
    outcome] to it: the parameter and the list of the state it starts
    from, the same object for every attempt from that state, the step
    tried, and outcome "accepted", "rejected", "dense-rejected", "halving"
    (a stage or the dense test's midpoint left the chart), "rewind" (the
    chord did) or "overflow" (the new state does not fit in doubles).
    """
    n = M.n
    sign = geodesic._WEIGHT.get(ConnKind(kind)) if rows is not None else None
    sigmas = []
    rhs = rhs_factory(M, kind, sigmas)
    calls = 2
    try:
        f = rhs(y)
        h_abs = initial_step(rhs, y, f, t1, math.inf, rtol, atol)
    except _DomainExit:
        return "exited-domain", 0.0, y, None, None, 0, 0, 0, 0, 0, calls, 1, None
    q, s = sigmas[0], 0.0
    if sign is not None:
        rows.append((0.0, *y, *f[n:], s))
    elif rows is not None:
        rows.append((0.0, *y, *f[n:]))
    t = 0.0
    tested = t1 / 48.0
    accepted = rejected = rewinds = halvings = dense_rejected = 0
    status = "completed"
    h = None  # the step of the next attempt from (t, y), None after an accepted one
    left, err = 0, None
    while t < t1:
        if h is None:
            if accepted >= max_steps:
                status = "step-limit"
                break
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            cap = math.inf
            speed = max(map(abs, y[n:]))
            if speed > 0.0:
                cap = 0.5 * (1.0 + max(map(abs, y[:n]))) / speed
            h = cap if h_abs > cap else max(h_abs, min_step)
            shrunk = False
        if h < min_step:
            status = "step-limit"
            break
        t_new = min(t + h, t1)
        h = t_new - t
        calls += 6
        if log is not None:
            log.append([t, y, h, None])
        sigmas.clear()
        de = 0.0
        try:
            y_new, f_new, err = dopri5_step(rhs, y, f, h, rtol, atol)
        except _DomainExit:
            left = 1
        else:
            left = 0
            if not err < 1.0:
                h *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
                shrunk = True
                rejected += 1
                if log is not None:
                    log[-1][3] = "rejected"
                continue
            if not all(map(math.isfinite, y_new)):
                status = "exited-domain"
                if log is not None:
                    log[-1][3] = "overflow"
                break
            if not chord_ok(M, y[:n], y_new[:n]):
                left = 2
            elif rows is not None:
                if sign is not None:
                    # sigma at stages 1 to 6; sigmas[5] is sigma at stage 7
                    try:
                        ds = h * reduce(add, (math.exp(sign * a) * b
                                              for a, b in zip([q, *sigmas], _DP_B) if b != 0.0))
                    except OverflowError:
                        ds = math.inf
                if h > tested:
                    try:
                        de = dense_error(rhs, sigmas, kind, y, f, y_new, f_new, h, rtol, atol,
                                         q, s, ds if sign is not None else None)
                    except _DomainExit:
                        calls += 1
                        left = 1
                    else:
                        if de is None:
                            de = 0.0
                        else:
                            calls += 1
                        if 1.0 <= de < math.inf:
                            h *= max(_MIN_FACTOR, _SAFETY * de ** _ERROR_EXPONENT)
                            shrunk = True
                            dense_rejected += 1
                            if log is not None:
                                log[-1][3] = "dense-rejected"
                            continue
        if log is not None:
            log[-1][3] = ("accepted", "halving", "rewind")[left]
        if left:
            if h <= EXIT_BISECT_TOL or 0.5 * h < min_step:
                status = "exited-domain"
                break
            h *= 0.5
            shrunk = True
            if left == 1:
                halvings += 1
            else:
                rewinds += 1
            continue
        factor = _MAX_FACTOR
        if err > 0.0:
            factor = min(_MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
        if 0.0 < de < math.inf:
            factor = min(factor, _SAFETY * de ** _DENSE_EXPONENT)
        if shrunk:
            factor = min(1.0, factor)
        accepted += 1
        if sign is not None:
            s += ds
            q = sigmas[5]
            rows.append((t_new, *y_new, *f_new[n:], s))
        elif rows is not None:
            rows.append((t_new, *y_new, *f_new[n:]))
        if steps is not None:
            steps.append(h)
        t, y, f, h_abs, h = t_new, y_new, f_new, h * factor, None
        if escape is not None and max(map(abs, y[:n])) > escape:
            status = "escaped"
            break
    return (status, t, y, f, h_abs, accepted, rejected, rewinds, halvings, dense_rejected, calls,
            left, err)


def integrate_core(M, kind, x0, v0, t1, opts, collect, escape=None, steps=None, log=None):
    """geodesic._integrate_core in Python, over run: the same return value.

    With collect unset it collects no knots, so it makes no dense test, as
    a shooting trial's run of geodesic._run does; escape and steps are
    that run's escape radius and list of step sizes.
    """
    y = [*map(float, x0), *map(float, v0)]
    rows = [] if collect else None
    status, t, y, _, _, *counts, _, _ = run(
        M, kind, y, steps, t1, opts.rtol, opts.atol, escape, geodesic.MAX_STEPS, rows, log)
    return status, t, np.array(y), rows if collect else [], dict(zip(_COUNTS, counts))


def replay(M, kind, x0, v0, steps):
    """geodesic._replay in Python: the state after `steps`, or None."""
    n = M.n
    rhs = rhs_factory(M, kind)
    y = [*map(float, x0), *map(float, v0)]
    try:
        f = rhs(y)
        for h in steps:
            y_new, f, _ = dopri5_step(rhs, y, f, h, 1.0, 1.0)
            if not chord_ok(M, y[:n], y_new[:n]):
                return None
            y = y_new
    except _DomainExit:
        return None
    return np.array(y)
