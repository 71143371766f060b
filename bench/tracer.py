"""In-memory tracing of divstat's module functions, applied from outside.

Every plain function defined at module level in a traced divstat module is
replaced, at every module-level name that binds it, by a wrapper that
counts calls and charges thread CPU time (time.thread_time) to the module
that defines it.  Callers look those names up at call time, so the program
runs unchanged apart from the wrappers.  Expr.eval and the Expr.diff
methods stand for exprcore; the right-hand-side closures built by
geodesic._rhs_factory are wrapped as they are made.

Attribution is by self time: a call's CPU time minus the CPU time of the
wrapped calls it made, so each module is charged for its own work only.
A top-level wrapped call made from a pool thread also books its wall time
minus its CPU time as wait: with pure-Python work that is the time the
thread spent waiting for the interpreter lock.

Counters live in one record per thread and are merged when the run ends,
so pool threads never share a mutable counter.  Spans (name, start, end,
parent, op) are kept for the coarse calls listed in SPANS only, because
the hot leaf calls run millions of times per run.
"""

import contextlib
import inspect
import itertools
import threading
import time

MODULES = (
    "exprcore", "manifold", "statstruct", "curvature",
    "geodesic", "connect", "analyze", "cli",
)

# calls that get a span; everything else only feeds counters
SPANS = {
    "manifold.load_manifold",
    "geodesic.integrate_geodesic",
    "geodesic._integrate_core",
    "geodesic._reparam",
    "geodesic.geodesic_residual",
    "connect.shoot_connect",
    "connect._solve_bvp",
    "connect._gauss_newton",
    "analyze.check_suite",
    "analyze.hadamard_scan",
    "analyze._point_residuals",
    "analyze._careq_worst",
    "analyze._lambda_fit",
    "cli.run",
}


class _ThreadRecord:
    def __init__(self, nrec, worker):
        self.calls = [0] * nrec
        self.cpu = [0.0] * nrec
        self.wait = [0.0] * nrec
        self.stack = []          # [child_cpu] per open wrapped call
        self.span_stack = []     # ids of open spans
        self.spans = []
        self.worker = worker
        self.gn_depth = 0        # open connect._gauss_newton calls
        self.integrations_completed = 0
        self.gn_integrations = 0
        self.starts_converged = 0


class Tracer:
    """Install with `with Tracer(divstat_modules) as tr:`; read `tr.totals()`."""

    def __init__(self, modules):
        self._mods = modules                   # short name -> module
        self._lock = threading.Lock()
        self._local = threading.local()
        self._records = []
        self._patches = []                     # (owner, attr, original)
        self._main = threading.get_ident()
        self._main_rec = None
        self._ids = itertools.count(1)
        self.names = []                        # "module.function" per record index
        self.op = 0

    # -- per-thread state --------------------------------------------------

    def _record(self):
        try:
            return self._local.rec
        except AttributeError:
            pass
        worker = threading.get_ident() != self._main
        rec = _ThreadRecord(len(self.names), worker)
        self._local.rec = rec
        with self._lock:
            self._records.append(rec)
            if not worker:
                self._main_rec = rec
        return rec

    # -- wrappers ----------------------------------------------------------

    def _lean(self, fn, idx):
        # counter-only wrapper for the hot calls
        record = self._record
        local = self._local
        tt = time.thread_time
        pc = time.perf_counter

        def wrapper(*args, **kwargs):
            try:
                rec = local.rec
            except AttributeError:
                rec = record()
            stack = rec.stack
            frame = [0.0]
            top = not stack
            w0 = pc() if top and rec.worker else 0.0
            stack.append(frame)
            c0 = tt()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = tt() - c0
                stack.pop()
                rec.calls[idx] += 1
                rec.cpu[idx] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                elif rec.worker:
                    rec.wait[idx] += (pc() - w0) - dur

        return wrapper

    def _full(self, fn, idx, name, span, hook):
        # counters plus an optional span and a hook that sees the result
        record = self._record
        local = self._local
        tt = time.thread_time
        pc = time.perf_counter
        ids = self._ids

        def wrapper(*args, **kwargs):
            try:
                rec = local.rec
            except AttributeError:
                rec = record()
            stack = rec.stack
            frame = [0.0]
            if span:
                sid = next(ids)
                if rec.span_stack:
                    parent = rec.span_stack[-1]
                else:
                    main = self._main_rec
                    parent = main.span_stack[-1] if (
                        rec.worker and main is not None and main.span_stack
                    ) else 0
                rec.span_stack.append(sid)
            if hook is not None:
                hook(rec, "enter", None)
            w0 = pc()
            stack.append(frame)
            c0 = tt()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = tt() - c0
                w1 = pc()
                stack.pop()
                rec.calls[idx] += 1
                rec.cpu[idx] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                elif rec.worker:
                    rec.wait[idx] += (w1 - w0) - dur
                if hook is not None:
                    hook(rec, "exit", result)
                if span:
                    rec.span_stack.pop()
                    rec.spans.append((sid, name, w0, w1, parent, self.op))

        return wrapper

    def _index(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _hooks(self):
        rhs_idx = self._index("geodesic.rhs")

        def integrate(rec, when, result):
            if when == "enter":
                if rec.gn_depth:
                    rec.gn_integrations += 1
            elif result is not None and result[0] == "completed":
                rec.integrations_completed += 1

        def gauss_newton(rec, when, result):
            if when == "enter":
                rec.gn_depth += 1
            else:
                rec.gn_depth -= 1
                if result is not None and result[0]:
                    rec.starts_converged += 1

        return {
            "geodesic._integrate_core": integrate,
            "connect._gauss_newton": gauss_newton,
        }, rhs_idx

    # -- install / restore -------------------------------------------------

    def __enter__(self):
        hooks, rhs_idx = self._hooks()
        wrapped = {}
        for short in MODULES:
            mod = self._mods[short]
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                idx = self._index(name)
                if name == "geodesic._rhs_factory":
                    wrapped[id(obj)] = self._rhs_factory(obj, idx, rhs_idx)
                elif name in SPANS or name in hooks:
                    wrapped[id(obj)] = self._full(
                        obj, idx, name, name in SPANS, hooks.get(name)
                    )
                else:
                    wrapped[id(obj)] = self._lean(obj, idx)
        # rebind every module-level name that refers to a wrapped function
        for short in MODULES:
            mod = self._mods[short]
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None and inspect.isfunction(obj):
                    self._patch(mod, attr, w)
        ex = self._mods["exprcore"]
        self._patch(ex.Expr, "eval", self._lean(ex.Expr.eval, self._index("exprcore.Expr.eval")))
        for cls in (ex.Num, ex.Var, ex.Una, ex.Bin):
            idx = self._index(f"exprcore.{cls.__name__}.diff")
            self._patch(cls, "diff", self._lean(vars(cls)["diff"], idx))
        self._record()
        return self

    def _rhs_factory(self, factory, idx, rhs_idx):
        lean = self._lean

        def build(*args, **kwargs):
            return lean(factory(*args, **kwargs), rhs_idx)

        return self._lean(build, idx)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    @contextlib.contextmanager
    def op_span(self, op, name):
        """Span around one benchmark op; wrapped calls inside carry its id."""
        self.op = op
        rec = self._record()
        sid = next(self._ids)
        rec.span_stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            rec.span_stack.pop()
            rec.spans.append((sid, name, t0, time.perf_counter(), 0, op))

    # -- results -----------------------------------------------------------

    def totals(self):
        """Merged per-function calls, self CPU and wait, plus hook counters."""
        n = len(self.names)
        calls = [0] * n
        cpu = [0.0] * n
        wait = [0.0] * n
        extra = {"integrations_completed": 0, "gn_integrations": 0,
                 "starts_converged": 0}
        with self._lock:
            records = list(self._records)
        for rec in records:
            for i in range(len(rec.calls)):
                calls[i] += rec.calls[i]
                cpu[i] += rec.cpu[i]
                wait[i] += rec.wait[i]
            for key in extra:
                extra[key] += getattr(rec, key)
        per_fn = {
            name: {"calls": calls[i], "cpu_s": cpu[i], "wait_s": wait[i]}
            for i, name in enumerate(self.names)
        }
        return per_fn, extra

    def spans(self):
        """All spans as (id, name, start, end, parent, op), sorted by start."""
        with self._lock:
            records = list(self._records)
        out = [s for rec in records for s in rec.spans]
        out.sort(key=lambda s: s[2])
        return out


def self_times(spans):
    """Per span name: count, total wall time and self time.

    Self time is a span's duration minus the part of it covered by its
    children; children that ran in parallel pool threads overlap, so their
    intervals are merged before subtracting.
    """
    kids = {}
    for s in spans:
        kids.setdefault(s[4], []).append((s[2], s[3]))
    out = {}
    for sid, name, start, end, _, _ in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(kids.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        agg = out.setdefault(name, {"count": 0, "wall_s": 0.0, "self_s": 0.0})
        agg["count"] += 1
        agg["wall_s"] += end - start
        agg["self_s"] += (end - start) - covered
    return out
