"""divstat benchmark: shoot, trace and scan workloads, untraced or traced.

    python3 bench/run.py --workload shoot --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ../src relative to this
file.  One client in one process runs ops closed-loop (the next op starts
when the previous one returns) in whole cycles, one op per input class in
each.  The number of cycles is --seconds divided by the workload's nominal
cycle cost (CYCLE_S), so a run's op list, and with it `attempted` and
`failed`, depends on the arguments only; a run lasts about --seconds on a
machine like the one CYCLE_S was measured on.  Every op's output is checked
against an oracle (see workloads.py).  Between untraced ops a fixed
reference loop measures how fast the shared host runs at that moment, and
the gated timings are scaled by it (see README.md, "Host-adjusted times").

--trace 0 prints the end-to-end metrics; --trace 1 runs the same ops
untraced and then again under the tracer (tracer.py) and prints the
per-layer metrics and the tracing overhead.  --workload all runs the three
workloads one after another in child processes.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are the report: the
environment, every op with its time and oracle outcome, and every metric
with its unit and sample count.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types

# host.py (numpy, scipy) is imported inside the functions that use it:
# setup_probe.py imports this module and must time those imports itself.
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_PROBES = 5
PROGRAM_POOL_THREADS = 8  # max_workers of divstat's ThreadPoolExecutors
# Nominal wall time of one cycle, untraced, on 2 cores of an Intel Xeon
# (see README.md).  A run holds round(--seconds / CYCLE_S) cycles, so its op
# list does not depend on how fast the host happens to be during the run.
CYCLE_S = {"shoot": 3.3, "trace": 1.6, "scan": 3.4}
# A traced run makes its ops twice, untraced and traced, and tracing slows
# them 2-3x, so it makes fewer cycles: about --seconds in all.
TRACED_CYCLE_S = {"shoot": 7.5, "trace": 2.6, "scan": 8.0}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def import_divstat():
    """Import divstat from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "divstat", "__init__.py")):
        raise BenchError(f"no divstat sources at {SRC}")
    sys.path.insert(0, SRC)
    import divstat

    where = os.path.dirname(os.path.abspath(divstat.__file__))
    if where != os.path.join(SRC, "divstat"):
        raise BenchError(f"divstat was imported from {where}, not from {SRC}")
    return divstat


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_start": [round(v, 2) for v in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "program_pool_threads_max": PROGRAM_POOL_THREADS,
        "client": "closed loop, 1 client, 1 process, no benchmark threads",
    }


def measure_setup(workload):
    """Median host-adjusted set-up time over SETUP_PROBES child processes.

    Returns it with the raw times of all probes.
    """
    script = os.path.join(HERE, "setup_probe.py")
    raw, adjusted = [], []
    from host import probe, REFERENCE_S

    before = probe()
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, script, workload], capture_output=True, text=True,
            timeout=120, check=False,
        )
        if out.returncode != 0:
            raise BenchError(f"setup probe failed: {out.stderr.strip()}")
        after = probe()
        raw.append(float(out.stdout.split()[-1]))
        adjusted.append(raw[-1] * 2.0 * REFERENCE_S / (before + after))
        before = after
    return statistics.median(adjusted), raw


def load_modules():
    import importlib

    return {
        name: importlib.import_module(f"divstat.{name}")
        for name in ("exprcore", "manifold", "statstruct", "curvature",
                     "geodesic", "connect", "analyze", "cli")
    }


def run_ops(work, ops, tracer=None, label="op", probing=False):
    """Run ops in order; returns one record per op.

    With `probing`, probe() runs before the first op and after every op,
    outside the op's time, and each record gets the mean of the probes on
    either side of its op as `ref_s`.
    """
    from host import probe

    out = []
    before = probe() if probing else None
    for i, op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = work.run(op)
            else:
                with tracer.op_span(i, f"op.{work.name}"):
                    res = work.run(op)
        except Exception as exc:  # noqa: BLE001 - every raise is a recorded failure
            res = {"fail": f"raised-{type(exc).__name__}",
                   "detail": " ".join(str(exc).split())[:200], "wrong": False}
        dt = time.perf_counter() - t0
        res.update(i=i, cls=work.classes[i % len(work.classes)], wall_s=dt, op=op)
        if probing:
            after = probe()
            res["ref_s"] = 0.5 * (before + after)
            before = after
        out.append(res)
        outcome = res["fail"] or "ok"
        if res["wrong"]:
            outcome += " WRONG"
        print(f"{label} {i} {work.describe(op)} {dt:.4f}s {outcome} {res['detail']}",
              flush=True)
    return out


def pct(values, q):
    """Nearest-rank percentile; None unless ten samples lie beyond it."""
    vals = sorted(values)
    if len(vals) * (1.0 - q) < 10 and q > 0.5:
        return None
    return vals[min(len(vals) - 1, max(0, int(round(q * len(vals) + 0.5)) - 1))]


def failures(records):
    by_class = {}
    for r in records:
        if r["fail"]:
            by_class[r["fail"]] = by_class.get(r["fail"], 0) + 1
    return by_class


def report_metric(name, value, unit, n=None):
    count = f" (n={n})" if n is not None else ""
    print(f"metric {name} = {value:.6g} {unit}{count}", flush=True)


def end_to_end(work, records, setup):
    """Per-workload metrics for the report, and the gated ones for the JSON.

    Rates divide by the summed op times, so the probes between ops do not
    count.  A host-adjusted op time is the op's wall time scaled by
    REFERENCE_S / ref_s, its time at the host speed of the reference
    machine (see README.md).
    """
    from host import REFERENCE_S

    times = [r["wall_s"] for r in records]
    adjusted = [r["wall_s"] * REFERENCE_S / r["ref_s"] for r in records]
    busy = sum(times)
    n = len(records)
    setup_s, setup_raw = setup
    report_metric("setup_s", setup_s, "s", len(setup_raw))
    report_metric("setup_s.raw", statistics.median(setup_raw), "s", len(setup_raw))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report_metric("peak_rss_mb", rss, "MB")
    fails = failures(records)
    report_metric("fail_frac", sum(fails.values()) / n, "ratio", n)
    for cls, k in sorted(fails.items()):
        print(f"failures {cls} = {k}", flush=True)
    if work.name == "shoot":
        report_metric("solve_s.p50", statistics.median(times), "s", n)
        report_metric("solves_per_s", n / busy, "1/s", n)
    elif work.name == "trace":
        report_metric("geodesic_s.p50", statistics.median(times), "s", n)
        p90 = pct(times, 0.9)
        if p90 is not None:
            report_metric("geodesic_s.p90", p90, "s", n)
    else:
        for kind in ("check", "hadamard"):
            sel = [r["wall_s"] for r in records if r["op"][0] == kind]
            report_metric(f"{kind}_s.p50", statistics.median(sel), "s", len(sel))
        pts = sum(work.points(r["op"]) for r in records)
        report_metric("scan_points_per_s", pts / busy, "1/s", n)
    report_metric("host_ref_ms.p50",
                  1e3 * statistics.median(r["ref_s"] for r in records), "ms", n + 1)
    for suffix, values in (("", times), (".adj", adjusted)):
        by_class = {}
        for r, v in zip(records, values):
            by_class.setdefault(r["cls"], []).append(v)
        report_metric(f"op_s{suffix}.p50", statistics.geometric_mean(
            [statistics.median(v) for v in by_class.values()]), "s", n)
        report_metric(f"ops_per_s{suffix}", n / sum(values), "1/s", n)
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "ops_per_s.adj": (n / sum(adjusted), "1/s"),
    }


def per_layer(work, tracer, n_ops, untraced_wall, traced_wall):
    per_fn, extra = tracer.totals()

    def calls(*names):
        return sum(per_fn[f]["calls"] for f in names if f in per_fn)

    def module(mod, key):
        return sum(v[key] for f, v in per_fn.items() if f.split(".")[0] == mod)

    def ratio(a, b):
        return a / b if b else 0.0

    integrations = calls("geodesic._integrate_core")
    starts = calls("connect._gauss_newton")
    raw = {
        "exprcore.evals_per_op": (calls("exprcore.Expr.eval"), "count"),
        "exprcore.cpu_s_per_op": (module("exprcore", "cpu_s"), "s"),
        "manifold.in_domain_calls_per_op": (calls("manifold.in_domain"), "count"),
        "manifold.jet_calls_per_op": (
            calls("manifold._metric_jet_raw", "manifold._sigma_jet_raw"), "count"),
        "manifold.cpu_s_per_op": (module("manifold", "cpu_s"), "s"),
        "statstruct.coeff_calls_per_op": (
            calls("statstruct.connection_coeffs", "statstruct.connection_dcoeffs"),
            "count"),
        "statstruct.cpu_s_per_op": (module("statstruct", "cpu_s"), "s"),
        "curvature.riemann_calls_per_op": (calls("curvature.riemann"), "count"),
        "curvature.cpu_s_per_op": (module("curvature", "cpu_s"), "s"),
        "geodesic.integrations_per_op": (integrations, "count"),
        "geodesic.rhs_calls_per_op": (calls("geodesic.rhs"), "count"),
        "geodesic.cpu_s_per_op": (module("geodesic", "cpu_s"), "s"),
        "connect.starts_per_op": (starts, "count"),
        "connect.cpu_s_per_op": (module("connect", "cpu_s"), "s"),
        "connect.wait_s_per_op": (module("connect", "wait_s"), "s"),
        "analyze.points_per_op": (
            calls("analyze._point_residuals", "analyze._careq_worst",
                  "analyze._careq2_at"), "count"),
        "analyze.cpu_s_per_op": (module("analyze", "cpu_s"), "s"),
        "analyze.wait_s_per_op": (module("analyze", "wait_s"), "s"),
        "cli.cpu_s_per_op": (module("cli", "cpu_s"), "s"),
        "trace.overhead_s_per_op": (traced_wall - untraced_wall, "s"),
    }
    metrics = {k: (v / n_ops, unit) for k, (v, unit) in raw.items()}
    metrics["geodesic.completed_frac"] = (
        ratio(extra["integrations_completed"], integrations), "ratio")
    metrics["connect.converged_start_frac"] = (
        ratio(extra["starts_converged"], starts), "ratio")
    metrics["connect.integrations_per_start"] = (
        ratio(extra["gn_integrations"], starts), "count")
    metrics["trace.overhead_frac"] = (
        ratio(traced_wall - untraced_wall, untraced_wall), "ratio")
    for name in sorted(metrics):
        report_metric(name, metrics[name][0], metrics[name][1], n_ops)
    return metrics, per_fn, extra


def write_trace(path, doc):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def run_workload(args):
    from host import pin_to_one_cpu

    cpu = pin_to_one_cpu()
    import_divstat()
    env = environment()
    env["pinned_cpu"] = cpu
    print("env: " + json.dumps(env), flush=True)
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}", flush=True)
    setup = measure_setup(args.workload) if not args.trace else None
    from workloads import WORKLOADS

    mods = load_modules()
    work = WORKLOADS[args.workload](types.SimpleNamespace(**mods), args.seed)
    changed = []
    cycle_s = (TRACED_CYCLE_S if args.trace else CYCLE_S)[args.workload]
    cycles = max(1, round(args.seconds / cycle_s))
    n = cycles * len(work.classes)
    ops = [(i, work.op(i)) for i in range(n)]
    work.warm_up()
    if not args.trace:
        records = run_ops(work, ops, probing=True)
        metrics = end_to_end(work, records, setup)
    else:
        from tracer import Tracer, self_times

        t0 = time.perf_counter()
        records = run_ops(work, ops, label="untraced")
        untraced = time.perf_counter() - t0
        with Tracer(mods) as tracer:
            t0 = time.perf_counter()
            records_t = run_ops(work, ops, tracer, label="traced")
            traced = time.perf_counter() - t0
        metrics, per_fn, extra = per_layer(work, tracer, n, untraced, traced)
        spans = tracer.spans()
        selfs = self_times(spans)
        for name in sorted(selfs):
            s = selfs[name]
            print(f"span {name} count={s['count']} wall_s={s['wall_s']:.4f} "
                  f"self_s={s['self_s']:.4f}", flush=True)
        changed = [r["i"] for r, t in zip(records, records_t)
                   if (r["fail"], r["detail"]) != (t["fail"], t["detail"])]
        if changed:
            print(f"tracing changed the outcome of ops {changed}", flush=True)
        records += records_t
        write_trace(
            os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json"),
            {"env": env, "workload": args.workload, "seed": args.seed,
             "ops": n, "functions": per_fn, "counters": extra,
             "span_self_times": selfs,
             "spans": [list(s) for s in spans]},
        )
    fails = failures(records)
    print(f"fail_frac = {sum(fails.values())}/{len(records)} by class: "
          + (", ".join(f"{k}={v}" for k, v in sorted(fails.items())) or "none"),
          flush=True)
    unknown = sorted(set(fails) - work.known_failures)
    if unknown:
        print(f"failure classes the baseline does not show: {unknown}", flush=True)
    return {
        "correct": not unknown and not changed,
        "attempted": len(records),
        "failed": sum(fails.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("shoot", "trace", "scan"):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            raise BenchError(f"workload {name} exited {out.returncode}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}/{k}"] = v
    return merged


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["shoot", "trace", "scan", "all"])
    ap.add_argument("--seed", type=int, required=True,
                    help="workload seed: draws every input of the run")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
