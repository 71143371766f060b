"""Command-line front end.

Subcommands: describe (pointwise structure as JSON), geodesic (CSV
samples of one integral curve), connect (two-point boundary solve as
JSON), contrast (print rho(p, q)), check (identity suite as a table),
hadamard (curvature-sign scan over a coordinate grid).

Exit codes: 0 success or passing scan, 1 failing check or scan, 2
invalid input, 3 numerical failure such as no converged geodesic, a
derivative of g or sigma that cannot be evaluated at a point in the chart,
or a matrix at such a point that the numerics cannot use.
Diagnostics are single lines on stderr.  All numbers are printed with
17 significant digits, so equal seeds give byte-identical output.

run() builds the argument parser on its first call and reuses it for
every later call in the process, so a program that runs many commands in
one process pays for one parser; importing this module builds none.  A
built-in manifold name likewise loads one shared definition per process
(load_manifold), so its jets and kernels are compiled once; a definition
file is read and loaded afresh by every command.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from .analyze import CheckOpts, check_suite, hadamard_scan
from .connect import NoConvergenceError, ShootOpts, contrast, shoot_connect
from .curvature import _conjugate_symmetry_residual
from .exprcore import ExprError
from .geodesic import GeodesicError, IntegratorOpts, integrate_geodesic
from .manifold import (
    ConnKind,
    DefinitionError,
    OutOfDomainError,
    _generator_seed,
    _positive,
    load_manifold,
)
from .statstruct import conjugate

__all__ = ["build_parser", "run", "main"]


def _fmt(x):
    return f"{float(x):.17g}"


def _jtext(obj, indent=0):
    """Serialize to JSON with every float at full 17-digit precision.

    json.dumps hardwires float.__repr__, which emits the shortest
    round-trip form instead of a fixed digit count, so nesting is walked
    here.  Rows of numbers stay on one line to keep matrices readable.
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}  {json.dumps(str(k))}: {_jtext(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if all(isinstance(v, (int, float, np.integer, np.floating)) for v in obj):
            return "[" + ", ".join(_jtext(v) for v in obj) + "]"
        items = [f"{pad}  {_jtext(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    return json.dumps(obj)


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _coords(text, n):
    parts = text.split(",")
    try:
        vals = np.array([float(s) for s in parts])
    except ValueError:
        raise ValueError(
            f"coordinates must be comma-separated numbers, got {text!r}"
        ) from None
    if len(vals) != n:
        raise ValueError(f"expected {n} coordinates, got {len(vals)}")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"coordinates must be finite, got {text!r}")
    return vals


def _negative_number(tok):
    # "-1,0", "-.5e3" or "-inf": its first comma field is a number
    if not tok.startswith("-"):
        return False
    try:
        float(tok.split(",")[0])
    except ValueError:
        return False
    return True


def _fuse_negative_values(argv):
    # argparse reads "-1,0" or "-inf" as an option; glue such values onto
    # their flag
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok.startswith("--")
            and "=" not in tok
            and i + 1 < len(argv)
            and _negative_number(argv[i + 1])
        ):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _grid_points(M, spec):
    segs = spec.split(",")
    if len(segs) != M.n:
        raise ValueError(
            f"grid needs one name:lo:hi:count segment per coordinate "
            f"({','.join(M.coords)}), got {spec!r}"
        )
    axes = []
    for seg, name in zip(segs, M.coords):
        parts = seg.split(":")
        if len(parts) != 4 or parts[0] != name:
            raise ValueError(
                f"grid segment {seg!r} must look like {name}:lo:hi:count"
            )
        try:
            lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError:
            raise ValueError(f"grid segment {seg!r} has a non-numeric field") from None
        if count < 1:
            raise ValueError(f"grid segment {seg!r} needs at least one point")
        if not math.isfinite(hi - lo):  # NaN and infinite bounds fail it too
            raise ValueError(f"grid segment {seg!r} needs finite bounds and span")
        axes.append(np.linspace(lo, hi, count))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _seed(text):
    # --seed's type: the integer text spells, through the options' seed check
    try:
        return _generator_seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}") from None


def _cmd_describe(args):
    M = load_manifold(args.manifold)
    x = _coords(args.at, M.n)
    P = M.at(x)
    members = (
        ("g", lambda: P.g_spd),
        ("g_inv", lambda: P.g_inv),
        ("sigma", lambda: P.sigma),
        ("dsigma", lambda: P.dsigma),
        ("grad_sigma", lambda: P.grad_sigma),
        ("hess_sigma", lambda: P.hess_sigma),
        ("laplace_sigma", lambda: P.laplace_sigma),
        ("K", lambda: P.K),
        ("C", lambda: P.cubic_form),
        ("gamma", lambda: {k.value: P.gamma(k) for k in ConnKind}),
        ("ricci_nabla", lambda: P.ricci(ConnKind.NABLA)),
        ("conjugate_symmetry_residual", lambda: _conjugate_symmetry_residual(P)),
    )
    doc = {"manifold": M.name, "point": x}
    for key, member in members:
        try:
            doc[key] = member()
        except FloatingPointError as exc:
            # numpy names the operation only: say which member, and where
            raise FloatingPointError(f"{key} at {P.x}: {exc}") from None
    sys.stdout.write(_jtext(doc) + "\n")
    return 0


def _cmd_geodesic(args):
    M = load_manifold(args.manifold)
    x0 = _coords(args.start, M.n)
    v0 = _coords(args.vel, M.n)
    _positive("--t-max", args.t_max)
    opts = IntegratorOpts(dense_samples=args.steps)
    path = integrate_geodesic(M, ConnKind(args.conn), x0, v0, args.t_max, opts)
    path.to_csv(args.out or sys.stdout)
    return 0


def _cmd_connect(args):
    M = load_manifold(args.manifold)
    if args.conjugate:
        M = conjugate(M)
    p = _coords(args.start, M.n)
    q = _coords(args.target, M.n)
    res = shoot_connect(M, p, q, ShootOpts(multistart=args.multistart,
                                           seed=args.seed))
    doc = {
        "converged": res.converged,
        "tilde_length": res.tilde_length,
        "endpoint_error": res.endpoint_error,
        "attempts": len(res.starts),
    }
    if res.nabla_path is not None:
        doc["samples"] = [
            [t, *x, *v] for t, x, v in res.nabla_path.samples
        ]
    _emit(_jtext(doc) + "\n", args.out)
    if not res.converged:
        return _diag(
            f"no converged geodesic from {args.start} to {args.target} "
            f"(best endpoint error {_fmt(res.endpoint_error)})",
            3,
        )
    if res.nabla_path is None:
        return _diag(
            f"the gtilde geodesic from {args.start} to {args.target} converged, "
            "but the nabla parameter overflows along the path "
            "(e^{-2 sigma} is not finite, or too large for the parameter "
            "to keep increasing in double precision), so no samples are given",
            3,
        )
    return 0


def _cmd_contrast(args):
    M = load_manifold(args.manifold)
    p = _coords(args.p, M.n)
    q = _coords(args.q, M.n)
    rho = contrast(M, p, q, ShootOpts(seed=args.seed))
    sys.stdout.write(_fmt(rho) + "\n")
    return 0


def _cmd_check(args):
    M = load_manifold(args.manifold)
    opts = CheckOpts(samples=args.samples, tol=args.tol, seed=args.seed)
    reports = check_suite(M, opts)
    width = max(len(r.check) for r in reports)
    print(f"manifold: {M.name}  samples: {args.samples}  seed: {args.seed}")
    failed = False
    for r in reports:
        if r.passed is None:
            status = "info"
        elif r.passed:
            status = "pass"
        else:
            status = "FAIL"
            failed = True
        at = ",".join(_fmt(c) for c in r.worst_point)
        line = f"{r.check:<{width}}  {_fmt(r.worst_value):>24}  {status}  at {at}"
        if "lambda" in r.extra:
            line += f"  lambda={_fmt(r.extra['lambda'])}"
        print(line)
    print(f"result: {'FAIL' if failed else 'pass'}")
    return 1 if failed else 0


def _cmd_hadamard(args):
    M = load_manifold(args.manifold)
    pts = _grid_points(M, args.grid)
    rep = hadamard_scan(M, pts)
    print(f"manifold: {M.name}")
    print(f"check: {rep.check}")
    print(f"grid: {args.grid}")
    at = ",".join(_fmt(c) for c in rep.worst_point)
    print(f"worst: {_fmt(rep.worst_value)} at {at}")
    print(f"result: {'pass' if rep.passed else 'FAIL'}")
    return 0 if rep.passed else 1


_DISPATCH = {
    "describe": _cmd_describe,
    "geodesic": _cmd_geodesic,
    "connect": _cmd_connect,
    "contrast": _cmd_contrast,
    "check": _cmd_check,
    "hadamard": _cmd_hadamard,
}


def _diag(message, code):
    text = " ".join(str(message).split())
    print(f"divstat: {text}", file=sys.stderr)
    return code


class _ArgumentParser(argparse.ArgumentParser):
    # a usage error is one diagnostic line from run(), not argparse's
    # usage block; subcommand parsers inherit this class
    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser():
    """A new parser for the divstat command line."""
    ap = _ArgumentParser(
        prog="divstat",
        description="chart computations for metrics paired with a "
        "conformal weight function",
    )
    sub = ap.add_subparsers(dest="cmd", required=True, metavar="command")

    p = sub.add_parser("describe", help="print pointwise structure as JSON")
    p.add_argument("manifold", help="built-in name or definition file")
    p.add_argument("--at", required=True, metavar="X1,...,XN")

    p = sub.add_parser("geodesic", help="integrate one geodesic to CSV")
    p.add_argument("manifold")
    p.add_argument("--conn", required=True,
                   choices=[k.value for k in ConnKind])
    p.add_argument("--from", dest="start", required=True, metavar="X1,...,XN")
    p.add_argument("--vel", required=True, metavar="V1,...,VN")
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=129,
                   help="number of output samples (default 129)")
    p.add_argument("--out", metavar="FILE.csv")

    p = sub.add_parser("connect", help="two-point geodesic solve to JSON")
    p.add_argument("manifold")
    p.add_argument("--from", dest="start", required=True, metavar="X1,...,XN")
    p.add_argument("--to", dest="target", required=True, metavar="X1,...,XN")
    p.add_argument("--conjugate", action="store_true",
                   help="flip the sign of the weight before solving")
    p.add_argument("--multistart", type=int, default=16)
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--out", metavar="FILE.json")

    p = sub.add_parser("contrast", help="print the contrast rho(p, q)")
    p.add_argument("manifold")
    p.add_argument("--p", required=True, metavar="X1,...,XN")
    p.add_argument("--q", required=True, metavar="X1,...,XN")
    p.add_argument("--seed", type=_seed, default=42)

    p = sub.add_parser("check", help="run the identity suite")
    p.add_argument("manifold")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=_seed, default=42)

    p = sub.add_parser("hadamard", help="scan the curvature-sign condition")
    p.add_argument("manifold")
    p.add_argument("--grid", required=True, metavar="x1:lo:hi:n,...",
                   help="one name:lo:hi:count segment per coordinate")

    return ap


@functools.cache
def _parser():
    # run's parser, built on its first call: parsing keeps no state in the
    # parser, so one serves every later call in the process
    return build_parser()


def run(argv):
    """Parse argv (without the program name) and execute; returns exit code.

    The parser is built on the first call and reused by every later one in
    the process; importing this module builds none.  A built-in name
    reuses the process's one definition of it; a file is loaded anew.
    """
    try:
        args = _parser().parse_args(_fuse_negative_values(list(argv)))
    except argparse.ArgumentError as exc:
        return _diag(exc, 2)
    except SystemExit as exc:
        # --help, after printing the help
        return 0 if not exc.code else int(exc.code)
    try:
        # numpy overflows are numerical failures, not warnings beside nan
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return _DISPATCH[args.cmd](args)
    except np.linalg.LinAlgError as exc:
        # a ValueError, but of a matrix at a point in the chart, not of the input
        return _diag(f"numerical failure: {exc}", 3)
    except (DefinitionError, OutOfDomainError, ValueError, OSError) as exc:
        return _diag(exc, 2)
    except MemoryError as exc:
        # numpy refuses an array too large for the request (a grid or a
        # sample count) before allocating any of it
        return _diag(f"request too large: {exc}", 2)
    except (NoConvergenceError, GeodesicError, ExprError) as exc:
        # ExprError here is a derived quantity that cannot be evaluated at
        # an in-chart point: the definition parsed, so it is numerical
        return _diag(exc, 3)
    except FloatingPointError as exc:
        return _diag(f"numerical failure: {exc}", 3)


def main():
    sys.exit(run(sys.argv[1:]))
