"""The benchmark's three workloads: inputs, operations and output oracles.

Inputs are drawn with numpy from the workload seed, using this file's own
copy of each built-in manifold's sample box and domain test, so a change
to divstat's sampler cannot change a workload.  The properties that set
an op's cost come from a low-discrepancy sequence shifted by the seed
(_strata); the rest op `i` draws from `default_rng([seed, i])`, so an
op's input does not depend on how many ops ran before it.

Every workload runs in cycles with one op per input class (manifold, or
manifold and connection), so each class gets the same number of ops in
a run.

An op fails when it raises, when the program reports that it did not
finish (a shooting solve with converged=False, a geodesic stopped at its
step limit), or when its output misses the oracle.  run() returns the
failure class, or None; a miss on an output that the program reported
as good is marked `wrong` as well.  Each workload lists the failure
classes that the baseline program shows in `known_failures`; any other
class makes the run incorrect.
"""

import contextlib
import io
import math

import numpy as np

# own copies of the built-ins' sample boxes; divstat's are not consulted
BOXES = {
    "euclidean": ((-3.0, 3.0), (-3.0, 3.0)),
    "paraboloid": ((-3.0, 3.0), (-3.0, 3.0)),
    "punctured-plane": ((-2.3, 2.3), (-2.3, 2.3)),
    "half-plane-exp": ((-5.0, 5.0), (0.1, 10.0)),
}
MANIFOLDS = tuple(BOXES)


def in_domain(name, x):
    """Own copy of the chart test: the domain predicate, with g and sigma finite."""
    r2 = x[0] * x[0] + x[1] * x[1]
    if name == "punctured-plane":
        return r2 > 0.0 and 2.0 / r2 < 709.0
    if name == "half-plane-exp":
        return x[1] > 1e-154
    return math.isfinite(r2)


def _in_box(name, x):
    return all(a <= c <= b for c, (a, b) in zip(x, BOXES[name]))


def sample_ok(name, x):
    """Where inputs are drawn: the box, and in it the chart.

    On the punctured plane that is the built-in's sample guard, an annulus
    where the derivatives stay within double precision.
    """
    if not _in_box(name, x):
        return False
    if name == "punctured-plane":
        return 0.49 < x[0] * x[0] + x[1] * x[1] < 5.1
    return in_domain(name, x)


# All four built-ins are conformally flat, g = lam(x) I, with weight sigma.
def lam(name, xs):
    xs = np.asarray(xs, dtype=float)
    r2 = xs[..., 0] ** 2 + xs[..., 1] ** 2
    with np.errstate(over="ignore", divide="ignore"):
        if name == "paraboloid":
            return 2.0 / (1.0 + r2)
        if name == "punctured-plane":
            return np.exp(2.0 / r2)
        if name == "half-plane-exp":
            return 1.0 / xs[..., 1] ** 2
    return np.ones_like(r2)


def sigma(name, xs):
    xs = np.asarray(xs, dtype=float)
    r2 = xs[..., 0] ** 2 + xs[..., 1] ** 2
    with np.errstate(divide="ignore"):
        if name == "paraboloid":
            return -np.log(0.5 * (1.0 + r2))
        if name == "punctured-plane":
            return -2.0 / r2
        if name == "half-plane-exp":
            return np.exp(-xs[..., 1])
    return np.zeros_like(r2)


def _partner(rng, name, p, target, heading, dist, accept=None):
    """A point at distance `target` from p on a chart ray from p.

    The ray leaves p at angle `heading`; when no point on it qualifies,
    random headings are tried instead.
    """
    def d(s):
        q = p + s * u
        return dist(p, q) if in_domain(name, q) else math.inf

    while True:
        u = np.array([math.cos(heading), math.sin(heading)])
        heading = rng.uniform(0.0, 2.0 * math.pi)
        a, b = 0.0, 0.05
        while d(b) < target and b < 1e3:
            a, b = b, 2.0 * b
        if not d(b) >= target:
            continue
        for _ in range(60):
            m = 0.5 * (a + b)
            if d(m) < target:
                a = m
            else:
                b = m
        q = p + b * u
        if sample_ok(name, q) and (accept is None or accept(q)):
            return q


def _steps(dims):
    """Additive steps of the R_d low-discrepancy sequence: powers of
    1/phi_d, where phi_d is the positive root of x^(d+1) = x + 1."""
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    return phi ** -np.arange(1.0, dims + 1)


STRATA = 4
# the steps whose continued fractions have the smallest terms spread a
# coordinate most evenly on its own; they go first, to the property that
# drives an op's cost most (separation, impact distance, speed)
_STEPS = _steps(STRATA)[[2, 1, 3, 0]]


def _strata(shift, i, nclasses):
    """STRATA coordinates in [0, 1) for op i: cycle k's point of the R_d
    sequence, shifted by the seed's `shift` and by a per-class offset.

    An op's cost follows a few properties of its input, so each workload
    takes those from here: every run covers their ranges evenly, and every
    cycle mixes cheap and dear ops.
    """
    k, c = divmod(i, nclasses)
    return ((shift + k * _STEPS + c / nclasses) % 1.0).tolist()


def _polar(r, angle):
    return r * np.array([math.cos(angle), math.sin(angle)])


def sphere_angle(p, q):
    """Paraboloid: e^sigma g is the unit sphere, so dtilde is this angle."""
    s = np.linalg.norm(p - q) / math.sqrt((1.0 + p @ p) * (1.0 + q @ q))
    return 2.0 * math.asin(min(1.0, s))


def _chart_distance(p, q):
    return float(np.linalg.norm(q - p))


def _hyperbolic(p, q):
    return math.acosh(1.0 + float((p - q) @ (p - q)) / (2.0 * p[1] * q[1]))


def _compile_jets(dv, manifolds):
    """Evaluate every connection once on each manifold, which compiles the
    lazily built expression jets before the timed ops start."""
    for M in manifolds:
        x = np.array([0.5, 1.0])
        for kind in dv.statstruct.ConnKind:
            dv.statstruct.connection_dcoeffs(M, x, kind)


def _fail(cls, detail, wrong=False):
    return {"fail": cls, "detail": detail, "wrong": wrong}


def _ok(detail):
    return {"fail": None, "detail": detail, "wrong": False}


class Shoot:
    """Two-point solves, shoot_connect with six starts, one manifold per op.

    Separations are bounded (SEPARATION) so that a run holds ten or more
    cycles and no single solve comes near the per-run time limit.
    Paraboloid pairs lie in the unit disk, the lower hemisphere of the
    sphere e^sigma g; half-plane p2 is log-uniform over the box.  Every
    punctured-plane chord passes the puncture, at a log-uniform distance
    (IMPACT), between two points of the sample annulus: the closest
    chords hit the chart wall, and shoot_connect raises GeodesicError.
    """

    name = "shoot"
    known_failures = {"not-converged", "raised-GeodesicError"}
    classes = ("half-plane-exp", "paraboloid", "punctured-plane")
    # tilde distance on the paraboloid (e^sigma g is the unit sphere),
    # hyperbolic distance of g on the half plane
    SEPARATION = {"paraboloid": (0.1, 0.6), "half-plane-exp": (0.1, 0.6)}
    # chords closer than about 0.078 raise GeodesicError in about 1.5 s;
    # closer than about 0.05 they end not-converged after 8-10 s each,
    # which would take a third of a run, so the range stops short of that.
    # Up to 0.2 a solve costs about the same (1.1-1.6 s); beyond, the cost
    # falls steeply, and a class median drawn across that fall jumps from
    # seed to seed.
    IMPACT = (0.06, 0.2)

    def __init__(self, dv, seed):
        self.dv = dv
        self.seed = seed
        self.M = {m: dv.manifold.load_manifold(m) for m in self.classes}
        self.opts = dv.connect.ShootOpts(multistart=6, seed=42)
        self.shift = np.random.default_rng([seed]).uniform(size=STRATA)

    def warm_up(self):
        _compile_jets(self.dv, self.M.values())

    def op(self, i):
        name = self.classes[i % len(self.classes)]
        rng = np.random.default_rng([self.seed, i])
        # the strata set the separation, where p sits, the direction to q
        # relative to p's polar angle, and that angle `turn`, which matters
        # because the solver's start directions are fixed in the chart
        u, w, a, o = _strata(self.shift, i, len(self.classes))
        turn = 2.0 * math.pi * o
        if name == "punctured-plane":
            lo, hi = self.IMPACT
            b = lo * (hi / lo) ** u
            n = _polar(1.0, turn)
            t = np.array([-n[1], n[0]])
            # end points at radii with r^2 uniform over the sample annulus
            sp, sq = (math.sqrt(0.49 + s * (5.1 - 0.49) - b * b) for s in (w, a))
            return name, b * n - sp * t, b * n + sq * t
        lo, hi = self.SEPARATION[name]
        target = lo + u * (hi - lo)
        if name == "paraboloid":
            p = _polar(math.sqrt(w), turn)
            disk = lambda x: x @ x <= 1.0  # noqa: E731
            q = _partner(rng, name, p, target, turn + 2.0 * math.pi * a,
                         sphere_angle, disk)
        else:
            (a0, b0), (a1, b1) = BOXES[name]
            p = np.array([rng.uniform(a0, b0), a1 * (b1 / a1) ** w])
            q = _partner(rng, name, p, target, 2.0 * math.pi * a, _hyperbolic)
        return name, p, q

    def describe(self, op):
        name, p, q = op
        return f"{name} p=({p[0]:.4f},{p[1]:.4f}) q=({q[0]:.4f},{q[1]:.4f})"

    def run(self, op):
        name, p, q = op
        res = self.dv.connect.shoot_connect(self.M[name], p, q, self.opts)
        branches = len(res.solutions)
        info = f"branches={branches} length={res.tilde_length:.12g}"
        if not res.converged:
            return _fail("not-converged", info)
        eps = self.opts.eps_bvp
        if not res.endpoint_error < eps:
            return _fail("oracle-endpoint", info, wrong=True)
        if name == "paraboloid":
            exact = sphere_angle(p, q)
        elif name == "punctured-plane":
            exact = _chart_distance(p, q)  # e^sigma g = I
        else:
            if branches != 1:
                return _fail("oracle-branches", info, wrong=True)
            return _ok(info)
        err = abs(res.tilde_length - exact)
        info += f" length_err={err:.1e}"
        if not err <= eps:
            return _fail("oracle-length", info, wrong=True)
        return _ok(info)


# invariant of the geodesic flow for g = lam I: e^(c sigma) g(v, v) is
# constant along geodesics of each connection (nabla and its conjugate are
# reparametrized e^sigma g geodesics, d tilde-time = e^(+-2 sigma) dt)
_CONSERVED_EXP = {"lc": 0.0, "nabla": -3.0, "bar": 3.0, "lc-tilde": 1.0}
_CONSERVED_TOL = 1e-6
_ROUND_TRIP_TOL = 1e-8  # acceptance criterion 6


class Trace:
    """One geodesic per op, integrate_geodesic to t = 1 with 129 samples.

    Cycles run all four connections on all four built-ins.  Speeds are
    log-uniform over a wide range per manifold, in the chart (euclidean
    0.05..20, paraboloid 0.05..1.5, punctured plane 0.05..3) or in g-units
    on the half plane (0.05..300), so fast half-plane paths run into
    x2 -> 0 and end `exited-domain`; the paraboloid and punctured-plane
    caps keep the finite-time blow-ups of the conjugate connection to a
    fraction of a second.  Completed nabla paths also make the round trip
    through reparam_to_tilde and reparam_from_tilde and get a
    geodesic_residual.
    """

    name = "trace"
    known_failures = {"step-limit", "oracle-round-trip"}
    _SPEED = {"euclidean": 20.0, "paraboloid": 1.5, "punctured-plane": 3.0,
              "half-plane-exp": 300.0}

    def __init__(self, dv, seed):
        self.dv = dv
        self.seed = seed
        self.M = {m: dv.manifold.load_manifold(m) for m in MANIFOLDS}
        self.shift = np.random.default_rng([seed]).uniform(size=STRATA)
        self.kinds = tuple(k.value for k in dv.statstruct.ConnKind)
        self.classes = tuple(f"{m}/{k}" for k in self.kinds for m in MANIFOLDS)

    def warm_up(self):
        _compile_jets(self.dv, self.M.values())

    def op(self, i):
        name, kind = self.classes[i % len(self.classes)].split("/")
        rng = np.random.default_rng([self.seed, i])
        # the strata set the speed, where x sits, the heading, and on the
        # paraboloid and the punctured plane x's polar angle `turn`, the
        # heading being relative to it there
        u, w, a, o = _strata(self.shift, i, len(self.classes))
        turn = 2.0 * math.pi * o
        (a0, b0), (a1, b1) = BOXES[name]
        heading = 2.0 * math.pi * a
        if name == "paraboloid":
            x = _polar(b0 * math.sqrt(w), turn)  # the disk in the box
            heading += turn
        elif name == "punctured-plane":
            x = _polar(math.sqrt(0.49 + w * (5.1 - 0.49)), turn)
            heading += turn
        elif name == "half-plane-exp":
            x = np.array([rng.uniform(a0, b0), a1 + w * (b1 - a1)])
        else:
            x = np.array([rng.uniform(a0, b0), rng.uniform(a1, b1)])
        lo, hi = math.log(0.05), math.log(self._SPEED[name])
        speed = math.exp(lo + u * (hi - lo))
        if name == "half-plane-exp":
            speed *= x[1]  # g-unit speed
        return name, kind, x, _polar(speed, heading)

    def describe(self, op):
        name, kind, x, v = op
        return (f"{name} {kind} x=({x[0]:.4f},{x[1]:.4f}) "
                f"v=({v[0]:.4f},{v[1]:.4f})")

    def run(self, op):
        name, kind, x, v = op
        geo = self.dv.geodesic
        M = self.M[name]
        path = geo.integrate_geodesic(M, kind, x, v, 1.0)
        info = f"status={path.status} samples={len(path.ts)}"
        if path.status == "step-limit":
            return _fail("step-limit", info)
        if not all(in_domain(name, p) for p in path.xs):
            return _fail("oracle-prefix", info, wrong=True)
        if path.status == "exited-domain":
            return _ok(info)
        if path.status != "completed" or len(path.ts) < 129:
            return _fail("oracle-status", info, wrong=True)
        # the integrator's absolute tolerance swamps the invariant where the
        # state itself gets that small (x2 -> 0 on the half plane), so it is
        # checked on the samples inside the box the inputs come from
        xs, vs = path.xs, path.vs
        inside = np.array([_in_box(name, x) for x in xs])
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.exp(_CONSERVED_EXP[kind] * sigma(name, xs[inside])) * lam(
                name, xs[inside]) * np.einsum("ij,ij->i", vs[inside], vs[inside])
        drift = float(np.max(np.abs(q / q[0] - 1.0)))
        info += f" drift={drift:.1e}"
        if not drift <= _CONSERVED_TOL:
            return _fail("oracle-invariant", info, wrong=True)
        if kind != "nabla":
            return _ok(info)
        tilde = geo.reparam_to_tilde(M, path)
        back = geo.reparam_from_tilde(M, tilde)
        res = geo.geodesic_residual(M, "lc-tilde", tilde)
        gap = float(np.max(np.abs(back.ts - path.ts)))
        info += f" round_trip={gap:.1e} residual={res:.1e}"
        if not gap <= _ROUND_TRIP_TOL:
            return _fail("oracle-round-trip", info, wrong=True)
        return _ok(info)


# Expected scan verdicts, from closed forms rather than from program output.
# In 2-D the scanned quantity is 2k + |dsigma|^2_g - Lap_g sigma:
#   euclidean        0 everywhere                          -> pass
#   half-plane-exp   -2 + x2^2 (e^-2x2 - e^-x2) < 0         -> pass
#   paraboloid       e^sigma g is the unit sphere; 4 at 0   -> FAIL, exit 1
#   punctured-plane  16 r^-6 e^(-2/r^2) > 0                 -> FAIL, exit 1
_HADAMARD_PASSES = {"euclidean": True, "half-plane-exp": True,
                    "paraboloid": False, "punctured-plane": False}
GRID_POINTS = 18  # per axis; even, so a grid centred on 0 misses the origin
CHECK_SAMPLES = 100


class Scan:
    """CLI scans in-process: `check` and `hadamard` on every built-in.

    A cycle is eight fixed commands drawn from the seed, repeated for the
    whole run, so every repeat can be compared byte for byte with the
    first output of the same command in the run.  The 18x18 grid makes a
    hadamard command cost about as much as a 100-sample check, so neither
    command kind dominates the scan's time.
    """

    name = "scan"
    known_failures = set()

    def __init__(self, dv, seed):
        self.dv = dv
        rng = np.random.default_rng([seed, 0])
        self.commands = []
        for name in MANIFOLDS:
            self.commands.append(
                ("check", name, ["check", name, "--samples", str(CHECK_SAMPLES),
                                 "--seed", str(int(rng.integers(0, 2**31)))]))
        for name in MANIFOLDS:
            self.commands.append(
                ("hadamard", name, ["hadamard", name, "--grid", _grid(rng, name)]))
        self.classes = tuple(f"{c}/{m}" for c, m, _ in self.commands)
        self.first = {}

    def warm_up(self):
        # every command loads its manifold afresh; this runs the CLI's own
        # first-call work (argument parsing, lazy imports) once, untimed
        with contextlib.redirect_stdout(io.StringIO()):
            self.dv.cli.run(["check", "euclidean", "--samples", "8"])

    def op(self, i):
        return self.commands[i % len(self.commands)]

    def describe(self, op):
        return " ".join(op[2])

    def points(self, op):
        return CHECK_SAMPLES if op[0] == "check" else GRID_POINTS ** 2

    def run(self, op):
        cmd, name, argv = op
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.dv.cli.run(argv)
        text = out.getvalue()
        lines = text.splitlines()
        result = lines[-1] if lines else ""
        info = f"exit={code} {result}"
        if code not in (0, 1):
            return _fail(f"exit-{code}", info + " " + err.getvalue().strip())
        passes = True if cmd == "check" else _HADAMARD_PASSES[name]
        want = (0, "result: pass") if passes else (1, "result: FAIL")
        if (code, result) != want:
            return _fail("oracle-verdict", info, wrong=True)
        key = " ".join(argv)
        if self.first.setdefault(key, text) != text:
            return _fail("oracle-repeat", info, wrong=True)
        return _ok(info)


def _grid(rng, name):
    (a0, b0), (a1, b1) = BOXES[name]
    if name == "punctured-plane":
        # centred on the puncture; an even count never samples the origin
        h = [rng.uniform(1.0, b0), rng.uniform(1.0, b1)]
        axes = [(-h[0], h[0]), (-h[1], h[1])]
    else:
        axes = []
        for a, b in ((a0, b0), (a1, b1)):
            w = 0.25 * (b - a)
            axes.append((a + rng.uniform(0.0, w), b - rng.uniform(0.0, w)))
    return ",".join(f"x{k + 1}:{lo!r}:{hi!r}:{GRID_POINTS}"
                    for k, (lo, hi) in enumerate(axes))


WORKLOADS = {"shoot": Shoot, "trace": Trace, "scan": Scan}
