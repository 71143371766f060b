"""Manifold definitions and the pointwise geometry of (M, g, sigma).

A manifold is an open subset of R^n in a single chart: coordinate names, a
boolean domain predicate, a symmetric matrix of metric expressions, and a
scalar potential sigma, all parsed by exprcore.  Loading a definition
builds the symbolic jets of g and sigma up to second order, in groups a
query can ask for alone: the values of g and sigma, dg, d2g, dsigma and
d2sigma.  It checks g positive definite at 32 seeded samples, with the
scale-free test every metric query makes (PointGeometry.g_spd).  Each
group is compiled into a kernel when it is first read;
ManifoldDef.compiled(key) is the one cache of a manifold's compiled
code, the sprays and the integrators emitted per connection included.

ManifoldDef.at(x) checks the domain once and returns a PointGeometry,
which evaluates those kernels and derives g^-1, the coefficients of the
four connections, the difference tensor K, their derivatives, the
curvature and Ricci, the statistical curvature S, the cubic form C and
|dsigma|^2_g on first use, each at most once.  M.at(x) and M.at_many(xs)
are the one way to read pointwise geometry: everything downstream reads
its members.  metric_at, hess_sigma and laplace_sigma each read one member
of M.at(x), and in_domain tests membership without raising.

The geodesic integrator asks for one thing only, the spray
a = -Gamma(v, v) of a connection at (x, v), and ManifoldDef.spray(kind)
gives it as one more compiled kernel, built from the same jet trees:
Gamma^k_ij = (g^-1 s_ij)^k / 2 with s_ij,l = d_i g_jl + d_j g_il - d_l g_ij,
plus the terms of K and of the projective change in |v|^2_g grad sigma
and (dsigma . v) v.  g^-1 is applied by an emitted LDL^T solve, before
anything is contracted with v, so no intermediate is larger than Gamma
or grad sigma themselves.
PointGeometry.gamma is the reference the spray is tested against.  The
emitted integrator inlines its code after the predicate's (_inline).

A point is in the chart where its coordinates, every side of every
comparison in the domain and every entry of g and sigma are finite, and
the comparisons, joined by `and` / `or`, hold: _values decides that, and
_inline all of it but the coordinates, which the integrator keeps finite
from a start that at() checked.  A sample guard is decided as DomainPred is.
An option is checked where it enters, by _count, _generator_seed or _positive.

Index conventions: connection arrays are gamma[k, i, j] = Gamma^k_ij,
derivative stacks put the new derivative index first, and curvature
arrays are R[l, k, i, j] with R(d_i, d_j) d_k = R^l_kij d_l.
"""

import copy
import enum
import itertools
import json
import math
import numbers
import operator
import os
from functools import cache, cached_property, partial, reduce

import numpy as np

from .exprcore import (
    EvalDomainError,
    ExprError,
    Num,
    Una,
    Var,
    _bin,
    _render,
    _una,
    compile_many,
    parse,
    parse_pred,
)

__all__ = [
    "BUILTINS",
    "ConnKind",
    "DefinitionError",
    "OutOfDomainError",
    "ManifoldDef",
    "PointGeometry",
    "DomainPred",
    "load_manifold",
    "in_domain",
    "metric_at",
    "hess_sigma",
    "laplace_sigma",
    "sample_domain",
]

# the one degeneracy floor.  PointGeometry.g_spd passes g where C =
# D^-1/2 g D^-1/2, D = diag(g), has lambda_min(C) > floor lambda_max(C), and
# curvature._plane_basis passes a plane whose relative Gram determinant
# exceeds it.  So coordinate plane (a, b) spans where g passes: 1 - C_ab^2
# >= lambda_min(C) > floor lambda_max(C) >= floor, by interlacing and C_aa = 1
SPD_EIG_FLOOR = 1e-10


class ConnKind(enum.Enum):
    """The four connections attached to (g, sigma)."""

    LC_G = "lc"
    NABLA = "nabla"
    NABLA_BAR = "bar"
    LC_G_TILDE = "lc-tilde"


# kind -> (a, b) with Gamma_kind = Gamma_g + a K + b P, K the difference
# tensor and P the projective term: nabla = Gamma_g + K, its dual
# Gamma_g - K, and the Levi-Civita connection of e^sigma g is nabla + P
_CONN_TERMS = {
    ConnKind.LC_G: (0, 0),
    ConnKind.NABLA: (1, 0),
    ConnKind.NABLA_BAR: (-1, 0),
    ConnKind.LC_G_TILDE: (1, 1),
}


class DefinitionError(Exception):
    """A manifold document failed validation."""


class OutOfDomainError(Exception):
    """A geometry query was made outside the chart domain."""


# ---------------------------------------------------------------------------
# domain predicates: comparisons joined by `and` / `or`


class DomainPred:
    """Boolean predicate over chart coordinates.

    exprcore.parse_pred reads `src` into `tree`: comparisons
    `expr (< | <= | > | >=) expr`, or the constant `true`, joined by
    `and`/`or` (`and` binds tighter).  It holds where every side
    evaluates finite and the joined comparisons hold.
    """

    def __init__(self, src, coords):
        self.src = src
        self.tree = parse_pred(src, coords)
        sides = _pred_sides(self.tree)
        self._sides = compile_many(sides) if sides else None
        self._decide = eval(f"lambda v: {_verdict(self.tree, 'v[{}]'.format)}")  # noqa: S307

    def __call__(self, x):
        if self._sides is None:
            return True
        vals = self._sides.get(x)
        return vals is not None and self._decide(vals)

    def many(self, xs):
        """The verdict at each row of xs (N, n).

        Every comparison is evaluated on every row, with `and` / `or`
        taken elementwise; a row on which a side fails (a NaN row of the
        sides' batch) is False.  So every verdict is the scalar one, up to
        last-bit rounding of the sides at the boundary (see exprcore).
        """
        if self._sides is None:
            return np.ones(len(xs), dtype=bool)
        vals = self._sides.many(xs)
        with np.errstate(invalid="ignore"):
            return self._decide(vals.T) & ~np.isnan(vals[:, 0])

    def __repr__(self):
        return f"DomainPred({self.src!r})"


def _verdict(tree, side, slots=None):
    # the predicate as one Python expression of its side values, side(i)
    # naming value i in _pred_sides order.  & and | decide floats and numpy
    # columns (elementwise) alike, so this is the predicate's only decider:
    # for one point, for a batch, and inlined in emitted code
    slots = itertools.count(0, 2) if slots is None else slots
    tag = tree[0]
    if tag == "true":
        return "True"
    if tag == "cmp":
        i = next(slots)
        return f"({side(i)} {tree[1]} {side(i + 1)})"
    join = " & " if tag == "and" else " | "
    return "(" + join.join(_verdict(t, side, slots) for t in tree[1]) + ")"


def _pred_sides(tree):
    # both sides of every comparison, in the order _verdict reads them
    if tree[0] == "true":
        return []
    if tree[0] == "cmp":
        return [tree[2], tree[3]]
    return [e for t in tree[1] for e in _pred_sides(t)]


# ---------------------------------------------------------------------------
# definition documents


BUILTINS = {
    "euclidean": {
        "name": "euclidean",
        "dim": 2,
        "coords": ["x1", "x2"],
        "metric": [["1", "0"], ["0", "1"]],
        "sigma": "0",
        "sample_box": [[-3, 3], [-3, 3]],
    },
    "paraboloid": {
        "name": "paraboloid",
        "dim": 2,
        "coords": ["x1", "x2"],
        "metric": [
            ["2/(x1^2+x2^2+1)", "0"],
            ["0", "2/(x1^2+x2^2+1)"],
        ],
        "sigma": "-log(0.5*(x1^2+x2^2+1))",
        "sample_box": [[-3, 3], [-3, 3]],
    },
    "punctured-plane": {
        "name": "punctured-plane",
        "dim": 2,
        "coords": ["x1", "x2"],
        "domain": "x1^2 + x2^2 > 0",
        "metric": [
            ["exp(2/(x1^2+x2^2))", "0"],
            ["0", "exp(2/(x1^2+x2^2))"],
        ],
        "sigma": "-2/(x1^2+x2^2)",
        "sample_box": [[-2.3, 2.3], [-2.3, 2.3]],
        # derivative magnitudes explode toward the puncture; keep random
        # sampling in an annulus where double precision holds identities
        "sample_guard": "x1^2 + x2^2 > 0.49 and x1^2 + x2^2 < 5.1",
    },
    "half-plane-exp": {
        "name": "half-plane-exp",
        "dim": 2,
        "coords": ["x1", "x2"],
        "domain": "x2 > 0",
        "metric": [["1/x2^2", "0"], ["0", "1/x2^2"]],
        "sigma": "exp(-x2)",
        "sample_box": [[-5, 5], [0.1, 10]],
    },
}


class ManifoldDef:
    """Validated manifold definition with the symbolic jets of g and sigma.

    Every expression in the document is a source string; `doc` keeps a
    deep copy of the document as given.  Immutable after construction; all
    geometry queries are pure and go through at(x), which holds no state
    between calls.  The exception is the one cache of compiled code,
    compiled(key), filled on first use.  load_manifold shares one
    definition of each built-in across the process, so callers must not
    modify a definition or its doc (conjugate builds a new document).
    """

    def __init__(self, doc):
        try:
            name = doc["name"]
            n = doc["dim"]
            coords = doc["coords"]
            metric_src = doc["metric"]
            sigma_src = doc["sigma"]
        except (KeyError, TypeError) as err:
            raise DefinitionError(f"bad manifold document: {err!r}") from None
        domain_src = doc.get("domain", "true")
        guard_src = doc.get("sample_guard")
        dim_ok = isinstance(n, int) and not isinstance(n, bool) and n >= 2
        for key, ok, want in (
            ("name", isinstance(name, str), "a string"),
            ("dim", dim_ok, "an integer >= 2"),
            ("coords", dim_ok and _list_of(coords, n, str), f"{n} names"),
            (
                "metric",
                dim_ok and _list_of(metric_src, n, (list, tuple))
                and all(_list_of(row, n, str) for row in metric_src),
                f"{n} rows of {n} expression strings",
            ),
            ("sigma", isinstance(sigma_src, str), "an expression string"),
            ("domain", isinstance(domain_src, str), "a predicate"),
            ("sample_guard", isinstance(guard_src, (str, type(None))), "a predicate"),
        ):
            if not ok:
                raise DefinitionError(f"{key} must be {want}, got {doc[key]!r}")
        coords = tuple(coords)
        if len(set(coords)) != n:
            raise DefinitionError("coordinate names must be distinct")

        self.name = name
        self.n = n
        self.coords = coords

        def parsed(key, read, src):
            # read(src, coords); a parse error names the field it is in
            try:
                return read(src, coords)
            except ExprError as err:
                raise DefinitionError(f"{name}: {key}: {err}") from None

        self.domain = parsed("domain", DomainPred, domain_src)
        self._sigma = parsed("sigma", parse, sigma_src)
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                e = parsed(f"metric[{i}][{j}]", parse, metric_src[i][j])
                if j > i and parsed(f"metric[{j}][{i}]", parse, metric_src[j][i]) != e:
                    raise DefinitionError(f"metric not syntactically symmetric at ({i},{j})")
                # one shared node per unordered pair keeps evaluated
                # matrices exactly symmetric
                rows[i][j] = rows[j][i] = e
        self._g = rows

        box = doc.get("sample_box")
        try:
            box = np.asarray([[-1.0, 1.0]] * n if box is None else box, dtype=float)
        except (TypeError, ValueError, OverflowError):
            box = None
        # a width that is finite in floats bounds both ends, and NaN fails it
        if box is None or box.shape != (n, 2) or not all(
                lo <= hi and math.isfinite(hi - lo) for lo, hi in box.tolist()):
            raise DefinitionError(f"sample_box must be {n} pairs lo <= hi of numbers, "
                                  f"a finite width apart, got {doc['sample_box']!r}")
        self.sample_box = box
        self.sample_guard = (
            parsed("sample_guard", DomainPred, guard_src) if guard_src is not None else None
        )

        self.doc = copy.deepcopy(doc)

        # symbolic jets up to second order, one tree per unordered index
        # pair so that evaluated arrays are exactly symmetric (diff keeps
        # each derivative on its node); each kernel lists its roots in the
        # row-major order of its array
        sigma = self._sigma
        g = [rows[i][j] for i in range(n) for j in range(n)]
        self.jet_roots = {
            "values": g + [sigma],
            "dg": [e.diff(k) for k in range(n) for e in g],
            "d2g": [e.diff(k).diff(l) for k in range(n) for l in range(n) for e in g],
            "dsigma": [sigma.diff(k) for k in range(n)],
            "d2sigma": [sigma.diff(min(k, l)).diff(max(k, l)) for k in range(n) for l in range(n)],
        }
        self._compiled = {}

        # g is checked at seeded samples, as every metric query checks it
        try:
            self.at_many(sample_domain(self, 32, seed=1723)).g_spd
        except OutOfDomainError as err:
            raise DefinitionError(str(err)) from None

    def compiled(self, key, build=None):
        """The compiled code kept under `key`, built on its first use.

        A jet group name (a key of jet_roots) gives that group's kernel,
        and a ConnKind the spray of that connection (spray(kind)).  Under
        any other key, build() makes the code the first time; the geodesic
        integrator keeps its function per connection so.  A kernel keeps
        its emission plan (kernel.plan), which _inline renders.  Loading
        compiles the "values" kernel only.
        """
        code = self._compiled.get(key)
        if code is None:
            if build is not None:
                code = build()
            elif isinstance(key, ConnKind):
                acc = _spray_roots(self._g, self._sigma, *_CONN_TERMS[key])
                code = compile_many(self.jet_roots["values"] + acc)
            else:
                code = compile_many(self.jet_roots[key])
            self._compiled[key] = code
        return code

    def spray(self, kind):
        """The compiled spray of the connection `kind`.

        Called on the 2n floats (x, v), the kernel returns the entries of
        g and sigma at x, as the "values" kernel lists them, and then the
        n components of the acceleration a = -Gamma(v, v).  Because the
        values come first, the kernel raises EvalDomainError (its get
        returns None) exactly where the values kernel does, and also where
        a is not finite; the domain predicate is left to the caller.
        """
        return self.compiled(ConnKind(kind))

    def _inline(self, kernel, args, prefix, outside):
        """(lines, names): the chart test, then `kernel`, at the local floats args.

        Where x is outside the chart, or kernel's get would give None, the
        lines run `outside`, or raise ArithmeticError or ValueError where a
        side or a value does not evaluate; elsewhere they assign kernel's
        values to `names`.  The lines are rendered from the plans kept on
        the compiled kernels (exprcore._plan), so no tree is walked again.
        """
        def finite(names):
            # get's test; literals are finite, and a repeat proves nothing
            names = [a for a in dict.fromkeys(names) if a.isidentifier()]
            if len(names) < 2:
                return [f"if not _isfinite({a}): {outside}" for a in names]
            each = " and ".join(f"_isfinite({a})" for a in names)
            return [f"if not (_isfinite({' + '.join(names)}) or {each}): {outside}"]

        lines = []
        if self.domain._sides is not None:
            body, sides = _render(self.domain._sides.plan, args.__getitem__,
                                  prefix + "d", named=True)
            lines += body + finite(sides)
            lines.append(f"if not {_verdict(self.domain.tree, sides.__getitem__)}: {outside}")
        body, outs = _render(kernel.plan, args.__getitem__, prefix + "v", named=True)
        return lines + body + finite(outs), outs

    def _values(self, x):
        # the entries of g, then sigma, at the float tuple x; None outside the chart
        if all(map(math.isfinite, x)) and self.domain(x):
            return self.compiled("values").get(x)

    def _values_many(self, xs):
        # _values at each row of xs (N, n), NaN rows outside the chart
        values = self.compiled("values").many(xs)
        values[~(np.isfinite(xs).all(axis=1) & self.domain.many(xs))] = np.nan
        return values

    def at(self, x):
        """The PointGeometry at x; OutOfDomainError outside the chart."""
        x = _pt(self, x)
        values = self._values(x)
        if values is None:
            raise self._outside(x)
        g = np.array(values[:-1]).reshape(self.n, self.n)
        return PointGeometry(self, x, g, values[-1])

    def at_many(self, xs):
        """The PointGeometry of the batch xs (N, n), one point per row.

        OutOfDomainError names the first row outside the chart, with the
        message at(row) gives.
        """
        xs = np.array(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.n:
            raise ValueError(
                f"expected an (N, {self.n}) array of points, got shape {xs.shape}"
            )
        values = self._values_many(xs)
        P = PointGeometry(self, xs, values[:, :-1].reshape(-1, self.n, self.n), values[:, -1])
        if x := P._failing(np.isnan(values[:, 0])):
            raise self._outside(x)
        return P

    def _outside(self, x):
        return OutOfDomainError(f"{x} is outside the domain of {self.name}")

    def __repr__(self):
        return f"ManifoldDef({self.name!r}, n={self.n})"


def _spray_roots(g, sigma, a, b):
    """Trees of a^k = -Gamma^k_ij v^i v^j, velocity v^i being Var(n + i).

    Gamma = Gamma_g + a K + b P, with K(v, v) = -|v|^2_g grad sigma / 2
    - (dsigma . v) v and P(v, v) = 2 (dsigma . v) v, so Gamma(v, v) =
    Gamma_g(v, v) + c1 |v|^2_g grad sigma + c2 (dsigma . v) v with
    c1 = -a/2 and c2 = 2b - a.  g is the n x n grid of metric trees and
    sigma the weight's tree; diff keeps their derivatives, the jets' trees.
    Every term applies g^-1 to a jet first and meets v last, so an
    intermediate overflows only where Gamma or grad sigma does.
    """
    c1, c2 = -a / 2, 2 * b - a
    n = len(g)
    v = [Var(n + i, f"v{i + 1}") for i in range(n)]

    def d(k, i, j):  # d_k g_ij
        return g[i][j].diff(k)

    dsigma = [sigma.diff(k) for k in range(n)]
    solve = _ldlt_solver(g)
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    terms = [[] for _ in range(n)]
    for i, j in upper:
        s = [_bin("sub", _bin("add", d(i, j, l), d(j, i, l)), d(l, i, j)) for l in range(n)]
        # Gamma^k_ij v^i v^j, counting (i, j) and (j, i) once each
        vv = _prod(Num(1.0 if i == j else 2.0), v[i], v[j])
        for k, z in enumerate(solve(s)):
            terms[k].append(_prod(Num(0.5), z, vv))
    if c1:
        # c1 |v|^2_g grad^k, with grad^k g_ij formed before it meets v
        grad = solve(dsigma)
        for k in range(n):
            for i, j in upper:
                m = 1.0 if i == j else 2.0
                terms[k].append(_prod(Num(c1 * m), grad[k], g[i][j], v[i], v[j]))
    if c2:
        dv = _sum([_prod(dsigma[i], v[i]) for i in range(n)])
        for k in range(n):
            terms[k].append(_prod(Num(c2), dv, v[k]))
    return [_una("neg", _sum(t)) for t in terms]


def _ldlt_solver(g):
    # g = L D L^T without pivoting (g is SPD in the chart), as trees; the
    # returned function maps the trees of b to those of g^-1 b.  No
    # determinant is formed: it overflows long before g does.  The
    # emitter folds the exact zeros, so a diagonal metric's solve is one
    # division per component
    n = len(g)
    L = [[None] * n for _ in range(n)]
    D = [None] * n
    for j in range(n):
        # E[i] = L_ij D_j, the part of column j before the division
        E = [_bin("sub", g[i][j], _sum([_prod(L[i][k], L[j][k], D[k]) for k in range(j)]))
             for i in range(j, n)]
        D[j] = E[0]
        for i in range(j + 1, n):
            L[i][j] = _bin("div", E[i - j], D[j])

    def solve(b):
        y = []
        for i in range(n):
            y.append(_bin("sub", b[i], _sum([_prod(L[i][k], y[k]) for k in range(i)])))
        x = [None] * n
        for i in reversed(range(n)):
            z = _bin("div", y[i], D[i])
            x[i] = _bin("sub", z, _sum([_prod(L[k][i], x[k]) for k in range(i + 1, n)]))
        return x

    return solve


def _sum(terms):
    return reduce(partial(_bin, "add"), terms, Num(0.0))


def _prod(*factors):
    return reduce(partial(_bin, "mul"), factors)


def _list_of(seq, count, kind):
    # a list or tuple of `count` entries, each of type `kind`
    return isinstance(seq, (list, tuple)) and len(seq) == count and all(
        isinstance(s, kind) for s in seq
    )


@cache
def _builtin(name):
    # the process's one ManifoldDef of the built-in `name`, made on its
    # first request: at most len(BUILTINS) entries, none made at import
    return ManifoldDef(BUILTINS[name])


def load_manifold(doc):
    """Load a manifold from a built-in name, a JSON file path, or a dict.

    A built-in name gives one shared ManifoldDef per process, built on the
    first request, so its parse, jets, SPD check and compiled kernels are
    paid once; a dict or a file gives a new ManifoldDef on every call (a
    file may change between calls).  Callers must not modify a returned
    definition or its doc.
    """
    if isinstance(doc, str):
        if doc in BUILTINS:
            return _builtin(doc)
        elif os.path.isfile(doc):
            try:
                with open(doc) as fh:
                    doc = json.load(fh)
            except (OSError, json.JSONDecodeError) as err:
                raise DefinitionError(f"cannot read manifold file {doc}: {err}") from None
        else:
            raise DefinitionError(
                f"unknown manifold {doc!r} (not a built-in, not a file)"
            )
    if not isinstance(doc, dict):
        raise DefinitionError("manifold document must be a dict or a name/path")
    return ManifoldDef(doc)


# ---------------------------------------------------------------------------
# pointwise geometry


def _pt(M, x):
    x = tuple(map(float, x))
    if len(x) != M.n:
        raise ValueError(f"expected {M.n} coordinates, got {len(x)}")
    return x


class PointGeometry:
    """The geometry of M at one chart point or a batch of them.

    Made by ManifoldDef.at (x a tuple, sigma a float, g of shape (n, n))
    or ManifoldDef.at_many (x of shape (N, n), every array with a leading
    axis of N, sigma of shape (N,)), whose domain check gives g and sigma.
    The other attributes evaluate their kernel or derive their tensor on
    first use and keep it.  Each has one formula, written once for both
    shapes: grad_sigma is the linear solve g grad = dsigma, which K, dK,
    dsigma_sq, the checks and the scans all read, and dgrad_sigma is its
    derivative.
    A derivative that cannot be evaluated raises EvalDomainError when it
    is first asked for, so a query never pays for, or fails on, a jet it
    does not use; in a batch the error names the first failing row, as
    the single-point kernel does.  Batched values can differ from
    single-point ones in the last bits (see exprcore).
    """

    def __init__(self, M, x, g, sigma):
        self.M = M
        self.x = x
        self.n = M.n
        self.g = g
        self.sigma = sigma
        self._lead = g.shape[:-2]  # () for one point, (N,) for a batch
        self._by_kind = {}

    def _jet(self, name, shape):
        kernel = self.M.compiled(name)
        if not self._lead:
            return np.array(kernel(self.x)).reshape(shape)
        out = kernel.many(self.x)
        if x := self._failing(np.isnan(out[:, 0])):
            kernel(x)  # raises that row's error
        return out.reshape(self._lead + shape)

    def _failing(self, bad):
        # the chart point of the first row where bad holds (x itself, for
        # one point), or None where it holds nowhere
        i = np.flatnonzero(bad)
        if i.size:
            return tuple(self.x[i[0]].tolist()) if self._lead else self.x

    def _t(self, a, *axes):
        # permute the per-point axes of a; a batch keeps its leading axis
        if not self._lead:
            return a.transpose(axes)
        return a.transpose(0, *(1 + i for i in axes))

    def _compose(self, a, b):
        # a^l_im b^m_jk, indexed [l,k,i,j]: one product of a as (li, m) by
        # b as (m, jk) per point, read as [l,i,j,k]
        n = self.n
        ab = a.reshape(self._lead + (n * n, n)) @ b.reshape(self._lead + (n, n * n))
        return self._t(ab.reshape(self._lead + (n,) * 4), 0, 3, 1, 2)

    @cached_property
    def dg(self):
        """dg[k, i, j] = d_k g_ij."""
        n = self.n
        return self._jet("dg", (n, n, n))

    @cached_property
    def d2g(self):
        """d2g[k, l, i, j] = d_l d_k g_ij."""
        n = self.n
        return self._jet("d2g", (n, n, n, n))

    @cached_property
    def dsigma(self):
        return self._jet("dsigma", (self.n,))

    @cached_property
    def d2sigma(self):
        """Exactly symmetric second partials of sigma."""
        n = self.n
        return self._jet("d2sigma", (n, n))

    @cached_property
    def g_spd(self):
        """g, once checked positive definite at each row by a scale-free test (SPD_EIG_FLOOR)."""
        d = np.diagonal(self.g, axis1=-2, axis2=-1)
        r = np.sqrt(np.where(d > 0.0, d, 1.0))  # r_i = 1 leaves C_ii = g_ii <= 0: fails
        with np.errstate(over="ignore"):  # overflows only where g fails, to NaN eigenvalues
            eig = np.linalg.eigvalsh(self.g / r[..., :, None] / r[..., None, :])
        if x := self._failing(~(eig[..., 0] > SPD_EIG_FLOOR * eig[..., -1])):
            raise OutOfDomainError(f"{self.M.name}: metric not SPD at {x}")
        return self.g

    @cached_property
    def exp_sigma(self):
        """e^sigma, the conformal factor of gtilde; EvalDomainError where it overflows."""
        with np.errstate(over="ignore"):
            es = np.exp(self.sigma)
        if x := self._failing(np.isinf(es)):
            raise EvalDomainError(Una("exp", self.M._sigma), "overflow", x)
        return es

    @cached_property
    def g_inv(self):
        return np.linalg.inv(self.g)

    @cached_property
    def dg_inv(self):
        """d_m (g^-1) = -g^-1 (d_m g) g^-1."""
        gi = self.g_inv[..., None, :, :]  # one product per m
        return -(gi @ self.dg @ gi)

    @cached_property
    def grad_sigma(self):
        """grad sigma = g^-1 dsigma, by a linear solve."""
        return np.linalg.solve(self.g, self.dsigma[..., None])[..., 0]

    @cached_property
    def dgrad_sigma(self):
        """dgrad[m, k] = d_m (grad sigma)^k, from dg^-1, dsigma and d2sigma."""
        return np.einsum("...mkl,...l->...mk", self.dg_inv, self.dsigma) + np.einsum(
            "...kl,...ml->...mk", self.g_inv, self.d2sigma
        )

    @cached_property
    def _dg_sym(self):
        # s[i,j,l] = d_i g_jl + d_j g_il - d_l g_ij
        dg = self.dg
        return dg + self._t(dg, 1, 0, 2) - self._t(dg, 1, 2, 0)

    @cached_property
    def christoffel(self):
        """Levi-Civita coefficients of g."""
        return 0.5 * np.einsum("...kl,...ijl->...kij", self.g_inv, self._dg_sym)

    @cached_property
    def dchristoffel(self):
        """d_m Gamma^k_ij of g, in matrix calculus from the jets."""
        d2g = self.d2g
        # d_m s[i,j,l] = d2g[m,i,j,l] + d2g[m,j,i,l] - d2g[m,l,i,j]
        ds = d2g + self._t(d2g, 0, 2, 1, 3) - self._t(d2g, 0, 2, 3, 1)
        return 0.5 * (
            np.einsum("...mkl,...ijl->...mkij", self.dg_inv, self._dg_sym)
            + np.einsum("...kl,...mijl->...mkij", self.g_inv, ds)
        )

    @cached_property
    def projective(self):
        """P[k,i,j] = d_i sigma delta^k_j + d_j sigma delta^k_i."""
        eye = np.eye(self.n)
        ds = self.dsigma
        return np.einsum("ki,...j->...kij", eye, ds) + np.einsum("kj,...i->...kij", eye, ds)

    @cached_property
    def dprojective(self):
        eye = np.eye(self.n)
        d2s = self.d2sigma
        return np.einsum("ki,...mj->...mkij", eye, d2s) + np.einsum(
            "kj,...mi->...mkij", eye, d2s
        )

    @cached_property
    def K(self):
        """K[k,i,j] = -(d_i sigma d^k_j + d_j sigma d^k_i + g_ij grad^k)/2."""
        return -0.5 * (
            self.projective + np.einsum("...ij,...k->...kij", self.g, self.grad_sigma)
        )

    @cached_property
    def dK(self):
        """dK[m,k,i,j] = d_m K^k_ij."""
        return -0.5 * (
            self.dprojective
            + np.einsum("...mij,...k->...mkij", self.dg, self.grad_sigma)
            + np.einsum("...ij,...mk->...mkij", self.g, self.dgrad_sigma)
        )

    def _conn(self, key, kind, base, k, p):
        # base + a k + b p for the (a, b) of kind (a ConnKind or its name),
        # read from the attributes named; a zero-coefficient term is skipped
        kind = ConnKind(kind)
        out = self._by_kind.get((key, kind))
        if out is None:
            a, b = _CONN_TERMS[kind]
            out = getattr(self, base)
            if a:
                out = out + a * getattr(self, k)
            if b:
                out = out + b * getattr(self, p)
            self._by_kind[key, kind] = out
        return out

    def gamma(self, kind):
        """Coefficients gamma[k,i,j] of the connection `kind`."""
        return self._conn("gamma", kind, "christoffel", "K", "projective")

    def dgamma(self, kind):
        """dgamma[m,k,i,j] = d_m gamma[k,i,j] of the connection `kind`."""
        return self._conn("dgamma", kind, "dchristoffel", "dK", "dprojective")

    def riemann(self, kind):
        """R[l,k,i,j] = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik."""
        key = ("riemann", ConnKind(kind))
        out = self._by_kind.get(key)
        if out is None:
            gam = self.gamma(kind)
            A = self._t(self.dgamma(kind), 1, 3, 0, 2) + self._compose(gam, gam)
            out = self._by_kind[key] = A - self._t(A, 0, 1, 3, 2)
        return out

    def ricci(self, kind):
        """Ric[j,k] = R^a_kaj, the trace of X -> R(X, d_j) d_k; needs g SPD."""
        self.g_spd  # outside the SPD region this raises, as metric_at does
        return np.einsum("...akaj->...jk", self.riemann(kind))

    @cached_property
    def statistical_curvature(self):
        """S = (R + Rbar)/2, coefficientwise."""
        return 0.5 * (self.riemann(ConnKind.NABLA) + self.riemann(ConnKind.NABLA_BAR))

    @cached_property
    def cubic_form(self):
        """Totally symmetric C[i,j,k] = d_i sigma g_jk + d_j sigma g_ki + d_k sigma g_ij."""
        # each unordered triple is evaluated once and written to all six
        # slots, so permutation symmetry holds exactly, not just to rounding
        g, ds, n = self.g, self.dsigma, self.n
        C = np.empty(self._lead + (n, n, n))
        for i, j, k in itertools.combinations_with_replacement(range(n), 3):
            v = ds[..., i] * g[..., j, k] + ds[..., j] * g[..., k, i] + ds[..., k] * g[..., i, j]
            for a, b, c in itertools.permutations((i, j, k)):
                C[..., a, b, c] = v
        return C

    @cached_property
    def hess_sigma(self):
        """Covariant Hessian d_i d_j sigma - Gamma^k_ij d_k sigma."""
        return self.d2sigma - np.einsum("...kij,...k->...ij", self.christoffel, self.dsigma)

    @cached_property
    def laplace_sigma(self):
        return np.einsum("...ij,...ij->...", self.g_inv, self.hess_sigma)

    @cached_property
    def dsigma_sq(self):
        """|dsigma|^2_g = dsigma . grad sigma."""
        return np.einsum("...i,...i->...", self.dsigma, self.grad_sigma)


def in_domain(M, x):
    """Chart membership: x is finite, the predicate holds and g, sigma evaluate finite."""
    return M._values(_pt(M, x)) is not None


def metric_at(M, x):
    """g(x) as an (n, n) SPD matrix."""
    return M.at(x).g_spd


def hess_sigma(M, x):
    """Covariant Hessian (nabla^g dsigma)_ij = d_i d_j sigma - Gamma^k_ij d_k sigma."""
    return M.at(x).hess_sigma


def laplace_sigma(M, x):
    return M.at(x).laplace_sigma


# ---------------------------------------------------------------------------
# sampling


def _count(name, value, least):
    # an option's count as an int (numpy integers pass), or ValueError
    # naming it: a bool is no count here
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
    return int(value)


def _positive(name, value):
    # an option's positive, finite real as a float (numpy reals and integers
    # pass), or ValueError naming it: a bool or a string is no number here
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def _generator_seed(value):
    # an option's seed as an int (numpy integers pass), or ValueError:
    # numpy's generators take non-negative integers only
    try:
        seed = operator.index(value)
    except TypeError:
        seed = -1
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {value!r}")
    return seed


def sample_domain(M, count, seed=0):
    """`count` in-domain points from the sample box, deterministic per seed."""
    count = _count("count", count, 0)
    rng = np.random.default_rng(_generator_seed(seed))
    lo, hi = M.sample_box[:, 0], M.sample_box[:, 1]
    # allocated up front, so numpy refuses a count no array can hold at once
    out = np.empty((count, M.n))
    found = attempts = 0
    limit = 200 * count + 1000
    while found < count:
        if attempts >= limit:
            raise DefinitionError(
                f"{M.name}: could not draw {count} in-domain samples "
                f"({found} found in {attempts} attempts)"
            )
        batch = rng.uniform(lo, hi, size=(min(count, 64), M.n))
        attempts += len(batch)
        # in_domain and the sample guard at each row
        ok = ~np.isnan(M._values_many(batch)[:, 0])
        if M.sample_guard is not None:
            ok &= M.sample_guard.many(batch)
        rows = batch[ok][: count - found]
        out[found:found + len(rows)] = rows
        found += len(rows)
    return out
