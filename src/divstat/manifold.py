"""Manifold definitions and the pointwise geometry of (M, g, sigma).

A manifold is an open subset of R^n in a single chart: coordinate names, a
boolean domain predicate, a symmetric matrix of metric expressions, and a
scalar potential sigma.  Loading a definition builds the symbolic jets of
g and sigma up to second order and compiles them into kernels, one per
group a query can ask for alone: the values of g and sigma, dg, d2g,
dsigma and d2sigma.

ManifoldDef.at(x) checks the domain once and returns a PointGeometry,
which evaluates those kernels and derives g^-1, the coefficients of the
four connections, the difference tensor K, their derivatives and the
curvature on first use, each at most once.  Everything downstream reads
pointwise quantities from that object; the (M, x) functions here are thin
wrappers over it.

The geodesic integrator asks for one thing only, the spray
a = -Gamma(v, v) of a connection at (x, v), and ManifoldDef.spray(kind)
gives it as one more compiled kernel, built on first use from the same
jet trees: Gamma^k_ij = (g^-1 s_ij)^k / 2 with
s_ij,l = d_i g_jl + d_j g_il - d_l g_ij, plus the terms of K and of the
projective change in |v|^2_g grad sigma and (dsigma . v) v.  g^-1 is
applied by an emitted LDL^T solve, before anything is contracted with v,
so no intermediate is larger than Gamma or grad sigma themselves.
PointGeometry.gamma is the reference the spray is tested against.

Index conventions: connection arrays are gamma[k, i, j] = Gamma^k_ij,
derivative stacks put the new derivative index first, and curvature
arrays are R[l, k, i, j] with R(d_i, d_j) d_k = R^l_kij d_l.
"""

import enum
import itertools
import json
import operator
import os
from functools import cached_property, partial, reduce

import numpy as np

from .exprcore import (
    EvalDomainError,
    Expr,
    ExprError,
    Num,
    ParseError,
    Var,
    _bin,
    _una,
    compile_many,
    parse,
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
    "metric_inverse_at",
    "metric_jet",
    "sigma_at",
    "sigma_jet",
    "christoffel_g",
    "grad_sigma",
    "hess_sigma",
    "laplace_sigma",
    "sample_domain",
]

SPD_EIG_FLOOR = 1e-12
_SPD_CHECK_SEED = 1723
_SPD_CHECK_COUNT = 32


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


_CMP_OPS = ("<=", ">=", "<", ">")


class DomainPred:
    """Boolean predicate over chart coordinates.

    Grammar: comparisons `expr (< | <= | > | >=) expr` joined by `and`/`or`
    (`and` binds tighter).  Parentheses belong to the arithmetic expressions,
    not the boolean layer.  The constant predicate is spelled `true`.
    """

    def __init__(self, src, coords):
        self.src = src
        self.tree = _parse_pred(src, coords)
        sides = _pred_sides(self.tree)
        self._sides = compile_many(sides) if sides else None
        self._decide = _decider(self.tree, itertools.count(0, 2))

    def __call__(self, x):
        # every side in one kernel call; where one fails to evaluate, the
        # tree walk decides, so an `or` whose deciding comparison comes
        # first keeps its verdict
        if self._sides is None:
            return True
        try:
            vals = self._sides(x)
        except EvalDomainError:
            return _eval_pred(self.tree, x)
        return self._decide(vals)

    def many(self, xs):
        """The verdict at each row of xs (N, n), or False where unsure.

        Every comparison is evaluated on every row, with `and` / `or`
        taken elementwise.  A row on which any comparison fails to
        evaluate reads False, even where the scalar predicate would
        short-circuit past that comparison, so a True here is always the
        scalar verdict (up to last-bit rounding at the boundary).
        """
        if self._sides is None:
            return np.ones(len(xs), dtype=bool)
        vals = self._sides.many(xs)
        with np.errstate(invalid="ignore"):
            verdict = self._decide(vals.T)
        return verdict & ~np.isnan(vals[:, 0])

    def __repr__(self):
        return f"DomainPred({self.src!r})"


def _split_keyword(src, word, base):
    """Top-level split on a keyword, returning chunks with global offsets."""
    parts = []
    depth = 0
    start = 0
    i = 0
    n = len(src)
    w = len(word)
    while i < n:
        c = src[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif (
            depth == 0
            and src[i : i + w] == word
            and (i == 0 or not (src[i - 1].isalnum() or src[i - 1] == "_"))
            and (i + w == n or not (src[i + w].isalnum() or src[i + w] == "_"))
        ):
            parts.append((src[start:i], base + start))
            start = i + w
            i += w
            continue
        i += 1
    parts.append((src[start:], base + start))
    return parts


def _parse_pred(src, coords, base=0):
    ors = _split_keyword(src, "or", base)
    if len(ors) > 1:
        return ("or", [_parse_pred(s, coords, b) for s, b in ors])
    ands = _split_keyword(src, "and", base)
    if len(ands) > 1:
        return ("and", [_parse_pred(s, coords, b) for s, b in ands])
    chunk, off = src.strip(), base + (len(src) - len(src.lstrip()))
    if chunk == "true":
        return ("true",)
    for op in _CMP_OPS:
        k = chunk.find(op)
        if k >= 0:
            lhs = _parse_at(chunk[:k], coords, off)
            rhs = _parse_at(chunk[k + len(op) :], coords, off + k + len(op))
            return ("cmp", op, lhs, rhs)
    raise ParseError(f"domain predicate chunk {chunk!r} has no comparison", off + 1)


def _parse_at(src, coords, base):
    # parse a slice of the predicate that starts at 0-based offset `base`,
    # so an error offset counts from the start of the whole predicate
    try:
        return parse(src, coords)
    except ParseError as err:
        raise ParseError(err.reason, base + err.offset) from None


def _eval_pred(tree, x):
    tag = tree[0]
    if tag == "true":
        return True
    if tag == "cmp":
        _, op, lhs, rhs = tree
        a = lhs.eval(x)
        b = rhs.eval(x)
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        return a >= b
    vals = (_eval_pred(t, x) for t in tree[1])
    return all(vals) if tag == "and" else any(vals)


_CMP_FUNCS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _decider(tree, slots):
    # the predicate as a function of the values of its sides, read in the
    # order _pred_sides lists them; `slots` counts off each comparison's
    # pair.  The values are floats, or numpy columns decided elementwise
    tag = tree[0]
    if tag == "true":
        return lambda vals: True
    if tag == "cmp":
        cmp, i = _CMP_FUNCS[tree[1]], next(slots)
        return lambda vals: cmp(vals[i], vals[i + 1])
    parts = [_decider(t, slots) for t in tree[1]]
    join = operator.and_ if tag == "and" else operator.or_
    return lambda vals: reduce(join, [p(vals) for p in parts])


def _pred_sides(tree):
    # both sides of every comparison, in the order _decider reads them
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
    """Validated manifold definition with its jets compiled into kernels.

    `sigma` in the document is a source string, or an Expr already parsed
    over the same coords, which is how conjugate passes its negated tree.
    Immutable after construction; all geometry queries are pure and go
    through at(x), which holds no state between calls.  The one exception
    is the cache of spray kernels, which spray(kind) fills on first use:
    loading a manifold does not pay for sprays that nothing integrates.
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
            ("sigma", isinstance(sigma_src, (str, Expr)), "an expression string"),
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
        self.domain_src = domain_src

        try:
            self.domain = DomainPred(self.domain_src, coords)
            self._sigma = (
                sigma_src if isinstance(sigma_src, Expr) else parse(sigma_src, coords)
            )
            rows = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    e = parse(metric_src[i][j], coords)
                    if parse(metric_src[j][i], coords) != e:
                        raise DefinitionError(
                            f"metric not syntactically symmetric at ({i},{j})"
                        )
                    # one shared node per unordered pair keeps evaluated
                    # matrices exactly symmetric
                    rows[i][j] = rows[j][i] = e
        except ExprError as err:
            raise DefinitionError(f"{name}: {err}") from None
        self._g = rows

        box = doc.get("sample_box")
        try:
            box = np.asarray([[-1.0, 1.0]] * n if box is None else box, dtype=float)
        except (TypeError, ValueError):
            box = None
        if box is None or box.shape != (n, 2):
            raise DefinitionError(f"sample_box must be {n} pairs of numbers")
        self.sample_box = box
        try:
            self.sample_guard = (
                DomainPred(guard_src, coords) if guard_src is not None else None
            )
        except ExprError as err:
            raise DefinitionError(f"{name}: sample_guard: {err}") from None

        # normalized source document, kept so derived manifolds (conjugate)
        # can be rebuilt through the same validation path
        self.doc = {
            "name": name,
            "dim": n,
            "coords": list(coords),
            "metric": [list(row) for row in metric_src],
            "sigma": sigma_src,
            "domain": self.domain_src,
            "sample_box": [[float(a), float(b)] for a, b in self.sample_box],
        }
        if guard_src is not None:
            self.doc["sample_guard"] = guard_src

        # symbolic jets up to second order, one tree per unordered index
        # pair so that evaluated arrays are exactly symmetric; each kernel
        # lists its roots in the row-major order of its array
        sigma = self._sigma
        upper = [(i, j) for i in range(n) for j in range(i, n)]
        pairs = [(min(i, j), max(i, j)) for i in range(n) for j in range(n)]
        dg = {(k, i, j): rows[i][j].diff(k) for k in range(n) for i, j in upper}
        d2g = {(k, l, i, j): dg[k, i, j].diff(l) for (k, i, j) in dg for l in range(n)}
        ds = [sigma.diff(k) for k in range(n)]
        d2s = {(k, l): ds[k].diff(l) for k, l in upper}
        self.jet_roots = {
            "values": [rows[i][j] for i, j in pairs] + [sigma],
            "dg": [dg[k, i, j] for k in range(n) for i, j in pairs],
            "d2g": [d2g[k, l, i, j] for k in range(n) for l in range(n) for i, j in pairs],
            "dsigma": ds,
            "d2sigma": [d2s[p] for p in pairs],
        }
        self.kernels = {
            group: compile_many(roots) for group, roots in self.jet_roots.items()
        }
        self._sprays = {}

        self._spd_spot_check()

    def spray(self, kind):
        """The compiled spray of the connection `kind`.

        Called on the 2n floats (x, v), the kernel returns the entries of
        g and sigma at x, as the "values" kernel lists them, and then the
        n components of the acceleration a = -Gamma(v, v).  Because the
        values come first, the kernel raises EvalDomainError (its get
        returns None) exactly where the values kernel does, and also where
        a is not finite; the domain predicate is left to the caller.  Each
        kind is compiled on its first use and kept on this object.
        """
        kind = ConnKind(kind)
        kernel = self._sprays.get(kind)
        if kernel is None:
            roots = self.jet_roots
            acc = _spray_roots(self._g, roots["dg"], roots["dsigma"], *_CONN_TERMS[kind])
            kernel = self._sprays[kind] = compile_many(roots["values"] + acc)
        return kernel

    def _spd_spot_check(self):
        pts = sample_domain(self, _SPD_CHECK_COUNT, seed=_SPD_CHECK_SEED)
        for x in pts:
            w = np.linalg.eigvalsh(self.at(x).g)
            if w.min() <= SPD_EIG_FLOOR:
                raise DefinitionError(
                    f"{self.name}: metric not SPD at {tuple(x)} (eigenvalues {w})"
                )

    def _values(self, x):
        # the entries of g, then sigma, at chart tuple x; None outside the chart
        try:
            if self.domain(x):
                return self.kernels["values"].get(x)
        except EvalDomainError:
            pass
        return None

    def _values_many(self, xs):
        # _values at each row of xs (N, n), NaN rows outside the chart; the
        # rows the batch rejects are decided by _values itself
        values = self.kernels["values"].many(xs)
        unsure = np.isnan(values[:, 0]) | ~self.domain.many(xs)
        for i in np.flatnonzero(unsure):
            row = self._values(tuple(xs[i].tolist()))
            values[i] = np.nan if row is None else row
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
        outside = np.flatnonzero(np.isnan(values[:, 0]))
        if outside.size:
            raise self._outside(tuple(xs[outside[0]].tolist()))
        g = values[:, :-1].reshape(len(xs), self.n, self.n)
        return PointGeometry(self, xs, g, values[:, -1])

    def _outside(self, x):
        return OutOfDomainError(f"{x} is outside the domain of {self.name}")

    def __repr__(self):
        return f"ManifoldDef({self.name!r}, n={self.n})"


def _spray_roots(g, dg, dsigma, a, b):
    """Trees of a^k = -Gamma^k_ij v^i v^j, velocity v^i being Var(n + i).

    Gamma = Gamma_g + a K + b P, with K(v, v) = -|v|^2_g grad sigma / 2
    - (dsigma . v) v and P(v, v) = 2 (dsigma . v) v, so Gamma(v, v) =
    Gamma_g(v, v) + c1 |v|^2_g grad sigma + c2 (dsigma . v) v with
    c1 = -a/2 and c2 = 2b - a.  g is the n x n grid of metric trees, dg
    the "dg" jet roots (row-major d_k g_ij) and dsigma the "dsigma" ones.
    Every term applies g^-1 to a jet first and meets v last, so an
    intermediate overflows only where Gamma or grad sigma does.
    """
    c1, c2 = -a / 2, 2 * b - a
    n = len(g)
    v = [Var(n + i, f"v{i + 1}") for i in range(n)]

    def d(k, i, j):  # d_k g_ij
        return dg[(k * n + i) * n + j]

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


def load_manifold(doc):
    """Load a manifold from a built-in name, a JSON file path, or a dict."""
    if isinstance(doc, str):
        if doc in BUILTINS:
            doc = BUILTINS[doc]
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
    the checks and the scans all read, and dgrad_sigma is its derivative.
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
        kernel = self.M.kernels[name]
        if not self._lead:
            return np.array(kernel(self.x)).reshape(shape)
        out = kernel.many(self.x)
        failed = np.flatnonzero(np.isnan(out[:, 0]))
        if failed.size:
            kernel(tuple(self.x[failed[0]].tolist()))  # raises that row's error
        return out.reshape(self._lead + shape)

    def _t(self, a, *axes):
        # permute the per-point axes of a; a batch keeps its leading axis
        if not self._lead:
            return a.transpose(axes)
        return a.transpose(0, *(1 + i for i in axes))

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
        """g, once it is checked to be positive definite (at every row of a batch)."""
        bad = np.flatnonzero(np.linalg.eigvalsh(self.g).min(axis=-1) <= SPD_EIG_FLOOR)
        if bad.size:
            x = tuple(self.x[bad[0]].tolist()) if self._lead else self.x
            raise OutOfDomainError(f"{self.M.name}: metric not SPD at {x}")
        return self.g

    @cached_property
    def g_inv(self):
        return np.linalg.inv(self.g)

    @cached_property
    def dg_inv(self):
        """d_m (g^-1) = -g^-1 (d_m g) g^-1."""
        gi = self.g_inv
        return -np.einsum("...ka,...mab,...bl->...mkl", gi, self.dg, gi)

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
        # base + a k + b p for the (a, b) of kind, read from the attributes
        # named; a term whose coefficient is 0 is never computed
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
        key = ("riemann", kind)
        out = self._by_kind.get(key)
        if out is None:
            gam = self.gamma(kind)
            A = self._t(self.dgamma(kind), 1, 3, 0, 2) + np.einsum(
                "...lim,...mjk->...lkij", gam, gam
            )
            out = self._by_kind[key] = A - self._t(A, 0, 1, 3, 2)
        return out

    @cached_property
    def hess_sigma(self):
        """Covariant Hessian d_i d_j sigma - Gamma^k_ij d_k sigma."""
        return self.d2sigma - np.einsum("...kij,...k->...ij", self.christoffel, self.dsigma)

    @cached_property
    def laplace_sigma(self):
        return np.einsum("...ij,...ij->...", self.g_inv, self.hess_sigma)


def _require(M, x):
    # x as a validated chart tuple; OutOfDomainError outside the chart
    return M.at(x).x


def in_domain(M, x):
    """Chart membership: the predicate holds and g, sigma evaluate finite."""
    return M._values(_pt(M, x)) is not None


def metric_at(M, x):
    """g(x) as an (n, n) SPD matrix."""
    return M.at(x).g_spd


def metric_inverse_at(M, x):
    P = M.at(x)
    P.g_spd  # outside the SPD region this raises, as metric_at does
    return P.g_inv


def metric_jet(M, x, order):
    """(g,) or (g, dg) or (g, dg, d2g); dg[k,i,j] = d_k g_ij."""
    P = M.at(x)
    if order == 0:
        return (P.g,)
    if order == 1:
        return P.g, P.dg
    return P.g, P.dg, P.d2g


def sigma_at(M, x):
    return M.at(x).sigma


def sigma_jet(M, x, order):
    """(s,) or (s, ds) or (s, ds, d2s) with exact symmetric second order."""
    P = M.at(x)
    if order == 0:
        return (P.sigma,)
    if order == 1:
        return P.sigma, P.dsigma
    return P.sigma, P.dsigma, P.d2sigma


def christoffel_g(M, x):
    """Levi-Civita coefficients, gamma[k,i,j] = Gamma^k_ij."""
    return M.at(x).christoffel


def grad_sigma(M, x):
    return M.at(x).grad_sigma


def hess_sigma(M, x):
    """Covariant Hessian (nabla^g dsigma)_ij = d_i d_j sigma - Gamma^k_ij d_k sigma."""
    return M.at(x).hess_sigma


def laplace_sigma(M, x):
    return M.at(x).laplace_sigma


# ---------------------------------------------------------------------------
# sampling


def sample_domain(M, count, seed=0):
    """`count` in-domain points from the sample box, deterministic per seed."""
    rng = np.random.default_rng(seed)
    lo, hi = M.sample_box[:, 0], M.sample_box[:, 1]
    out = []
    attempts = 0
    limit = 200 * count + 1000
    while len(out) < count:
        if attempts >= limit:
            raise DefinitionError(
                f"{M.name}: could not draw {count} in-domain samples "
                f"({len(out)} found in {attempts} attempts)"
            )
        batch = rng.uniform(lo, hi, size=(min(count, 64), M.n))
        attempts += len(batch)
        for x in batch:
            tx = tuple(x.tolist())
            ok = in_domain(M, tx)
            if ok and M.sample_guard is not None:
                try:
                    ok = M.sample_guard(tx)
                except EvalDomainError:
                    ok = False
            if ok:
                out.append(x)
                if len(out) == count:
                    break
    return np.asarray(out)
