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

Index conventions: connection arrays are gamma[k, i, j] = Gamma^k_ij,
derivative stacks put the new derivative index first, and curvature
arrays are R[l, k, i, j] with R(d_i, d_j) d_k = R^l_kij d_l.
"""

import enum
import json
import os
from functools import cached_property

import numpy as np

from .exprcore import EvalDomainError, Expr, ExprError, ParseError, compile_many, parse

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
    "sample_box_points",
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

    def __call__(self, x):
        return _eval_pred(self.tree, x)

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
    through at(x), which holds no state between calls.
    """

    def __init__(self, doc):
        try:
            name = doc["name"]
            n = int(doc["dim"])
            coords = tuple(doc["coords"])
            metric_src = doc["metric"]
            sigma_src = doc["sigma"]
        except (KeyError, TypeError) as err:
            raise DefinitionError(f"bad manifold document: {err!r}") from None
        if n < 2:
            raise DefinitionError(f"dim must be >= 2, got {n}")
        if len(coords) != n:
            raise DefinitionError(f"expected {n} coordinate names, got {len(coords)}")
        if len(set(coords)) != n:
            raise DefinitionError("coordinate names must be distinct")
        if len(metric_src) != n or any(len(row) != n for row in metric_src):
            raise DefinitionError(f"metric must be {n}x{n}")

        self.name = name
        self.n = n
        self.coords = coords
        self.domain_src = doc.get("domain", "true")

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
        if box is None:
            box = [[-1.0, 1.0]] * n
        self.sample_box = np.asarray(box, dtype=float)
        if self.sample_box.shape != (n, 2):
            raise DefinitionError(f"sample_box must be {n} pairs")
        guard_src = doc.get("sample_guard")
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

        self._spd_spot_check()

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
                return self.kernels["values"](x)
        except EvalDomainError:
            pass
        return None

    def at(self, x):
        """The PointGeometry at x; OutOfDomainError outside the chart."""
        x = _pt(self, x)
        values = self._values(x)
        if values is None:
            raise OutOfDomainError(f"{x} is outside the domain of {self.name}")
        return PointGeometry(self, x, values)

    def __repr__(self):
        return f"ManifoldDef({self.name!r}, n={self.n})"


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
    """The geometry of M at one chart point, each quantity computed once.

    Made by ManifoldDef.at, whose domain check gives g and sigma.  The
    other attributes evaluate their kernel or derive their tensor on first
    use and keep it.  Each has one formula: grad_sigma is the linear solve
    g grad = dsigma, which K, dK, the checks and the scans all read, and
    dgrad_sigma is its derivative.  A derivative that cannot be evaluated
    raises EvalDomainError when it is first asked for, so a query never
    pays for, or fails on, a jet it does not use.
    """

    def __init__(self, M, x, values):
        n = M.n
        self.M = M
        self.x = x
        self.n = n
        self.g = np.array(values[:-1]).reshape(n, n)
        self.sigma = values[-1]
        self._by_kind = {}

    def _jet(self, name, shape):
        return np.array(self.M.kernels[name](self.x)).reshape(shape)

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
        """g, once it is checked to be positive definite here."""
        if np.linalg.eigvalsh(self.g).min() <= SPD_EIG_FLOOR:
            raise OutOfDomainError(f"{self.M.name}: metric not SPD at {self.x}")
        return self.g

    @cached_property
    def g_inv(self):
        return np.linalg.inv(self.g)

    @cached_property
    def dg_inv(self):
        """d_m (g^-1) = -g^-1 (d_m g) g^-1."""
        gi = self.g_inv
        return -np.einsum("ka,mab,bl->mkl", gi, self.dg, gi)

    @cached_property
    def grad_sigma(self):
        """grad sigma = g^-1 dsigma, by a linear solve."""
        return np.linalg.solve(self.g, self.dsigma)

    @cached_property
    def dgrad_sigma(self):
        """dgrad[m, k] = d_m (grad sigma)^k, from dg^-1, dsigma and d2sigma."""
        return np.einsum("mkl,l->mk", self.dg_inv, self.dsigma) + np.einsum(
            "kl,ml->mk", self.g_inv, self.d2sigma
        )

    @cached_property
    def _dg_sym(self):
        # s[i,j,l] = d_i g_jl + d_j g_il - d_l g_ij
        dg = self.dg
        return dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)

    @cached_property
    def christoffel(self):
        """Levi-Civita coefficients of g."""
        return 0.5 * np.einsum("kl,ijl->kij", self.g_inv, self._dg_sym)

    @cached_property
    def dchristoffel(self):
        """d_m Gamma^k_ij of g, in matrix calculus from the jets."""
        d2g = self.d2g
        # d_m s[i,j,l] = d2g[m,i,j,l] + d2g[m,j,i,l] - d2g[m,l,i,j]
        ds = d2g + d2g.transpose(0, 2, 1, 3) - d2g.transpose(0, 2, 3, 1)
        return 0.5 * (
            np.einsum("mkl,ijl->mkij", self.dg_inv, self._dg_sym)
            + np.einsum("kl,mijl->mkij", self.g_inv, ds)
        )

    @cached_property
    def projective(self):
        """P[k,i,j] = d_i sigma delta^k_j + d_j sigma delta^k_i."""
        eye = np.eye(self.n)
        ds = self.dsigma
        return np.einsum("ki,j->kij", eye, ds) + np.einsum("kj,i->kij", eye, ds)

    @cached_property
    def dprojective(self):
        eye = np.eye(self.n)
        d2s = self.d2sigma
        return np.einsum("ki,mj->mkij", eye, d2s) + np.einsum("kj,mi->mkij", eye, d2s)

    @cached_property
    def K(self):
        """K[k,i,j] = -(d_i sigma d^k_j + d_j sigma d^k_i + g_ij grad^k)/2."""
        return -0.5 * (
            self.projective + np.einsum("ij,k->kij", self.g, self.grad_sigma)
        )

    @cached_property
    def dK(self):
        """dK[m,k,i,j] = d_m K^k_ij."""
        return -0.5 * (
            self.dprojective
            + np.einsum("mij,k->mkij", self.dg, self.grad_sigma)
            + np.einsum("ij,mk->mkij", self.g, self.dgrad_sigma)
        )

    def gamma(self, kind):
        """Coefficients gamma[k,i,j] of the connection `kind`."""
        key = ("gamma", kind)
        out = self._by_kind.get(key)
        if out is None:
            if kind is ConnKind.LC_G:
                out = self.christoffel
            elif kind is ConnKind.NABLA:
                out = self.christoffel + self.K
            elif kind is ConnKind.NABLA_BAR:
                out = self.christoffel - self.K
            else:
                out = self.gamma(ConnKind.NABLA) + self.projective
            self._by_kind[key] = out
        return out

    def dgamma(self, kind):
        """dgamma[m,k,i,j] = d_m gamma[k,i,j] of the connection `kind`."""
        key = ("dgamma", kind)
        out = self._by_kind.get(key)
        if out is None:
            if kind is ConnKind.LC_G:
                out = self.dchristoffel
            elif kind is ConnKind.NABLA:
                out = self.dchristoffel + self.dK
            elif kind is ConnKind.NABLA_BAR:
                out = self.dchristoffel - self.dK
            else:
                out = self.dgamma(ConnKind.NABLA) + self.dprojective
            self._by_kind[key] = out
        return out

    def riemann(self, kind):
        """R[l,k,i,j] = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik."""
        key = ("riemann", kind)
        out = self._by_kind.get(key)
        if out is None:
            gam = self.gamma(kind)
            A = self.dgamma(kind).transpose(1, 3, 0, 2) + np.einsum(
                "lim,mjk->lkij", gam, gam
            )
            out = self._by_kind[key] = A - A.transpose(0, 1, 3, 2)
        return out

    @cached_property
    def hess_sigma(self):
        """Covariant Hessian d_i d_j sigma - Gamma^k_ij d_k sigma."""
        return self.d2sigma - np.einsum("kij,k->ij", self.christoffel, self.dsigma)

    @cached_property
    def laplace_sigma(self):
        return float(np.einsum("ij,ij->", self.g_inv, self.hess_sigma))


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


def sample_box_points(M, count, rng):
    lo = M.sample_box[:, 0]
    hi = M.sample_box[:, 1]
    return rng.uniform(lo, hi, size=(count, M.n))


def sample_domain(M, count, seed=0, rng=None):
    """`count` in-domain points from the sample box, deterministic per seed."""
    if rng is None:
        rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    limit = 200 * count + 1000
    while len(out) < count:
        if attempts >= limit:
            raise DefinitionError(
                f"{M.name}: could not draw {count} in-domain samples "
                f"({len(out)} found in {attempts} attempts)"
            )
        batch = sample_box_points(M, min(count, 64), rng)
        attempts += len(batch)
        for x in batch:
            tx = tuple(x)
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
