"""Compiled kernels against the guarded tree walker.

compile_many evaluates many roots in one function, sharing repeated
subtrees and folding exact identities; the per-expression walker
(Expr._walk_eval) and Expr.eval stay the references.  A manifold's
kernels are split by what a query can ask for alone, so a derivative
that fails at a point does not take the lower orders down with it.
The batched forms (kernel.many, DomainPred.many, ManifoldDef.at_many)
are checked row by row against the single-point ones.  The spray kernels
(ManifoldDef.spray) are checked against -Gamma(v, v) from
PointGeometry.gamma, and the compiled domain predicate against its tree
walk.  One step of the emitted integrator, which takes its own start and
whose stages inline the chart test and the spray and whose chord probe
inlines the chart test, is checked bit for bit against the generic step
on the RHS and the scalar probe (integrator_reference): replayed, its new
state or whether the start, a stage or the chord left the chart;
integrated, its outcome, first derivative and step, counts and error
estimate against the reference loop.
"""

import ast
import builtins
import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divstat import manifold
from divstat.connect import ShootOpts, shoot_connect
from divstat.exprcore import (
    Bin,
    EvalDomainError,
    Num,
    Una,
    Var,
    _apply_bin,
    _apply_una,
    compile_many,
    parse,
)
from divstat.geodesic import (
    _DomainExit,
    _integrator,
    _replay,
    integrate_geodesic,
)
from divstat.manifold import (
    BUILTINS,
    ConnKind,
    DomainPred,
    OutOfDomainError,
    in_domain,
    load_manifold,
    sample_domain,
)

from integrator_reference import chord_ok, dopri5_step, rhs_factory, run as reference_run

XY = ("x1", "x2")

# trees shaped like tests/test_exprcore.py::_random_expr, but without its
# domain guards, and with the literals the emitter folds (0, 1, ^0, ^1)
_literals = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.0]),
    st.floats(-3.0, 3.0).map(lambda v: round(v, 3)),
)
_leaves = st.one_of(
    st.builds(Num, _literals),
    st.integers(0, 1).map(lambda i: Var(i, XY[i])),
)


def _extend(children):
    return st.one_of(
        st.builds(Bin, st.sampled_from(["add", "sub", "mul", "div"]), children, children),
        st.builds(
            lambda a, c: Bin("pow", a, Num(c)),
            children,
            st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.5, -1.0]),
        ),
        st.builds(
            Una,
            st.sampled_from(["neg", "exp", "log", "sin", "cos", "sqrt", "abs"]),
            children,
        ),
    )


_trees = st.recursive(_leaves, _extend, max_leaves=12)
_coords = st.floats(-2.0, 2.0)


@settings(max_examples=400, deadline=None)
@given(tree=_trees, x=st.tuples(_coords, _coords))
def test_compile_many_matches_walker(tree, x):
    # a tree and its partials share subtrees and carry 0/1 literals
    roots = [tree, tree.diff(0), tree.diff(1)]
    kernel = compile_many(roots)
    try:
        want = [r._walk_eval(x) for r in roots]
    except EvalDomainError:
        want = None
    try:
        got = kernel(x)
    except EvalDomainError:
        # the kernel evaluates a subset of the walker's nodes, so it can
        # only fail where the walker fails
        assert want is None
        return
    if want is not None:
        assert list(got) == want


@settings(max_examples=300, deadline=None)
@given(tree=_trees, x=st.tuples(_coords, _coords))
def test_kernel_get_is_the_verdict(tree, x):
    # get gives the kernel's values, and None exactly where it raises
    kernel = compile_many([tree, tree.diff(0)])
    try:
        want = kernel(x)
    except EvalDomainError:
        want = None
    assert kernel.get(x) == want


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_kernels_match_expr_eval_bitwise(name):
    # each root against a kernel of its own, which is what Expr.eval runs
    M = load_manifold(name)
    alone = {group: [compile_many((r,)) for r in roots] for group, roots in M.jet_roots.items()}
    for x in sample_domain(M, 64, seed=5):
        x = tuple(float(c) for c in x)
        for group, roots in M.jet_roots.items():
            got = np.array(M.compiled(group)(x))
            want = np.array([f(x)[0] for f in alone[group]])
            # tobytes: signed zeros count
            assert got.tobytes() == want.tobytes(), (group, x)
            assert list(got) == [r._walk_eval(x) for r in roots], (group, x)


def test_jet_orders_fail_separately():
    # near the puncture exp(2/r^2) is about 1e303: sigma's jets and g's
    # first derivatives are finite, g's second derivatives overflow
    M = load_manifold("punctured-plane")
    x = (0.012957232788265117, 0.05189942006798701)
    P = M.at(x)
    assert np.isfinite(P.d2sigma).all()
    assert np.isfinite(P.dg).all()
    with pytest.raises(EvalDomainError):
        P.d2g


def test_folded_factor_is_not_evaluated():
    # 0*log(x1) and 0/log(x1) are folded to 0, so log of a negative value
    # is never taken; the unfolded product still reports it
    folded = Bin("mul", Num(0.0), Una("log", Var(0, "x1")))
    assert compile_many([folded])((-1.0, 0.0)) == (0.0,)
    quotient = Bin("div", Num(0.0), Una("log", Var(0, "x1")))
    assert compile_many([quotient])((-1.0, 0.0)) == (0.0,)
    assert compile_many([Bin("pow", Una("log", Var(0, "x1")), Num(0.0))])((-1.0, 0.0)) == (1.0,)
    kept = Bin("mul", Num(2.0), Una("log", Var(0, "x1")))
    with pytest.raises(EvalDomainError) as ei:
        compile_many([kept])((-1.0, 0.0))
    assert str(ei.value.node) == "log(x1)"
    assert ei.value.point == (-1.0, 0.0)


def test_integer_powers_are_math_pow():
    # an integer literal exponent is emitted as **, which gives math.pow's
    # bits, fails where it fails, and keeps a negative base's parentheses
    x = Var(0, "x1")
    rng = np.random.default_rng(141)
    draws = rng.standard_normal(2000) * 10.0 ** rng.uniform(-3.0, 3.0, 2000)
    for base, sign, k in ((x, 1.0, 2.0), (Una("neg", x), -1.0, 3.0), (x, 1.0, -2.0)):
        f = compile_many([Bin("pow", base, Num(k))])
        for a in draws.tolist():
            assert f((a, 0.0))[0] == math.pow(sign * a, k), (k, a)
        rows = np.column_stack([draws, np.zeros_like(draws)])
        # batched, np.power's bits, the route before ** (for squares, numpy's
        # x * x, which differs from math.pow in the last bit on a draw in
        # about 1200)
        assert np.array_equal(f.many(rows)[:, 0], np.power(sign * draws, k)), k
    assert compile_many([Bin("pow", Num(-1.0), Num(2.0))])((0.0,)) == (1.0,)
    # x^-2 at 0 and an overflowing square give no value, as math.pow does
    inverse = compile_many([Bin("pow", x, Num(-2.0))])
    square = compile_many([Bin("pow", x, Num(2.0))])
    for f, a in ((inverse, 0.0), (square, 1e200), (square, -1e200)):
        assert f.get((a, 0.0)) is None
        with pytest.raises(EvalDomainError):
            f((a, 0.0))
        assert np.isnan(f.many([[a, 0.0], [2.0, 0.0]])[0]).all()
    assert square.many([[1e200, 0.0], [3.0, 0.0]])[1, 0] == 9.0


def _pow_exponents(src):
    # the exponent of every _pow call in the code src
    return [ast.unparse(node.args[1]) for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_pow"]


def test_no_emitted_code_calls_pow_with_an_integer_literal(monkeypatch):
    # every kernel and integrator of fresh copies of the built-ins, whose
    # metrics hold squares: ** where the exponent is an integer literal,
    # _pow only where it is not one
    sources = []
    real = builtins.compile

    def keeping(src, filename, *args, **kwargs):
        sources.append(src)
        return real(src, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", keeping)
    for name in sorted(BUILTINS):
        M = load_manifold(dict(BUILTINS[name], name=f"fresh-{name}"))
        x = tuple(sample_domain(M, 1, seed=143)[0].tolist())
        P = M.at(x)
        for group in ("dsigma", "dg", "d2sigma", "d2g"):
            getattr(P, group)
        for kind in ConnKind:
            integrate_geodesic(M, kind, x, (0.1, 0.2), 0.5)
    monkeypatch.undo()
    assert len(sources) > 30 and sum(" ** " in src for src in sources) > 20
    for src in sources:
        for e in _pow_exponents(src):
            try:
                integer = float(e).is_integer()
            except ValueError:
                integer = False  # not a literal
            assert not integer, e


def test_deep_expression_compiles():
    # a long sum nests one operation per term; inlining all of them in one
    # generated expression would pass the Python parser's nesting limit
    e = parse("+".join(["x1"] * 300), XY)
    assert e.eval((1.0, 0.0)) == 300.0
    assert compile_many([e, e.diff(0)])((0.5, 0.0)) == (150.0, 300.0)


_EPS = 2.0 ** -52


def _drift_bound(e, x):
    """(value, drift, literal) of `e` at `x`, folding as compile_many does.

    `drift` bounds, to first order, how far two evaluations of `e` can
    move apart when each rounds exp, log, sin, cos, sqrt and pow to
    within 2 ulp and the arithmetic operators exactly as IEEE does.
    `literal` is the constant the emitter folds `e` to, or None.
    """
    if isinstance(e, Num):
        return e.value, 0.0, e.value
    if isinstance(e, Var):
        return float(x[e.index]), 0.0, None
    if isinstance(e, Una):
        a, da, _ = _drift_bound(e.arg, x)
        if e.op in ("neg", "abs"):
            return (-a if e.op == "neg" else abs(a)), da, None
        r = _apply_una(e.op, a, e, x)
        slope = {"exp": r, "log": 1.0 / a if a else math.inf, "sin": math.cos(a),
                 "cos": math.sin(a), "sqrt": 0.5 / r if r else math.inf}[e.op]
        return r, _moved(slope, da) + 2.0 * _EPS * abs(r), None
    if e.op == "pow":
        b, db, lb = _drift_bound(e.right, x)
        if lb == 0.0:
            return 1.0, 0.0, 1.0
        a, da, la = _drift_bound(e.left, x)
        if lb == 1.0:
            return a, da, la
        r = _apply_bin("pow", a, b, e, x)
        if a == 0.0:
            slope_a, slope_b = (0.0 if b >= 1.0 else math.inf), 0.0
        else:
            slope_a, slope_b = abs(b * r / a), abs(r * math.log(abs(a)))
        return r, _moved(slope_a, da) + _moved(slope_b, db) + 2.0 * _EPS * abs(r), None
    a, da, la = _drift_bound(e.left, x)
    if e.op in ("mul", "div") and la == 0.0:
        return a, 0.0, la
    b, db, lb = _drift_bound(e.right, x)
    folded = {
        "add": (lb == 0.0 and (a, da, la)) or (la == 0.0 and (b, db, lb)),
        "sub": lb == 0.0 and (a, da, la),
        "mul": (lb == 0.0 and (b, 0.0, lb)) or (la == 1.0 and (b, db, lb))
        or (lb == 1.0 and (a, da, la)),
        "div": lb == 1.0 and (a, da, la),
    }[e.op]
    if folded:
        return folded
    r = _apply_bin(e.op, a, b, e, x)
    if e.op in ("add", "sub"):
        d = da + db
    elif e.op == "mul":
        d = _moved(b, da) + _moved(a, db)
    else:
        d = _moved(1.0 / b, da) + _moved(a / b / b, db)
    return r, d + _EPS * abs(r), None


def _moved(slope, d):
    # first-order change |slope| * d; an input that cannot move moves nothing
    return abs(slope) * d if d else 0.0


@settings(max_examples=300, deadline=None)
@given(tree=_trees, xs=st.lists(st.tuples(_coords, _coords), min_size=1, max_size=6))
def test_batched_kernel_matches_scalar_rows(tree, xs):
    roots = [tree, tree.diff(0), tree.diff(1)]
    kernel = compile_many(roots)
    got = kernel.many(np.array(xs))
    assert got.shape == (len(xs), 3)
    for row, x in zip(got, xs):
        try:
            want = kernel(x)
        except EvalDomainError:
            # every failing row comes back NaN, so kernel(row) can name it
            assert np.isnan(row).all()
            continue
        for r, b, w in zip(roots, row, want):
            if b == w:
                continue
            # numpy's exp and power may round differently from math's: the
            # batched value may differ by the drift of a few ulp per call
            try:
                _, drift, _ = _drift_bound(r, x)
            except (EvalDomainError, ZeroDivisionError, OverflowError):
                drift = math.inf
            assert abs(b - w) <= 4.0 * drift, (str(r), x, b, w, drift)


def test_batch_with_a_failing_row_raises_the_scalar_error():
    # at this point sigma's jets and g's first derivatives are finite and
    # g's second derivatives overflow (see test_jet_orders_fail_separately)
    M = load_manifold("punctured-plane")
    bad = (0.012957232788265117, 0.05189942006798701)
    with pytest.raises(EvalDomainError) as single:
        M.at(bad).d2g
    P = M.at_many([(1.0, 0.5), bad, (0.5, 1.0)])
    assert np.isfinite(P.dg).all() and np.isfinite(P.d2sigma).all()
    with pytest.raises(EvalDomainError) as batch:
        P.d2g
    assert str(batch.value.node) == str(single.value.node)
    assert batch.value.point == single.value.point == bad
    assert str(batch.value) == str(single.value)
    # the kernel itself marks the row, and only that row
    rows = M.compiled("d2g").many(np.array([(1.0, 0.5), bad]))
    assert np.isfinite(rows[0]).all() and np.isnan(rows[1]).all()
    # numpy turns 1/0 into inf and exp(-inf) into a finite 0 without
    # complaint; the scalar kernel raises at the division, and so the row
    # is marked too
    kernel = compile_many([parse("exp(-1/x1)", XY)])
    rows = kernel.many(np.array([(0.5, 1.0), (0.0, 1.0)]))
    assert rows[0, 0] == kernel((0.5, 1.0))[0] and np.isnan(rows[1, 0])


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_batched_geometry_matches_single_points(name):
    M = load_manifold(name)
    xs = sample_domain(M, 64, seed=9)
    B = M.at_many(xs)
    assert B.g.shape == (64, 2, 2) and B.sigma.shape == (64,)

    def close(batch, single):
        scale = 1.0 + np.abs(single).max()
        assert np.abs(batch - single).max() <= 1e-13 * scale

    for i, x in enumerate(xs):
        P = M.at(x)
        close(B.g[i], P.g)
        close(B.sigma[i], P.sigma)
        close(B.dsigma[i], P.dsigma)
        close(B.d2sigma[i], P.d2sigma)
        close(B.hess_sigma[i], P.hess_sigma)
        close(B.laplace_sigma[i], P.laplace_sigma)
        for kind in ConnKind:
            close(B.gamma(kind)[i], P.gamma(kind))
            close(B.dgamma(kind)[i], P.dgamma(kind))
            close(B.riemann(kind)[i], P.riemann(kind))


_PUNCTURED_ROWS = [
    (0.0, 0.0), (-0.0, 0.0), (1e-200, 0.0), (1e-3, 0.0), (0.05, 0.0),
    (0.06, 0.0), (0.3, -0.1), (-2.0, 1.0),
]
_HALF_PLANE_ROWS = [
    (0.0, 1.0), (1.0, 1e-3), (0.0, 1e-150), (0.0, 1e-160), (0.0, 1e-300),
    (0.0, 0.0), (0.0, -0.0), (0.0, -1e-300), (2.0, -1.0),
]


@pytest.mark.parametrize("name, rows", [
    ("punctured-plane", _PUNCTURED_ROWS),
    ("half-plane-exp", _HALF_PLANE_ROWS),
])
def test_batched_domain_verdicts_match_in_domain(name, rows):
    # both sides of the wall: the puncture, where exp(2/r^2) overflows
    # before r reaches 0, and x2 -> 0 on the half plane, where 1/x2^2 does
    M = load_manifold(name)
    xs = np.array(rows)
    want = [in_domain(M, x) for x in rows]
    assert True in want and False in want
    values = M._values_many(xs)
    assert list(~np.isnan(values).any(axis=1)) == want
    # a True from the batched predicate is always the scalar verdict
    assert not np.any(M.domain.many(xs) & ~np.array([M.domain(x) for x in rows]))
    for x, ok in zip(rows, want):
        if ok:
            M.at_many([x])
        else:
            with pytest.raises(OutOfDomainError) as batch:
                M.at_many([(1.0, 1.0), x])
            with pytest.raises(OutOfDomainError) as single:
                M.at(x)
            assert str(batch.value) == str(single.value)


def test_batched_domain_short_circuit():
    # no short circuit: a side that fails to evaluate puts the point
    # outside, also where the other side of its `or` holds, for the scalar
    # predicate and the batched one alike
    doc = dict(BUILTINS["euclidean"], name="cut", domain="x2 > 0 or 1/x1 > 0")
    M = load_manifold(doc)
    rows = [(0.0, 1.0), (0.0, -1.0), (1.0, -1.0), (-1.0, -1.0)]
    want = [False, False, True, False]
    assert [in_domain(M, x) for x in rows] == want
    assert list(M.domain.many(np.array(rows))) == want
    values = M._values_many(np.array(rows))
    assert list(~np.isnan(values[:, 0])) == want


def _walk_pred(tree, x):
    # the chart rule on the tree walk: False where any side of any
    # comparison fails to evaluate, else the comparisons joined by and / or
    try:
        for e in manifold._pred_sides(tree):
            e._walk_eval(x)
    except EvalDomainError:
        return False

    def decide(t):
        if t[0] == "true":
            return True
        if t[0] == "cmp":
            a, b = t[2]._walk_eval(x), t[3]._walk_eval(x)
            return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[t[1]]
        return (all if t[0] == "and" else any)(decide(u) for u in t[1])

    return decide(tree)


@pytest.mark.parametrize("src", [
    "x2 > 0 or log(x2) < 1",
    "sqrt(x1) < 2 or x2 >= 0.5 and x1 <= 3",
    "log(x1) > -1 and x2 < 1/x1",
    "x1^2 + x2^2 > 0",
    "true",
])
def test_domain_predicate_matches_its_tree_walk(src):
    # the compiled predicate, for one point and for a batch, against the
    # chart rule read off the tree walk
    pred = DomainPred(src, XY)
    rng = np.random.default_rng(7)
    rows = [(0.0, 0.0), (-0.0, 1.0), (1.0, 0.0), (-1.0, -1.0), (4.0, 0.5)]
    rows += [tuple(x) for x in rng.uniform(-2.0, 4.0, (400, 2)).tolist()]
    batch = pred.many(np.array(rows))
    assert batch.dtype == bool and batch.shape == (len(rows),)
    outcomes = set()
    for x, many in zip(rows, batch):
        want = _walk_pred(pred.tree, x)
        assert pred(x) is want and many == want, (src, x)
        outcomes.add(want)
    assert True in outcomes


def _spray(M, kind, x, v):
    return np.array(M.spray(kind)((*x, *v))[-M.n:])


def _spray_reference(M, kind, x, v):
    """-Gamma(v, v) from PointGeometry, and the size of its largest term."""
    P = M.at(x)
    with np.errstate(over="ignore", invalid="ignore"):
        want = -np.einsum("kij,i,j->k", P.gamma(kind), v, v)
        parts = [np.abs(P.christoffel).max(), np.abs(P.K).max(),
                 np.abs(P.projective).max()]
    return want, max(parts) * np.abs(v).sum() ** 2


_SKEW_2D = {
    "name": "skew-2d", "dim": 2, "coords": ["a", "b"],
    "metric": [["2 + a^2", "a*b/2"], ["a*b/2", "1 + exp(b)/3"]],
    "sigma": "a - b^2/3",
}
_SKEW_3D = {
    "name": "skew-3d", "dim": 3, "coords": ["x1", "x2", "x3"],
    "metric": [["2 + x1^2", "0.3*x2", "0.1*x3"],
               ["0.3*x2", "1 + x2^2", "0.2*sin(x1)"],
               ["0.1*x3", "0.2*sin(x1)", "1.5 + x3^2"]],
    "sigma": "sin(x1) + x2*x3",
}


@pytest.mark.parametrize("doc", sorted(BUILTINS) + [_SKEW_2D, _SKEW_3D],
                         ids=lambda d: d if isinstance(d, str) else d["name"])
def test_spray_matches_point_geometry(doc):
    # the two definitions with off-diagonal entries reach every entry of
    # the LDL^T solve, which the diagonal built-ins fold away
    M = load_manifold(doc)
    rng = np.random.default_rng(11)
    for kind in ConnKind:
        for x in sample_domain(M, 24, seed=12):
            v = 10.0 ** rng.uniform(-1.0, 1.0) * rng.standard_normal(M.n)
            want, scale = _spray_reference(M, kind, x, v)
            got = _spray(M, kind, x, v)
            assert np.abs(got - want).max() <= 1e-13 * scale, (kind, x, v)


def test_spray_is_finite_near_the_puncture():
    # between r = 0.0532 and 0.08, exp(2/r^2) runs from 1e307 down to
    # 1e135: wherever gamma and its contraction are finite, so is the spray
    M = load_manifold("punctured-plane")
    rng = np.random.default_rng(13)
    compared = 0
    for _ in range(200):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        x = rng.uniform(0.0532, 0.08) * np.array([math.cos(angle), math.sin(angle)])
        v = rng.uniform(0.0, 10.0) * rng.standard_normal(2) / math.sqrt(2.0)
        v = v if np.linalg.norm(v) <= 10.0 else 10.0 * v / np.linalg.norm(v)
        for kind in ConnKind:
            try:
                want, scale = _spray_reference(M, kind, x, v)
            except EvalDomainError:
                continue  # a jet of g overflows here
            if not (np.isfinite(want).all() and np.isfinite(scale)):
                continue
            got = _spray(M, kind, x, v)
            assert np.abs(got - want).max() <= 1e-13 * scale, (kind, x, v)
            compared += 1
    assert compared > 200


def _old_rhs_exits(M, kind, x, v):
    # where a right-hand side read from PointGeometry leaves the chart
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            gam = M.at(x).gamma(kind)
            acc = -np.einsum("kij,i,j->k", gam, v, v)
    except (OutOfDomainError, EvalDomainError):
        return True
    return not (np.isfinite(gam).all() and np.isfinite(acc).all())


@pytest.mark.parametrize("name, rows", [
    ("punctured-plane", _PUNCTURED_ROWS),
    ("half-plane-exp", _HALF_PLANE_ROWS),
])
def test_rhs_exits_on_the_wall_rows(name, rows):
    # the RHS leaves the chart wherever M.at does, and wherever a jet the
    # connection needs fails there
    M = load_manifold(name)
    v = np.array([0.3, -0.2])
    for kind in ConnKind:
        rhs = rhs_factory(M, kind)
        for x in rows:
            if _old_rhs_exits(M, kind, x, v):
                with pytest.raises(_DomainExit):
                    rhs([*x, *v])
                continue
            assert in_domain(M, x)
            out = np.array(rhs([*x, *v]))
            want, scale = _spray_reference(M, kind, x, v)
            assert np.array_equal(out[:2], v)
            assert np.abs(out[2:] - want).max() <= 1e-13 * scale, (kind, x)


def test_each_manifold_has_its_own_spray():
    # manifolds made and dropped in turn: a kernel cached by anything but
    # the manifold itself could outlive it and serve the next one
    x, v = (0.3, -0.4), np.array([0.7, 0.2])
    for c in (1.0, 2.0, 3.0, 4.0):
        doc = dict(BUILTINS["paraboloid"], name=f"tilted-{c}", sigma=f"{c}*x1 - x2")
        M = load_manifold(doc)
        want, scale = _spray_reference(M, ConnKind.NABLA, x, v)
        got = _spray(M, ConnKind.NABLA, x, v)
        assert np.abs(got - want).max() <= 1e-13 * scale, c
        del M
        gc.collect()


_EXITS = ("stage-exit", "chord-exit")


def _hex(values):
    return [float.hex(a) for a in values]


def _run_outcome(out):
    # a run's (status, t, y, f, h_abs, counts..., left, err), floats as bit
    # patterns; f and h_abs are None where the start left the chart
    status, t, y, f, h_abs, *counts, left, err = out
    return [status, t.hex(), _hex(y), None if f is None else _hex(f),
            None if h_abs is None else h_abs.hex(), counts, left,
            None if err is None else err.hex()]


def _step_outcome(M, kind, y, h):
    # the emitted integrator from y, taking its own start: a replay of
    # [h], as the new state and derivative in bit patterns or the exit
    # where the start, a stage or the chord leaves the chart; and one step
    # integrating over [0, h] from the start's own first step, as its
    # status, end, first derivative and step, counts, the last attempt's
    # exit and its error estimate
    run = _integrator(M, kind)
    _, _, y_new, f_new, *_, left, _ = run(y, [h], True)
    replayed = _EXITS[left - 1] if left else _hex(y_new + f_new)
    out = run(y, None, False, h, 1e-9, 1e-11, None, 1, None)
    return replayed, _run_outcome(out)


def _generic_outcome(M, kind, y, h):
    # the same from the RHS, the generic step on it, the scalar chord
    # probe and the Python loop over them
    rhs = rhs_factory(M, kind)
    try:
        y_new, f_new, _ = dopri5_step(rhs, y, rhs(y), h, 1.0, 1.0)
    except _DomainExit:
        replayed = "stage-exit"
    else:
        replayed = _hex(y_new + f_new) if chord_ok(M, y[:M.n], y_new[:M.n]) else "chord-exit"
    out = reference_run(M, kind, y, None, h, 1e-9, 1e-11, None, 1, None)
    return replayed, _run_outcome(out)


def _assert_fused_is_generic(M, kind, states, steps):
    # the emitted step against the generic one on the RHS; returns the
    # outcome of every (state, step) in order
    outcomes = []
    for y in states:
        for h in steps:
            got = _step_outcome(M, kind, y, h)
            assert got == _generic_outcome(M, kind, y, h), (M.name, kind, y, h)
            outcomes.append(got)
    return outcomes


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_fused_step_is_the_generic_step(name):
    M = load_manifold(name)
    rng = np.random.default_rng(17)
    for kind in ConnKind:
        states = []
        for x in sample_domain(M, 12, seed=18):
            states.append([*x.tolist(),
                           *(10.0 ** rng.uniform(-2, 1) * rng.standard_normal(2)).tolist()])
        _assert_fused_is_generic(M, kind, states, (1e-3, 0.05, 0.4, 2.0))


@pytest.mark.parametrize("name, rows", [
    ("punctured-plane", _PUNCTURED_ROWS),
    ("half-plane-exp", _HALF_PLANE_ROWS),
])
def test_fused_step_on_the_wall_rows(name, rows):
    # steps from each wall row, inward and outward; where the start's own
    # RHS does not exist, the start leaves the chart
    M = load_manifold(name)
    states = [[*x, *v] for x in rows for v in ((0.3, -0.2), (-2.0, 3.0))]
    for kind in ConnKind:
        outcomes = _assert_fused_is_generic(M, kind, states, (1e-6, 0.01, 0.3))
        assert {o[0] in _EXITS for o in outcomes} == {True, False}, kind


@pytest.mark.parametrize("domain", ["log(x1) < 5 or x2 > 0", "x2 > 0 or log(x1) < 5"])
def test_fused_step_where_a_predicate_side_fails(domain):
    # left of x1 = 0 the log side does not evaluate, so the point is
    # outside whatever x2 is, and the order of the `or` changes nothing
    states = [[x1, x2, -1.0, v2]
              for x1 in (0.05, -0.5) for x2 in (0.01, 1.0, -1.0) for v2 in (-1.0, 1.0)]
    outcomes = []
    for src in (domain, " or ".join(reversed(domain.split(" or ")))):
        M = load_manifold(dict(BUILTINS["euclidean"], name="cut", domain=src))
        outcomes.append(_assert_fused_is_generic(M, ConnKind.LC_G, states, (0.02, 0.2)))
    assert outcomes[0] == outcomes[1]
    assert {o[0] in _EXITS for o in outcomes[0]} == {True, False}


def test_fused_step_where_the_spray_overflows():
    # speeds where v^2 terms overflow, some where only the finiteness
    # test's sum over finite values does; the start takes its own
    # derivative there
    M = load_manifold("paraboloid")
    rng = np.random.default_rng(19)
    for kind in ConnKind:
        states = []
        for _ in range(40):
            v = 10.0 ** rng.uniform(150.0, 156.0) * rng.standard_normal(2)
            states.append([0.3, -0.2, *v.tolist()])
        outcomes = _assert_fused_is_generic(M, kind, states, (1e-300, 1e-160))
        assert any(o[0] == "stage-exit" for o in outcomes), kind
        # the start's own derivative overflows at some speeds; at others
        # it is finite and a later stage overflows
        assert any(o[0] == "stage-exit" and o[1][3] is not None for o in outcomes), kind
        assert any(o[1][3] is None for o in outcomes), kind


def test_each_manifold_has_its_own_fused_code():
    # as with the sprays: each manifold compiles its own integrators,
    # keeps them, and a dropped manifold's code never serves the next one
    y = [0.3, -0.4, 0.7, 0.2]
    for c in (1.0, 2.0, 3.0, 4.0):
        doc = dict(BUILTINS["paraboloid"], name=f"tilted-{c}", sigma=f"{c}*x1 - x2")
        M = load_manifold(doc)
        run = _integrator(M, ConnKind.NABLA)
        assert _integrator(M, "nabla") is run
        want = _generic_outcome(M, ConnKind.NABLA, y, 0.1)
        assert _step_outcome(M, ConnKind.NABLA, y, 0.1) == want, c
        del M, run
        gc.collect()


def test_integrator_code_compiles_on_first_use_only(monkeypatch):
    # loading compiles the domain predicate, the sample guard and the
    # values kernel, and nothing else; each jet compiles on its first read;
    # the first integration of a kind compiles its spray and its one
    # emitted integrator; later integrations and replays compile nothing
    compiled, asked = [], []
    real = builtins.compile

    def counting(src, filename, *args, **kwargs):
        compiled.append(filename)
        return real(src, filename, *args, **kwargs)

    def asking(roots):
        asked.append(tuple(roots))
        return compile_many(roots)

    def news(M):
        # what was compiled since the last call: compile_many's kernels,
        # named by what M reads them as, and the file names compile saw
        known = {tuple(roots): group for group, roots in M.jet_roots.items()}
        known[M.domain._sides.roots] = "domain"
        known[M.sample_guard._sides.roots] = "guard"
        values = tuple(M.jet_roots["values"])
        out = [known.get(r, "spray" if r[:len(values)] == values else r) for r in asked]
        out = (out, compiled[:])
        del asked[:], compiled[:]
        return out

    monkeypatch.setattr(builtins, "compile", counting)
    monkeypatch.setattr(manifold, "compile_many", asking)
    M = load_manifold(dict(BUILTINS["punctured-plane"], name="fresh"))
    assert news(M) == (["domain", "guard", "values"], ["<kernel>"] * 3)
    for group in ("dsigma", "dg", "d2sigma", "d2g"):
        getattr(M.at((0.3, 0.4)), group)
        assert news(M) == ([group], ["<kernel>"]), group
        getattr(M.at_many([(0.5, 0.2), (-1.0, 0.7)]), group)
        assert news(M) == ([], []), group
    M.at((0.3, 0.4)).riemann(ConnKind.NABLA)
    assert news(M) == ([], [])
    for kind in (ConnKind.NABLA, ConnKind.LC_G):
        integrate_geodesic(M, kind, (1.0, 0.5), (0.2, 0.1), 1.0)
        assert news(M) == (["spray"], ["<kernel>", f"<loop fresh {kind.value}>"]), kind
        integrate_geodesic(M, kind, (0.5, 1.0), (0.1, -0.3), 1.0)
        assert _replay(M, kind, (0.5, 1.0), (0.1, -0.3), [0.25, 0.5]) is not None
        assert news(M) == ([], []), kind
    # a shooting solve, its Jacobian replays and its reparametrization
    # compile the lc-tilde spray and integrator, and the dsigma kernel the
    # reparametrization reads at the step ends, and nothing else
    S = load_manifold(dict(BUILTINS["punctured-plane"], name="shot"))
    news(S)
    res = shoot_connect(S, (1.0, 0.5), (0.4, 1.2), ShootOpts(multistart=2))
    assert res.converged and res.nabla_path is not None
    assert news(S) == (["spray", "dsigma"], ["<kernel>", "<loop shot lc-tilde>", "<kernel>"])
