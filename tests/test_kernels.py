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
walk.
"""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from divstat.geodesic import _DomainExit, _rhs_factory
from divstat.manifold import (
    BUILTINS,
    ConnKind,
    DomainPred,
    OutOfDomainError,
    _eval_pred,
    in_domain,
    load_manifold,
    metric_jet,
    sample_domain,
    sigma_jet,
)

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
    M = load_manifold(name)
    for x in sample_domain(M, 64, seed=5):
        x = tuple(float(c) for c in x)
        for group, roots in M.jet_roots.items():
            got = np.array(M.kernels[group](x))
            want = np.array([r.eval(x) for r in roots])
            # tobytes: signed zeros count
            assert got.tobytes() == want.tobytes(), (group, x)
            assert list(got) == [r._walk_eval(x) for r in roots], (group, x)


def test_jet_orders_fail_separately():
    # near the puncture exp(2/r^2) is about 1e303: sigma's jets and g's
    # first derivatives are finite, g's second derivatives overflow
    M = load_manifold("punctured-plane")
    x = (0.012957232788265117, 0.05189942006798701)
    assert np.isfinite(sigma_jet(M, x, 2)[2]).all()
    assert np.isfinite(metric_jet(M, x, 1)[1]).all()
    with pytest.raises(EvalDomainError):
        metric_jet(M, x, 2)


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
    rows = M.kernels["d2g"].many(np.array([(1.0, 0.5), bad]))
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
    # the scalar predicate stops at its first deciding comparison; the
    # batched one evaluates them all and is unsure where one fails, and
    # _values_many asks the scalar predicate about those rows
    doc = dict(BUILTINS["euclidean"], name="cut", domain="x2 > 0 or 1/x1 > 0")
    M = load_manifold(doc)
    rows = [(0.0, 1.0), (0.0, -1.0), (1.0, -1.0), (-1.0, -1.0)]
    want = [True, False, True, False]
    assert [in_domain(M, x) for x in rows] == want
    assert list(M.domain.many(np.array(rows))) == [False, False, True, False]
    values = M._values_many(np.array(rows))
    assert list(~np.isnan(values[:, 0])) == want


@pytest.mark.parametrize("src", [
    "x2 > 0 or log(x2) < 1",
    "sqrt(x1) < 2 or x2 >= 0.5 and x1 <= 3",
    "log(x1) > -1 and x2 < 1/x1",
    "x1^2 + x2^2 > 0",
    "true",
])
def test_domain_predicate_matches_its_tree_walk(src):
    # the compiled sides decide where they all evaluate; elsewhere the
    # walk short-circuits, so the verdict, or the error, is the walk's.
    # The batched verdict is True only where the scalar one is, and equal
    # to it wherever every side evaluates
    pred = DomainPred(src, XY)
    rng = np.random.default_rng(7)
    rows = [(0.0, 0.0), (-0.0, 1.0), (1.0, 0.0), (-1.0, -1.0), (4.0, 0.5)]
    rows += [tuple(x) for x in rng.uniform(-2.0, 4.0, (400, 2)).tolist()]
    batch = pred.many(np.array(rows))
    assert batch.dtype == bool and batch.shape == (len(rows),)
    outcomes = set()
    for x, many in zip(rows, batch):
        try:
            want = _eval_pred(pred.tree, x)
        except EvalDomainError as err:
            want = str(err)
        try:
            got = pred(x)
        except EvalDomainError as err:
            got = str(err)
        assert got == want, (src, x)
        outcomes.add(type(want))
        assert not many or want is True, (src, x)
        if pred._sides is None or pred._sides.get(x) is not None:
            assert many == want, (src, x)
    assert bool in outcomes


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
        rhs = _rhs_factory(M, kind)
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
