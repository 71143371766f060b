"""Compiled kernels against the guarded tree walker.

compile_many evaluates many roots in one function, sharing repeated
subtrees and folding exact identities; the per-expression walker
(Expr._walk_eval) and Expr.eval stay the references.  A manifold's
kernels are split by what a query can ask for alone, so a derivative
that fails at a point does not take the lower orders down with it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divstat.exprcore import Bin, EvalDomainError, Num, Una, Var, compile_many, parse
from divstat.manifold import BUILTINS, load_manifold, metric_jet, sample_domain, sigma_jet

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
    # 0*log(x1) is folded to 0, so log of a negative value is never taken;
    # the unfolded product still reports it
    folded = Bin("mul", Num(0.0), Una("log", Var(0, "x1")))
    assert compile_many([folded])((-1.0, 0.0)) == (0.0,)
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
