"""Expression core: parsing, evaluation, exact differentiation.

Expected values are frozen here before the implementation; derivative
checks compare against independent central finite differences.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divstat.exprcore import (
    _FUNCTIONS,
    _text,
    Bin,
    EvalDomainError,
    Num,
    ParseError,
    Una,
    Var,
    compile_many,
    parse,
    parse_pred,
)

README = Path(__file__).resolve().parents[1] / "README.md"

XY = ("x1", "x2")


def _value(e, x):
    # the value of e at the coordinate tuple x, through a kernel of its own
    return compile_many((e,))(x)[0]


def ev(src, *pt, coords=XY):
    return _value(parse(src, coords), pt)


# frozen oracle values
def test_eval_polynomial():
    assert ev("x1^2 + 1", 2.0, 0.0) == 5.0


def test_eval_conformal_factor():
    # metric coefficient of the curvature-one example manifold at (1, 0)
    assert ev("2/((x1)^2+(x2)^2+1)", 1.0, 0.0) == 1.0


def test_eval_log_potential():
    got = ev("-log(0.5*(x1^2+x2^2+1))", 0.0, 0.0)
    assert abs(got - math.log(2.0)) < 1e-15


def test_eval_functions():
    assert abs(ev("exp(-x2)", 0.0, 1.0) - math.exp(-1.0)) < 1e-16
    assert abs(ev("sin(x1)*cos(x2)", 0.7, 0.3) - math.sin(0.7) * math.cos(0.3)) < 1e-15
    assert ev("sqrt(x1)", 9.0, 0.0) == 3.0
    assert ev("abs(x1)", -2.5, 0.0) == 2.5


def test_precedence_and_associativity():
    assert ev("-x1^2", 3.0, 0.0) == -9.0          # ^ binds tighter than unary minus
    assert ev("2^-3", 0.0, 0.0) == 0.125          # unary minus allowed in exponent
    assert ev("x1^2^3", 2.0, 0.0) == 256.0        # right-associative
    assert ev("1-2-3", 0.0, 0.0) == -4.0          # left-associative
    assert ev("2/2/2", 0.0, 0.0) == 0.5
    assert ev("-x1*x2", 2.0, 3.0) == -6.0
    assert ev("1+2*3", 0.0, 0.0) == 7.0
    assert ev("(1+2)*3", 0.0, 0.0) == 9.0


def test_constant_folding():
    assert str(parse("1+2", XY)) == "3.0"
    assert str(parse("2^3", XY)) == "8.0"
    # folding must not hide a domain error: the bad node survives to eval time
    e = parse("1/0", XY)
    with pytest.raises(EvalDomainError):
        _value(e, (0.0, 0.0))


def test_syntax_error_offsets():
    with pytest.raises(ParseError) as ei:
        parse("log(x1", XY)
    assert ei.value.offset == 7
    with pytest.raises(ParseError) as ei:
        parse("x3 + 1", XY)
    assert ei.value.offset == 1
    with pytest.raises(ParseError) as ei:
        parse("x1 + * 2", XY)
    assert ei.value.offset == 6
    with pytest.raises(ParseError) as ei:
        parse("", XY)
    assert ei.value.offset == 1
    with pytest.raises(ParseError) as ei:
        parse("foo(x1)", XY)
    assert ei.value.offset == 1


def test_domain_errors_carry_node():
    cases = [
        ("log(x1)", (-1.0, 0.0)),
        ("sqrt(x1)", (-2.0, 0.0)),
        ("1/x1", (0.0, 0.0)),
        ("x1^0.5", (-2.0, 0.0)),
        ("0^x1", (-1.0, 0.0)),
        ("exp(x1)", (1000.0, 0.0)),
    ]
    for src, pt in cases:
        e = parse(src, XY)
        with pytest.raises(EvalDomainError) as ei:
            _value(e, pt)
        assert ei.value.node is not None, src


def test_no_silent_nonfinite():
    # 1/x1^2 overflows float range at tiny x1; must raise, not return inf
    e = parse("1/(x1*x1)", XY)
    with pytest.raises(EvalDomainError):
        _value(e, (1e-300, 0.0))


def test_diff_basic():
    e = parse("x1^2 + 1", XY)
    d = e.diff(0)
    assert _value(d, (3.0, 0.0)) == 6.0
    assert _value(e.diff(1), (3.0, 4.0)) == 0.0


def test_diff_second_derivative_exp():
    # d^2/dy^2 exp(-y) at y=1 equals exp(-1)
    e = parse("exp(-x2)", XY)
    d2 = e.diff(1).diff(1)
    assert abs(_value(d2, (0.0, 1.0)) - math.exp(-1.0)) < 1e-16


def test_diff_log_potential_gradient():
    # d/dx1 of -log((x1^2+x2^2+1)/2) is -2*x1/(x1^2+x2^2+1); at (1,0) -> -1
    e = parse("-log(0.5*(x1^2+x2^2+1))", XY)
    assert abs(_value(e.diff(0), (1.0, 0.0)) + 1.0) < 1e-15
    # raw second partial d2/dx1^2 vanishes at (1,0)
    assert abs(_value(e.diff(0).diff(0), (1.0, 0.0))) < 1e-15


def test_diff_general_power():
    # d/dx1 x1^x2 = x1^x2 * x2/x1 ; d/dx2 x1^x2 = x1^x2 * log(x1)
    e = parse("x1^x2", XY)
    x = (2.0, 3.0)
    assert abs(_value(e.diff(0), x) - 12.0) < 1e-12
    assert abs(_value(e.diff(1), x) - 8.0 * math.log(2.0)) < 1e-12


def test_diff_abs():
    e = parse("abs(x1)", XY)
    assert _value(e.diff(0), (-3.0, 0.0)) == -1.0
    assert _value(e.diff(0), (2.0, 0.0)) == 1.0
    with pytest.raises(EvalDomainError):
        _value(e.diff(0), (0.0, 0.0))


def test_derivatives_are_built_once_and_shared():
    # each node keeps its derivative by each coordinate: asking again gives
    # the same object, and a product's derivative reuses its factors'
    e = parse("x1*sin(x2)*exp(x1*x2)", XY)
    d = e.diff(0)
    assert e.diff(0) is d and d.diff(1) is d.diff(1)
    assert d.left.left is e.left.diff(0)
    # the memo takes no part in equality or printing
    assert d == parse(str(d), XY) and str(d) == str(parse(str(d), XY))


def test_walks_do_not_recurse_per_level():
    # a 4000-term sum is a tree 4000 levels deep: differentiating, compiling,
    # evaluating, printing and comparing it take no stack per level
    deep = parse("+".join(["x1", "x2"] * 2000), XY)
    assert deep == parse(str(deep), XY) and deep != parse(str(deep) + " + x1", XY)
    assert deep._walk_eval((1.0, 2.0)) == _value(deep, (1.0, 2.0)) == 6000.0
    assert deep.diff(0) == Num(2000.0)
    err = parse("+".join(["x1"] * 2000) + "+ log(x2)", XY)
    with pytest.raises(EvalDomainError) as ei:
        _value(err, (1.0, -1.0))
    assert str(ei.value).startswith("log of non-positive value in 'log(x2)'")
    # a failing node with a long text is quoted in a bounded excerpt: its
    # head, and its tail, which shows the division
    with pytest.raises(EvalDomainError) as ei:
        _value(parse(f"1/({deep} - 6000)", XY), (1.0, 2.0))
    text = "1.0/(" + " + ".join(["x1", "x2"] * 2000) + " - 6000.0)"
    assert str(ei.value) == (
        f"division by zero in '{text[:50]}...{text[-50:]}' at (1.0, 2.0)"
    )


def test_excerpt_is_the_head_and_tail_of_the_text():
    # the text is joined once from its pieces; with a limit, the pieces stop
    # past it from each end, and the excerpt is the full text's head and
    # tail
    rng = np.random.default_rng(11)
    for _ in range(200):
        e = _random_expr(rng, 6)
        full = str(e)
        for limit in (1, 7, 40, 100, max(1, (len(full) - 1) // 2), (len(full) + 1) // 2):
            want = full if len(full) <= 2 * limit else full[:limit] + "..." + full[-limit:]
            assert _text(e, limit) == want, (full, limit)
    terms = [f"{k}.0*x{k % 2 + 1}" for k in range(1, 20001)]
    assert str(parse(" + ".join(terms), XY)) == " + ".join(terms)


def _central_fd(e, i, x, h):
    xp = list(x)
    xm = list(x)
    xp[i] += h
    xm[i] -= h
    return (_value(e, xp) - _value(e, xm)) / (2.0 * h)


def _random_expr(rng, depth):
    """Random expression over safe building blocks (domains stay valid)."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Num(round(float(rng.uniform(-3, 3)), 3))
        k = int(rng.integers(0, 2))
        return Var(k, XY[k])
    op = rng.choice(["add", "sub", "mul", "div", "pow", "exp", "log", "sin", "cos", "sqrt", "neg"])
    a = _random_expr(rng, depth - 1)
    if op in ("add", "sub", "mul"):
        return Bin(op, a, _random_expr(rng, depth - 1))
    if op == "div":
        b = _random_expr(rng, depth - 1)
        safe = Bin("add", Num(1.0), Bin("mul", b, b))
        return Bin("div", a, safe)
    if op == "pow":
        return Bin("pow", a, Num(float(rng.integers(2, 4))))
    if op == "neg":
        return Una("neg", a)
    if op in ("log", "sqrt"):
        pos = Bin("add", Num(1.0), Bin("mul", a, a))
        return Una(op, pos)
    if op == "exp":
        # bound the argument to avoid overflow: exp(sin(a))
        return Una("exp", Una("sin", a))
    return Una(op, a)


def test_diff_matches_fd_random():
    rng = np.random.default_rng(20240817)
    checked = 0
    while checked < 60:
        e = _random_expr(rng, 4)
        x = tuple(rng.uniform(-2.0, 2.0, size=2))
        try:
            base = _value(e, x)
        except EvalDomainError:
            continue
        if abs(base) > 1e6:
            continue
        for i in range(2):
            d = e.diff(i)
            try:
                exact = _value(d, x)
                fd1 = _central_fd(e, i, x, 1e-4)
                fd2 = _central_fd(e, i, x, 5e-5)
            except EvalDomainError:
                break
            scale = max(1.0, abs(exact), abs(base))
            err1 = abs(fd1 - exact)
            err2 = abs(fd2 - exact)
            # second-order convergence: halving h divides the error by ~4,
            # down to the rounding floor
            assert err1 <= max(4.5 * err2, 5e-11 * scale)
            assert err1 <= 1e-3 * scale
        else:
            checked += 1
    assert checked == 60


def test_print_roundtrip_values_identical():
    rng = np.random.default_rng(7)
    done = 0
    while done < 40:
        e = _random_expr(rng, 4)
        e2 = parse(str(e), XY)
        ok = 0
        for _ in range(5):
            x = tuple(rng.uniform(-2.0, 2.0, size=2))
            try:
                v1 = _value(e, x)
            except EvalDomainError:
                continue
            v2 = _value(e2, x)
            assert v1 == v2  # bit-identical: printing preserves structure
            ok += 1
        if ok:
            done += 1


def test_print_roundtrip_structures():
    for src in [
        "-x1^2",
        "2^-3",
        "x1^2^3",
        "1-(2-x1)",
        "(x1+x2)*(x1-x2)",
        "-(x1*x2)",
        "exp(-x2)/x1",
        "x1^(x2+1)",
        "1/(x1*x1)",
    ]:
        e = parse(src, XY)
        assert parse(str(e), XY) == e


def test_print_roundtrip_on_a_swapped_chart():
    # coords that are positional names in the other order print as the
    # chart names them, so the printed tree re-parses to the same one
    coords = ("x2", "x1")
    e = parse("x2 + 2*x1^2", coords)
    assert str(e) == "x2 + 2.0*x1^2.0"
    again = parse(str(e), coords)
    assert again == e
    assert _value(again, (1.0, 3.0)) == _value(e, (1.0, 3.0)) == 19.0


def test_structural_equality():
    assert parse("x1 + x2", XY) == parse("x1+x2", XY)
    assert parse("x1 + x2", XY) != parse("x2 + x1", XY)
    # a coordinate is its index and its name: index 0 named y is another tree
    assert parse("2*x1", XY) != parse("2*y", ("y", "x2"))
    assert Num(0.0) == Num(-0.0)
    a, b = parse("-exp(x1)^2/(x2 - 1)", XY), parse("-exp(x1) ^ 2 / (x2-1)", XY)
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b, Num(0.0), Num(-0.0)}) == 2


def test_node_construction_checks_and_coerces():
    with pytest.raises(ValueError, match="unknown unary op 'tanh'"):
        Una("tanh", Var(0))
    with pytest.raises(ValueError, match="unknown binary op 'mod'"):
        Bin("mod", Var(0), Num(2.0))
    two = Num("2")
    assert type(two.value) is float and two == Num(2.0)
    v = Var(1.0)
    assert type(v.index) is int and v == Var(1, "x2")


def test_readme_function_list_matches_parser():
    text = " ".join(README.read_text().split())
    listed = re.search(r"the functions `([a-z ]+)`", text).group(1).split()
    assert listed == list(_FUNCTIONS)
    for name in listed:
        assert _value(parse(f"{name}(x1)", XY), (0.5, 0.0)) is not None
    with pytest.raises(ParseError, match="unknown function"):
        parse("tanh(x1)", XY)


def test_literals_must_fit_a_double():
    # emitted code spells a literal by its repr, so an infinite one is
    # refused where it stands; a subnormal one reads back exactly
    for src, offset in [("x1 + 1e999", 6), ("2*x1^1E+400", 6)]:
        with pytest.raises(ParseError) as ei:
            parse(src, XY)
        assert str(ei.value) == f"number out of range (offset {offset})"
    with pytest.raises(ParseError, match=r"^number out of range \(offset 11\)$"):
        parse_pred("x1 > 0 or 1e999 < x2", XY)
    assert _value(parse("1e-320*x1", XY), (2.0, 0.0)) == 2.0 * 1e-320


# domain predicates: trees printed with random whitespace parse back to
# themselves, and any string of the predicate alphabet raises ParseError at
# an offset inside it (or one past its end)

_SIDES = ["x1", "-x2", "x1^2 + x2^2", "1/(x1 - 3)", "2*log(x2)", "0.49", "1e-320", "(x1)"]
_TERMS = st.one_of(
    st.just(("true",)),
    st.tuples(st.just("cmp"), st.sampled_from(["<", "<=", ">", ">="]),
              st.sampled_from(_SIDES), st.sampled_from(_SIDES)),
)
_ANDS = st.one_of(_TERMS, st.lists(_TERMS, min_size=2, max_size=3).map(lambda ts: ("and", ts)))
_PREDS = st.one_of(_ANDS, st.lists(_ANDS, min_size=2, max_size=3).map(lambda ts: ("or", ts)))


def _print_pred(tree, ws):
    # ws(k) draws whitespace of at least k characters
    if tree[0] == "true":
        return "true"
    if tree[0] == "cmp":
        return f"{tree[2]}{ws(0)}{tree[1]}{ws(0)}{tree[3]}"
    return f"{ws(1)}{tree[0]}{ws(1)}".join(_print_pred(t, ws) for t in tree[1])


def _parsed_sides(tree):
    if tree[0] == "cmp":
        return ("cmp", tree[1], parse(tree[2], XY), parse(tree[3], XY))
    if tree[0] == "true":
        return tree
    return (tree[0], [_parsed_sides(t) for t in tree[1]])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tree=_PREDS, data=st.data())
def test_printed_predicates_parse_to_their_trees(tree, data):
    def ws(k):
        return data.draw(st.text(" \t\n", min_size=k, max_size=k + 2))

    src = ws(0) + _print_pred(tree, ws) + ws(0)
    assert parse_pred(src, XY) == _parsed_sides(tree), src


_SOUP = st.lists(st.sampled_from([
    "x1", "x2", "0", "2.5", "1e999", "1e-320", "1.2.3", ".", "(", ")", "<", ">", "=",
    "<=", ">=", "and", "or", "true", "+", "-", "*", "/", "^", "&", "|", "!", ",",
    "log", "foo", " ", "",
]), max_size=12)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(parts=_SOUP, sep=st.sampled_from(["", " "]))
def test_predicate_soups_raise_only_parse_errors(parts, sep):
    src = sep.join(parts)
    for rule in (parse_pred, parse):
        try:
            rule(src, XY)
        except ParseError as err:
            assert 1 <= err.offset <= len(src) + 1, (src, str(err))


@pytest.mark.parametrize("src, msg", [
    ("x1 & x2 > 0", "unexpected character '&' (offset 4)"),
    ("x1 != 0", "unexpected character '!' (offset 4)"),
    ("x1 > 0, x2 > 0", "unexpected character ',' (offset 7)"),
    ("x1 + > 2", "unexpected token '>' (offset 6)"),
    ("x1 = 0", "unexpected token '=' (offset 4)"),
    ("x1 < = 2", "unexpected token '=' (offset 6)"),
    ("x1 < 2 >= 3", "unexpected token '>' (offset 8)"),
    ("x1 > 0 and", "unexpected end of input (offset 11)"),
    ("or x1 > 0", "unknown identifier 'or' (offset 1)"),
    ("(x1 > 0)", "expected ')' (offset 5)"),
    ("true > 0", "unknown identifier 'true' (offset 1)"),
    ("", "unexpected end of input (offset 1)"),
])
def test_predicate_parse_errors(src, msg):
    with pytest.raises(ParseError) as ei:
        parse_pred(src, XY)
    assert str(ei.value) == msg
