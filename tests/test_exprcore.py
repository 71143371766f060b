"""Expression core: parsing, evaluation, exact differentiation.

Expected values are frozen here before the implementation; derivative
checks compare against independent central finite differences.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from divstat.exprcore import (
    _FUNCTIONS,
    Bin,
    EvalDomainError,
    Num,
    ParseError,
    Una,
    Var,
    evaluate,
    parse,
)

README = Path(__file__).resolve().parents[1] / "README.md"

XY = ("x1", "x2")


def ev(src, *pt, coords=XY):
    return evaluate(parse(src, coords), pt)


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
        evaluate(e, (0.0, 0.0))


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
            evaluate(e, pt)
        assert ei.value.node is not None, src


def test_no_silent_nonfinite():
    # 1/x1^2 overflows float range at tiny x1; must raise, not return inf
    e = parse("1/(x1*x1)", XY)
    with pytest.raises(EvalDomainError):
        evaluate(e, (1e-300, 0.0))


def test_diff_basic():
    e = parse("x1^2 + 1", XY)
    d = e.diff(0)
    assert evaluate(d, (3.0, 0.0)) == 6.0
    assert evaluate(e.diff(1), (3.0, 4.0)) == 0.0


def test_diff_second_derivative_exp():
    # d^2/dy^2 exp(-y) at y=1 equals exp(-1)
    e = parse("exp(-x2)", XY)
    d2 = e.diff(1).diff(1)
    assert abs(evaluate(d2, (0.0, 1.0)) - math.exp(-1.0)) < 1e-16


def test_diff_log_potential_gradient():
    # d/dx1 of -log((x1^2+x2^2+1)/2) is -2*x1/(x1^2+x2^2+1); at (1,0) -> -1
    e = parse("-log(0.5*(x1^2+x2^2+1))", XY)
    assert abs(evaluate(e.diff(0), (1.0, 0.0)) + 1.0) < 1e-15
    # raw second partial d2/dx1^2 vanishes at (1,0)
    assert abs(evaluate(e.diff(0).diff(0), (1.0, 0.0))) < 1e-15


def test_diff_general_power():
    # d/dx1 x1^x2 = x1^x2 * x2/x1 ; d/dx2 x1^x2 = x1^x2 * log(x1)
    e = parse("x1^x2", XY)
    x = (2.0, 3.0)
    assert abs(evaluate(e.diff(0), x) - 12.0) < 1e-12
    assert abs(evaluate(e.diff(1), x) - 8.0 * math.log(2.0)) < 1e-12


def test_diff_abs():
    e = parse("abs(x1)", XY)
    assert evaluate(e.diff(0), (-3.0, 0.0)) == -1.0
    assert evaluate(e.diff(0), (2.0, 0.0)) == 1.0
    with pytest.raises(EvalDomainError):
        evaluate(e.diff(0), (0.0, 0.0))


def _central_fd(e, i, x, h):
    xp = list(x)
    xm = list(x)
    xp[i] += h
    xm[i] -= h
    return (evaluate(e, xp) - evaluate(e, xm)) / (2.0 * h)


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
            base = evaluate(e, x)
        except EvalDomainError:
            continue
        if abs(base) > 1e6:
            continue
        for i in range(2):
            d = e.diff(i)
            try:
                exact = evaluate(d, x)
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
                v1 = evaluate(e, x)
            except EvalDomainError:
                continue
            v2 = evaluate(e2, x)
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
    assert evaluate(again, (1.0, 3.0)) == evaluate(e, (1.0, 3.0)) == 19.0


def test_structural_equality():
    assert parse("x1 + x2", XY) == parse("x1+x2", XY)
    assert parse("x1 + x2", XY) != parse("x2 + x1", XY)


def test_readme_function_list_matches_parser():
    text = " ".join(README.read_text().split())
    listed = re.search(r"the functions `([a-z ]+)`", text).group(1).split()
    assert listed == list(_FUNCTIONS)
    for name in listed:
        assert evaluate(parse(f"{name}(x1)", XY), (0.5, 0.0)) is not None
    with pytest.raises(ParseError, match="unknown function"):
        parse("tanh(x1)", XY)
