"""Scalar expression trees over chart coordinates.

Grammar (precedence low to high): ``+ -`` < ``* /`` < unary ``-`` < ``^``,
with ``^`` right-associative.  Functions: exp, log, sin, cos, sqrt, abs.
Differentiation is exact and symbolic, and the trees themselves are only
ever rewritten by constant folding.

Evaluation compiles trees to Python functions (compile_many; Expr.eval
goes through it too).  The emitter folds the exact identities ``e*1``,
``1*e``, ``e+0``, ``0+e``, ``e-0``, ``e/1`` and ``e^1`` to ``e``.  A factor
multiplied by a literal ``0``, a divisor under a literal ``0`` numerator,
or a base raised to a literal ``0``, is not evaluated at all, so a domain
error inside it is not reported.  Any other evaluation outside the real
domain of an operation raises :class:`EvalDomainError` carrying the
offending node -- it never returns a silent NaN or infinity.

The same generated code also runs over numpy columns, one row per point
(the ``many`` attribute of a compiled kernel).  Rows on which the scalar
kernel would raise come back as NaN.  Values can differ from the scalar
ones in the last bits, because numpy's SIMD ``exp`` and ``power`` round
differently from ``math``'s on a few percent of inputs.
"""

import math

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Una",
    "Bin",
    "ExprError",
    "ParseError",
    "EvalDomainError",
    "parse",
    "evaluate",
    "compile_many",
]

_UNARY_OPS = ("neg", "exp", "log", "sin", "cos", "sqrt", "abs")
_BINARY_OPS = ("add", "sub", "mul", "div", "pow")

# printing precedence levels
_P_ADD, _P_MUL, _P_UNARY, _P_POW, _P_ATOM = 1, 2, 3, 4, 5


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Syntax or name error; `offset` is the 1-based byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
        self.reason = message


class EvalDomainError(ExprError):
    """Evaluation left the real domain; `node` is the failing sub-expression."""

    def __init__(self, node, reason, point=None):
        at = f" at {tuple(point)}" if point is not None else ""
        super().__init__(f"{reason} in '{node}'{at}")
        self.node = node
        self.reason = reason
        self.point = None if point is None else tuple(point)


class Expr:
    """Immutable expression node."""

    __slots__ = ("_fn",)

    prec = _P_ATOM

    def eval(self, x):
        """Evaluate at coordinate tuple `x`."""
        fn = getattr(self, "_fn", None)
        if fn is None:
            fn = compile_many((self,))
            object.__setattr__(self, "_fn", fn)
        return fn(x)[0]

    def diff(self, i):
        """Exact partial derivative with respect to coordinate `i`."""
        raise NotImplementedError

    def _walk_eval(self, x):
        raise NotImplementedError


def evaluate(expr, x):
    """Evaluate `expr` at point `x` (sequence of floats)."""
    return expr.eval(x)


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", float(value))

    @property
    def prec(self):
        return _P_UNARY if self.value < 0 else _P_ATOM

    def diff(self, i):
        return Num(0.0)

    def _walk_eval(self, x):
        return self.value

    def __str__(self):
        return repr(self.value)

    def __repr__(self):
        return f"Num({self.value!r})"

    def __eq__(self, other):
        return type(other) is Num and other.value == self.value

    def __hash__(self):
        return hash(("num", self.value))


class Var(Expr):
    """Coordinate `index`, printed by its name (by default x<index + 1>)."""

    __slots__ = ("index", "name")

    def __init__(self, index, name=None):
        object.__setattr__(self, "index", int(index))
        object.__setattr__(self, "name", name if name is not None else f"x{index + 1}")

    def diff(self, i):
        return Num(1.0 if i == self.index else 0.0)

    def _walk_eval(self, x):
        return float(x[self.index])

    def __str__(self):
        # a parsed tree re-parses over the same coords, and a diagnostic
        # names the coordinate the user wrote
        return self.name

    def __repr__(self):
        return f"Var({self.index}, {self.name!r})"

    def __eq__(self, other):
        return type(other) is Var and other.index == self.index and other.name == self.name

    def __hash__(self):
        return hash(("var", self.index, self.name))


class Una(Expr):
    __slots__ = ("op", "arg")

    @property
    def prec(self):
        # function applications print as atoms; only neg is an operator
        return _P_UNARY if self.op == "neg" else _P_ATOM

    def __init__(self, op, arg):
        if op not in _UNARY_OPS:
            raise ValueError(f"unknown unary op {op!r}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "arg", arg)

    def diff(self, i):
        f, op = self.arg, self.op
        df = f.diff(i)
        if op == "neg":
            return _una("neg", df)
        if op == "exp":
            return _bin("mul", _una("exp", f), df)
        if op == "log":
            return _bin("div", df, f)
        if op == "sin":
            return _bin("mul", _una("cos", f), df)
        if op == "cos":
            return _una("neg", _bin("mul", _una("sin", f), df))
        if op == "sqrt":
            return _bin("div", df, _bin("mul", Num(2.0), _una("sqrt", f)))
        # abs: sign(f) * f', undefined at f == 0 (the division reports it)
        return _bin("mul", _bin("div", f, _una("abs", f)), df)

    def _walk_eval(self, x):
        v = self.arg._walk_eval(x)
        if self.op == "neg":
            return -v
        return _apply_una(self.op, v, self, x)

    def __str__(self):
        if self.op == "neg":
            s = str(self.arg)
            if self.arg.prec < _P_UNARY:
                s = f"({s})"
            return f"-{s}"
        return f"{self.op}({self.arg})"

    def __repr__(self):
        return f"Una({self.op!r}, {self.arg!r})"

    def __eq__(self, other):
        return type(other) is Una and other.op == self.op and other.arg == self.arg

    def __hash__(self):
        return hash(("una", self.op, self.arg))


class Bin(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        if op not in _BINARY_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def prec(self):
        if self.op in ("add", "sub"):
            return _P_ADD
        if self.op in ("mul", "div"):
            return _P_MUL
        return _P_POW

    def diff(self, i):
        f, g, op = self.left, self.right, self.op
        if op == "add":
            return _bin("add", f.diff(i), g.diff(i))
        if op == "sub":
            return _bin("sub", f.diff(i), g.diff(i))
        if op == "mul":
            return _bin("add", _bin("mul", f.diff(i), g), _bin("mul", f, g.diff(i)))
        if op == "div":
            num = _bin("sub", _bin("mul", f.diff(i), g), _bin("mul", f, g.diff(i)))
            return _bin("div", num, _bin("mul", g, g))
        # pow
        if isinstance(g, Num):
            c = g.value
            step = _bin("mul", Num(c), _bin("pow", f, Num(c - 1.0)))
            return _bin("mul", step, f.diff(i))
        # general exponent: f^g * (g' log f + g f'/f)
        t1 = _bin("mul", g.diff(i), _una("log", f))
        t2 = _bin("mul", g, _bin("div", f.diff(i), f))
        return _bin("mul", self, _bin("add", t1, t2))

    def _walk_eval(self, x):
        a = self.left._walk_eval(x)
        b = self.right._walk_eval(x)
        return _apply_bin(self.op, a, b, self, x)

    def __str__(self):
        sym = {"add": " + ", "sub": " - ", "mul": "*", "div": "/", "pow": "^"}[self.op]
        p = self.prec
        ls, rs = str(self.left), str(self.right)
        if self.op == "pow":
            # right-associative: parenthesize the base at equal precedence
            if self.left.prec <= p:
                ls = f"({ls})"
            if self.right.prec < p:
                rs = f"({rs})"
        else:
            if self.left.prec < p:
                ls = f"({ls})"
            # left-associative: parenthesize the right operand at equal
            # precedence so the printed tree re-parses to the same shape
            if self.right.prec <= p:
                rs = f"({rs})"
        return f"{ls}{sym}{rs}"

    def __repr__(self):
        return f"Bin({self.op!r}, {self.left!r}, {self.right!r})"

    def __eq__(self, other):
        return (
            type(other) is Bin
            and other.op == self.op
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self):
        return hash(("bin", self.op, self.left, self.right))


# evaluation guards; shared by the tree walker and compiled code


def _apply_una(op, v, node, x=None):
    try:
        if op == "exp":
            r = math.exp(v)
        elif op == "log":
            if v <= 0.0:
                raise EvalDomainError(node, "log of non-positive value", x)
            r = math.log(v)
        elif op == "sin":
            r = math.sin(v)
        elif op == "cos":
            r = math.cos(v)
        elif op == "sqrt":
            if v < 0.0:
                raise EvalDomainError(node, "sqrt of negative value", x)
            r = math.sqrt(v)
        else:
            r = abs(v)
    except OverflowError:
        raise EvalDomainError(node, "overflow", x) from None
    if not math.isfinite(r):
        raise EvalDomainError(node, "non-finite result", x)
    return r


def _apply_bin(op, a, b, node, x=None):
    try:
        if op == "add":
            r = a + b
        elif op == "sub":
            r = a - b
        elif op == "mul":
            r = a * b
        elif op == "div":
            if b == 0.0:
                raise EvalDomainError(node, "division by zero", x)
            r = a / b
        else:
            r = math.pow(a, b)
    except OverflowError:
        raise EvalDomainError(node, "overflow", x) from None
    except ValueError:
        raise EvalDomainError(node, "power outside real domain", x) from None
    if not math.isfinite(r):
        raise EvalDomainError(node, "overflow" if math.isinf(r) else "non-finite result", x)
    return r


# smart constructors: constant folding only


def _una(op, arg):
    if isinstance(arg, Num):
        try:
            return Num(-arg.value if op == "neg" else _apply_una(op, arg.value, arg))
        except EvalDomainError:
            pass
    return Una(op, arg)


def _bin(op, left, right):
    if isinstance(left, Num) and isinstance(right, Num):
        try:
            return Num(_apply_bin(op, left.value, right.value, left))
        except EvalDomainError:
            pass
    return Bin(op, left, right)


# compilation: one python function for a list of roots.  Every distinct
# subtree is computed once, and exact identities are folded here, never in
# the trees.  On any exception or non-finite output the guarded tree walker
# re-runs to name the failing node.

_EMIT_BIN = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
# inlined operations nest at most this deep in one generated expression;
# CPython's parser stops at 200 levels of parentheses
_INLINE_DEPTH = 32


def _num_key(value):
    # 0.0 and -0.0 compare equal but must stay distinct literals
    return ("num", value, math.copysign(1.0, value))


def compile_many(roots):
    """A callable ``f(x)`` returning the tuple of every root's value at `x`.

    Repeated subtrees of the hash-consed trees are computed once.  The
    emitter folds ``e*1``, ``1*e``, ``e+0``, ``0+e``, ``e-0``, ``e/1`` and
    ``e^1`` to ``e``, and ``0*e``, ``e*0``, ``0/e`` and ``e^0`` to their
    constant without evaluating ``e``, so a domain error inside such an
    ``e`` is not reported.  Any other failure raises
    :class:`EvalDomainError` with the failing node and point, found by the
    guarded tree walker.

    ``f.get(x)`` is ``f(x)``, or None where ``f`` would raise, without the
    walk that names the failing node: for callers that need only the
    verdict, such as a chart test at many points near its wall.

    ``f.many(xs)`` evaluates every row of an ``(N, n)`` array at once and
    returns an ``(N, len(roots))`` array.  It runs the same generated code
    with numpy's ufuncs on the coordinate columns.  A row with a
    non-finite value runs again through ``f``, and so does every row of a
    batch in which numpy flags a division by zero, an overflow or an
    invalid operation; a row on which ``f`` raises comes back as NaN, so
    ``f(row)`` names its node and point.  Values agree with ``f`` to a few
    ulp: numpy's SIMD ``exp`` and ``power`` round differently from
    ``math``'s on a few percent of inputs.
    """
    roots = tuple(roots)
    rows = []     # structural keys in post-order, so children precede parents
    index = {}    # structural key -> row
    seen = {}     # id(node) -> row; structurally shared objects hit here

    def row(key):
        r = index.get(key)
        if r is None:
            r = index[key] = len(rows)
            rows.append(key)
        return r

    def is_num(r, value):
        key = rows[r]
        return key[0] == "num" and key[1] == value

    def visit(e):
        r = seen.get(id(e))
        if r is not None:
            return r
        if isinstance(e, Num):
            r = row(_num_key(e.value))
        elif isinstance(e, Var):
            r = row(("var", e.index))
        elif isinstance(e, Una):
            r = row((e.op, visit(e.arg)))
        elif e.op == "pow":
            b = visit(e.right)
            if is_num(b, 0.0):
                r = row(_num_key(1.0))
            else:
                a = visit(e.left)
                r = a if is_num(b, 1.0) else row(("pow", a, b))
        else:
            a = visit(e.left)
            if e.op in ("mul", "div") and is_num(a, 0.0):
                r = a
            else:
                b = visit(e.right)
                r = _fold(e.op, a, b, is_num)
                if r is None:
                    r = row((e.op, a, b))
        seen[id(e)] = r
        return r

    outs = [visit(e) for e in roots]

    # use counts over the rows the outputs reach; a row used once is
    # inlined into its user unless that nests too deep, any other gets a
    # local
    uses = [0] * len(rows)
    for r in outs:
        uses[r] += 1
    for r in range(len(rows) - 1, -1, -1):
        key = rows[r]
        if uses[r] and key[0] not in ("num", "var"):
            for c in key[1:]:
                uses[c] += 1

    code = [None] * len(rows)
    depth = [0] * len(rows)
    lines = []
    for r, (op, *args) in enumerate(rows):
        if not uses[r]:
            continue
        if op == "num":
            code[r] = repr(args[0])
            continue
        if op == "var":
            text = f"x[{args[0]}]"
        else:
            a = [code[c] for c in args]
            depth[r] = 1 + max(depth[c] for c in args)
            if op == "neg":
                text = f"(-{a[0]})"
            elif op == "pow":
                text = f"_pow({a[0]}, {a[1]})"
            elif len(a) == 1:
                text = f"_{op}({a[0]})"
            else:
                text = f"({a[0]} {_EMIT_BIN[op]} {a[1]})"
        if uses[r] > 1 or depth[r] > _INLINE_DEPTH:
            lines.append(f"    t{r} = {text}")
            text = f"t{r}"
            depth[r] = 0
        code[r] = text
    body = "\n".join(lines + [f"    return ({', '.join(code[r] for r in outs)},)"])
    compiled = compile(f"def _kernel(x):\n{body}\n", "<kernel>", "exec")
    raw = _exec_kernel(compiled, math, _abs=abs, _pow=math.pow)
    # the same code over numpy columns: x[i] is coordinate i of every row
    raw_many = _exec_kernel(compiled, np, _abs=np.abs, _pow=np.power)
    isfinite = math.isfinite

    def get(x):
        try:
            out = raw(x)
            # a finite sum proves every term finite; an overflowing sum of
            # finite terms falls through to the exact test
            if isfinite(sum(out)) or all(map(isfinite, out)):
                return out
        except (ArithmeticError, ValueError):
            pass
        return None

    def kernel(x):
        out = get(x)
        if out is None:
            _walk_failure(roots, x)
        return out

    def many(xs):
        xs = np.asarray(xs, dtype=float)
        out = np.empty((len(xs), len(outs)))
        try:
            # a flagged operation is one the scalar kernel may raise on
            # (or silently pass an infinity through), so no row of a
            # flagged batch is trusted
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                vals = raw_many(np.ascontiguousarray(xs.T))
            for j, v in enumerate(vals):
                out[:, j] = v  # constant roots come back as floats
            redo = np.flatnonzero(~np.isfinite(out).all(axis=1))
        except (ArithmeticError, ValueError):
            redo = range(len(xs))
        for i in redo:
            try:
                out[i] = kernel(tuple(xs[i].tolist()))
            except EvalDomainError:
                out[i] = np.nan
        return out

    kernel.get = get
    kernel.many = many
    return kernel


def _exec_kernel(code, lib, **extra):
    # the kernel function of `code`, with the math of `lib` bound
    ns = {f"_{op}": getattr(lib, op) for op in ("exp", "log", "sin", "cos", "sqrt")}
    ns.update(extra)
    exec(code, ns)  # noqa: S102 - generated from validated trees
    return ns["_kernel"]


def _fold(op, a, b, is_num):
    # the row an exact identity reduces `a op b` to, or None
    if op == "add":
        if is_num(b, 0.0):
            return a
        if is_num(a, 0.0):
            return b
    elif op == "sub":
        if is_num(b, 0.0):
            return a
    elif op == "mul":
        if is_num(b, 0.0) or is_num(a, 1.0):
            return b
        if is_num(b, 1.0):
            return a
    elif op == "div":
        if is_num(b, 1.0):
            return a
    return None


def _walk_failure(roots, x):
    for e in roots:
        try:
            e._walk_eval(x)
        except EvalDomainError as err:
            raise EvalDomainError(err.node, err.reason, x) from None
    raise EvalDomainError(roots[0], "non-finite result", x)


# recursive-descent parser


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos  # 0-based byte offset


def _tokenize(src):
    toks = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"bad number {text!r}", i + 1) from None
            toks.append(_Token("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Token("ident", src[i:j], i))
            i = j
            continue
        if c in "+-*/^()<>=&|!,":
            toks.append(_Token("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i + 1)
    toks.append(_Token("eof", "", n))
    return toks


_FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt", "abs")


class _Parser:
    def __init__(self, src, coords):
        self.src = src
        self.coords = tuple(coords)
        self.toks = _tokenize(src)
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def take(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def fail(self, msg, tok=None):
        tok = tok if tok is not None else self.peek()
        raise ParseError(msg, tok.pos + 1)

    def expect_op(self, text):
        t = self.peek()
        if t.kind == "op" and t.text == text:
            return self.take()
        self.fail(f"expected {text!r}")

    def parse_expr(self):
        return self.parse_add()

    def parse_add(self):
        e = self.parse_mul()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "+-":
                self.take()
                rhs = self.parse_mul()
                e = _bin("add" if t.text == "+" else "sub", e, rhs)
            else:
                return e

    def parse_mul(self):
        e = self.parse_unary()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "*/":
                self.take()
                rhs = self.parse_unary()
                e = _bin("mul" if t.text == "*" else "div", e, rhs)
            else:
                return e

    def parse_unary(self):
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.take()
            return _una("neg", self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.take()
            return _bin("pow", base, self.parse_unary())
        return base

    def parse_atom(self):
        t = self.take()
        if t.kind == "num":
            return Num(float(t.text))
        if t.kind == "ident":
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if t.text not in _FUNCTIONS:
                    self.fail(f"unknown function {t.text!r}", t)
                self.take()
                arg = self.parse_expr()
                self.expect_op(")")
                return _una(t.text, arg)
            if t.text in self.coords:
                idx = self.coords.index(t.text)
                return Var(idx, t.text)
            self.fail(f"unknown identifier {t.text!r}", t)
        if t.kind == "op" and t.text == "(":
            e = self.parse_expr()
            self.expect_op(")")
            return e
        if t.kind == "eof":
            self.fail("unexpected end of input", t)
        self.fail(f"unexpected token {t.text!r}", t)


def parse(src, coords):
    """Parse `src` over coordinate names `coords` into an Expr."""
    p = _Parser(src, coords)
    e = p.parse_expr()
    t = p.peek()
    if t.kind != "eof":
        p.fail(f"unexpected token {t.text!r}", t)
    return e
