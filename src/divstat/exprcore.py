"""Scalar expression trees over chart coordinates.

Grammar (precedence low to high): ``+ -`` < ``* /`` < unary ``-`` < ``^``,
with ``^`` right-associative.  Functions: exp, log, sin, cos, sqrt, abs.
Literals must be finite doubles.  A domain predicate (parse_pred) joins
comparisons ``expr (< | <= | > | >=) expr``, or the word ``true``, by
``and`` and ``or``, ``and`` binding tighter; parentheses belong to the
expressions, and error offsets count in the whole predicate.
Differentiation is exact and symbolic, and the trees themselves are only
ever rewritten by constant folding.  A node keeps its derivatives, so a
jet is a DAG, and every walk (_walk) visits each distinct node once on an
explicit stack: no tree is too deep to differentiate, compile or print.

Evaluation compiles trees to Python functions (compile_many; Expr.eval
goes through it too).  A kernel's trees are walked once, into a plan
(_plan) that the kernel keeps; _render writes the body from it, for the
kernel and wherever the geodesic integrator inlines the kernel.  The
plan folds the exact identities ``e*1``, ``1*e``, ``e+0``, ``0+e``,
``e-0``, ``e/1`` and ``e^1`` to ``e``.  A factor
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
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Expr", "Num", "Var", "Una", "Bin", "ExprError", "ParseError",
    "EvalDomainError", "parse", "parse_pred", "compile_many",
]

_FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt", "abs")
_UNARY_OPS = ("neg",) + _FUNCTIONS

# printing precedence levels
_P_ADD, _P_MUL, _P_UNARY, _P_POW, _P_ATOM = 1, 2, 3, 4, 5

# each binary op's symbol and precedence, for the parser, the printer and
# the emitter alike; ^ is right-associative, the others left-associative
_BINARY_OPS = {
    "add": ("+", _P_ADD),
    "sub": ("-", _P_ADD),
    "mul": ("*", _P_MUL),
    "div": ("/", _P_MUL),
    "pow": ("^", _P_POW),
}
_OP_OF = {sym: op for op, (sym, _) in _BINARY_OPS.items()}


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Syntax or name error; `offset` is the 1-based byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalDomainError(ExprError):
    """Evaluation left the real domain; `node` is the failing sub-expression."""

    def __init__(self, node, reason, point=None):
        at = f" at {tuple(point)}" if point is not None else ""
        text = _text(node, _EXCERPT) if isinstance(node, Expr) else node
        super().__init__(f"{reason} in '{text}'{at}")
        self.node = node
        self.reason = reason
        self.point = None if point is None else tuple(point)


class Expr:
    """Expression node, equal by structure.

    diff(i) is the exact partial derivative by coordinate i.  A node is
    never modified after it is built: compiled kernels hold the tree as it
    was compiled, and the `_d` slot keeps the node's derivative by each
    coordinate once diff has built it.  So a subtree that several nodes
    share is differentiated once, and a jet is a DAG.  == compares whole
    trees on one _walk; hash reads a node's own fields and not its
    children, so equal trees hash equal without a walk.  The slot takes no
    part in ==, hash or repr.
    """

    __slots__ = ("_d",)

    def eval(self, x):
        """Evaluate at coordinate tuple `x`: compile_many((self,))(x)[0].

        The kernel is compiled on every call and kept nowhere; code that
        evaluates a tree more than once compiles it once with compile_many.
        """
        return compile_many((self,))(x)[0]

    def _walk_eval(self, x):
        # the guarded reference evaluation, which names a failing node
        return _walk((self,), lambda e: e.value if isinstance(e, Num) else float(x[e.index]),
                     lambda e: _eval_step(e, x))[0]

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        shapes = {}  # each distinct shape met, numbered

        def number(key):
            return shapes.setdefault(key, len(shapes))

        def step(e):
            if isinstance(e, Una):
                return number((e.op, (yield e.arg)))
            return number((e.op, (yield e.left), (yield e.right)))

        a, b = _walk((self, other), lambda e: number(
            ("num", e.value) if isinstance(e, Num) else ("var", e.index, e.name)), step)
        return a == b

    def __str__(self):
        return _text(self)


@dataclass(slots=True, eq=False, unsafe_hash=True)
class Num(Expr):
    value: float

    def __post_init__(self):
        self.value = float(self.value)

    def diff(self, i):
        return Num(0.0)


@dataclass(slots=True, eq=False, unsafe_hash=True)
class Var(Expr):
    """Coordinate `index`, printed by its name (by default x<index + 1>)."""

    index: int
    name: str | None = None

    def __post_init__(self):
        self.index = int(self.index)
        if self.name is None:
            self.name = f"x{self.index + 1}"

    def diff(self, i):
        return Num(1.0 if i == self.index else 0.0)


@dataclass(slots=True, eq=False, unsafe_hash=True)
class Una(Expr):
    op: str
    arg: Expr = field(hash=False)

    def __post_init__(self):
        if self.op not in _UNARY_OPS:
            raise ValueError(f"unknown unary op {self.op!r}")

    def diff(self, i):
        return _diff(self, i)


@dataclass(slots=True, eq=False, unsafe_hash=True)
class Bin(Expr):
    op: str
    left: Expr = field(hash=False)
    right: Expr = field(hash=False)

    def __post_init__(self):
        if self.op not in _BINARY_OPS:
            raise ValueError(f"unknown binary op {self.op!r}")

    def diff(self, i):
        return _diff(self, i)


# walks: one explicit stack, children first, each distinct node once


def _walk(roots, leaf, step):
    # each root's value, children first, without recursion: leaf(e) gives a
    # Num's or Var's value, and step(e) of a Una or Bin is a generator that
    # yields the children it needs, in order, is sent their values and
    # returns e's.  Each distinct Una and Bin (by identity) is stepped once
    done = {}  # id(node) -> value; the roots keep every node alive
    get, inner, out = done.get, (Una, Bin), []
    for node in roots:
        keys, sends = [], []  # id and send of each node being stepped
        while True:
            if not isinstance(node, inner):
                value = leaf(node)
            else:
                value = get(id(node), done)
                if value is done:
                    keys.append(id(node))
                    sends.append(step(node).send)
                    value = None
            while sends:
                try:
                    node = sends[-1](value)
                    break
                except StopIteration as stop:
                    value = done[keys.pop()] = stop.value
                    sends.pop()
            else:
                out.append(value)
                break
    return out


# each unary op's derivative, from its argument f and the derivative df
_CHAIN = {
    "neg": lambda f, df: _una("neg", df),
    "exp": lambda f, df: _bin("mul", _una("exp", f), df),
    "log": lambda f, df: _bin("div", df, f),
    "sin": lambda f, df: _bin("mul", _una("cos", f), df),
    "cos": lambda f, df: _una("neg", _bin("mul", _una("sin", f), df)),
    "sqrt": lambda f, df: _bin("div", df, _bin("mul", Num(2.0), _una("sqrt", f))),
    # sign(f) f', undefined at f == 0 (the division reports it)
    "abs": lambda f, df: _bin("mul", _bin("div", f, _una("abs", f)), df),
}


def _diff(root, i):
    # root's derivative by coordinate i; every Una and Bin node keeps its
    # derivatives in its _d slot, so none is built twice
    def step(e):
        memo = getattr(e, "_d", None)
        if memo is None:
            memo = e._d = {}
        if i in memo:
            return memo[i]
        if isinstance(e, Una):
            d = _CHAIN[e.op](e.arg, (yield e.arg))
        else:
            f, g, op = e.left, e.right, e.op
            df, dg = (yield f), (yield g)
            if op in ("add", "sub"):
                d = _bin(op, df, dg)
            elif op == "mul":
                d = _bin("add", _bin("mul", df, g), _bin("mul", f, dg))
            elif op == "div":
                num = _bin("sub", _bin("mul", df, g), _bin("mul", f, dg))
                d = _bin("div", num, _bin("mul", g, g))
            elif isinstance(g, Num):
                c = g.value
                d = _bin("mul", _bin("mul", Num(c), _bin("pow", f, Num(c - 1.0))), df)
            else:
                # general exponent: f^g * (g' log f + g f'/f)
                t1 = _bin("mul", dg, _una("log", f))
                d = _bin("mul", e, _bin("add", t1, _bin("mul", g, _bin("div", df, f))))
        memo[i] = d
        return d

    return _walk((root,), lambda e: e.diff(i), step)[0]


def _eval_step(e, x):
    # _walk's step for the guarded evaluation at x
    if isinstance(e, Una):
        v = yield e.arg
        return -v if e.op == "neg" else _apply_una(e.op, v, e, x)
    a = yield e.left
    return _apply_bin(e.op, a, (yield e.right), e, x)


# an EvalDomainError quotes at most this many characters from each end of
# its node: a derived node printed as a tree can be far longer than its
# DAG, and its tail names the node's own operator and last operand
_EXCERPT = 50


def _text(root, limit=None):
    # root's text, which parses back to root over the same coordinates, or
    # with a limit, where it is longer than 2 * limit characters, its first
    # and last `limit` characters around "...".  Each node's text is a
    # tuple of pieces, strings and its children's tuples, joined once at
    # the end: no string is copied per tree level

    def leaf(e):
        # e's (text, printing precedence); a diagnostic names the coordinate
        # the user wrote
        if isinstance(e, Var):
            return e.name, _P_ATOM
        return repr(e.value), _P_UNARY if e.value < 0 else _P_ATOM

    def step(e):
        if isinstance(e, Una):
            s, q = yield e.arg
            if e.op != "neg":
                return (f"{e.op}(", s, ")"), _P_ATOM
            return (("-(", s, ")") if q < _P_UNARY else ("-", s)), _P_UNARY
        sym, p = _BINARY_OPS[e.op]
        # the operand on the associating side is parenthesized at equal
        # precedence too, so the printed tree re-parses to the same shape
        lp, rp = (p + 1, p) if e.op == "pow" else (p, p + 1)
        (ls, lq), (rs, rq) = (yield e.left), (yield e.right)
        ls = ls if lq >= lp else ("(", ls, ")")
        rs = rs if rq >= rp else ("(", rs, ")")
        return (ls, f" {sym} " if p == _P_ADD else sym, rs), p

    pieces = _walk((root,), leaf, step)[0][0]

    def read(count, backward=False):
        # the strings from one end, on an explicit stack, until past count
        # characters (all of them for None), joined in reading order
        out, size, stack = [], 0, [pieces]
        while stack and (count is None or size <= count):
            piece = stack.pop()
            if isinstance(piece, str):
                out.append(piece)
                size += len(piece)
            else:
                stack.extend(piece if backward else reversed(piece))
        return "".join(reversed(out) if backward else out)

    s = read(None if limit is None else 2 * limit)
    if limit is None or len(s) <= 2 * limit:
        return s
    return s[:limit] + "..." + read(limit, backward=True)[-limit:]


# evaluation guards; shared by the guarded walk and constant folding


def _apply_una(op, v, node, x=None):
    if op == "log" and v <= 0.0:
        raise EvalDomainError(node, "log of non-positive value", x)
    if op == "sqrt" and v < 0.0:
        raise EvalDomainError(node, "sqrt of negative value", x)
    try:
        r = abs(v) if op == "abs" else getattr(math, op)(v)
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


# compilation: one python function for a list of roots (compile_many)

# inlined operations nest at most this deep in one generated expression;
# CPython's parser stops at 200 levels of parentheses
_INLINE_DEPTH = 32


def _num_key(value):
    # 0.0 and -0.0 compare equal but must stay distinct literals
    return ("num", value, math.copysign(1.0, value))


def _plan(roots):
    """The emission plan of `roots`: (rows, outs, uses), computed once.

    rows are the distinct structural keys the walk meets, children before
    parents, after the folding of exact identities; outs gives each root's
    row, and uses how often each row is read by the rows and outputs the
    roots reach (0 for the rest).  compile_many keeps the plan on its
    kernel (kernel.plan), and _render writes code from it at any call
    site, so a kernel's DAG is walked once however often it is inlined.
    """
    rows = []     # structural keys, children before parents
    index = {}    # structural key -> row; structurally equal copies hit here

    def row(key):
        r = index.get(key)
        if r is None:
            r = index[key] = len(rows)
            rows.append(key)
        return r

    def is_num(r, value):
        key = rows[r]
        return key[0] == "num" and key[1] == value

    def leaf(e):
        return row(_num_key(e.value) if isinstance(e, Num) else ("var", e.index))

    def step(e):
        # a ^ reads its exponent first; 0*e, 0/e and e^0 never read e
        if isinstance(e, Una):
            return row((e.op, (yield e.arg)))
        if e.op == "pow":
            b = yield e.right
            if is_num(b, 0.0):
                return row(_num_key(1.0))
            a = yield e.left
            return a if is_num(b, 1.0) else row(("pow", a, b))
        a = yield e.left
        if e.op in ("mul", "div") and is_num(a, 0.0):
            return a
        b = yield e.right
        r = _fold(e.op, a, b, is_num)
        return row((e.op, a, b)) if r is None else r

    outs = _walk(roots, leaf, step)
    uses = [0] * len(rows)
    for r in outs:
        uses[r] += 1
    for r in range(len(rows) - 1, -1, -1):
        key = rows[r]
        if uses[r] and key[0] not in ("num", "var"):
            for c in key[1:]:
                uses[c] += 1
    return rows, outs, uses


def _render(plan, arg, prefix, named=False):
    """The code of a _plan as (lines, outputs), unindented.

    Coordinate i is the text arg(i), and locals are named prefix + row.
    A row used once is inlined into its user unless that nests too deep;
    any other gets a local, and so does every output when `named` is set.
    Each output is a literal, an argument, a local, or (unless `named`)
    an inlined expression.  The lines need _exec_kernel's names, raise
    what the operations raise and pass non-finite values through.
    """
    rows, outs, uses = plan
    own = set(outs) if named else ()  # the rows that get a local of their own
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
            text = arg(args[0])
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
                text = f"({a[0]} {_BINARY_OPS[op][0]} {a[1]})"
        # an argument that is a plain name is read as it is
        if ((uses[r] > 1 or r in own or depth[r] > _INLINE_DEPTH)
                and not text.isidentifier()):
            lines.append(f"{prefix}{r} = {text}")
            text = f"{prefix}{r}"
            depth[r] = 0
        code[r] = text
    return lines, [code[r] for r in outs]


def compile_many(roots):
    """A callable ``f(x)`` returning the tuple of every root's value at `x`.

    A repeated subtree is computed once, whether the trees reuse one node
    object or hold structurally equal copies, and the emitter folds exact
    identities as the module docstring lists them.  Any other failure
    raises :class:`EvalDomainError` with the failing node and point, found
    by the guarded walk (Expr._walk_eval's).

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
    plan = _plan(roots)
    lines, outs = _render(plan, "x[{}]".format, "t")
    body = "".join(f"    {line}\n" for line in lines)
    body += f"    return ({', '.join(outs)},)\n"
    compiled = compile(f"def _kernel(x):\n{body}", "<kernel>", "exec")
    raw = _exec_kernel(compiled, math)
    # the same code over numpy columns: x[i] is coordinate i of every row
    raw_many = _exec_kernel(compiled, np)
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
            # the first node, in walk order, that fails at x raises
            for r in roots:
                r._walk_eval(x)
            raise EvalDomainError(roots[0], "non-finite result", x)
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
            row = get(tuple(xs[i].tolist()))
            out[i] = np.nan if row is None else row
        return out

    kernel.get = get
    kernel.many = many
    kernel.roots = roots
    kernel.plan = plan
    return kernel


def _exec_kernel(code, lib, **extra):
    # the _kernel function of `code`, with the math of `lib` (math or
    # numpy) bound to the names _render's lines use
    ns = {f"_{op}": getattr(lib, op) for op in ("exp", "log", "sin", "cos", "sqrt")}
    ns["_abs"], ns["_pow"] = (abs, math.pow) if lib is math else (np.abs, np.power)
    ns.update(extra)
    exec(code, ns)  # noqa: S102 - generated from validated trees
    return ns["_kernel"]


def _fold(op, a, b, is_num):
    # the row an exact identity reduces `a op b` to, or None
    if op in ("add", "sub", "mul") and is_num(b, 0.0):
        return b if op == "mul" else a
    if (op == "add" and is_num(a, 0.0)) or (op == "mul" and is_num(a, 1.0)):
        return b
    if op in ("mul", "div") and is_num(b, 1.0):
        return a
    return None


# recursive-descent parser

# the parser's deepest recursion, in calls: five per pair of parentheses or
# function call, one per unary minus or ^.  Nothing else recurses per level
# of a tree, so a sum, product or quotient of any length parses
MAX_DEPTH = 300


# pos is the 0-based byte offset
_Token = namedtuple("_Token", "kind text pos")


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
                value = float(text)
            except ValueError:
                raise ParseError(f"bad number {text!r}", i + 1) from None
            if math.isinf(value):
                # emitted code spells a literal by its repr, and inf is no name
                raise ParseError("number out of range", i + 1)
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
        if c in "+-*/^()<>=":
            toks.append(_Token("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i + 1)
    toks.append(_Token("eof", "", n))
    return toks


def _ends_term(tok):
    # what may follow a predicate term: a joining word or the end (only an
    # identifier's text is a word)
    return tok.kind == "eof" or tok.text in ("and", "or")


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

    def whole(self, rule):
        out = rule()
        t = self.peek()
        if t.kind != "eof":
            self.fail(f"unexpected token {t.text!r}", t)
        return out

    def parse_pred(self, words=("or", "and")):
        # `or`-terms of `and`-terms of comparisons, each list flattened
        if not words:
            return self.parse_cmp()
        terms = [self.parse_pred(words[1:])]
        while self.peek().text == words[0]:
            self.take()
            terms.append(self.parse_pred(words[1:]))
        return terms[0] if len(terms) == 1 else (words[0], terms)

    def parse_cmp(self):
        first = self.peek()
        if first.text == "true" and _ends_term(self.toks[self.k + 1]):
            self.take()
            return ("true",)
        lhs = self.parse_expr()
        t = self.take()
        if t.kind == "op" and t.text in "<>":
            op = t.text
            if self.peek().text == "=" and self.peek().pos == t.pos + 1:
                op += self.take().text
            return ("cmp", op, lhs, self.parse_expr())
        if _ends_term(t):
            chunk = self.src[first.pos : t.pos].rstrip()
            self.fail(f"domain predicate chunk {chunk!r} has no comparison", first)
        self.fail(f"unexpected token {t.text!r}", t)

    def parse_expr(self, prec=_P_ADD, nesting=1):
        # one left-associative level per precedence below unary minus;
        # `nesting` counts the calls that recursion has made
        if prec == _P_UNARY:
            return self.parse_unary(nesting + 1)
        e = self.parse_expr(prec + 1, nesting + 1)
        while True:
            op = _OP_OF.get(self.peek().text)
            if op is None or _BINARY_OPS[op][1] != prec:
                return e
            self.take()
            e = _bin(op, e, self.parse_expr(prec + 1, nesting + 1))

    def parse_unary(self, nesting):
        # unary minus binds looser than a right-associative ^; all recursion passes here
        if nesting > MAX_DEPTH:
            self.fail("expression nested too deeply")
        if self.peek().text == "-":
            self.take()
            return _una("neg", self.parse_unary(nesting + 1))
        base = self.parse_atom(nesting + 1)
        if _OP_OF.get(self.peek().text) != "pow":
            return base
        self.take()
        return _bin("pow", base, self.parse_unary(nesting + 1))

    def parse_atom(self, nesting):
        t = self.take()
        if t.kind == "num":
            return Num(float(t.text))
        if t.kind == "ident":
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if t.text not in _FUNCTIONS:
                    self.fail(f"unknown function {t.text!r}", t)
                self.take()
                arg = self.parse_expr(nesting=nesting + 1)
                self.expect_op(")")
                return _una(t.text, arg)
            if t.text in self.coords:
                return Var(self.coords.index(t.text), t.text)
            self.fail(f"unknown identifier {t.text!r}", t)
        if t.kind == "op" and t.text == "(":
            e = self.parse_expr(nesting=nesting + 1)
            self.expect_op(")")
            return e
        if t.kind == "eof":
            self.fail("unexpected end of input", t)
        self.fail(f"unexpected token {t.text!r}", t)


def parse(src, coords):
    """Parse `src` over coordinate names `coords` into an Expr."""
    p = _Parser(src, coords)
    return p.whole(p.parse_expr)


def parse_pred(src, coords):
    """Parse the domain predicate `src` over `coords` into a tuple tree.

    A node is ``("true",)``, ``("cmp", op, lhs, rhs)`` with Expr sides, or
    ``("or" | "and", [node, ...])`` with two or more children.
    """
    p = _Parser(src, coords)
    return p.whole(p.parse_pred)
