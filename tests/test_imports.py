"""Package hygiene: every imported name, function, constant and default is used or documented."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "divstat"


def _unused_imports(source):
    """Names `source` imports at any level and never reads, in import order.

    A name listed in the module's __all__ counts as read.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_import_is_found():
    src = "import os\nimport a.b\nfrom m import (x, y as z)\n__all__ = ['x']\nprint(z)\n"
    assert _unused_imports(src) == ["os", "a"]
    assert _unused_imports("import a.b\na.b.c()\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text()) == [], path.name


def _unreferenced_private_functions(sources):
    """Private functions and methods of `sources` that no source reads.

    sources maps a module name to its text.  A def whose name starts with
    one underscore (not a dunder) is referenced where the name appears as
    a name or an attribute anywhere in any of the sources; its own def
    does not count.  Returns "module.name" strings, sorted.
    """
    defined, used = set(), set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.add((module, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{module}.{name}" for module, name in defined if name not in used)


def test_unreferenced_private_function_is_found():
    sources = {"a": "def _kept():\n    pass\n\ndef _orphan():\n    _kept()\n",
               "b": "class C:\n    def _m(self):\n        pass\n\n    def __len__(self):\n"
                    "        return 0\n\nimport a\na._orphan\n"}
    assert _unreferenced_private_functions(sources) == ["b._m"]


def test_every_private_function_is_referenced():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert _unreferenced_private_functions(sources) == []


def _unpassed_defaults(sources):
    """Defaulted parameters of private functions that no call in `sources` passes.

    sources maps a module name to its text.  A private function is a def
    at a module's top level or in a class body whose name starts with one
    underscore (not a dunder); a method's first parameter, its instance,
    is bound.  A call of the name, as a name or an attribute, anywhere in
    any of the sources passes a parameter by keyword, or by position where
    it has more positional arguments than there are parameters before
    it; a call with *args or **kwargs passes all.  Returns "module.name:
    param, ..." strings, sorted, a method's name being "Class.name".
    """
    defs, calls = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        for owner, body in [(None, tree.body)] + [(node.name, node.body) for node in tree.body
                                                  if isinstance(node, ast.ClassDef)]:
            for node in body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and node.name.startswith("_") and not node.name.startswith("__")):
                    defs.append((module, owner, node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                star = (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords))
                calls.setdefault(name, []).append(
                    (star, len(node.args), {k.arg for k in node.keywords}))
    found = []
    for module, owner, node in defs:
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args][owner is not None:]
        defaulted = [(i, a) for i, a in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        unpassed = [name for i, name in defaulted
                    if not any(star or (i is not None and npos > i) or name in keywords
                               for star, npos, keywords in calls.get(node.name, []))]
        if unpassed:
            name = node.name if owner is None else f"{owner}.{node.name}"
            found.append(f"{module}.{name}: {', '.join(unpassed)}")
    return sorted(found)


def test_unpassed_default_is_found():
    sources = {"a": "def _f(x, y=1, *, z=2, w=3):\n    pass\n\n"
                    "def _g(x, y=1):\n    pass\n\n"
                    "def _h(x=0):\n    pass\n\n"
                    "def public(x=0):\n    pass\n\n"
                    "def __dunder__(x=0):\n    pass\n\n"
                    "def outer():\n    def _inner(x=0):\n        pass\n    return _inner\n\n"
                    "_f(0, 1, z=2)\n_g(*rest)\n",
               "b": "import a\n\nclass C:\n    def _m(self, x, y=1):\n        pass\n\n"
                    "    def _k(self, x=1):\n        pass\n\n"
                    "a._h(**kw)\nC()._m(0, 1)\nC()._k()\n"}
    assert _unpassed_defaults(sources) == ["a._f: w", "b.C._k: x"]
    # one passing call is enough, by keyword or by position
    sources["a"] += "_f(0, w=1)\n"
    sources["b"] += "C()._k(2)\n"
    assert _unpassed_defaults(sources) == []


def test_every_default_of_a_private_function_is_passed():
    # a default that no call in the package passes is a knob only tests
    # turn: they drive the unchecked entry the package itself uses instead
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert _unpassed_defaults(sources) == []


def _unread_parameters(sources):
    """Parameters of the functions of `sources` that their bodies never read.

    sources maps a module name to its text.  A function is any def,
    nested ones included, but not a method (a def directly in a class
    body), whose signature an interface may fix.  A parameter is read
    where its name is loaded anywhere in the function's body, a nested
    def or lambda included.  Returns "module.name: param, ..." strings,
    sorted, a nested def's name being "outer.name".
    """
    found = []

    def visit(module, body, prefix, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(module, node.body, f"{prefix}{node.name}.", True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + node.name
                if not in_class:
                    args = node.args
                    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
                    read = {n.id for stmt in node.body for n in ast.walk(stmt)
                            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                    unread = [a for a in params if a not in read]
                    if unread:
                        found.append(f"{module}.{name}: {', '.join(unread)}")
                visit(module, node.body, name + ".", False)
            else:
                # a def under an if, a with or a loop is still this scope's
                visit(module, [n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt)],
                      prefix, in_class)

    for module, source in sources.items():
        visit(module, ast.parse(source).body, "", False)
    return sorted(found)


def test_unread_parameter_is_found():
    sources = {"a": "def f(x, y, *rest, z=1, **kw):\n    return x + z\n\n"
                    "def g(x, y):\n    y = 2\n    def h(u, w):\n        return x + u\n"
                    "    return h\n\n"
                    "def k(x):\n    return lambda: x\n\n"
                    "if True:\n    def m(x):\n        pass\n",
               "b": "class C:\n    def diff(self, i):\n        return 0\n\n"
                    "    def f(self):\n        def inner(v):\n            pass\n"
                    "        return inner\n"}
    assert _unread_parameters(sources) == [
        "a.f: y, rest, kw", "a.g.h: w", "a.g: y", "a.m: x", "b.C.f.inner: v"]


def test_every_parameter_is_read():
    # a parameter the body never reads is an argument that changes
    # nothing; a method is exempt, its interface fixes its signature
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert _unread_parameters(sources) == []


def _names_from(tree, module):
    """Names the AST `tree` takes from `module`.

    That is `from ..module import name`, or `name` read as an attribute of
    something called `module`.
    """
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == module
                    or isinstance(owner, ast.Attribute) and owner.attr == module):
                out.add(node.attr)
    return out


def _unnamed_public_functions(sources, others, readme):
    """Public top-level functions of `sources` that nothing outside their module names.

    sources maps a module name to its text, others holds the text of the
    Python files outside the package that count (the acceptance tests, the
    bench), and readme is the README's text.  A top-level def whose name
    does not start with an underscore is named where another module of
    sources or a file of others takes it from its module (_names_from), or
    where it is a name in an inline code span (`...`) of readme, not read
    as an attribute (`P.name` names a member); a fenced block (```...```)
    shows a transcript and names nothing.  Returns "module.name" strings,
    sorted.
    """
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    code = " ".join(re.findall(r"`([^`\n]*)`", prose))
    spans = set(re.findall(r"(?<![\w.])[A-Za-z_]\w*", code))
    trees = {module: ast.parse(source) for module, source in sources.items()}
    outside = [ast.parse(source) for source in others]
    unnamed = []
    for module, tree in trees.items():
        named = spans.union(*(_names_from(t, module) for m, t in trees.items() if m != module),
                            *(_names_from(t, module) for t in outside))
        unnamed += [f"{module}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_") and node.name not in named]
    return sorted(unnamed)


def test_unnamed_public_function_is_found():
    sources = {"a": "def kept():\n    pass\n\ndef told():\n    pass\n\ndef orphan():\n"
                    "    orphan()\n\ndef _private():\n    pass\n",
               "b": "from .a import kept\n\ndef used_outside():\n    kept()\n\n"
                    "class C:\n    def method(self):\n        pass\n"}
    others = ["import divstat.b\ndivstat.b.used_outside()\norphan()\n"]
    readme = ("`told(x)` is documented; orphan is prose, `P.orphan` a member.\n"
              "```\n$ divstat kept\nused_outside: 1\n```\n")
    assert _unnamed_public_functions(sources, others, readme) == ["a.orphan"]
    # a name shown only inside a fenced block is not documented
    sources["b"] = sources["b"].replace("used_outside", "shown")
    readme = readme.replace("used_outside", "shown")
    assert _unnamed_public_functions(sources, others, readme) == ["a.orphan", "b.shown"]


def test_every_public_function_is_named():
    # the package's API is what another module, README, the acceptance
    # tests or the bench use; a pointwise wrapper nothing names is not API
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    others = [(ROOT / "tests" / "test_acceptance.py").read_text()]
    others += [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    assert _unnamed_public_functions(sources, others, readme) == []


def _is_dataclass(decorator):
    # @dataclass, @dataclass(...), @dataclasses.dataclass(...)
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (isinstance(target, ast.Name) and target.id == "dataclass"
            or isinstance(target, ast.Attribute) and target.attr == "dataclass")


def _unread_dataclass_fields(sources, others):
    """Fields of the dataclasses of `sources` that nothing reads.

    sources maps a module name to its text, and others holds the text of
    the other Python files that count (the tests and the bench).  A field
    is an annotated name in the body of a class decorated with dataclass;
    it is read where an attribute of that name is loaded anywhere in
    sources or others (a store, as in `r.x = 1`, is no read).  Returns
    "module.Class.field" strings, sorted.
    """
    fields, read = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                fields += [(f"{module}.{node.name}", stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    for source in [*sources.values(), *others]:
        read.update(node.attr for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return sorted(f"{owner}.{name}" for owner, name in fields if name not in read)


def test_unread_dataclass_field_is_found():
    sources = {"a": "from dataclasses import dataclass\n\n@dataclass\nclass R:\n    kept: int\n"
                    "    orphan: int\n    written: int = 0\n\n"
                    "@dataclass(slots=True)\nclass S:\n    told: str\n\n"
                    "class Plain:\n    note: str\n\n"
                    "def f(r):\n    r.written = 1\n    return r.kept\n"}
    others = ["def g(s):\n    return s.told\n"]
    assert _unread_dataclass_fields(sources, others) == ["a.R.orphan", "a.R.written"]


def test_every_dataclass_field_is_read():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    others = [path.read_text() for path in sorted((ROOT / "tests").glob("*.py"))]
    others += [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    assert _unread_dataclass_fields(sources, others) == []


_CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _unread_constants(sources):
    """Top-level constants of `sources` that no source reads.

    sources maps a module name to its text.  A constant is a name of
    capitals, digits and underscores after at most one leading
    underscore (ALL_CAPS or _ALL_CAPS), bound by an assignment at a
    module's top level.  It is read where the name is loaded, as a name or
    as an attribute, anywhere in any of the sources; its own binding and
    an import of it do not count.  Returns "module.NAME" strings, sorted.
    """
    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for stmt in tree.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            defined.update((module, node.id) for target in targets for node in ast.walk(target)
                           if isinstance(node, ast.Name) and _CONSTANT.fullmatch(node.id))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_unread_constant_is_found():
    sources = {"a": "KEPT = 1\n_TOLD = 2\nORPHAN = 3\n_GONE, LEFT = 4, 5\nlower = 6\n"
                    "Mixed = 7\n\ndef f():\n    LOCAL = 8\n    return KEPT\n",
               "b": "import a\nfrom a import LEFT\nX2: int = a._TOLD\n"}
    assert _unread_constants(sources) == ["a.LEFT", "a.ORPHAN", "a._GONE", "b.X2"]


def test_every_constant_is_read():
    # a deleted mechanism must not leave its knob behind: every top-level
    # constant of the package is read by some module of the package
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert _unread_constants(sources) == []


def _is_math_inf(node):
    return (isinstance(node, ast.Attribute) and node.attr == "inf"
            and isinstance(node.value, ast.Name) and node.value.id == "math")


def _hand_written_range_checks(sources):
    """Chained comparisons of `sources` that end in math.inf, outside manifold._positive.

    sources maps a module name to its text.  A comparison such as `0.0 <
    x < math.inf` checks a positive, finite number by hand; the package
    has one rule for that, manifold._positive, and each such comparison
    outside it is a second copy.  Returns "module:line" strings, one per
    comparison, in module and line order.
    """
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        rule = [node for node in tree.body if module == "manifold"
                and isinstance(node, ast.FunctionDef) and node.name == "_positive"]
        inside = {id(node) for r in rule for node in ast.walk(r)}
        found += [(module, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Compare) and len(node.ops) > 1
                  and _is_math_inf(node.comparators[-1]) and id(node) not in inside]
    return [f"{module}:{line}" for module, line in sorted(found)]


def test_hand_written_range_check_is_found():
    sources = {"manifold": "import math\n\ndef _positive(name, value):\n"
                           "    return 0.0 < value < math.inf\n",
               "a": "import math\n\ndef f(x, y):\n    if not (0.0 < x < math.inf\n"
                    "            and 0 < y < math.inf):\n        pass\n"
                    "    return x < math.inf, 0 < x <= 1, math.inf > y > 0\n\n"
                    "def _positive(x):\n    return 0 < x < math.inf\n"}
    # a _positive outside manifold is no exception
    assert _hand_written_range_checks(sources) == ["a:4", "a:5", "a:10"]


def test_every_range_check_is_the_one_rule():
    # "a positive, finite number" is checked by manifold._positive only, so
    # that each option states it in one message
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert _hand_written_range_checks(sources) == []
