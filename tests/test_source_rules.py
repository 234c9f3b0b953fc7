"""Rules the package source keeps: no handler that swallows every error,
only the typed errors of urnlab.errors raised and each of them raised
somewhere, no parameter that is accepted and then ignored, no import that
is never read, no to_dict that only restates its dataclass's fields,
pools only where replicates are sharded, no noise source without its known
draw, no run_sa called once per replicate in a loop, one artifact writer,
and a start-up that imports no scipy.

A catch-all turns a bug into a dropped replicate or a silent fallback, so
src/ may catch only the errors a handler can act on. A built-in error
carries no code for the CLI to report and escapes its handlers. A
parameter nothing reads lets a caller believe it changed the result.
"""

import ast
import builtins
import json
import os
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
CATCH_ALL = re.compile(r"^\s*except\s*(Exception\b|:)")


def test_no_catch_all_handlers_in_src():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)}:{i}"
             for path in files
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if CATCH_ALL.match(line)]
    assert found == []


# argparse reports only its own error type from a type= converter
RAISE_EXEMPT = {("urnlab/cli.py", "_threads", "argparse.ArgumentTypeError")}


def _foreign_raises(tree):
    """(enclosing function or None, class, line) for every raise of a
    built-in exception class or of a class reached through an attribute."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc
                exc = exc.func if isinstance(exc, ast.Call) else exc
                cls = getattr(builtins, ast.unparse(exc), None)
                if isinstance(exc, ast.Attribute) or (
                        isinstance(cls, type) and issubclass(cls, BaseException)):
                    found.append((func, ast.unparse(exc), child.lineno))
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)
            visit(child, inner)

    visit(tree, None)
    return found


def test_src_raises_only_typed_errors():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = []
    for path in files:
        rel = str(path.relative_to(SRC))
        found += [f"{rel}:{line}:{name}"
                  for func, name, line in _foreign_raises(ast.parse(path.read_text()))
                  if (rel, func, name) not in RAISE_EXEMPT]
    assert found == []


def test_typed_error_rule_catches_one():
    tree = ast.parse(
        "def f(x):\n    if x:\n        raise ValueError('x')\n    raise KeyError\n"
        "def g():\n    raise argparse.ArgumentTypeError('y')\n"
        "raise InvalidArgumentError('z')\n"
        "def h(bad):\n    raise min(bad)\n    raise\n")
    # a typed error, a raised value and a re-raise pass
    assert _foreign_raises(tree) == [
        ("f", "ValueError", 3), ("f", "KeyError", 4),
        ("g", "argparse.ArgumentTypeError", 6)]


# an error class nothing raises is a code the CLI can never report, and
# a handler for it catches nothing
def _unraised_errors(errors_tree, trees):
    """Classes defined in errors_tree that no tree raises, by name or
    through a subclass, in definition order."""
    bases = {node.name: [ast.unparse(b) for b in node.bases]
             for node in errors_tree.body if isinstance(node, ast.ClassDef)}
    pending = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                pending.append(ast.unparse(exc).rsplit(".", 1)[-1])
    covered = set()
    while pending:
        name = pending.pop()
        if name in bases and name not in covered:
            covered.add(name)
            pending.extend(bases[name])
    return [name for name in bases if name not in covered]


def test_every_error_class_is_raised_in_src():
    files = sorted(SRC.rglob("*.py"))
    assert files
    errors = ast.parse((SRC / "urnlab" / "errors.py").read_text())
    assert _unraised_errors(errors, [ast.parse(p.read_text()) for p in files]) == []


def test_unraised_error_rule_catches_one():
    errors = ast.parse(
        "class Base(Exception):\n    code = 'error'\n"
        "class Used(Base):\n    pass\n"
        "class Child(Used):\n    pass\n"
        "class Spare(Base):\n    pass\n"
        "class Loose(Exception):\n    pass\n")
    src = ast.parse(
        "def f(x):\n    if x:\n        raise errors.Child('x') from None\n"
        "    raise ValueError\n"
        "Spare('made, never raised')\n")
    # Used and Base are reached as bases of the raised Child
    assert _unraised_errors(errors, [src]) == ["Spare", "Loose"]


def _unread_parameters(tree):
    """(qualified name, parameter) for every function parameter never read;
    a method's first parameter is not counted."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + child.name + ".")
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope)
                continue
            a = child.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in child.decorator_list)
            if isinstance(node, ast.ClassDef) and not static:
                params = params[1:]
            read = {n.id for n in ast.walk(child)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found.extend((scope + child.name, p) for p in params
                         if p not in read)
            visit(child, scope + child.name + ".")

    visit(tree, "")
    return found


def test_no_ignored_parameters_in_src():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)}:{name}({param})"
             for path in files
             for name, param in _unread_parameters(ast.parse(path.read_text()))]
    assert found == []


def test_ignored_parameter_rule_catches_one():
    tree = ast.parse(
        "def f(a, b=1):\n    return a\n"
        "class C:\n"
        "    def g(self, x, *, chunk=2):\n        return x\n"
        "    def __call__(self, rng, k, theta):\n        return rng\n")
    # a callback's signature exempts no parameter either
    assert _unread_parameters(tree) == [
        ("f", "b"), ("C.g", "chunk"), ("C.__call__", "k"),
        ("C.__call__", "theta")]


# an import nothing reads costs start-up time and hides what a module uses;
# a binding kept for other modules to patch or import carries this mark
KEEP_IMPORT = "# noqa: F401"


def _unused_imports(source):
    """(line, name) for every module-level import whose bound name the
    module never reads, except on lines marked KEEP_IMPORT."""
    tree, lines = ast.parse(source), source.splitlines()
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or any(
                KEEP_IMPORT in line
                for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in read:
                found.append((node.lineno, name))
    return found


def test_no_unused_imports_in_src():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)}:{line}:{name}"
             for path in files
             for line, name in _unused_imports(path.read_text())]
    assert found == []


def test_unused_import_rule_catches_one():
    source = (
        "import os\nimport os.path as osp\nimport xml.dom\n"
        "from math import sqrt, pi as PI\n"
        "from .sa import run_sa  # noqa: F401  (kept for patching)\n"
        "from .rng import (BLOCK,\n    BlockSource)\n"
        "def f(x):\n    import json\n    return xml.dom, sqrt(x), BLOCK\n")
    # a read through an attribute counts; a function's own import is not
    # module-level
    assert _unused_imports(source) == [
        (1, "os"), (2, "osp"), (4, "PI"), (6, "BlockSource")]


# report encodes a dataclass by its fields, so a to_dict that only restates
# them is a second copy of the artifact format
def _restating_serializers(tree):
    """(class, line) for every to_dict of a dataclass whose returned dict
    literal, or dict(...) call, has exactly the class's field names."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or not any(
                "dataclass" in ast.unparse(d) for d in cls.decorator_list):
            continue
        fields = {stmt.target.id for stmt in cls.body
                  if isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)
                  and "ClassVar" not in ast.unparse(stmt.annotation)}
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "to_dict"):
                continue
            for ret in ast.walk(fn):
                value = ret.value if isinstance(ret, ast.Return) else None
                if isinstance(value, ast.Dict):
                    keys = [k.value if isinstance(k, ast.Constant) else None
                            for k in value.keys]
                elif (isinstance(value, ast.Call) and not value.args
                      and ast.unparse(value.func) == "dict"):
                    keys = [kw.arg for kw in value.keywords]
                else:
                    continue
                if None not in keys and sorted(keys) == sorted(fields):
                    found.append((cls.name, ret.lineno))
    return found


def test_no_field_restating_to_dict_in_src():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)}:{line}:{name}.to_dict"
             for path in files
             for name, line in _restating_serializers(ast.parse(path.read_text()))]
    assert found == []


def test_restating_serializer_rule_catches_one():
    tree = ast.parse(
        "@dataclasses.dataclass(frozen=True)\nclass A:\n    x: int\n    y: tuple\n"
        "    def to_dict(self):\n        return {'y': list(self.y), 'x': self.x}\n"
        "@dataclass\nclass B:\n    x: int\n    K: ClassVar[int] = 1\n"
        "    def to_dict(self):\n        return dict(x=self.x)\n"
        "@dataclass\nclass C:\n    x: int\n    y: int\n"
        "    def to_dict(self):\n        return {'x': self.x, 'why': self.y}\n"
        "@dataclass\nclass D:\n    x: int\n    y: int\n"
        "    def to_dict(self):\n        return {'x': self.x, **{'y': 1}}\n"
        "class E:\n    x: int\n"
        "    def to_dict(self):\n        return {'x': self.x}\n")
    # a renamed key, a spread and a plain class are not restatements
    assert _restating_serializers(tree) == [("A", 6), ("B", 12)]


# the one function that may start processes or threads; a module-level
# import would also add its cost to every urnlab start-up
PARALLEL_MODULES = ("multiprocessing", "concurrent.futures", "threading")
PARALLEL_HOME = ("urnlab/sa.py", "_sharded")


def _parallel_imports(tree):
    """(enclosing function or None, module) for every import of a process
    or thread pool module."""
    found = []

    def imported(node):
        if isinstance(node, ast.Import):
            return [a.name for a in node.names]
        if isinstance(node, ast.ImportFrom) and node.module:
            return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        return []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            for name in imported(child):
                if any(name == m or name.startswith(m + ".")
                       for m in PARALLEL_MODULES):
                    found.append((func, name))
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)
            visit(child, inner)

    visit(tree, None)
    return found


def test_pools_are_imported_only_where_replicates_are_sharded():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = {(str(path.relative_to(SRC)), func)
             for path in files
             for func, _ in _parallel_imports(ast.parse(path.read_text()))}
    assert found <= {PARALLEL_HOME}


def test_pool_import_rule_catches_one():
    tree = ast.parse(
        "import multiprocessing.pool\n"
        "def f():\n    from concurrent import futures\n"
        "def _sharded():\n    import multiprocessing\n"
        "    def g():\n        from concurrent.futures import ProcessPoolExecutor\n"
        "import concurrency\n"
        "def h():\n    from threading import Thread\n"
        "import threadingly\n")
    assert _parallel_imports(tree) == [
        (None, "multiprocessing.pool"), ("f", "concurrent.futures"),
        ("_sharded", "multiprocessing"), ("g", "concurrent.futures"),
        ("g", "concurrent.futures.ProcessPoolExecutor"), ("h", "threading"),
        ("h", "threading.Thread")]


# a noise source makes its known draw and no more; one opened without it
# falls back to whole blocks, which no value shows
NOISE_SOURCES = ("BlockSource",)


def _undeclared_draws(tree):
    """(line, class) for every noise source opened without its known draw,
    the fourth argument or `total=`."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in NOISE_SOURCES and len(node.args) < 4 and not any(
                kw.arg == "total" for kw in node.keywords):
            found.append((node.lineno, name))
    return found


def test_noise_sources_in_src_declare_their_draw():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)}:{line}:{name}"
             for path in files
             for line, name in _undeclared_draws(ast.parse(path.read_text()))]
    assert found == []


def test_undeclared_draw_rule_catches_one():
    tree = ast.parse(
        "a = BlockSource(seed, repl, 'uniform')\n"
        "b = BlockSource(seed, repl, 'uniform', n)\n"
        "c = rng.BlockSource(seed, [3], kind='gaussian')\n"
        "d = BlockSource(seed, [3], kind='gaussian', total=n)\n")
    assert _undeclared_draws(tree) == [(1, "BlockSource"), (3, "BlockSource")]


# run_sa and run_urn_batch step any number of replicates in lockstep; a loop
# of run_sa or run_urn over single replicates pays the per-step cost once
# per replicate
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def _looped_step_calls(tree):
    """(line, loop kind) for every call of run_sa or run_urn inside a loop or
    a comprehension, in line order; a call in nested loops is listed once
    per loop."""
    found = []
    for loop in ast.walk(tree):
        if not isinstance(loop, LOOPS):
            continue
        for node in ast.walk(loop):
            func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("run_sa", "run_urn"):
                found.append((node.lineno, type(loop).__name__))
    return sorted(found)


def test_no_run_sa_in_loops_in_src():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)}:{line}:{kind}"
             for path in files
             for line, kind in _looped_step_calls(ast.parse(path.read_text()))]
    assert found == []


def test_looped_step_rule_catches_one():
    tree = ast.parse(
        "for r in repl:\n    run_sa(spec, n, seed, plan, replicate=r)\n"
        "paths = [sa.run_sa(spec, n, seed, plan, r) for r in repl]\n"
        "while todo:\n    todo = g(lambda: run_sa(spec, n, seed, plan, todo))\n"
        "rows = run_sa(spec, n, seed, plan, repl)\n"
        "_sharded(lambda repl: run_sa(spec, n, seed, plan, repl), R, 2)\n"
        "[run_urn(spec, n, seed, plan, r) for r in repl]\n")
    # one call over all the replicates, sharded or not, passes
    assert _looped_step_calls(tree) == [
        (2, "For"), (3, "ListComp"), (5, "While"), (8, "ListComp")]


# every artifact reaches disk through report.emit_report: one encoding of
# floats and newlines, and one span for the stage timing to see
WRITER_MODULE = "urnlab/report.py"
WRITER_ENTRY = (WRITER_MODULE, "emit_report")


def _opens_for_writing(call):
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None:
        return False
    # a mode only known at run time may write
    return not isinstance(mode, ast.Constant) or any(c in str(mode.value)
                                                     for c in "wax+")


def _stray_writes(tree, rel):
    """(enclosing function or None, call, line) for every open for writing
    outside the writer module and every write_text call outside
    emit_report."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "write_text" and (rel, func) != WRITER_ENTRY:
                    found.append((func, name, child.lineno))
                elif (name == "open" and rel != WRITER_MODULE
                        and _opens_for_writing(child)):
                    found.append((func, name, child.lineno))
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)
            visit(child, inner)

    visit(tree, None)
    return found


def test_artifacts_reach_disk_only_through_emit_report():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = []
    for path in files:
        rel = str(path.relative_to(SRC))
        found += [f"{rel}:{line}:{func}:{name}" for func, name, line
                  in _stray_writes(ast.parse(path.read_text()), rel)]
    assert found == []


def test_one_writer_rule_catches_one():
    tree = ast.parse(
        "def load(p):\n    return open(p, encoding='utf-8')\n"
        "def dump(p, t, m):\n    open(p, 'w').write(t)\n"
        "    open(p, mode='ab')\n    open(p, m)\n    open(p, 'r')\n"
        "def _write(p, t):\n    write_text(p, t)\n"
        "    pathlib.Path(p).write_text(t)\n"
        "def emit_report(r, f, p):\n    write_text(p, r)\n")
    # reading is free; outside the writer module every write is stray
    assert _stray_writes(tree, "urnlab/cli.py") == [
        ("dump", "open", 4), ("dump", "open", 5), ("dump", "open", 6),
        ("_write", "write_text", 9), ("_write", "write_text", 10),
        ("emit_report", "write_text", 12)]
    # in it, files open for writing, and emit_report alone calls write_text
    assert _stray_writes(tree, "urnlab/report.py") == [
        ("_write", "write_text", 9), ("_write", "write_text", 10)]


# scipy costs about 0.3 s to import; a command that decomposes no matrix
# should not pay it. The child records where the first scipy import came from.
STARTUP_PROBE = """
import json, sys, traceback


class Watch:
    first = None

    def find_spec(self, name, path=None, target=None):
        if Watch.first is None and name.split(".")[0] == "scipy":
            frames = [f for f in traceback.extract_stack()[:-1]
                      if not f.filename.startswith("<frozen")]
            Watch.first = f"{frames[-1].filename}:{frames[-1].lineno}"
        return None


sys.meta_path.insert(0, Watch())
import urnlab.cli
import urnlab.config

urnlab.config.load_config(sys.argv[1]).build_model()
print(json.dumps({"first": Watch.first,
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy")}))
"""


def test_startup_imports_no_scipy(tmp_path):
    cfg = tmp_path / "urn.json"
    cfg.write_text(json.dumps({"model": {
        "kind": "urn", "d": 2, "Y0": [1.0, 1.0],
        "adding_rule": {"name": "deterministic",
                        "matrix": [[0.0, 1.0], [1.0, 0.0]]}}}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", STARTUP_PROBE, str(cfg)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    assert found["scipy"] == [], f"scipy first imported at {found['first']}"
