import ast
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import kdual
from kdual import cli

PACKAGE = Path(kdual.__file__).resolve().parent
SRC = str(PACKAGE.parent)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# definitions that only the tests run, kept as references for them: top-level
# names, and methods as `Class.method`
TEST_REFERENCES = {"indecomposable"}


def test_import_loads_only_what_the_caller_uses():
    # building and certifying every ring needs neither the linear algebra
    # nor the transforms, the T-duality, the reports or the command line
    code = ("import sys, kdual\n"
            "from kdual import paper_rings\n"
            "for name in paper_rings.RING_NAMES:\n"
            "    paper_rings.build_ring(name)\n"
            "print(len(paper_rings.RING_NAMES), ' '.join(m for m in ("
            "'kdual.exact_abelian', 'kdual.tduality', 'kdual.suites', "
            "'kdual.transforms', 'kdual.cli', 'hashlib') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["9"]


def test_each_public_name_is_eager_or_lazy_once():
    # the names `__init__.py` imports and the names `_LAZY` serves are
    # disjoint and together make up `__all__`
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    eager = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    lazy = [name for names in kdual._LAZY.values() for name in names]
    assert len(set(eager)) == len(eager) and len(set(lazy)) == len(lazy)
    assert set(eager).isdisjoint(lazy)
    assert sorted(eager + lazy) == sorted(kdual.__all__)


def test_cold_start_loads_no_code_generator():
    # a dataclass runs `exec` for its methods, and `import dataclasses` loads
    # `inspect`, so the command line starts faster without either
    code = ("import sys, kdual.cli, kdual.suites\n"
            "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


def test_every_public_name_resolves():
    for name in kdual.__all__:
        assert getattr(kdual, name) is not None
    namespace = {}
    exec("from kdual import *", namespace)
    assert set(kdual.__all__) <= set(namespace)
    assert namespace["tdual"] is kdual.tduality.tdual
    assert namespace["run_suite"] is kdual.suites.run_suite
    with pytest.raises(AttributeError):
        kdual.no_such_name


def test_library_checks_survive_python_O():
    # `python -O` strips assert statements, so invariants raise named errors
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno}"
            assert not (isinstance(node, ast.Name) and node.id == "AssertionError"), \
                f"{path.name}:{node.lineno}"


README = Path(__file__).resolve().parents[1] / "README.md"
# runs the README command lines given as arguments under sys.setprofile and
# prints [file name, first line] of every code object of the package called
METHOD_PROFILE = """
import contextlib, io, json, os, shlex, sys
seen = set()
sys.setprofile(lambda frame, event, arg: event == "call" and seen.add(frame.f_code))
import kdual
from kdual import cli
for line in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(shlex.split(line)[1:])
    if code:
        sys.exit(f"{line!r} exited {code}")
sys.setprofile(None)
package = os.path.dirname(kdual.__file__)
print(json.dumps(sorted({(os.path.basename(c.co_filename), c.co_firstlineno)
                         for c in seen if os.path.dirname(c.co_filename) == package})))
"""


def _readme_command_lines():
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("kdual ")]


def test_readme_command_lines_run(capsys):
    lines = _readme_command_lines()
    for line in lines:
        command, _, comment = line.partition("#")
        capsys.readouterr()
        assert cli.main(shlex.split(command)[1:]) == 0, line
        out = capsys.readouterr().out
        if comment.strip().startswith("->"):
            assert out.strip() == comment.strip()[2:].strip(), line
    assert any("# -> sigma*chi" in line for line in lines)
    assert "kdual verify all" in " ".join(lines)


def _methods_run_by_readme_commands():
    """(file name, first line) of each code object of the package that is
    called while the README command lines run, in a fresh process so that
    no cache of an earlier test hides a call."""
    commands = [line.partition("#")[0] for line in _readme_command_lines()]
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", METHOD_PROFILE, *commands], env=env,
                         check=True, capture_output=True, text=True).stdout
    return {tuple(key) for key in json.loads(out)}


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def _is_method(node):
    return isinstance(node, ast.FunctionDef) and not (
        node.name.startswith("__") and node.name.endswith("__"))


def _definitions_and_live(references, ran, benchmark):
    """Every definition of the package, top-level names and methods as
    `Class.method`, and the live ones among them when `references` are the
    test references."""
    bench_calls = {n.func.attr for tree in benchmark for n in ast.walk(tree)
                   if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
    definitions, bodies, methods, live_methods = set(), {}, set(), set()
    roots = set(references)
    for tree in benchmark:
        roots.update(_names(tree))
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef):
                for method in filter(_is_method, node.body):
                    # a decorated function's code starts at its first decorator
                    first = min(n.lineno for n in [method, *method.decorator_list])
                    qualname = f"{node.name}.{method.name}"
                    methods.add(qualname)
                    if ((path.name, first) in ran or method.name in bench_calls
                            or qualname in references):
                        roots.update(_names(method))
                        live_methods.add(qualname)
                body = [*node.bases, *node.keywords, *node.decorator_list,
                        *(n for n in node.body if not _is_method(n))]
            elif isinstance(node, ast.FunctionDef):
                body = [node]
            else:
                roots.update(_names(node))
                continue
            definitions.add(node.name)
            bodies.setdefault(node.name, []).extend(body)
    live, todo = set(), [name for name in roots if name in definitions]
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo.extend(m for node in bodies[name] for m in _names(node)
                        if m in definitions)
    return definitions | methods, live | live_methods


def test_every_definition_has_a_caller():
    # A non-dunder method of a kdual class is live when it runs while the
    # README command lines run (they include `kdual verify all`), when
    # `perfbench/*.py` calls it as an attribute, or when TEST_REFERENCES
    # lists it as `Class.method`; matching methods by bare name would keep a
    # dead method alive whenever another class's method of that name runs.
    # A top-level function or class is live when module-level code of the
    # package, the benchmark, a live method or a live definition names it; a
    # live class's body counts without its methods.  `__init__.py` only
    # re-exports, so its imports, `_LAZY` and `__all__` do not count.
    ran = _methods_run_by_readme_commands()
    benchmark = [ast.parse(path.read_text(), str(path)) for path in sorted(PERFBENCH.glob("*.py"))]
    definitions, live = _definitions_and_live(TEST_REFERENCES, ran, benchmark)
    assert not definitions - live, sorted(definitions - live)
    # an entry of TEST_REFERENCES that is live without the list is stale
    _, live_without_references = _definitions_and_live(set(), ran, benchmark)
    stale = TEST_REFERENCES & live_without_references
    assert not stale, sorted(stale)
    assert TEST_REFERENCES <= definitions


def test_every_import_is_used():
    # `__init__.py` is exempt: its imports are the re-exports
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"):
                unused.extend(f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                              if (alias.asname or alias.name.partition(".")[0]) not in read)
    assert unused == []


def test_no_statement_follows_a_jump():
    # a statement after a return, raise, continue or break in the same block
    # never runs, and the line gate cannot see it: the compiler leaves it
    # out of `co_lines()`
    jumps = (ast.Return, ast.Raise, ast.Continue, ast.Break)
    unreachable = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            for block in (getattr(node, field, None) for field in ("body", "orelse", "finalbody")):
                if isinstance(block, list):
                    unreachable.extend(f"{path.name}:{after.lineno}"
                                       for before, after in zip(block, block[1:])
                                       if isinstance(before, jumps))
    assert unreachable == []


def test_every_field_is_read():
    # an annotated field of a kdual class is live when some attribute load
    # in the package, the benchmark or the tests reads it by name
    trees = [ast.parse(path.read_text(), str(path))
             for path in [*sorted(PACKAGE.glob("*.py")), *sorted(PERFBENCH.glob("*.py")),
                          *sorted(Path(__file__).parent.glob("*.py"))]]
    read = {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                unread.extend(f"{node.name}.{field.target.id}" for field in node.body
                              if isinstance(field, ast.AnnAssign)
                              and isinstance(field.target, ast.Name)
                              and field.target.id not in read)
    assert unread == []
