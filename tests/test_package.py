import ast
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
# names that nothing in the package calls, kept as references for the tests
TEST_REFERENCES = {"canonical_pair", "inverse_unimodular", "rmodule_from_multiset",
                   "vstack", "from_named_terms"}


def test_import_loads_only_what_the_caller_uses():
    code = ("import sys, kdual\n"
            "print(' '.join(m for m in ('kdual.tduality', 'kdual.suites', "
            "'kdual.transforms', 'kdual.cli', 'hashlib') if m in sys.modules))")
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


def test_readme_command_lines_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("kdual ")]
    for line in lines:
        command, _, comment = line.partition("#")
        capsys.readouterr()
        assert cli.main(shlex.split(command)[1:]) == 0, line
        out = capsys.readouterr().out
        if comment.strip().startswith("->"):
            assert out.strip() == comment.strip()[2:].strip(), line
    assert any("# -> sigma*chi" in line for line in lines)


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


def test_every_definition_has_a_caller():
    # A top-level function or class, or a method of a class that is not a
    # dunder, is live when module-level code of the package, the benchmark
    # or a live definition names it.  A live class's body counts without
    # its methods, which count only once they are live themselves.
    # `__init__.py` only re-exports, so its imports, `_LAZY` and `__all__`
    # do not count.
    definitions, bodies = {}, {}
    roots = set(TEST_REFERENCES)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef):
                for method in filter(_is_method, node.body):
                    definitions.setdefault(method.name, []).append(f"{node.name}.{method.name}")
                    bodies.setdefault(method.name, []).append(method)
                body = [*node.bases, *node.keywords, *node.decorator_list,
                        *(n for n in node.body if not _is_method(n))]
            elif isinstance(node, ast.FunctionDef):
                body = [node]
            else:
                roots.update(_names(node))
                continue
            definitions.setdefault(node.name, []).append(node.name)
            bodies.setdefault(node.name, []).extend(body)
    for path in sorted(PERFBENCH.glob("*.py")):
        roots.update(_names(ast.parse(path.read_text(), str(path))))
    live, todo = set(), [name for name in roots if name in definitions]
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo.extend(m for node in bodies[name] for m in _names(node)
                        if m in definitions)
    assert sorted(q for name in set(definitions) - live for q in definitions[name]) == []
