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

SRC = str(Path(kdual.__file__).resolve().parent.parent)


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
    package = Path(kdual.__file__).resolve().parent
    for path in sorted(package.rglob("*.py")):
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
