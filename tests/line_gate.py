"""Line gate: run tier-1 in this process and fail on any line of
`src/kdual` that no test ran.

    python tests/line_gate.py

Needs Python 3.12 or later (`sys.monitoring`) and pytest, nothing else.
Each line reports its first run and is then switched off, so the run costs
little more than tier-1 itself.  The lines a module can run are those of
its compiled code objects, nested ones included (`co_lines`), less the
module's line-0 entry.  Exits 1 if tier-1 fails or a line never ran.

A statement after a `return`, `raise`, `continue` or `break` in the same
block has no entry in `co_lines()`, so this gate cannot see it;
`tests/test_package.py::test_no_statement_follows_a_jump` fails on it.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kdual"


def executable_lines(path: Path) -> set:
    """The lines of every code object compiled from the file."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, type(code)))
    return lines


def run_tier1() -> tuple:
    """Tier-1's exit status, and the lines it ran keyed by resolved file."""
    monitoring = sys.monitoring
    tool, seen = monitoring.COVERAGE_ID, set()

    def on_line(code, line):
        seen.add((code.co_filename, line))
        return monitoring.DISABLE

    monitoring.use_tool_id(tool, "line_gate")
    monitoring.register_callback(tool, monitoring.events.LINE, on_line)
    monitoring.set_events(tool, monitoring.events.LINE)
    sys.path.insert(0, str(PACKAGE.parent))
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        monitoring.set_events(tool, 0)
        monitoring.free_tool_id(tool)
    ran, resolved = {}, {}
    for name, line in seen:
        if name not in resolved:
            resolved[name] = str(Path(name).resolve())
        ran.setdefault(resolved[name], set()).add(line)
    return status, ran


def main() -> int:
    if not hasattr(sys, "monitoring"):
        print("the line gate needs Python 3.12 or later (sys.monitoring)", file=sys.stderr)
        return 2
    status, ran = run_tier1()
    unrun = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line in sorted(executable_lines(path) - ran.get(str(path), set()))]
    for location in unrun:
        print(f"never ran: {location}")
    print(f"line gate: {len(unrun)} line(s) of {PACKAGE.relative_to(ROOT)} never ran; "
          f"tier-1 exit status {int(status)}")
    return 1 if unrun or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
