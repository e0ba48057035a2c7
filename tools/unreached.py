"""The lines of src/eblab/ that no golden call and no demo reaches.

    python tools/unreached.py

Runs tests/goldens/regen.py's digests() (every CLI call of the golden
manifest and every demos/*.py script, in this process) under sys.settrace,
tracing only the frames of src/eblab/. The executable lines of a module are
those of its code objects' line tables, nested functions and class bodies
included; a code object's first line (its def or class line) counts as
reached when the code object is entered. Prints each function or class body
with a line that nothing reached, as `module.py:qualified.name: lines`,
then the count of unreached lines against the executable total. The golden
calls' own output is digested, not printed, so nothing else reaches stdout.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "eblab"


def executable_lines(path):
    """{(first line, qualified name): set of line numbers} over every code object of one file."""
    found = {}
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines = {line for _, _, line in code.co_lines() if line is not None and line > 0}
        name = "<module>" if code.co_name == "<module>" else code.co_qualname
        found[(code.co_firstlineno, name)] = lines
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return found


def reached_lines(run):
    """{file name: set of line numbers} that run() reaches in src/eblab/."""
    files = {str(path): path.name for path in SRC.glob("*.py")}
    reached = {name: set() for name in files.values()}

    def trace(frame, event, arg):
        name = files.get(frame.f_code.co_filename)
        if name is None:
            return None
        reached[name].add(frame.f_code.co_firstlineno)

        def local(frame, event, arg):
            if event == "line":
                reached[name].add(frame.f_lineno)
            return local
        return local

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
    return reached


def main():
    spec = importlib.util.spec_from_file_location("regen", ROOT / "tests" / "goldens" / "regen.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)  # puts src/ first on sys.path, before eblab is imported
    reached = reached_lines(regen.digests)
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        for (first, name), lines in sorted(executable_lines(path).items()):
            unreached = sorted(lines - reached[path.name])
            total += len(lines)
            missed += len(unreached)
            if unreached:
                print(f"{path.name}:{name}: {' '.join(map(str, unreached))}")
    print(f"unreached: {missed} of {total} executable lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
