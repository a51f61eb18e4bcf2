"""Print the lines of src/lowrankrec that no Tier-1 test runs: python tools/line_coverage.py [ARGS]

Stdlib only (`coverage` is not a dependency): a sys.settrace / threading.settrace collector,
limited to src/lowrankrec, runs Tier-1 (and any pytest ARGS) in this process through pytest.main;
executable lines are those of the compiled code objects' co_lines().  Evidence, not a gate.  With
1 BLAS thread on a 2-core Xeon VM it takes 70 s (Tier-1 alone 35 s) and prints four lines, each
untested on purpose: burer_monteiro.sosp_probe's `continue` on a zero tangent direction and its
FDInconsistent raise (2 lines), and cli's `__main__` line (tests call main()).  With --cli it runs
tools/compare_outputs.py's command lines instead of Tier-1, through lowrankrec.cli.main in this
process and in a temporary directory, and prints the lines that none of them runs.
"""
import sys
import tempfile
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PKG, ran = str(SRC / "lowrankrec"), set()


def trace(frame, event, arg):
    path = frame.f_code.co_filename  # None while the interpreter shuts down
    if path and path.startswith(PKG):
        ran.add((path, frame.f_lineno))
        return trace


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    threading.settrace(trace)
    sys.settrace(trace)
    if sys.argv[1:] == ["--cli"]:
        sys.path.insert(0, str(SRC.parent / "tools"))
        from compare_outputs import command_lines
        from lowrankrec.cli import main  # imported while tracing: module-level lines count
        with tempfile.TemporaryDirectory() as tmp:
            status = max(main(argv) for argv in command_lines(tmp))
    else:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
    for path in sorted(Path(PKG).glob("*.py")):
        codes = [compile(path.read_text(), str(path), "exec")]
        for code in codes:  # the list grows by each code object's nested ones
            codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        lines = {line for code in codes for *_, line in code.co_lines() if line}
        for line in sorted(lines - {ln for p, ln in ran if p == str(path)}):
            print(f"{path.relative_to(SRC.parent)}:{line}")
    sys.exit(status)
