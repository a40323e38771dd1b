"""src holds only what a command runs.

A fixed list of CLI calls runs in this process under ``sys.setprofile``,
which records every function entered in ``src/rootcover``.  Every ``def`` of
the package, found with ``ast``, must have been entered, apart from the
allow-list below.  A function only a test calls belongs in the tests.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

from rootcover import cli

SRC = Path(cli.__file__).resolve().parent

# qualified name -> why no call below enters it
ALLOWED = {
    "cli.__getattr__": "the build_pipeline forward that perfbench/selftest.py imports",
    "heisrep.RepError.__init__": "error path: a representation that fails its checks",
    "liealg.IntegralLieAlgebra.weight":
        "perfbench/tracer.py counts the weight-live triples through it",
}


def calls(tmp: Path):
    return [
        ["build", "--type", "E6", "--out", str(tmp / "e6.json")],
        ["verify", "--type", "E6"],
        ["verify", "--type", "E7"],
        ["verify", "--type", "D4", "--depth", "sampled", "--samples", "2000"],
        ["table", "real-orbits"],
        ["delpezzo"],
        ["counts", "--g", "2"],
        ["quartic", "e6", "--params", "1,2,3,4,5,6"],
        # a CRT witness, then an INCONCLUSIVE verdict
        ["quartic", "e7", "--params", "0,0,-5/3,0,0,7/8,0"],
        ["quartic", "e7", "--params", "0,0,1/3,0,0,3/2,0"],
    ]


def entered_functions(argvs):
    """(file, first line) of every code object in src entered by the calls."""
    entered = set()
    prefix = str(SRC)

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                entered.add((code.co_filename, code.co_firstlineno))

    out, err = io.StringIO(), io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes = [cli.main(argv) for argv in argvs]
    finally:
        sys.setprofile(None)
    return entered, codes


def defined_functions():
    """(qualified name, file, first line) of every def in src, a decorated
    one at its first decorator; the defs nested in a function come with
    their parent's key, to be walked only when the parent was entered."""
    out = []

    def walk(body, path, qual, parent):
        for node in body:
            if isinstance(node, ast.ClassDef):
                walk(node.body, path, f"{qual}{node.name}.", parent)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in node.decorator_list] + [node.lineno])
                name = f"{qual}{node.name}"
                out.append((name, path, line, parent))
                walk(node.body, path, f"{name}.", (path, line))
            elif hasattr(node, "body"):
                # if/try/with blocks at this level
                for field in ("body", "orelse", "finalbody", "handlers"):
                    walk(getattr(node, field, []), path, qual, parent)

    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        walk(tree.body, str(path), f"{path.stem}.", None)
    return out


def test_every_src_function_is_entered_by_a_command(tmp_path):
    entered, codes = entered_functions(calls(tmp_path))
    assert codes == [0] * 10
    reached = {name: (path, line) in entered
               for name, path, line, parent in defined_functions()
               if parent is None or parent in entered}
    unentered = [name for name, hit in reached.items()
                 if not hit and name not in ALLOWED]
    assert not unentered, (f"{len(unentered)} functions in src are entered by "
                           f"no command: {', '.join(unentered)}")
    # the allow-list names only functions that exist and that no call enters
    assert [name for name in ALLOWED if reached.get(name, True)] == []
