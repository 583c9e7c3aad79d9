"""Every function in src/zerodiag runs.  A fresh interpreter, so that the
lru caches start cold, runs each command whose stdout test_cli pins, the
five demos and the benchmark's operations under sys.setprofile, and every
function, method, nested function and lambda of src/zerodiag must have
been entered, dunders and NO_CALLER_YET aside.  test_hygiene decides "has
a caller" by name, so a dead method survives there whenever any attribute
or string shares its name; here it does not.

The traced child is this file run as a script: it reads the folder to
watch and the jobs as JSON on stdin, and writes the (file, first line,
name) of each code object it entered from that folder to stdout."""

import ast
import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

from test_hygiene import NO_CALLER_YET

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "zerodiag"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# mP + nQ + T for the benchmark's section operations; P + T1 + T2 lies
# outside the chart point_to_param inverts
SECTIONS = ((1, 0, "T1+T2"), (1, 1, "T1"), (0, -2, "O"), (-1, 2, "T2"))


def _functions(folder):
    """(file, first line, name) -> qualified name of each non-dunder
    function, method, nested function and lambda in the modules of a
    folder.  The first line is that of the first decorator, as in the
    code object; a lambda is named by its line."""
    out = {}
    for path in sorted(folder.glob("*.py")):
        todo = [(ast.parse(path.read_text(), str(path)), path.stem)]
        while todo:
            node, qual = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Lambda):
                    name = "<lambda>"
                    here = "%s.<lambda>:%d" % (qual, child.lineno)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef)):
                    name = child.name
                    here = "%s.%s" % (qual, name)
                else:
                    todo.append((child, qual))
                    continue
                dunder = name.startswith("__") and name.endswith("__")
                if not isinstance(child, ast.ClassDef) and not dunder:
                    first = min([child.lineno] + [
                        d.lineno for d in getattr(child, "decorator_list", [])])
                    out[str(path.resolve()), first, name] = here
                todo.append((child, here))
    return out


def _unreached(folder, entered):
    """Qualified names of the functions of a folder that were not entered,
    less NO_CALLER_YET (named without their module)."""
    entered = {tuple(key) for key in entered}
    return sorted(qual for key, qual in _functions(folder).items()
                  if key not in entered
                  and qual.split(".", 1)[1] not in NO_CALLER_YET)


def _trace(folder, jobs):
    """Run the jobs in a fresh interpreter; the code objects it entered."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                             else []))
    done = subprocess.run([sys.executable, __file__], cwd=ROOT, env=env,
                          input=json.dumps([str(folder), jobs]),
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _run(kind, arg):
    if kind == "cli":
        from zerodiag import cli

        assert cli.main(arg) == 0, arg
    elif kind == "script":
        runpy.run_path(arg, run_name="__main__")
    elif kind == "sections":
        from zerodiag.curve import named_sections, param_to_point, point_to_param
        from zerodiag.mwlat import height_pairing, torsion_points

        named = named_sections()
        p, q = (param_to_point(named[k]) for k in ("P", "Q"))
        for m, n, t in arg:
            s = m * p + n * q + torsion_points()[t]
            height_pairing(s)
            height_pairing(s, p)
            with contextlib.suppress(ValueError):  # outside the chart
                point_to_param(s)
    elif kind == "search":
        from zerodiag.surface import search

        search(arg, workers=1)


def _child():
    # zerodiag is imported under the profile, so that the calls its
    # modules make at import time count
    assert "zerodiag" not in sys.modules
    folder, jobs = json.load(sys.stdin)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for kind, arg in jobs:
                _run(kind, arg)
    finally:
        sys.setprofile(None)
    files = {c.co_filename: Path(c.co_filename).resolve() for c in entered}
    json.dump(sorted([str(files[c.co_filename]), c.co_firstlineno, c.co_name]
                     for c in entered
                     if files[c.co_filename].parent == Path(folder).resolve()),
              sys.stdout)


def test_every_function_in_src_runs():
    from test_cli import GOLDEN_STDOUT  # imports zerodiag; not in the child

    jobs = [("cli", command.split()) for command in GOLDEN_STDOUT]
    jobs += [("script", str(path)) for path in DEMOS]
    jobs += [("sections", SECTIONS), ("search", 250)]
    assert len(DEMOS) == 5
    unreached = _unreached(SRC, _trace(SRC, jobs))
    assert unreached == [], "never entered: " + ", ".join(unreached)


def test_only_unreached_functions_are_reported(tmp_path):
    (tmp_path / "m.py").write_text(
        "import functools\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def cached(x):\n"
        "    return x\n"
        "class Box:\n"
        "    def __repr__(self):\n"
        "        return 'Box'\n"
        "    def used(self):\n"
        "        return (lambda y: y)(1)\n"
        "    def unused(self):\n"
        "        return (lambda y: y)(2)\n"
        "def outer():\n"
        "    def inner():\n"
        "        return 1\n"
        "    return inner()\n"
        "def never():\n"
        "    return 0\n"
        "cached(1)\n"
        "Box().used()\n"
        "outer()\n")
    entered = _trace(tmp_path, [("script", str(tmp_path / "m.py"))])
    assert _unreached(tmp_path, entered) == [
        "m.Box.unused", "m.Box.unused.<lambda>:11", "m.never"]


if __name__ == "__main__":
    _child()
