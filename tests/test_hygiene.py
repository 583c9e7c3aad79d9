"""Source hygiene of src/zerodiag, read with the stdlib ast module: no
import goes unused, no private top-level name is left without a caller,
every public function and method is called from src/, demos/ or bench/,
and no module starts threads or processes or reads the environment."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "zerodiag"
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(SRC.glob("*.py"))}
# Public names kept for a planned caller: the triviality test for the
# matrices read off sections, and the effectiveness test for the degree-4
# catalogue.
NO_CALLER_YET = {"is_trivial", "rr_effective"}
# concurrency modules, and the two ways os reads the environment
UNWANTED = {"concurrent", "multiprocessing", "threading", "environ", "getenv"}


def _references(node):
    """Names a piece of source reads: plain names, attribute names, the
    names a `from` import takes from another module, and strings that are
    identifiers, which registries look up with getattr."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and sub.value.isidentifier()):
            yield sub.value


def _defined(stmt):
    """Names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _exported(tree):
    """The strings of a module's __all__."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and "__all__" in _defined(stmt):
            return {c.value for c in ast.walk(stmt.value)
                    if isinstance(c, ast.Constant)}
    return set()


def test_every_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        used |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append("%s: %s" % (name, bound))
    assert unused == []


def test_every_private_top_level_name_has_a_caller():
    private = {}
    referenced = set()
    for name, tree in MODULES.items():
        for stmt in tree.body:
            own = _defined(stmt)
            for d in own:
                if d.startswith("_") and not d.startswith("__"):
                    private[d] = name
            referenced.update(set(_references(stmt)) - own)
    orphans = sorted("%s.%s" % (mod, d) for d, mod in private.items()
                     if d not in referenced)
    assert orphans == []


def _public(tree):
    """(qualified name, name) of each public top-level function and each
    public method of a top-level class."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
            yield stmt.name, stmt.name
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")):
                    yield "%s.%s" % (stmt.name, sub.name), sub.name


def test_every_public_name_has_a_caller():
    referenced = set()
    for folder in ("src", "demos", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            referenced.update(_references(ast.parse(path.read_text(), str(path))))
    uncalled = sorted("%s.%s" % (mod, qual)
                      for mod, tree in MODULES.items()
                      for qual, name in _public(tree)
                      if name not in referenced and name not in NO_CALLER_YET)
    assert uncalled == []
    assert NO_CALLER_YET <= {name for tree in MODULES.values()
                             for _, name in _public(tree)}


def test_one_process_and_no_environment():
    """Results depend on the arguments alone: nothing in src/ imports a
    concurrency module or reads an environment variable."""
    found = []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                read = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                read = {(node.module or "").split(".")[0]}
                read |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                read = {node.attr}
            else:
                continue
            found += ["%s: %s" % (name, r) for r in sorted(read & UNWANTED)]
    assert found == []


def test_claims_read_certificates_through_the_tagged_reader():
    """In cli only the tagged reader _fact and the certificate row helper
    _certified call .cert(...): a claim that read a certificate itself
    would escape that certificate's row."""
    callers = set()
    for stmt in MODULES["cli"].body:
        if any(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "cert" for node in ast.walk(stmt)):
            callers |= _defined(stmt)
    assert callers == {"_fact", "_certified"}
