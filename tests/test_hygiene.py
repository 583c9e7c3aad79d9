"""Source hygiene of src/zerodiag, read with the stdlib ast module: no
import goes unused, no private top-level name is left without a caller,
every public function and method is called from src/, demos/ or bench/
(a function's own local of the same name is no caller), and no module
starts threads or processes or reads the environment."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "zerodiag"
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(SRC.glob("*.py"))}
# Public names kept for a planned caller, named as _public names them,
# with the ROADMAP item that calls them: is_trivial filters the matrices
# read off sections (item 5), and rr_effective decides which
# (-2)-classes are effective (item 3).
NO_CALLER_YET = {"is_trivial", "rr_effective"}
# concurrency modules, and the two ways os reads the environment
UNWANTED = {"concurrent", "multiprocessing", "threading", "environ", "getenv"}


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _binds(function):
    """Names a function binds in its own scope: its parameters and each
    name its body assigns, defines, imports or catches (comprehension
    targets included), less those declared global or nonlocal.  Nested
    functions are left to themselves."""
    a = function.args
    bound = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
             + [p for p in (a.vararg, a.kwarg) if p]}
    declared = set()
    todo = list(_body(function))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(al.asname or al.name).split(".")[0] for al in node.names}
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared |= set(node.names)
        todo.extend(ast.iter_child_nodes(node))
    return bound - declared


def _body(function):
    """The statements, or a lambda's expression, that run in a function's
    own scope; its decorators, defaults and annotations run outside it."""
    return function.body if isinstance(function.body, list) else [function.body]


def _references(node, bound=frozenset()):
    """Names a piece of source reads: plain names, attribute names, the
    names a `from` import takes from another module, and strings that are
    identifiers, which registries look up with getattr.  A plain name read
    where a function binds that name itself (it or an enclosing function:
    a parameter, say, or an assignment) is a local and is not counted."""
    if isinstance(node, ast.Name):
        if not isinstance(node.ctx, ast.Store) and node.id not in bound:
            yield node.id
        return
    if isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        yield from (alias.name for alias in node.names)
    elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
          and node.value.isidentifier()):
        yield node.value
    outer = list(ast.iter_child_nodes(node))
    if isinstance(node, _FUNCTIONS):
        body = _body(node)
        local = bound | _binds(node)
        for child in body:
            yield from _references(child, local)
        outer = [c for c in outer if all(c is not b for b in body)]
    for child in outer:
        yield from _references(child, bound)


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


def _uncalled(modules, readers):
    """Public names of the modules that no tree in readers reads."""
    referenced = set()
    for tree in readers:
        referenced.update(_references(tree))
    return sorted("%s.%s" % (mod, qual)
                  for mod, tree in modules.items()
                  for qual, name in _public(tree)
                  if name not in referenced and qual not in NO_CALLER_YET)


def test_every_public_name_has_a_caller():
    readers = [ast.parse(path.read_text(), str(path))
               for folder in ("src", "demos", "bench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    assert _uncalled(MODULES, readers) == []
    assert NO_CALLER_YET <= {qual for tree in MODULES.values()
                             for qual, _ in _public(tree)}


def test_a_same_named_local_is_not_a_caller():
    """A public name read only where a function binds the same name itself
    (as a parameter, an assignment or a loop target, there or in an
    enclosing function) has no caller; a name read in a default still
    counts, since a default is evaluated outside the function."""
    tree = ast.parse(
        "def rhs(u):\n"
        "    return u\n"
        "def order(xs):\n"
        "    return len(xs)\n"
        "def label(x):\n"
        "    return x\n"
        "def kept(x):\n"
        "    return x\n"
        "def lifted(x):\n"
        "    return x\n"
        "def user(rhs, k=lifted):\n"
        "    def inner():\n"
        "        return rhs + order\n"
        "    order = 1\n"
        "    return [label for label in kept(inner())]\n")
    assert _uncalled({"m": tree}, [tree]) == [
        "m.label", "m.order", "m.rhs", "m.user"]


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


def test_nscat_pairs_curves_through_one_rule():
    """In nscat only _meet reads conics.conic_intersection, under any
    name: conics, exceptional curves and the fiber column are all paired
    through it, so a second pairing rule would show here."""
    def names_it(node):
        return (isinstance(node, ast.Attribute)
                and node.attr == "conic_intersection"
                or isinstance(node, ast.Name) and node.id == "conic_intersection"
                or isinstance(node, ast.alias)
                and node.name == "conic_intersection")
    callers = set()
    for stmt in MODULES["nscat"].body:
        if any(map(names_it, ast.walk(stmt))):
            callers |= _defined(stmt) or {"<import>"}
    assert callers == {"_meet"}


def test_curve_owns_the_additive_fiber_types():
    """Kodaira's table lives in curve: no other module names an additive
    fiber type, so each reads a fiber's shape from the fiber itself."""
    kinds = {"II", "III", "IV", "IV*", "III*", "II*"}
    found = sorted("%s: %s" % (name, node.value)
                   for name, tree in MODULES.items() if name != "curve"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and node.value in kinds)
    assert found == []
    assert kinds <= {node.value for node in ast.walk(MODULES["curve"])
                     if isinstance(node, ast.Constant)}
