import ast
import pathlib

import esakia

SRC = pathlib.Path(esakia.__file__).parent

# nodes that open a scope of their own
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def own_nodes(fn):
    """The nodes of a function body, without those of nested scopes."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def binding_targets(node):
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(
        node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr, ast.For, ast.AsyncFor)
    ):
        return [node.target]
    if isinstance(node, ast.withitem) and node.optional_vars is not None:
        return [node.optional_vars]
    return []


def dead_locals(source):
    """(line, function, name) for each local a function assigns and never
    reads, nested functions included in the reads.  Names starting with
    an underscore are deliberate discards."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored = {}
        declared = set()
        for node in own_nodes(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            for target in binding_targets(node):
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and not n.id.startswith("_"):
                        stored[n.id] = min(n.lineno, stored.get(n.id, n.lineno))
        read = {
            n.id
            for n in ast.walk(fn)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        out += [
            (line, fn.name, name)
            for name, line in stored.items()
            if name not in read and name not in declared
        ]
    return sorted(out)


def test_the_scan_finds_a_local_that_is_never_read():
    source = (
        "def report(sets):\n"
        "    by_set = {m: i for i, m in enumerate(sets)}\n"
        "    total = 0\n"
        "    total += 1\n"
        "    used, _ = sets\n"
        "    def inner():\n"
        "        return used\n"
        "    return len(sets), inner\n"
    )
    assert dead_locals(source) == [(2, "report", "by_set"), (3, "report", "total")]


def test_no_function_assigns_a_local_it_never_reads():
    dead = [
        f"{path.name}:{line} {fn}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, fn, name in dead_locals(path.read_text(encoding="utf-8"))
    ]
    assert dead == []


def unreferenced_helpers(sources):
    """(module, line, name) for each module-level function or class whose
    name starts with an underscore and that no code in sources (a dict of
    module name to source text) names outside its own definition.  A name
    or an attribute counts as a reference; an import alone does not."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set()
    for tree in trees.values():
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, DEFS) else None
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name):
                    name = n.id
                elif isinstance(n, ast.Attribute):
                    name = n.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return sorted(
        (module, stmt.lineno, stmt.name)
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, DEFS) and stmt.name.startswith("_") and stmt.name not in used
    )


def test_the_scan_finds_a_helper_that_is_never_referenced():
    sources = {
        "a": (
            "def _kept(x):\n"
            "    return x\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "class _Shape:\n"
            "    pass\n"
            "def _through_module():\n"
            "    return 0\n"
        ),
        "b": (
            "from .a import _kept, _Shape\n"
            "from . import a\n"
            "def public():\n"
            "    return _kept(1), a._through_module()\n"
        ),
    }
    assert unreferenced_helpers(sources) == [("a", 3, "_recursive"), ("a", 5, "_Shape")]


def test_every_private_helper_is_referenced():
    sources = {
        path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
    }
    assert unreferenced_helpers(sources) == []
