import ast
import pathlib

import esakia

SRC = pathlib.Path(esakia.__file__).parent

SEARCH = "_relation_isomorphism"
# the public searches, kept for callers and tests; no report calls them
PUBLIC = {"find_isomorphism", "find_homeomorphism"}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def search_calls(source):
    """(line, function, callee) for each call of the isomorphism search
    outside the public searches, and for each call of a public search.
    A call counts by its name or its attribute, so a module-qualified
    call counts too; the function is the innermost enclosing one, or
    "<module>" at the top level."""
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = (
                    f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute)
                    else None
                )
                if name in PUBLIC or (name == SEARCH and fn not in PUBLIC):
                    out.append((child.lineno, fn, name))
            visit(child, child.name if isinstance(child, DEFS) else fn)

    visit(ast.parse(source), "<module>")
    return sorted(out)


def test_the_scan_finds_a_search_inside_a_check():
    source = (
        "from . import posets\n"
        "def find_isomorphism(a, b):\n"
        "    return _relation_isomorphism(a, b)\n"
        "def report(a, b):\n"
        "    def inner():\n"
        "        return posets._relation_isomorphism(a, b)\n"
        "    return find_isomorphism(a, b), inner()\n"
        "ok = find_homeomorphism(1, 2)\n"
    )
    assert search_calls(source) == [
        (6, "inner", "_relation_isomorphism"),
        (7, "report", "find_isomorphism"),
        (8, "<module>", "find_homeomorphism"),
    ]


def test_no_check_searches_for_an_isomorphism():
    found = [
        f"{path.name}:{line} {fn}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, fn, name in search_calls(path.read_text(encoding="utf-8"))
    ]
    assert found == []
