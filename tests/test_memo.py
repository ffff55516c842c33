"""Every memo goes through ``posets._memo`` and lives on the object it
describes: a lattice, a dual space or a topological space."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import esakia
from esakia import duality, lattices, nuclei, spaces, spatial
from esakia.errors import SpaceError, SubsetError
from esakia.lattices import FiniteLattice, birkhoff_lattice
from esakia.nuclei import Nucleus, identity_nucleus
from esakia.posets import FinitePoset
from esakia.spaces import FiniteSpace, open_frame

PACKAGE = Path(esakia.__file__).parent
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(esakia.__path__) if m.name != "__main__"
)


def frame() -> FiniteLattice:
    """A fresh five-element frame: the upsets of a V-shaped poset."""
    return birkhoff_lattice(FinitePoset(["a", "b", "c"], [("a", "c"), ("b", "c")]))


def dual() -> duality.EsakiaSpaceFin:
    return duality.dual_space(frame())


def sierpinski() -> FiniteSpace:
    return FiniteSpace(["0", "1"], [0b00, 0b10, 0b11])


def nucleus_on(obj) -> Nucleus:
    lattice = obj.source if isinstance(obj, duality.EsakiaSpaceFin) else open_frame(obj)
    return identity_nucleus(lattice)


# (memoised function, key, fresh object, argument of a keyed memo or None)
MEMOS = [
    (duality.dual_space, "dual_space", frame, None),
    (duality.phi_table, "phi_table", dual, None),
    (duality._phi_lookup, "phi_inverse", dual, None),
    (duality._down_closures, "down_closures", dual, None),
    (FiniteLattice.meet_t.fget, "meet_t", frame, None),
    (FiniteLattice.join_t.fget, "join_t", frame, None),
    (FiniteLattice._imp_table, "imp", frame, None),
    (lattices.meet_primes, "meet_primes", frame, None),
    (lattices.points, "points", frame, None),
    (nuclei._packed_rows, "nucleus_rows", frame, None),
    (nuclei.make_w, "w", frame, lambda _: 0),
    (nuclei.to_nuclear_set, "to_nuclear_set", dual, nucleus_on),
    (nuclei.from_nuclear_set, "from_nuclear_set", dual, lambda _: 0b101),
    (nuclei.assembly_frame, "assembly", frame, None),
    (spatial._dual_front_opens, "front_opens", dual, None),
    (spatial.nuclear_points, "nuclear_points", frame, None),
    (FiniteSpace.closed_masks, "closed", sierpinski, None),
    (FiniteSpace.specialization, "spec", sierpinski, None),
    (FiniteSpace._closure_table, "closure_table", sierpinski, None),
    (spaces.open_frame, "open_frame", sierpinski, None),
    (spaces.t0_reflection, "t0_reflection", sierpinski, None),
    (spaces.soberification, "soberification", sierpinski, None),
    (spaces.front_topology, "front", sierpinski, None),
    (spaces._front_sets, "front_sets", sierpinski, None),
    (spaces.sigma, "sigma", sierpinski, nucleus_on),
    (spaces._eps_to_dual, "eps_dual", sierpinski, None),
]


def slot(obj, key, args):
    """The dict and the key under which a call with args is stored."""
    if not args:
        return obj._cache, key
    x = args[0]
    return obj._cache[key], x.values if isinstance(x, Nucleus) else x


@pytest.mark.parametrize(
    "fn, key, make, arg", MEMOS, ids=[f"{fn.__module__}.{fn.__qualname__}" for fn, *_ in MEMOS]
)
def test_each_memo_is_stored_on_its_object(fn, key, make, arg):
    obj = make()
    args = () if arg is None else (arg(obj),)
    assert key not in obj._cache
    first = fn(obj, *args)
    store, k = slot(obj, key, args)
    assert store[k] is first
    # the second call reads the store instead of recomputing
    sentinel = object()
    store[k] = sentinel
    assert fn(obj, *args) is sentinel
    # an equal object made afresh starts empty and computes its own value
    fresh = make()
    fresh_args = () if arg is None else (arg(fresh),)
    assert key not in fresh._cache
    got = fn(fresh, *fresh_args)
    assert got is not sentinel
    store, k = slot(fresh, key, fresh_args)
    assert store[k] is got


def test_the_table_lists_every_memoised_function():
    found = set()
    for name in MODULES:
        module = importlib.import_module(f"esakia.{name}")
        for value in vars(module).values():
            candidates = [value]
            if isinstance(value, type) and value.__module__ == module.__name__:
                candidates += [getattr(v, "fget", v) for v in vars(value).values()]
            found |= {c for c in candidates if hasattr(c, "memo_key")}
    assert found == {fn for fn, *_ in MEMOS}
    assert all(fn.memo_key == key for fn, key, *_ in MEMOS)


def test_sigma_stores_nothing_for_a_table_that_fails_validation():
    s = sierpinski()
    lattice = open_frame(s)
    shrinking = Nucleus((lattice.bot,) * lattice.n)  # not inflationary
    for _ in range(2):
        with pytest.raises(SpaceError, match="sigma expects a nucleus"):
            spaces.sigma(s, shrinking)
        assert shrinking.values not in s._cache.get("sigma", {})


def test_from_nuclear_set_stores_nothing_for_an_outside_mask():
    space = dual()
    outside = 1 << space.n
    for _ in range(2):
        with pytest.raises(SubsetError):
            nuclei.from_nuclear_set(space, outside)
        assert outside not in space._cache.get("from_nuclear_set", {})


def _allowed_cache_nodes(tree: ast.Module, in_helper_module: bool) -> set[int]:
    """ids of the nodes that may name ``_cache``: every node of the helper,
    each ``self._cache = {}`` target and each ``__slots__`` entry."""
    allowed: set[int] = set()
    for node in ast.walk(tree):
        if in_helper_module and isinstance(node, ast.FunctionDef) and node.name == "_memo":
            allowed |= {id(n) for n in ast.walk(node)}
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and isinstance(node.value, ast.Dict)
                and not node.value.keys
            ):
                allowed.add(id(target))
            if isinstance(target, ast.Name) and target.id == "__slots__":
                allowed |= {id(n) for n in ast.walk(node.value)}
    return allowed


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_helper_touches_cache(path):
    tree = ast.parse(path.read_text())
    allowed = _allowed_cache_nodes(tree, path.name == "posets.py")
    offending = [
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Attribute) and node.attr == "_cache"
            or isinstance(node, ast.Constant) and node.value == "_cache"
        )
        and id(node) not in allowed
    ]
    assert offending == []
