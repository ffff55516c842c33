import importlib
import pkgutil

import pytest

import esakia

# __main__ runs the command line on import, so it is not imported here
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(esakia.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"esakia.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
