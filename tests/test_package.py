import importlib
import pkgutil

import c2f


def test_every_exported_name_resolves():
    modules = [c2f] + [importlib.import_module(f"c2f.{info.name}")
                       for info in pkgutil.iter_modules(c2f.__path__)]
    assert len(modules) > 1
    for module in modules:
        exported = getattr(module, "__all__", [])
        missing = [name for name in exported if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names {missing}"
        assert len(set(exported)) == len(exported), module.__name__
