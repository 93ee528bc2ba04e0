import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import c2f

SRC = str(Path(c2f.__file__).resolve().parent.parent)


def test_every_exported_name_resolves():
    modules = [c2f] + [importlib.import_module(f"c2f.{info.name}")
                       for info in pkgutil.iter_modules(c2f.__path__)]
    assert len(modules) > 1
    for module in modules:
        exported = getattr(module, "__all__", [])
        missing = [name for name in exported if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names {missing}"
        assert len(set(exported)) == len(exported), module.__name__


def test_runtime_imports_no_scipy():
    code = ("import sys\n"
            "import c2f, c2f.cli, c2f.codec, c2f.evaluation, c2f.training\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": SRC}, check=True)
    assert out.stdout.strip() == "[]"
