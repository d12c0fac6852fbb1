"""The runtime is standard-library only: importing every etopo module loads
no third-party package, even where some are installed."""

import json
import subprocess
import sys
from pathlib import Path

import etopo

# Runs in a fresh interpreter, so nothing the test process already imported
# (pytest, hypothesis, networkx) can hide or cause a load. Modules loaded
# before etopo, such as those a site .pth file pulls in, are not counted.
PROBE = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import etopo
names = [m.name for m in pkgutil.iter_modules(etopo.__path__, "etopo.")]
for name in names:
    importlib.import_module(name)
print(json.dumps({"imported": names, "loaded": sorted(set(sys.modules) - before)}))
"""


def test_every_module_imports_only_the_standard_library():
    src = str(Path(etopo.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", PROBE, src],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert "etopo.routing" in report["imported"]
    outside = [name for name in report["loaded"]
               if name.partition(".")[0] not in sys.stdlib_module_names | {"etopo"}]
    assert not outside, f"etopo loads non-stdlib modules: {outside}"
