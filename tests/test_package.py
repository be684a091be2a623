"""Package-level properties: what ``import sparsecert`` pulls in."""

import os
import subprocess
import sys
from pathlib import Path

import sparsecert

PROBE = """
import sys
before = set(sys.modules)
import sparsecert
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(added - set(sys.stdlib_module_names))))
"""


def test_import_needs_only_numpy():
    # a fresh interpreter, so modules imported by other tests do not count
    src = str(Path(sparsecert.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert set(done.stdout.split()) <= {"numpy", "sparsecert"}
