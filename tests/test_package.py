"""Package-level properties: what ``import sparsecert`` pulls in, the
README's list of what it exports, and private code that nothing names."""

import ast
import inspect
import os
import re
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


def test_readme_lists_every_export():
    # one line per export, "- `name`: ...", in the README's API section
    exported = {name for name, value in vars(sparsecert).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+)`:", section, flags=re.MULTILINE)
    assert len(listed) == len(set(listed))
    assert set(listed) == exported


def test_every_private_function_and_class_is_named_in_the_package():
    # a module-level private function or class that no module names (a call,
    # an attribute, an import) is dead code, left behind by a deletion
    package = Path(sparsecert.__file__).parent
    defined, named = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [(path.name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert [f"{module}: {name}" for module, name in defined if name not in named] == []
