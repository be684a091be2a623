"""Package-level properties: what ``import sparsecert`` and each CLI command
pull in, the README's list of what the package exports, private code that
nothing names, the read-only arrays of the cached plans, and the test
configuration's handling of a failing hypothesis test."""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import sparsecert
from sparsecert import build_complete, build_cyclic, generate_instance, serialize
from sparsecert import codes, constants, geometry
from sparsecert.hypergraph import regularity

REPO = Path(__file__).resolve().parent.parent

PROBE = """
import sys
before = set(sys.modules)
import sparsecert
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(added - set(sys.stdlib_module_names))))
"""


def _child_env():
    src = str(Path(sparsecert.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_import_needs_only_numpy():
    # a fresh interpreter, so modules imported by other tests do not count
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, check=True, env=_child_env())
    assert set(done.stdout.split()) <= {"numpy", "sparsecert"}


def _loaded_submodules(args):
    """The ``sparsecert`` submodules a fresh interpreter imports for ``args``,
    read from its ``-X importtime`` report."""
    done = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=_child_env())
    assert "Traceback" not in done.stderr, done.stderr
    names = re.findall(r"\|\s+sparsecert\.(\w+)$", done.stderr, flags=re.MULTILINE)
    return done.returncode, set(names)


def test_each_command_loads_only_what_it_runs(tmp_path):
    hypergraph = build_cyclic(4, 2)
    dictionary, codes = generate_instance(4, 4, 2, hypergraph, 7, seed=0)
    files = {"dict": serialize.matrix_to_json_dict(dictionary),
             "codes": serialize.code_set_to_json_dict(codes),
             "hypergraph": serialize.hypergraph_to_json_dict(hypergraph)}
    certify = ["-m", "sparsecert.cli", "certify"]
    for name, payload in files.items():
        serialize.dump_json(payload, tmp_path / f"{name}.json")
        certify += [f"--{name}", str(tmp_path / f"{name}.json")]
    config = tmp_path / "lemmas.json"
    config.write_text(json.dumps({"lemma3": {"trials": 2}}))

    status, loaded = _loaded_submodules(certify)
    assert status == 0
    assert {"constants", "codes", "serialize"} <= loaded
    assert loaded.isdisjoint({"alignment", "experiment", "lemmas"})

    status, loaded = _loaded_submodules(
        ["-m", "sparsecert.cli", "check-lemmas", "--config", str(config)])
    assert status == 0
    assert {"lemmas", "serialize"} <= loaded
    assert loaded.isdisjoint({"alignment", "experiment", "constants", "codes"})

    # __init__ needs no submodule of its own
    assert _loaded_submodules(["-c", "import sparsecert"]) == (0, set())


def test_every_export_resolves():
    star = {}
    exec("from sparsecert import *", star)
    listing = dir(sparsecert)
    for name in sparsecert.__all__:
        assert not inspect.ismodule(getattr(sparsecert, name)), name
        assert name in listing
        assert star[name] is getattr(sparsecert, name)


def test_readme_lists_every_export():
    # one line per export, "- `name`: ...", in the README's API section
    exported = {name for name in sparsecert.__all__ if not name.startswith("_")}
    readme = (REPO / "README.md").read_text()
    section = readme.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+)`:", section, flags=re.MULTILINE)
    assert len(listed) == len(set(listed))
    assert set(listed) == exported


def test_every_private_function_and_class_is_named_in_the_package():
    # a module-level private function or class that no module names (a call,
    # an attribute, an import) is dead code, left behind by a deletion; a
    # dunder such as the package's __getattr__ is called by the interpreter
    package = Path(sparsecert.__file__).parent
    defined, named = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [(path.name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert [f"{module}: {name}" for module, name in defined if name not in named] == []


def _arrays(value):
    """Every numpy array inside nested tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


def test_cached_plan_arrays_are_read_only():
    # every caller shares what an lru_cache plan returns, so a write to one
    # of its arrays would change the plans of later calls
    plans = [codes._screen_plan(count, k, 3, budget)
             for k in (1, 2, 3, 4) for count in (k, 9, 30) for budget in (40, 1 << 15)]
    for h in (build_cyclic(6, 2), build_cyclic(6, 3), build_complete(5, 2)):
        plans += [constants._bound_plan(h), constants._c2_plan(h, regularity(h) + 1)]
    plans += [geometry._subset_levels(count, size)
              for count in (4, 9) for size in (2, 4)]
    arrays = list(_arrays(plans))
    assert any(a.ndim == 2 and a.dtype == bool for a in arrays)
    assert [a.shape for a in arrays if a.flags.writeable] == []


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_failing_property_is_reported_not_an_internal_error(tmp_path):
    # hypothesis imports libcst to report a failing example; under this
    # repository's warning filters that import must not stop pytest
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), str(tmp_path / "test_failing_property.py")],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env())
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed" in output
