"""The names that the demos and the benchmark harness reach in percolab.

They live outside the test suite, so a name cut from percolab would break
them without any other test failing.  The benchmark files are read, never
changed: the demos and perfbench are parsed, and perfbench/tracer.py is
loaded to read its wrapped attributes.  The demos are also run (the two
slow ones under the ``slow`` mark), since a demo can break at run time with
every name it reaches still present.
"""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import percolab

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

for _mod in pkgutil.iter_modules(percolab.__path__):
    importlib.import_module(f"percolab.{_mod.name}")


def _chain(node):
    """``a.b.c`` as ["a", "b", "c"], or None when the root is not a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + parts[::-1]


def _percolab_names(path):
    """Every dotted percolab name the script imports or reads, with module
    aliases such as ``exact = percolab.exact`` resolved."""
    tree = ast.parse(path.read_text())
    aliases = {"percolab": ["percolab"]}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets[0]
            pairs = (zip(targets.elts, node.value.elts)
                     if isinstance(targets, ast.Tuple) and isinstance(node.value, ast.Tuple)
                     else [(targets, node.value)])
            for target, value in pairs:
                chain = _chain(value)
                if isinstance(target, ast.Name) and chain and chain[0] == "percolab":
                    aliases[target.id] = chain
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("percolab"):
            names.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Attribute):
            chain = _chain(node)
            if chain and chain[0] in aliases:
                names.add(".".join(aliases[chain[0]] + chain[1:]))
    return names


def _resolve(dotted):
    obj = percolab
    for part in dotted.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_names_exist(path):
    names = _percolab_names(path)
    missing = []
    for dotted in sorted(names):
        try:
            _resolve(dotted)
        except AttributeError:
            missing.append(dotted)
    assert not missing, f"{path.name} reaches names percolab lacks: {missing}"


def test_scripts_reach_percolab():
    # the scan must see the calls it guards, or it would pass on nothing
    names = set().union(*(_percolab_names(p) for p in SCRIPTS))
    assert {"percolab.lazy_cluster", "percolab.crossing_probability",
            "percolab.ball_to_json", "percolab.lazy_neighbors",
            "percolab.cli.main", "percolab.exact.max_conditional_pivotal",
            "percolab.coupling.couple_sequential"} <= names


def test_tracer_wrapped_attributes_exist():
    tracer = _load_tracer()
    pairs = [pair for owners in tracer.WRAPPED.values() for pair in owners]
    pairs.append(tracer.POOL_ATTR)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in pairs
               if not hasattr(owner, attr)]
    assert not missing, f"perfbench/tracer.py wraps missing attributes: {missing}"


def _run_demo(name):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ["ball_gallery.py", "cluster_growth.py",
                                  "coupling_audit.py", "domination_certificates.py"])
def test_fast_demos_run(name):
    _run_demo(name)


# these two take 10-25 s each, so they run with the other slow tests
@pytest.mark.slow
@pytest.mark.parametrize("name", ["decay_and_meanfield.py", "tail_bound_mc.py"])
def test_slow_demos_run(name):
    _run_demo(name)
