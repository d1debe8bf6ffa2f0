"""The benchmark in perfbench/ times the program by wrapping public functions
at the module attributes listed in perfbench/layers.py TARGETS, and its
workloads and checks call the program through balaes names of their own.  A
name deleted from src/ would otherwise show up only when the benchmark
crashes."""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_names_resolve_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)  # stdlib only; imports nothing from balaes
    missing = [f"balaes.{module}.{attr}" for module, attr, *_ in layers.TARGETS
               if not callable(getattr(importlib.import_module(f"balaes.{module}"), attr, None))]
    assert not missing


def _balaes_names(path: Path) -> set:
    """Every name a perfbench file reads from balaes, as "module.attr...":
    each name it imports from a balaes module, and each attribute chain it
    reads off a balaes module it imported (cipher.SelectorPolicy.parse, say)."""
    tree = ast.parse(path.read_text())
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "balaes":
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("balaes."):
            names.update(f"{node.module[len('balaes.'):]}.{alias.name}" for alias in node.names)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            names.add(".".join([modules[node.id], *reversed(chain)]))
    return names


def _resolves(name: str) -> bool:
    module, *attrs = name.split(".")
    try:
        functools.reduce(getattr, attrs, importlib.import_module(f"balaes.{module}"))
    except AttributeError:
        return False
    return True


def test_workload_and_check_names_resolve_in_the_package():
    names = set().union(*(_balaes_names(PERFBENCH / name) for name in ("workloads.py", "checks.py")))
    # the parse finds the names the benchmark calls the program through
    assert {"cli.main", "cipher.encrypt", "cipher.SelectorPolicy.parse", "tablegen.TableSetPair",
            "tablegen.deserialize_spec", "gfcore.reference_encrypt"} <= names
    assert not [name for name in sorted(names) if not _resolves(name)]
