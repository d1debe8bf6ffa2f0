"""The benchmark in perfbench/ times the program by wrapping public functions
at the module attributes listed in perfbench/layers.py TARGETS, and its
checks import gfcore.reference_encrypt.  A name deleted from src/ would
otherwise show up only when the benchmark crashes."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_benchmark_names_resolve_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)  # stdlib only; imports nothing from balaes
    names = [(module, attr) for module, attr, *_ in layers.TARGETS] + [("gfcore", "reference_encrypt")]
    missing = [f"balaes.{module}.{attr}" for module, attr in names
               if not callable(getattr(importlib.import_module(f"balaes.{module}"), attr, None))]
    assert not missing
