"""The benchmark's tracer wraps doflab functions by name: each must exist.

``perfbench/tracer.py`` lists the functions it times (``SPANS``) and counts
(``COUNTED``) per ``doflab`` module; a name that no longer resolves breaks
traced benchmark runs. The tracer module is loaded from its file, as is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()
TRACED = [
    (layer, name)
    for layer, names in (*TRACER.SPANS.items(), *TRACER.COUNTED.items())
    for name in names
]


@pytest.mark.parametrize("layer,name", TRACED, ids=[".".join(pair) for pair in TRACED])
def test_traced_name_resolves(layer, name):
    module = importlib.import_module(f"doflab.{layer}")
    assert callable(getattr(module, name, None)), f"doflab.{layer} has no function {name}"
