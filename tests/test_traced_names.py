"""Tables that name doflab functions: each name must exist.

``perfbench/tracer.py`` lists the functions it times (``SPANS``) and counts
(``COUNTED``) per ``doflab`` module; a name that no longer resolves breaks
traced benchmark runs. The tracer module is loaded from its file, as is.
``reference.SHARES`` names the package functions each test oracle calls.
"""

import functools
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import doflab
import reference

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


def test_reference_shares_name_every_oracle_and_resolve():
    """``SHARES`` has an entry for each function ``reference`` defines and
    for nothing else, and each dotted name in it is a callable of
    ``doflab``."""
    defined = {name for name, value in vars(reference).items()
               if inspect.isfunction(value) and value.__module__ == reference.__name__}
    assert set(reference.SHARES) == defined
    for oracle, names in reference.SHARES.items():
        for name in names:
            assert callable(functools.reduce(getattr, name.split("."), doflab)), (oracle, name)
