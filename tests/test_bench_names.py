"""The benchmark's tracer wraps library functions by name; those names must stay.

perfbench/tracing.py looks up 32 functions and 3 methods with a bare getattr,
so renaming or deleting one breaks traced benchmark runs.  This test builds
the tracer, installs it and takes it out again; it changes nothing on disk.
"""

import importlib.util
import sys
from pathlib import Path

import fourierjacobi  # noqa: F401  (the tracer wraps the loaded modules)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _library_attributes(tracing):
    """Every attribute of every fourierjacobi module and traced class."""
    attrs = {}
    for name, mod in list(sys.modules.items()):
        if name == "fourierjacobi" or name.startswith("fourierjacobi."):
            for key, val in vars(mod).items():
                attrs[name, key] = val
    for cls, _, _ in tracing.METHODS:
        for key, val in vars(cls).items():
            attrs[cls.__qualname__, key] = val
    return attrs


def test_tracer_installs_and_restores_every_name():
    tracing = _load_tracing()
    before = _library_attributes(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = {k for k, v in _library_attributes(tracing).items() if v is not before[k]}
        for mod_name, attr, _, _ in tracing.FUNCTIONS:
            assert (f"fourierjacobi.{mod_name}", attr) in wrapped
        for cls, attr, _ in tracing.METHODS:
            assert (cls.__qualname__, attr) in wrapped
    finally:
        tracer.uninstall()
    after = _library_attributes(tracing)
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed, changed
