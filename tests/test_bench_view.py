"""The benchmark's traced run (perfbench/tracing.py) wraps program functions
by module and attribute name.  A rename would leave its layer unwrapped and
the trace blind while every other test stays green, and pytest does not
collect the benchmark's own tests, so the names are checked here."""

import importlib
from pathlib import Path

import regdensity
import regdensity.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("tracing").LAYERS
    assert layers
    for span, module_name, attribute, _, _ in layers:
        module = importlib.import_module(module_name)
        owner_name, _, name = attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        # the tracer looks the name up in the owner's own namespace
        assert callable(vars(owner).get(name)), span


def test_cli_and_package_share_natural_density():
    # the tracer replaces a function in every module that imported it
    assert regdensity.natural_density is regdensity.cli.natural_density
