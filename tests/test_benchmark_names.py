"""The benchmark's tracer wraps gpdlab functions by name; each must exist."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_wrapped_layer_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    for layer, names in layers.LAYER_FUNCTIONS.items():
        mod = importlib.import_module(f"gpdlab.{layer}")
        for dotted in names:
            owner = mod
            for attr in dotted.split("."):
                owner = getattr(owner, attr)
            assert callable(owner), f"{layer}.{dotted}"
