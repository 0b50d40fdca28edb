"""The traced benchmark run wraps opcalc functions by name: every name in
perfbench/spans.py TARGETS must resolve the way Recorder.install looks it
up, or the traced worker dies at start with a KeyError.  Nothing is
installed here; the names are only looked up."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_spans().TARGETS


@pytest.mark.parametrize("layer", sorted(TARGETS))
def test_span_targets_resolve(layer):
    home = importlib.import_module(f"opcalc.{layer}")
    for qualified in TARGETS[layer]:
        owner_name, _, attr = qualified.rpartition(".")
        owner = getattr(home, owner_name) if owner_name else home
        # install() reads owner.__dict__[attr]: a method must be defined in
        # the class body itself, not inherited
        assert attr in owner.__dict__, f"{layer}.{qualified} is not defined there"
        assert callable(owner.__dict__[attr]), f"{layer}.{qualified} is not callable"
