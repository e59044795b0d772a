"""The benchmark's span tracer against the package: every name it traces
must still exist, and removing the tracer must leave the package as it was.
The tracer is loaded by file path, so ``bench/`` stays off ``sys.path``."""

import importlib.util
import sys
from pathlib import Path

import hopfforest.cli  # noqa: F401  (with the package, every module the tracer patches)

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_hopfforest_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_bindings() -> dict:
    """Every module global, module-level dict value and class attribute of
    the package, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "hopfforest" and not name.startswith("hopfforest."):
            continue
        for key, value in vars(mod).items():
            out[name, key] = value
            if isinstance(value, dict):
                for k, v in list(value.items()):
                    out[name, key, repr(k)] = v
            if isinstance(value, type) and value.__module__ == name:
                for attr, v in vars(value).items():
                    out[name, key, attr] = v
    return out


def _bound(tracer, module: str, path: str):
    """What the traced name is bound to now; a KeyError or AttributeError
    names a traced name the package no longer has."""
    owner, attr = tracer._resolve(module, path)
    return owner.__dict__[attr]


def test_tracer_installs_on_the_package_and_restores_it():
    tracer = _load_tracer()
    traced = tracer.SPANS + tracer.COUNTS
    originals = [_bound(tracer, module, path) for _, module, path in traced]
    before = _package_bindings()
    tr = tracer.Tracer()
    try:
        tr.install()
        for (name, module, path), original in zip(traced, originals):
            assert _bound(tracer, module, path) is not original, name
    finally:
        tr.restore()
    after = _package_bindings()
    assert [k for k in before if after[k] is not before[k]] == []
