"""The benchmark's tracer names library functions by module and attribute;
every name must still resolve, so that a rename shows here and not as a
silent zero in the per-layer metrics."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(mod: str, attr: str):
    """The object the tracer wraps: a module function, or an entry of a class's
    own namespace for "Class.method"."""
    module = importlib.import_module(f"cyclohouse.{mod}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(module, cls_name))[meth]
    return getattr(module, attr)


def test_every_tracer_target_resolves():
    tracer = _tracer()
    for name, mod, attr in tracer.TARGETS:
        target = _resolve(mod, attr)
        assert callable(getattr(target, "__func__", target)), name


def test_every_lru_layer_has_cache_info():
    tracer = _tracer()
    targets = {name: (mod, attr) for name, mod, attr in tracer.TARGETS}
    for name in tracer.LRU_LAYERS:
        info = _resolve(*targets[name]).cache_info()
        assert info.hits >= 0 and info.misses >= 0, name
