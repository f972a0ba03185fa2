"""The benchmark's traced names still point at the package.

``perfbench/tracing.py`` reports a target it cannot resolve as missing and
drops its metrics, which leaves the traced result line without names the
benchmark declares.  These tests load the module from its file, without
editing it, and check that every declared target and cache resolves.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name, module, path, extra", tracing.TARGETS)
def test_traced_target_resolves(name, module, path, extra):
    _, _, value = tracing._resolve(module, path)
    assert callable(value) or isinstance(value, property)


@pytest.mark.parametrize("name, module, attr", tracing.CACHES)
def test_traced_cache_has_cache_info(name, module, attr):
    cache = getattr(importlib.import_module(module), attr)
    assert callable(cache.cache_info)
