"""The benchmark's tracer swaps library functions for timing wrappers by
module and name (``bench/tracing.py``, ``WRAPS``). A renamed or removed
function would make a traced benchmark run die with ``AttributeError``, so
every wrapped name must resolve."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    """Import ``bench/tracing.py`` by path, as the benchmark loads its helpers."""
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracing = load_tracing()
    missing = [
        f"{module.__name__}.{name}"
        for modules, name, _, _ in tracing.WRAPS
        for module in modules
        if not callable(getattr(module, name, None))
    ]
    assert missing == []
    originals = [getattr(m, name) for modules, name, _, _ in tracing.WRAPS for m in modules]
    with tracing.Tracer():
        pass
    assert [getattr(m, name) for modules, name, _, _ in tracing.WRAPS for m in modules] == originals
