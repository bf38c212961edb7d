"""The benchmark tracer's patch table names only functions that exist.

``benchmarks/tracing.py`` wraps each ``(module, attribute)`` it lists with
``getattr``, so a renamed or deleted function would otherwise surface only
when the benchmark runs with ``--trace 1``.  The file is loaded by path and
not installed: nothing is patched here.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("fjpower_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable():
    tracing = _load_tracing()
    targets = [t[:2] for t in tracing.SPAN_TARGETS + tracing.COUNTER_TARGETS]
    assert targets
    for module, attr in targets:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"
