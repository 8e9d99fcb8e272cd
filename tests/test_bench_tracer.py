"""The benchmark's per-layer tracer must still find what it wraps.

`bench/tracing.py` replaces the kohnspec functions named in its TARGETS
by name, rebuilds the lru_caches among them, and reads the leading
positional arguments of the counting and table functions.  A refactor
that renames or uncaches one of them would break only the traced
benchmark run, so these checks keep it visible in the test suite.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    for module_name, func, kind, _ in load_tracing().TARGETS:
        target = getattr(importlib.import_module("kohnspec." + module_name), func)
        assert callable(target), f"{module_name}.{func}"
        if kind == "cache":
            # The tracer rebuilds the memo with its own parameters, so an
            # unbounded one would grow unseen in traced runs too.
            assert callable(getattr(target, "cache_parameters", None)), func
            assert target.cache_parameters()["maxsize"] is not None, func


def test_traced_arguments_keep_their_positions():
    from kohnspec import spectrum, sphere

    leading = {
        spectrum.lens_counting: ["space", "lam"],
        sphere.sphere_counting: ["n", "lam"],
        spectrum.build_spectrum: ["space", "lambda_max"],
        spectrum.multiplicity_table: ["space", "lambda_max"],
    }
    for func, names in leading.items():
        assert list(inspect.signature(func).parameters)[:2] == names, func.__name__
