"""Spans and call counts at kohnspec's module boundaries, added from outside.

`install()` replaces the functions listed in TARGETS in every kohnspec
module namespace that holds them, so that both `from .x import f` callers
and `x.f(...)` callers go through the wrapper.  The package source is not
changed.  Spans are kept in memory and turned into per-layer metrics once
the pass is over, outside the timed region.

Three kinds of wrapper:

- span: each call records (name, start, end, parent span, job).  A span's
  self time is its duration minus the durations of its child spans.
- count: calls are only counted.  Used for the per-cell dimension routes,
  which run up to millions of times per job; their time stays in the self
  time of the span that called them.
- cache: the lru_cache is rebuilt with the same parameters around a span,
  so only misses (table fills) are spans and hits cost nothing extra.
  Hits and misses are read from the rebuilt cache's cache_info().
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import lru_cache, wraps

# (module, function, kind, patched inside its own module too)
# The dimension routes are counted only where another module calls them: a
# base-table fill's k^2 dp calls and dim_invariant's call to the recurrence
# are work inside the invariant layer, not calls into it.
TARGETS = (
    ("core", "parse_lens_spec", "span", True),
    ("sphere", "sphere_counting", "span", True),
    ("sphere", "dim_hpq", "count", True),
    ("invariant", "dim_invariant", "count", False),
    ("invariant", "dim_invariant_dp", "count", False),
    ("invariant", "dim_invariant_recurrence", "count", False),
    ("invariant", "dim_invariant_bruteforce", "span", True),
    ("invariant", "base_dim_table", "cache", True),
    ("invariant", "_profile_rows", "cache", True),
    ("spectrum", "lens_counting", "span", True),
    ("spectrum", "counting_grid_size", "span", True),
    ("spectrum", "build_spectrum", "span", True),
    ("spectrum", "multiplicity_table", "span", True),
    ("asymptotics", "weyl_ratio_series", "span", True),
    ("asymptotics", "remainder_experiment", "span", True),
    ("asymptotics", "universal_constant", "span", True),
    ("asymptotics", "check_lower_bound", "span", True),
    ("asymptotics", "check_upper_bound", "span", True),
    ("isospectral", "condition4_witness", "span", True),
    ("isospectral", "spectra_equal_up_to", "span", True),
    ("isospectral", "d_invariant_check", "span", True),
    ("isospectral", "c_matrix", "span", True),
    ("isospectral", "span_dimension", "span", True),
    ("isospectral", "classify_all", "span", True),
    ("genfunc", "max_deviation", "span", True),
    ("genfunc", "unit_disk_points", "span", True),
    ("genfunc", "genfunc_series", "span", True),
    ("genfunc", "genfunc_closed", "span", True),
)

# Layer metric -> the spans whose self time it sums.
SELF_TIMES = {
    "spectrum.count_s": ("spectrum.lens_counting", "spectrum.counting_grid_size"),
    "sphere.count_s": ("sphere.sphere_counting",),
    "asymptotics.sweep_s": ("asymptotics.weyl_ratio_series",
                            "asymptotics.remainder_experiment"),
    "spectrum.table_s": ("spectrum.build_spectrum", "spectrum.multiplicity_table"),
    "isospectral.cmatrix_s": ("isospectral.c_matrix",),
    "isospectral.rank_s": ("isospectral.span_dimension",),
    "isospectral.witness_s": ("isospectral.condition4_witness",),
    "isospectral.classify_s": ("isospectral.classify_all",),
    "invariant.table_fill_s": ("invariant.base_dim_table", "invariant._profile_rows"),
    "invariant.bruteforce_s": ("invariant.dim_invariant_bruteforce",),
    "asymptotics.quad_s": ("asymptotics.universal_constant",),
    "asymptotics.bounds_s": ("asymptotics.check_lower_bound",
                             "asymptotics.check_upper_bound"),
    "genfunc.series_s": ("genfunc.genfunc_series",),
    "genfunc.closed_s": ("genfunc.genfunc_closed",),
    "core.parse_s": ("core.parse_lens_spec",),
}
CALLS = {
    "isospectral.cmatrix_calls": ("isospectral.c_matrix",),
    "asymptotics.quad_calls": ("asymptotics.universal_constant",),
    "genfunc.points": ("genfunc.genfunc_closed",),
}
COUNTS = {
    "invariant.dim_calls": ("invariant.dim_invariant", "invariant.dim_invariant_dp",
                            "invariant.dim_invariant_recurrence"),
    "sphere.dim_calls": ("sphere.dim_hpq",),
}


def grid_cells(n: int, lam: int) -> int:
    """Number of (p, q) cells with q >= 1 and 2q(p + n - 1) <= lam."""
    half = lam // 2
    return sum(half // (p + n - 1) for p in range(max(0, half - n + 2)))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job, args]
        self.stack: list[int] = []
        self.calls: dict[str, list[int]] = {}
        self.caches: dict[str, object] = {}
        self.job = -1

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, args]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def count(self, name, fn):
        cell = self.calls.setdefault(name, [0])

        @wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def cache(self, name, cached):
        rebuilt = lru_cache(**cached.cache_parameters())(
            self.span(name, cached.__wrapped__)
        )
        self.caches[name] = rebuilt
        return rebuilt

    def layer_metrics(self, job_times, wall_s) -> dict[str, float]:
        """Per-layer totals of one traced pass."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        top_level = 0.0
        cells = eigenvalues = 0
        for (name, start, end, parent, _, args), inner in zip(spans, child_time):
            self_s[name] += end - start - inner
            calls[name] += 1
            if parent < 0:
                top_level += end - start
            if name == "spectrum.lens_counting":
                cells += grid_cells(args[0].n, args[1])
            elif name == "sphere.sphere_counting":
                cells += grid_cells(args[0], args[1])
            elif name in ("spectrum.build_spectrum", "spectrum.multiplicity_table"):
                eigenvalues += args[1] // 2
        metrics = {m: sum(self_s[s] for s in names) for m, names in SELF_TIMES.items()}
        metrics.update({m: sum(calls[s] for s in names) for m, names in CALLS.items()})
        metrics.update({
            m: sum(self.calls[s][0] for s in names) for m, names in COUNTS.items()
        })
        cli_self = sum(job_times) - top_level
        base = self.caches["invariant.base_dim_table"].cache_info()
        profile = self.caches["invariant._profile_rows"].cache_info()
        metrics.update({
            "spectrum.cells": cells,
            "spectrum.eigenvalues_visited": eigenvalues,
            "cli.self_s": cli_self,
            "invariant.base_table_hits": base.hits,
            "invariant.base_table_misses": base.misses,
            "invariant.profile_hits": profile.hits,
            "invariant.profile_misses": profile.misses,
            "trace.wall_s": wall_s,
            "trace.residual_s": wall_s - sum(self_s.values()) - cli_self,
            "trace.spans": len(spans),
        })
        return metrics


def install() -> Tracer:
    """Wrap every TARGETS function in all loaded kohnspec modules."""
    tracer = Tracer()
    modules = [
        m for name, m in sys.modules.items()
        if name == "kohnspec" or name.startswith("kohnspec.")
    ]
    for module_name, func, kind, inside in TARGETS:
        home = sys.modules["kohnspec." + module_name]
        original = getattr(home, func)
        name = f"{module_name}.{func}"
        wrapper = getattr(tracer, kind)(name, original)
        for module in modules:
            if module is home and not inside:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    return tracer
