"""Per-layer metrics from a cProfile run of loopalg.

A layer is one module of the package: scalars, linalg, liealg, loop, kepler
and cli.  A layer's self time is the profiler's self time of its functions
plus the time spent in code outside the package (the stdlib, such as
``fractions``, and builtins) on its behalf.  That outside time is split by
call edge: the part called directly from a layer is charged to it, and the
part called from other outside code follows that code's callers in
proportion to their cumulative time.  Times are profiled seconds, so they
include the profiler's own cost; ``trace.overhead`` gives its size.
"""

from __future__ import annotations

import statistics
from pathlib import Path

LAYERS = ("scalars", "linalg", "liealg", "loop", "kepler", "cli")

# Closures that evaluate a Kepler observable (see kepler._bind_all), and the
# m*beta radial variant built inside identity_suite.
OBSERVABLES = frozenset({"H0", "H", "h", "L", "A1", "A2", "M1", "M2", "S", "N1", "N2",
                         "M1_beta_variant"})


class Profile:
    """Layer view of pstats data: {func: (cc, nc, tt, ct, callers)}."""

    def __init__(self, stats, package_dir):
        self.stats = stats.stats
        package_dir = Path(package_dir).resolve()
        self.layer = {}
        for func in self.stats:
            path = Path(func[0])
            if path.suffix == ".py" and path.stem in LAYERS and path.parent == package_dir:
                self.layer[func] = path.stem
        self._shares = {}

    def _share(self, func, active=frozenset()):
        """Fractions of func's cumulative time spent on behalf of each layer."""
        if func in self._shares:
            return self._shares[func]
        callers = self.stats[func][4] if func in self.stats else {}
        total = sum(edge[3] for edge in callers.values())
        out = dict.fromkeys(LAYERS, 0.0)
        if total > 0 and func not in active:
            for caller, edge in callers.items():
                weight = edge[3] / total
                if caller in self.layer:
                    out[self.layer[caller]] += weight
                else:
                    for layer, part in self._share(caller, active | {func}).items():
                        out[layer] += weight * part
        self._shares[func] = out
        return out

    def self_seconds(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for func, (_, _, tt, _, callers) in self.stats.items():
            if func in self.layer:
                out[self.layer[func]] += tt
                continue
            for caller, edge in callers.items():
                if caller in self.layer:
                    out[self.layer[caller]] += edge[2]
                else:
                    for layer, part in self._share(caller).items():
                        out[layer] += edge[2] * part
        return out

    def _entry(self, fn):
        code = getattr(fn, "__code__", None)
        if code is None:
            return None
        return self.stats.get((code.co_filename, code.co_firstlineno, code.co_name))

    def calls(self, fn) -> int:
        entry = self._entry(fn)
        return entry[1] if entry else 0

    def cumulative(self, fn) -> float:
        entry = self._entry(fn)
        return entry[3] if entry else 0.0

    def calls_named(self, layer, names) -> int:
        return sum(entry[1] for func, entry in self.stats.items()
                   if self.layer.get(func) == layer and func[2] in names)


def p50_ms(values) -> float:
    return statistics.median(values) * 1000 if values else 0.0


def per_layer_metrics(profile: Profile, spans, overhead, import_ms) -> dict:
    """Every per-layer metric of BENCHMARK.json, as {name: (value, unit)}."""
    from loopalg import kepler, liealg, linalg, loop, scalars

    self_s = profile.self_seconds()
    computed = profile.calls(kepler._partials)
    needed = spans.counts.get("gradients_needed", 0)
    out = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
    out.update({
        "scalars.puiseux_new": (profile.calls(scalars.PuiseuxScalar.__init__), "count"),
        "scalars.signature_calls": (profile.calls(scalars.signature), "count"),
        "linalg.row_reduce_calls": (profile.calls(linalg.row_reduce), "count"),
        "liealg.validate_calls": (profile.calls(liealg.LieAlgebra.validate), "count"),
        "liealg.validate_s": (profile.cumulative(liealg.LieAlgebra.validate), "s"),
        "liealg.change_basis_ms_p50": (p50_ms(spans.times.get("change_basis")), "ms"),
        "liealg.classify3_ms_p50": (p50_ms(spans.times.get("classify3")), "ms"),
        "loop.bracket_raw_calls": (profile.calls(loop.LoopSpec._bracket_raw), "count"),
        "loop.embedding_check_ms_p50": (p50_ms(spans.times.get("embedding_check")), "ms"),
        "loop.factor_algebra_ms_p50": (p50_ms(spans.times.get("factor_algebra")), "ms"),
        "kepler.observable_evals": (profile.calls_named("kepler", OBSERVABLES), "count"),
        "kepler.gradient_reuse": (needed / computed if computed else 0.0, "ratio"),
        "cli.import_ms": (import_ms, "ms"),
        "trace.overhead": (overhead, "ratio"),
    })
    return out
