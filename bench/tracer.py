"""Per-layer tracing from outside the library.

The tracer wraps saalib's layer-boundary functions and rebinds every name
that refers to them in every loaded ``saalib`` module.  ``cli``, ``checks``
and ``construct`` bind ``algebra``/``linalg`` functions with
``from .x import y``, so rebinding only the defining module would leave
those call sites untraced.  Each wrapper records a span's duration and
subtracts the time its traced children took, which gives the layer's self
time.  Counts marked computed come from argument and result shapes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import wraps
from time import perf_counter

# Layer-boundary functions, by module; a dotted name is a method.
TARGETS = {
    "linalg": ("_rref_array", "nullspace", "perp", "subspace_intersect"),
    "algebra": ("product_space", "lower_central_series", "upper_central_series",
                "_centralizer_above", "rank", "series_report", "build_algebra",
                "isotropic_ideal_chain"),
    "checks": ("sample_presentation", "scan"),
    "construct": ("construct_minimal", "TripleSet.satisfies_properties",
                  "TripleSet.presentation", "try_scaling_isomorphism",
                  "verify_scaling_witness", "fingerprint"),
    "presfile": ("parse_presentation_file", "emit_presentation"),
    "cli": ("verify_report", "main"),
}


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    rows: int = 0  # rows fed to _rref_array (computed)
    pivots: int = 0  # pivots _rref_array returned
    mults: int = 0  # a.dim * b.dim * dim**3 per product_space call (computed)

    def counts(self) -> tuple[int, int, int, int]:
        return self.calls, self.rows, self.pivots, self.mults


def _rref_counts(stats: LayerStats, args, result) -> None:
    stats.rows += len(args[0])
    stats.pivots += len(result[1])


def _product_counts(stats: LayerStats, args, result) -> None:
    alg, a, b = args[:3]
    stats.mults += a.dim * b.dim * alg.dim ** 3


COMPUTED = {"linalg._rref_array": _rref_counts, "algebra.product_space": _product_counts}


class Tracer:
    """Install with ``with Tracer(saalib) as tracer:``; stats stay readable after."""

    def __init__(self, sl):
        self.sl = sl
        self.stats = {f"{mod}.{name}": LayerStats() for mod, names in TARGETS.items()
                      for name in names}
        self._stack: list[float] = []  # traced child time of each open span
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        stats = self.stats[layer]
        stack = self._stack
        computed = COMPUTED.get(layer)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stats.calls += 1
                stats.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if computed is not None:
                computed(stats, args, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "saalib" or name.startswith("saalib."))]
        for mod_name, names in TARGETS.items():
            module = getattr(self.sl, mod_name)
            for name in names:
                layer = f"{mod_name}.{name}"
                owner_name, _, attr = name.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    self._rebind(owner, attr, original, self._wrap(layer, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, original, wrapper)
        return self

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def counts(self) -> dict[str, tuple[int, int, int, int]]:
        return {layer: s.counts() for layer, s in self.stats.items()}

    def self_seconds(self) -> dict[str, float]:
        return {layer: s.self_s for layer, s in self.stats.items()}


def layer_metrics(counts: dict, self_seconds: dict, ops: int, self_ops: int) -> dict[str, float]:
    """Per-op metrics for every traced layer.

    counts come from ``ops`` traced ops, self times from ``self_ops``.
    """
    out = {}
    for layer, (calls, _, _, _) in counts.items():
        out[f"{layer}.calls_per_op"] = calls / ops
        out[f"{layer}.self_ms_per_op"] = 1000.0 * self_seconds[layer] / self_ops
    _, rows, pivots, _ = counts["linalg._rref_array"]
    out["linalg._rref_array.rows_per_op"] = rows / ops
    out["linalg._rref_array.pivot_ratio"] = pivots / rows if rows else 0.0
    out["algebra.product_space.mults_per_op"] = counts["algebra.product_space"][3] / ops
    return out
