"""Outside-in tracing of fuselab for the benchmark's traced runs.

``SpanTracer`` replaces every public function of each layer module with a
wrapper that records a span, at every place fuselab binds it (for example
``fuselab.nimrep.idempotent_family`` as well as
``fuselab.modular.idempotent_family``), and puts the originals back on
``uninstall``. Spans stay in memory as (name, start, end, parent id, op) and
are written out once the run ends.

``ScalarCounter`` counts ``CycloNumber`` additions, multiplications and
inversions. It runs in a pass of its own, because wrapping the scalar
operators would inflate the span times.

A metric whose functions no longer exist in fuselab is left out of the
result (absent), never reported as zero.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# the layer modules traced with spans; the cyclo layer is measured by ScalarCounter
SPAN_LAYERS = ("fusion", "modular", "io", "nimrep", "invariants", "gauge", "cli")

# per-layer self-time metrics: metric -> traced functions whose self time it sums
SELF_TIME = {
    "fusion.verify_axioms_s": ("fusion.verify_axioms",),
    "fusion.ring_build_s": ("fusion.su2_fusion_ring",),
    "modular.catalog_build_s": (
        "modular.load_catalog",
        "modular.su2_modular_data",
        "modular.fibonacci_modular_data",
        "modular.ising_modular_data",
        "modular.zn_modular_data",
    ),
    "modular.verify_s": ("modular.verify_modular_data",),
    "modular.spectrum_s": (
        "modular.spectrum",
        "modular.idempotent_family",
        "modular.spectral_idempotent",
        "modular.tube_idempotent",
        "modular.inner_product",
    ),
    "io.parse_self_s": ("io.parse_data",),
    "nimrep.build_s": (
        "nimrep.su2_nimrep_from_graph",
        "nimrep.verify_nimrep",
        "nimrep.ade_graph",
        "nimrep.a_graph",
        "nimrep.d_graph",
        "nimrep.e_graph",
        "nimrep.disjoint_union",
    ),
    "nimrep.profile_s": ("nimrep.multiplicity_profile", "nimrep.character"),
    "nimrep.eigenvector_s": ("nimrep.d_eigenvector",),
    "invariants.commutant_s": ("invariants.commutant_basis",),
    "invariants.enumerate_self_s": ("invariants.enumerate_invariants",),
    "invariants.verify_invariant_s": ("invariants.verify_invariant",),
    "invariants.tm_report_self_s": ("invariants.tm_dimension_report",),
    "gauge.solve_s": ("gauge.solve_gauge", "gauge.validate_mu"),
    "gauge.phi_check_s": ("gauge.verify_phi_isomorphism", "gauge.encircling_matrices"),
    "cli.run_self_s": ("cli.run",),
    "cli.render_s": ("cli.render_report",),
}
CALLS = {
    "fusion.verify_axioms_calls": "fusion.verify_axioms",
    "invariants.commutant_calls": "invariants.commutant_basis",
}
# the public lru-cached functions read for modular.cache_hit_ratio
CACHED = (
    "spectrum",
    "idempotent_family",
    "su2_modular_data",
    "fibonacci_modular_data",
    "ising_modular_data",
    "zn_modular_data",
)
SCALAR_OPS = {
    "cyclo.add_calls": ("__add__", "__radd__"),
    "cyclo.mul_calls": ("__mul__", "__rmul__"),
    "cyclo.inverse_calls": ("inverse",),
}


def _public_functions(module):
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class SpanTracer:
    def __init__(self):
        self.spans: list = []  # index = span id; (name, start, end, parent, op)
        self.paused = False
        self.wrapped: dict[str, object] = {}  # qualified name -> original
        self._stack: list[int] = []
        self._op = -1
        self._op_span = None
        self._restore: list = []
        self._last_dim = None
        self.lattice_points = 0
        self.invariants_found = 0

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        sites = [m for n, m in sys.modules.items() if n == "fuselab" or n.startswith("fuselab.")]
        for layer in SPAN_LAYERS:
            module = importlib.import_module(f"fuselab.{layer}")
            for name, fn in list(_public_functions(module)):
                qualified = f"{layer}.{name}"
                self.wrapped[qualified] = fn
                wrapper = self._wrap(qualified, fn)
                for site in sites:
                    for attr, value in list(vars(site).items()):
                        if value is fn:
                            setattr(site, attr, wrapper)
                            self._restore.append((site, attr, fn))

    def uninstall(self) -> None:
        for site, attr, fn in reversed(self._restore):
            setattr(site, attr, fn)
        self._restore.clear()

    def _wrap(self, qualified: str, fn):
        after = self._after if qualified in (
            "invariants.commutant_basis",
            "invariants.enumerate_invariants",
        ) else None
        signature = inspect.signature(fn) if after else None

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = (qualified, start, end, parent, self._op)
            if after:
                after(qualified, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def _after(self, qualified: str, bound, result) -> None:
        # lattice points are counted from outside: (bound + 1) ** dim per walk,
        # with dim taken from the commutant the walk itself computed
        if qualified == "invariants.commutant_basis":
            self._last_dim = result.dimension
        elif self._last_dim is not None:
            bound.apply_defaults()
            entry_bound = list(bound.arguments.values())[1]
            self.lattice_points += (entry_bound + 1) ** self._last_dim
            self.invariants_found += len(result)

    # -- op boundaries ----------------------------------------------------

    def begin_op(self, index: int, label: str) -> None:
        self._op = index
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        self._op_span = (sid, label, perf_counter())

    def end_op(self) -> None:
        sid, label, start = self._op_span
        self._stack.pop()
        self.spans[sid] = (f"op:{label}", start, perf_counter(), -1, self._op)

    # -- results ----------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """(self seconds, call count) per traced name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[sid]
            calls[name] += 1
        return self_s, calls

    def metrics(self, parse_bytes: int) -> dict:
        self_s, calls = self.self_times()
        out = {}
        for metric, names in SELF_TIME.items():
            present = [n for n in names if n in self.wrapped]
            if present:
                out[metric] = sum(self_s.get(n, 0.0) for n in present)
        for metric, name in CALLS.items():
            if name in self.wrapped:
                out[metric] = calls.get(name, 0)
        infos = [
            self.wrapped[f"modular.{n}"].cache_info()
            for n in CACHED
            if hasattr(self.wrapped.get(f"modular.{n}"), "cache_info")
        ]
        if infos:
            hits = sum(i.hits for i in infos)
            total = hits + sum(i.misses for i in infos)
            out["modular.cache_hit_ratio"] = hits / total if total else 0.0
        if "io.parse_data" in self.wrapped:
            out["io.parse_bytes"] = parse_bytes
        if {"invariants.commutant_basis", "invariants.enumerate_invariants"} <= set(self.wrapped):
            out["invariants.lattice_points"] = self.lattice_points
            out["invariants.accept_ratio"] = (
                self.invariants_found / self.lattice_points if self.lattice_points else 0.0
            )
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


class ScalarCounter:
    def __init__(self):
        self.paused = False
        self.counts: dict[str, int] = {}
        self._restore: list = []

    def install(self) -> None:
        from fuselab.cyclo import CycloNumber

        for metric, attrs in SCALAR_OPS.items():
            present = [a for a in attrs if a in vars(CycloNumber)]
            if not present:
                continue
            self.counts[metric] = 0
            for attr in present:
                fn = vars(CycloNumber)[attr]
                setattr(CycloNumber, attr, self._wrap(metric, fn))
                self._restore.append((CycloNumber, attr, fn))

    def uninstall(self) -> None:
        for cls, attr, fn in reversed(self._restore):
            setattr(cls, attr, fn)
        self._restore.clear()

    def _wrap(self, metric: str, fn):
        counts = self.counts

        def wrapper(*args):
            if not self.paused:
                counts[metric] += 1
            return fn(*args)

        return wrapper

    def begin_op(self, index: int, label: str) -> None:
        pass

    def end_op(self) -> None:
        pass

    def metrics(self, parse_bytes: int) -> dict:
        return dict(self.counts)
