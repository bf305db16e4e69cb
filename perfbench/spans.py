"""Span recorder for the traced benchmark run.

The program has no tracing of its own yet, so the traced run rebinds the
public functions of each unstablefb module (and ``scipy.sparse.linalg.splu``)
to wrappers that record one span per call.  The wrappers are installed only
around traced operations and removed afterwards, so untraced operations run
the program unchanged.

A span has an id, the id of the operation it belongs to, a name
``<layer>.<function>``, its layer, start and end times in seconds from the
start of the run, and the id of its parent span.  Spans are kept in memory
and written out by the caller when the run ends.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("mesh", "field", "poisson", "semilinear", "monotonicity", "blowup",
          "freeboundary", "cli")

# each function f of module m gets the span "m.f", under layer m
TARGETS = (
    ("mesh", "reflect_to_disk"),
    ("field", "write_field_csv"),
    ("field", "write_field_vtk"),
    ("field", "read_field_csv"),
    ("poisson", "assemble"),
    ("poisson", "solve"),
    ("semilinear", "solve_fixed_point"),
    ("semilinear", "initial_guess"),
    ("semilinear", "newton_stage"),
    ("semilinear", "export_solution"),
    ("monotonicity", "phi_profile"),
    ("monotonicity", "phi"),
    ("monotonicity", "threshold_scan"),
    ("monotonicity", "find_threshold"),
    ("monotonicity", "energy_bound_integral"),
    ("monotonicity", "mc_energy_bound"),
    ("blowup", "blowup_report"),
    ("blowup", "s_norm"),
    ("freeboundary", "extract_zero_set"),
    ("freeboundary", "_march"),
    ("freeboundary", "crossing_angles"),
    ("freeboundary", "fit_arcs_at_origin"),
    ("cli", "main"),
)

# per-layer metric -> span name whose inclusive durations it sums
SPAN_TIMES = {
    "semilinear.factor_s": "semilinear.splu",
    "semilinear.solve_s": "semilinear.lu_solve",
    "semilinear.newton_stage_s": "semilinear.newton_stage",
    "semilinear.initial_guess_s": "semilinear.initial_guess",
    "poisson.assemble_s": "poisson.assemble",
    "poisson.solve_s": "poisson.solve",
    "poisson.factor_s": "poisson.splu",
    "mesh.reflect_s": "mesh.reflect_to_disk",
    "freeboundary.extract_s": "freeboundary.extract_zero_set",
    "freeboundary.march_s": "freeboundary._march",
    "freeboundary.crossing_s": "freeboundary.crossing_angles",
    "freeboundary.fit_arcs_s": "freeboundary.fit_arcs_at_origin",
    "monotonicity.phi_profile_s": "monotonicity.phi_profile",
    "monotonicity.energy_bound_s": "monotonicity.energy_bound_integral",
    "monotonicity.mc_s": "monotonicity.mc_energy_bound",
    "blowup.report_s": "blowup.blowup_report",
    "field.write_csv_s": "field.write_field_csv",
    "field.write_vtk_s": "field.write_field_vtk",
    "field.read_csv_s": "field.read_field_csv",
}

COUNTS = (
    "semilinear.factorizations", "semilinear.newton_iters",
    "poisson.factorizations", "poisson.solve_calls",
    "mesh.reflect_calls", "mesh.reflect_mb",
    "freeboundary.march_cells", "freeboundary.vertices",
    "monotonicity.phi_radii", "monotonicity.energy_bound_calls",
    "blowup.phi_calls", "blowup.s_norm_calls",
)


class Recorder:
    """Spans and counters of traced operations, kept in memory."""

    def __init__(self, t0: float):
        self.t0 = t0
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.op: int | None = None
        self.counts: dict[int, Counter] = defaultdict(Counter)
        # (counter, field id, radius) of blowup's phi and s_norm calls
        self.radii_seen: dict[int, set] = defaultdict(set)

    def start(self, name: str, layer: str) -> dict:
        parent = self._stack[-1]["id"] if self._stack else None
        span = {"id": len(self.spans), "op": self.op, "name": name, "layer": layer,
                "parent": parent, "start": time.perf_counter() - self.t0, "end": None}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def stop(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self.t0
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.op][name] += amount

    def op_metrics(self, op: int) -> dict:
        """Per-layer metrics of one traced operation."""
        spans = [s for s in self.spans if s["op"] == op]
        dur = {s["id"]: s["end"] - s["start"] for s in spans}
        child = Counter()
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += dur[s["id"]]
        self_s = Counter({layer: 0.0 for layer in LAYERS})
        inclusive = Counter()
        for s in spans:
            self_s[s["layer"]] += dur[s["id"]] - child[s["id"]]
            inclusive[s["name"]] += dur[s["id"]]
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update({metric: float(inclusive[name]) for metric, name in SPAN_TIMES.items()})
        counts = self.counts[op]
        out.update({name: float(counts[name]) for name in COUNTS})
        calls = counts["blowup.phi_calls"] + counts["blowup.s_norm_calls"]
        out["blowup.useful_ratio"] = len(self.radii_seen[op]) / calls if calls else 0.0
        return out


class _TracedLU:
    """Wraps a SuperLU factorization so that its solves become spans."""

    def __init__(self, lu, rec: Recorder, layer: str):
        self._lu, self._rec, self._layer = lu, rec, layer

    def solve(self, *args, **kwargs):
        span = self._rec.start(f"{self._layer}.lu_solve", self._layer)
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._rec.stop(span)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _after_hooks(rec: Recorder) -> dict:
    """Counters updated from the arguments and result of a traced call."""

    def reflect(args, result):
        rec.count("mesh.reflect_calls")
        rec.count("mesh.reflect_mb", result.values.nbytes / 1e6)

    def newton(args, result):
        rec.count("semilinear.newton_iters", result[2])

    def march(args, result):
        n_r, n_phi = args[0].grid.shape
        rec.count("freeboundary.march_cells", (n_r - 1) * n_phi)
        rec.count("freeboundary.vertices", sum(len(p) for p in result[0]))

    def phi_profile(args, result):
        rec.count("monotonicity.phi_radii", len(result.radii))

    def radius_call(counter):
        def hook(args, result):
            rec.count(counter)
            rec.radii_seen[rec.op].add((counter, id(args[0]), float(args[1])))
        return hook

    return {
        "mesh.reflect_to_disk": reflect,
        "semilinear.newton_stage": newton,
        "freeboundary._march": march,
        "monotonicity.phi_profile": phi_profile,
        "monotonicity.energy_bound_integral":
            lambda args, result: rec.count("monotonicity.energy_bound_calls"),
        "poisson.solve": lambda args, result: rec.count("poisson.solve_calls"),
        "blowup.s_norm": radius_call("blowup.s_norm_calls"),
        "monotonicity.phi": radius_call("blowup.phi_calls"),
    }


def _wrap(rec: Recorder, fn, name: str, layer: str, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.start(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.stop(span)
        if after is not None:
            after(args, result)
        return result
    return traced


class Instrumentation:
    """Rebinds the traced functions while active; restores them on exit."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []

    def _rebind(self, orig, replacement) -> None:
        # a function is looked up in every module that imported it by name
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "unstablefb" or mod_name.startswith("unstablefb.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, replacement)

    def __enter__(self):
        import scipy.sparse.linalg as spla

        rec = self.rec
        hooks = _after_hooks(rec)
        for layer, func in TARGETS:
            orig = getattr(sys.modules[f"unstablefb.{layer}"], func)
            name = f"{layer}.{func}"
            self._rebind(orig, _wrap(rec, orig, name, layer, hooks.get(name)))

        splu = spla.splu

        @functools.wraps(splu)
        def traced_splu(*args, **kwargs):
            # a factorization counts under the module that asked for it
            layer = sys._getframe(1).f_globals.get("__name__", "").rsplit(".", 1)[-1]
            span = rec.start(f"{layer}.splu", layer)
            try:
                lu = splu(*args, **kwargs)
            finally:
                rec.stop(span)
            rec.count(f"{layer}.factorizations")
            return _TracedLU(lu, rec, layer)

        self._undo.append((spla, "splu", splu))
        spla.splu = traced_splu
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()
        return False


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"mesh.reflect_mb": "MB", "blowup.useful_ratio": "ratio"}.get(name, "count")


def median_metrics(per_op: list[dict]) -> dict:
    """Median over traced operations of each per-layer metric."""
    return {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
