"""Layer spans for the traced run, recorded from the benchmark's side.

``Tracer.install`` wraps the public functions of each momt layer and binds
every wrapper wherever the name is reachable: in the defining module, in each
module that imported the name (``momt.reduction.solve``,
``momt.instance.cost_array``, ``momt.cli``'s direct imports), in module-level
dispatch tables such as ``momt.scenarios.RUNNERS``, and on the class for
methods.  ``Tracer.uninstall`` puts every original back.  Spans (name, start,
end, parent) stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import types
from collections import defaultdict

# (module, attribute, layer); "Class.method" wraps a method on its class
LAYER_FUNCTIONS = [
    ("momt.cli", "main", "cli.self"),
    ("momt.cli", "load_instance", "cli.load"),
    ("momt.costs", "cost_array", "costs.tabulate"),
    ("momt.costs", "gangbo_swiech_maps", "costs.maps"),
    ("momt.lp", "standard_model", "lp.model"),
    ("momt.lp", "PolytopeModel.__init__", "lp.model"),
    ("momt.lp", "solve", "lp.solve"),
    ("momt.lp", "uniqueness_certificate", "lp.cert"),
    ("momt.lp", "solve_model", "lp.cert"),
    ("momt.lp", "is_vertex", "lp.vertex"),
    ("momt.lp", "minimizing_set", "lp.active"),
    ("momt.lp", "oracle_enumerate", "lp.oracle"),
    ("momt.lp", "enumerate_vertices", "lp.oracle"),
    ("momt.reduction", "reduce", "reduction.reduce"),
    ("momt.reduction", "verify_reduction_optimality", "reduction.verify"),
    ("momt.reduction", "reconstruct_from_pair_reductions", "reduction.reconstruct"),
    ("momt.extremality", "check_cyclical_monotonicity", "extremality.monotone"),
    ("momt.extremality", "fiber_report", "extremality.fiber"),
    ("momt.extremality", "check_c_extreme", "extremality.fiber"),
    ("momt.extremality", "detect_map_decomposition", "extremality.decompose"),
    ("momt.serialize", "dump_text", "serialize.dump"),
    ("momt.serialize", "write_csv", "serialize.csv"),
]
# every public function and method of these modules belongs to one layer
WHOLE_MODULES = [("momt.measure", "measure"), ("momt.twomap", "twomap")]


def _count(tracer, layer, result, args):
    """Exact work counts taken from a layer call's arguments and result."""
    c = tracer.counts
    if layer == "cli.self":
        c["cli.ops_n"] += 1
    elif layer == "costs.tabulate":
        c["costs.cells_n"] += int(result.size)
    elif layer == "lp.model" and args and hasattr(args[0], "A_full"):
        c["lp.model_bytes"] += args[0].A_full.nbytes + args[0].A.nbytes
    elif layer == "lp.solve":
        c["lp.solve_n"] += 1
        c["lp.pivots_n"] += int(result.iterations)
    elif layer == "lp.cert":
        if isinstance(result, tuple):          # solve_model's iterations
            c["lp.cert_pivots_n"] += int(result[2])
        else:
            c["lp.cert_n"] += 1
    elif layer == "lp.active":
        c["lp.active_cells_n"] += len(result.indices)
    elif layer == "lp.oracle" and isinstance(result, list) and result \
            and not isinstance(result[0], tuple):
        c["lp.oracle_vertices_n"] += len(result)   # enumerate_vertices only
    elif layer == "extremality.monotone":
        c["extremality.monotone_tuples_n"] += (result.checked_exhaustive
                                               + result.checked_sampled)
    elif layer == "serialize.dump":
        c["serialize.bytes_n"] += len(result.encode("utf-8"))
    elif layer == "serialize.csv":
        c["serialize.bytes_n"] += os.path.getsize(args[0])


COUNTED = {"cli.self", "costs.tabulate", "lp.model", "lp.solve", "lp.cert",
           "lp.active", "lp.oracle", "extremality.monotone", "serialize.dump",
           "serialize.csv"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op tag]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, layer):
        counted = layer in COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counted:
                _count(self, layer, result, args)
            return result

        wrapper.__wrapped_layer__ = layer
        return wrapper

    def self_times(self, first: int, last: int) -> dict[str, float]:
        """Seconds per layer over spans[first:last]: duration minus children."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans[first:last]:
            if parent >= first:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i in range(first, last):
            name, start, end, _, _ = self.spans[i]
            out[name] += (end - start) - child[i]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}))
                fh.write("\n")

    # -- binding -----------------------------------------------------------

    def _bind(self, original, wrapper):
        """Replace ``original`` in every momt namespace that holds it."""
        for modname, module in list(sys.modules.items()):
            if not (modname == "momt" or modname.startswith("momt.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, value))
                    setattr(module, key, wrapper)
                elif isinstance(value, dict) and key.isupper():
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append((value, k, v))
                            value[k] = wrapper

    def _bind_method(self, cls, name, layer):
        raw = inspect.getattr_static(cls, name)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, layer))
        else:
            wrapped = self._wrap(raw, layer)
        self._undo.append((cls, name, raw))
        setattr(cls, name, wrapped)

    def install(self) -> None:
        import momt.scenarios as scenarios

        targets = list(LAYER_FUNCTIONS)
        for name, fn in vars(scenarios).items():
            if inspect.isfunction(fn) and fn.__module__ == scenarios.__name__:
                if name.startswith("gen_"):
                    targets.append(("momt.scenarios", name, "scenarios.generate"))
                elif name.startswith("run_"):
                    targets.append(("momt.scenarios", name, "scenarios.self"))
        for modname, layer in WHOLE_MODULES:
            module = sys.modules[modname]
            for name, obj in vars(module).items():
                if getattr(obj, "__module__", None) != modname or name.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    targets.append((modname, name, layer))
                elif inspect.isclass(obj):
                    for meth, raw in vars(obj).items():
                        if (meth == "__post_init__" or not meth.startswith("_")) and \
                                isinstance(raw, (staticmethod, types.FunctionType)):
                            targets.append((modname, f"{name}.{meth}", layer))
        for modname, attr, layer in targets:
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._bind_method(getattr(module, cls_name), meth, layer)
            else:
                original = getattr(module, attr)
                self._bind(original, self._wrap(original, layer))

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            if isinstance(holder, dict):
                holder[key] = value
            else:
                setattr(holder, key, value)
        self._undo.clear()
