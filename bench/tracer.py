"""Layer spans for the traced benchmark run, recorded from outside the package.

``Tracer()`` wraps every public function of each ``scaledlines`` module,
where it is defined and in every package module that imported it by name,
plus the class methods listed in ``METHODS``.  Each call records a span
(id, name, parent span, op id, start, end) and, at the same boundary, the
counts the per-layer metrics need.  Spans stay in memory until ``dump``.

A span's self time is its duration minus the durations of its child spans.
The tracer's own bookkeeping around a call is timed too and taken out of
the parent's self time, so layer self times exclude tracing work.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict

clock = time.perf_counter

LAYERS = ("intlinalg", "trees", "weights", "cones", "local_divisors",
          "global_divisors", "cli")

# Class methods traced besides the module-level functions.  A name that a
# later version of the package no longer has is skipped.
METHODS = {
    "intlinalg": {"IntMatrix": ("__init__",), "HnfSolver": ("__init__", "solve")},
    "trees": {"ColoredTree": ("from_json_dict",)},
    "global_divisors": {
        "DivisorVector": ("of", "from_json_dict", "typeI_coeff", "typeII_coeff",
                          "typeII_vector"),
        "PushPull": ("pull_push",),
    },
}

HNF = ("kernel_basis", "rank", "row_lattice_hnf", "hermite_normal_form",
       "HnfSolver.__init__", "smith_normal_form")
DICTIONARY = ("ray_of_subset", "partition_of_subset", "subset_of_partition")
COEFF = ("DivisorVector.typeI_coeff", "DivisorVector.typeII_coeff",
         "DivisorVector.typeII_vector")

# name, unit, the end-to-end metric it should move, on which workload.
PER_LAYER = (
    ("intlinalg.hnf_s", "s", "wall_s; ops_per_s", "global-lattice; tree-local"),
    ("intlinalg.hnf_calls", "count", "wall_s; ops_per_s", "global-lattice; tree-local"),
    ("intlinalg.hnf_max_cells", "count", "wall_s, peak_rss_mib", "global-lattice"),
    ("intlinalg.hnf_out_max_bits", "bit", "wall_s, peak_rss_mib", "global-lattice"),
    ("intlinalg.solve_s", "s", "op_p50_ms", "divisor-queries"),
    ("intlinalg.solve_calls", "count", "op_p50_ms", "divisor-queries"),
    ("intlinalg.solve_found_ratio", "1", "op_p50_ms", "divisor-queries"),
    ("intlinalg.entries_built", "count", "ops_per_s", "tree-local"),
    ("intlinalg.self_s", "s", "wall_s", "global-lattice"),
    ("trees.validate_s", "s", "ops_per_s; wall_s", "tree-local; global-lattice"),
    ("trees.validate_calls", "count", "ops_per_s; wall_s", "tree-local; global-lattice"),
    ("trees.validations_per_tree", "1", "ops_per_s", "tree-local"),
    ("trees.reduce_s", "s", "ops_per_s", "tree-local"),
    ("trees.enumerate_s", "s", "wall_s", "global-lattice"),
    ("trees.trees_enumerated", "count", "wall_s", "global-lattice"),
    ("trees.self_s", "s", "ops_per_s", "tree-local"),
    ("weights.s", "s", "op_p50_ms", "tree-local"),
    ("weights.compare_calls", "count", "op_p50_ms", "tree-local"),
    ("weights.cert_found_ratio", "1", "op_p50_ms", "tree-local"),
    ("cones.s", "s", "op_p50_ms", "tree-local"),
    ("cones.duality_calls", "count", "op_p50_ms", "tree-local"),
    ("local_divisors.mcs_s", "s", "ops_per_s; wall_s", "tree-local; global-lattice"),
    ("local_divisors.dictionary_s", "s", "ops_per_s; wall_s", "tree-local; global-lattice"),
    ("local_divisors.cartier_s", "s", "ops_per_s", "tree-local"),
    ("local_divisors.cartier_calls", "count", "ops_per_s", "tree-local"),
    ("local_divisors.cartier_ratio", "1", "ops_per_s", "tree-local"),
    ("local_divisors.self_s", "s", "ops_per_s", "tree-local"),
    ("global_divisors.pushpull_s", "s", "wall_s, peak_rss_mib", "global-lattice"),
    ("global_divisors.rank_s", "s", "wall_s, peak_rss_mib", "global-lattice"),
    ("global_divisors.relations_s", "s", "wall_s, peak_rss_mib", "global-lattice"),
    ("global_divisors.crosscheck_s", "s", "wall_s", "global-lattice"),
    ("global_divisors.relation_rows", "count", "wall_s", "global-lattice"),
    ("global_divisors.decide_s", "s", "op_p50_ms", "divisor-queries"),
    ("global_divisors.witness_s", "s", "op_p50_ms", "divisor-queries"),
    ("global_divisors.coeff_s", "s", "op_tail_ms", "divisor-queries"),
    ("global_divisors.coeff_lookups", "count", "op_tail_ms", "divisor-queries"),
    ("global_divisors.cache_hit_ratio", "1", "setup_s vs op_p50_ms", "divisor-queries"),
    ("global_divisors.self_s", "s", "op_p50_ms", "divisor-queries"),
    ("cli.s", "s", "wall_s; op_p50_ms", "global-lattice; divisor-queries"),
    ("cli.calls", "count", "wall_s; op_p50_ms", "global-lattice; divisor-queries"),
    ("cli.out_bytes", "B", "wall_s; op_p50_ms", "global-lattice; divisor-queries"),
    ("trace.overhead_ratio", "1", "none", "all"),
    ("trace.spans", "count", "none", "all"),
)

# Metrics that count work; they must repeat exactly between traced runs.
EXACT = tuple(name for name, unit, _, _ in PER_LAYER if unit in ("count", "bit", "B"))


def _max_bits(rows) -> int:
    top = 0
    for row in rows:
        if row:
            top = max(top, max(row), -min(row))
    return top.bit_length()


def _cells(m) -> int:
    return m.rows * m.cols


def _hnf_probe(name):
    """(input rows x cols, max bit length of the returned matrices) of an HNF call."""
    def probe(args, result):
        if name == "HnfSolver.__init__":
            solver = args[0]
            outs = [getattr(solver, "_h", ()), getattr(solver, "_u", ())]
            return _cells(args[1]), max(_max_bits(m) for m in outs)
        if result is None:
            return _cells(args[0]), 0
        if name == "hermite_normal_form":
            outs = list(result)
        elif name == "smith_normal_form":
            outs = [(result,)]
        elif name == "rank":
            outs = []
        else:
            outs = [result]
        return _cells(args[0]), max([_max_bits(m) for m in outs], default=0)
    return probe


def _built(args, result):
    try:
        return _cells(args[0])
    except AttributeError:              # the constructor raised
        return 0


PROBES = {name: _hnf_probe(name) for name in HNF}
PROBES.update({
    "HnfSolver.solve": lambda args, result: result is not None,
    "IntMatrix.__init__": _built,
    "enumerate_trees": lambda args, result: len(result) if result is not None else 0,
    "pairing_certificate": lambda args, result: result is not None,
    "is_cartier_local": lambda args, result: bool(result is not None and result.cartier),
    "local_global_crosscheck":
        lambda args, result: result.relation_rows if result is not None else 0,
})


class Tracer:
    """Installs the wrappers on construction; the package stays wrapped."""

    def __init__(self):
        self.op = -1                     # op id stamped on new spans; -1 is set-up
        self.spans: list[list] = []
        self.names: list[tuple[str, str]] = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._caches_at_begin = (0, 0)
        mods = {layer: importlib.import_module(f"scaledlines.{layer}") for layer in LAYERS}
        wrapped: dict[int, tuple[object, object]] = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrapper = self._wrap(obj, layer, name)
                wrapped[id(obj)] = (obj, wrapper)
                setattr(mod, name, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    raw = vars(cls).get(meth) if cls is not None else None
                    if isinstance(raw, classmethod):
                        wrapper = self._wrap(raw.__func__, layer, f"{cls_name}.{meth}")
                        setattr(cls, meth, classmethod(wrapper))
                    elif inspect.isfunction(raw):
                        setattr(cls, meth, self._wrap(raw, layer, f"{cls_name}.{meth}"))
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        gd = mods["global_divisors"]
        self._caches = [orig for orig, _ in wrapped.values()
                        if hasattr(orig, "cache_info") and orig.__module__ == gd.__name__]
        self._caches += [obj for name, obj in vars(gd).items()
                         if name.startswith("_") and hasattr(obj, "cache_info")]

    def _wrap(self, fn, layer: str, name: str):
        nid = len(self.names)
        self.names.append((layer, name))
        probe = PROBES.get(name)
        spans, stack, ids, tracer = self.spans, self._stack, self._ids, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                rec = [sid, nid, parent, tracer.op, start, end, 0.0,
                       probe(args, result) if probe is not None else None]
                spans.append(rec)
                rec[6] = (start - t0) + (clock() - end)

        return wrapper

    def _cache_totals(self) -> tuple[int, int]:
        infos = [c.cache_info() for c in self._caches]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def begin_ops(self) -> None:
        """Mark the end of set-up, for the cache statistics of the timed ops."""
        self._caches_at_begin = self._cache_totals()

    def metrics(self, cli_out_bytes: int) -> dict[str, float]:
        """Per-layer metrics over the spans of timed ops (op id >= 0)."""
        covered: dict[int, float] = defaultdict(float)
        for sid, nid, parent, op, start, end, over, extra in self.spans:
            covered[parent] += end - start + over
        self_s: dict[str, float] = defaultdict(float)
        layer_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        extras: dict[str, list] = defaultdict(list)
        for sid, nid, parent, op, start, end, over, extra in self.spans:
            if op < 0:
                continue
            layer, name = self.names[nid]
            own = end - start - covered.get(sid, 0.0)
            self_s[name] += own
            layer_s[layer] += own
            calls[name] += 1
            if extra is not None:
                extras[name].append(extra)

        def total(names) -> float:
            return sum(self_s[n] for n in names)

        def count(names) -> int:
            return sum(calls[n] for n in names)

        def ratio(hits, tries) -> float:
            return hits / tries if tries else 0.0

        hnf = [e for n in HNF for e in extras[n]]
        hits0, misses0 = self._caches_at_begin
        hits, misses = self._cache_totals()
        entering = calls["ColoredTree.from_json_dict"] + sum(extras["enumerate_trees"])
        return {
            "intlinalg.hnf_s": total(HNF),
            "intlinalg.hnf_calls": count(HNF),
            "intlinalg.hnf_max_cells": max((c for c, _ in hnf), default=0),
            "intlinalg.hnf_out_max_bits": max((b for _, b in hnf), default=0),
            "intlinalg.solve_s": self_s["HnfSolver.solve"],
            "intlinalg.solve_calls": calls["HnfSolver.solve"],
            "intlinalg.solve_found_ratio": ratio(sum(extras["HnfSolver.solve"]),
                                                 calls["HnfSolver.solve"]),
            "intlinalg.entries_built": sum(extras["IntMatrix.__init__"]),
            "intlinalg.self_s": layer_s["intlinalg"],
            "trees.validate_s": self_s["validate_tree"],
            "trees.validate_calls": calls["validate_tree"],
            "trees.validations_per_tree": ratio(calls["validate_tree"], entering),
            "trees.reduce_s": self_s["reduce_tree"],
            "trees.enumerate_s": self_s["enumerate_trees"],
            "trees.trees_enumerated": sum(extras["enumerate_trees"]),
            "trees.self_s": layer_s["trees"],
            "weights.s": layer_s["weights"],
            "weights.compare_calls": calls["weight_sum_equal"],
            "weights.cert_found_ratio": ratio(sum(extras["pairing_certificate"]),
                                              calls["pairing_certificate"]),
            "cones.s": layer_s["cones"],
            "cones.duality_calls": calls["verify_duality"],
            "local_divisors.mcs_s": self_s["minimally_complete_subsets"],
            "local_divisors.dictionary_s": total(DICTIONARY),
            "local_divisors.cartier_s": self_s["is_cartier_local"],
            "local_divisors.cartier_calls": calls["is_cartier_local"],
            "local_divisors.cartier_ratio": ratio(sum(extras["is_cartier_local"]),
                                                  calls["is_cartier_local"]),
            "local_divisors.self_s": layer_s["local_divisors"],
            "global_divisors.pushpull_s": self_s["pushpull_matrix"],
            "global_divisors.rank_s": self_s["pushpull_rank"],
            "global_divisors.relations_s": self_s["relations_basis"],
            "global_divisors.crosscheck_s": self_s["local_global_crosscheck"],
            "global_divisors.relation_rows": sum(extras["local_global_crosscheck"]),
            "global_divisors.decide_s": self_s["is_cartier_global"],
            "global_divisors.witness_s": self_s["cartier_witness"],
            "global_divisors.coeff_s": total(COEFF),
            "global_divisors.coeff_lookups": count(COEFF),
            "global_divisors.cache_hit_ratio": ratio(hits - hits0,
                                                     hits - hits0 + misses - misses0),
            "global_divisors.self_s": layer_s["global_divisors"],
            "cli.s": layer_s["cli"],
            "cli.calls": calls["run"],
            "cli.out_bytes": cli_out_bytes,
            "trace.spans": sum(1 for s in self.spans if s[3] >= 0),
        }

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: id, layer.name, parent, op, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for sid, nid, parent, op, start, end, over, extra in self.spans:
                layer, name = self.names[nid]
                fh.write(json.dumps([sid, f"{layer}.{name}", parent, op,
                                     round(start, 7), round(end, 7)]) + "\n")
