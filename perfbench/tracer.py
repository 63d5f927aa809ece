"""Runtime tracing of vercat's layer boundaries, installed from outside.

`Tracer.install()` wraps the layer functions named in `LAYERS` and rebinds
every `vercat.*` module attribute that refers to them (for example both
`exactlin._rref_mod` and `verlinde._rref_mod`); methods are wrapped on
their class.  Each call records a span (name, start, end, parent) in flat
in-memory arrays, and a few wrappers also feed exact work counters.
`metrics()` turns the spans into call counts and self times; `dump()`
writes the spans out once the traced pass is over.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import sys
import time
import weakref
from array import array

import numpy as np

import vercat.cli
import vercat.exactlin
import vercat.invariants
import vercat.repzp
import vercat.svec2
import vercat.verlinde


def _rref_entries(tr, args):
    tr.count["exactlin.rref_mod.entries"] += args[0].size


def _matpow_madds(tr, args):
    a, k = args[0], args[1]
    tr.count["verlinde.matpow.madds"] += k * a.shape[0] ** 3


def _cokernel_peak(tr, args):
    dim = args[1].dim
    key = "verlinde.cokernel_peak_entries"
    tr.count[key] = max(tr.count[key], dim * dim)


def _homclass_keys(tr, args):
    blocks, j = args[1], args[2]
    for _, g in blocks.blocks:
        tr.count["verlinde.homclasses.block_calls"] += 1
        tr.block_keys.add((blocks.p, g.shape[0], tr.digest(g), j))


# (span name, owner, attribute, counter hook or None).  The owner is a
# module for plain functions and a class for methods.
LAYERS = [
    ("exactlin.rref_mod", vercat.exactlin, "_rref_mod", _rref_entries),
    ("exactlin.mat_init", vercat.exactlin.Mat, "__init__", None),
    ("exactlin.nilpotent_partition", vercat.exactlin, "nilpotent_partition", None),
    ("repzp.tensor", vercat.repzp, "tensor", None),
    ("repzp.jordan_type", vercat.repzp, "jordan_type", None),
    ("repzp.sym_power", vercat.repzp, "sym_power", None),
    ("verlinde.ver_cokernel", vercat.verlinde, "_ver_cokernel", _cokernel_peak),
    ("verlinde.homclasses", vercat.verlinde._HomClasses, "__init__", _homclass_keys),
    ("verlinde.matpow", vercat.verlinde, "_matpow", _matpow_madds),
    ("verlinde.symtower_build", vercat.verlinde.SymTower, "__init__", None),
    ("verlinde.section", vercat.verlinde.SymTower, "section", None),
    ("verlinde.mu", vercat.verlinde.SymTower, "mu", None),
    ("invariants.product_table", vercat.invariants.InvariantAlgebra, "product_table", None),
    ("invariants.mul_elems", vercat.invariants.InvariantAlgebra, "mul_elems", None),
    ("invariants.generator_degrees", vercat.invariants, "generator_degrees", None),
    ("invariants.module_finiteness_check", vercat.invariants, "module_finiteness_check", None),
    ("invariants.isotypic_stability_check", vercat.invariants, "isotypic_stability_check", None),
    ("invariants.frobenius_check", vercat.invariants, "frobenius_check", None),
    ("svec2.algebra_build", vercat.svec2.DGradedAlgebra, "__init__", None),
    ("svec2.mul", vercat.svec2.DGradedAlgebra, "mul", None),
    ("svec2.power", vercat.svec2.DGradedAlgebra, "power", None),
]

# verify suites: reported by inclusive time, as cli.suite.<name>.s
SUITES = {
    "fusion": "suite_fusion",
    "sympow": "suite_sympow",
    "sympow-comparison": "suite_sympow_comparison",
    "invariants": "suite_invariants",
    "svec2": "suite_svec2",
    "char0": "suite_char0",
}

COUNTERS = {
    "exactlin.rref_mod.entries": "count",
    "verlinde.matpow.madds": "count",
    "verlinde.cokernel_peak_entries": "count",
    "verlinde.homclasses.block_calls": "count",
    "verlinde.homclasses.distinct_blocks": "count",
    "verlinde.homclasses.distinct_ratio": "ratio",
}

TRACE_METRICS = {
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name, *_ in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for suite in SUITES:
        units[f"cli.suite.{suite}.s"] = "s"
    units.update(COUNTERS)
    units.update(TRACE_METRICS)
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.count = {k: 0 for k in COUNTERS}
        self.block_keys: set = set()
        self._digests: dict[int, tuple] = {}

    def digest(self, g: np.ndarray) -> bytes:
        # one hash per generator array; the weak reference guards against
        # a recycled id() after the array is freed
        hit = self._digests.get(id(g))
        if hit is not None and hit[0]() is g:
            return hit[1]
        d = hashlib.blake2b(np.ascontiguousarray(g).data, digest_size=16).digest()
        self._digests[id(g)] = (weakref.ref(g), d)
        return d

    def wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if hook is not None:
                hook(self, args)
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1])
            self.start.append(clock())
            self.end.append(0.0)
            self._open.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.end[i] = clock()

        return traced

    def install(self) -> None:
        targets = LAYERS + [
            (f"cli.suite.{s}", vercat.cli, attr, None) for s, attr in SUITES.items()
        ]
        for name, owner, attr, hook in targets:
            old = getattr(owner, attr)
            new = self.wrap(name, old, hook)
            if isinstance(owner, type):
                setattr(owner, attr, new)
            else:
                _rebind(old, new)

    def metrics(self) -> dict[str, float]:
        names = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=dur - child, minlength=k)
        total_s = np.bincount(names, weights=dur, minlength=k)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            if name.startswith("cli.suite."):
                out[f"{name}.s"] = float(total_s[i])
            elif not name.startswith("workload."):
                out[f"{name}.calls"] = int(calls[i])
                out[f"{name}.self_s"] = float(self_s[i])
        count = dict(self.count)
        count["verlinde.homclasses.distinct_blocks"] = len(self.block_keys)
        blocks = count["verlinde.homclasses.block_calls"]
        count["verlinde.homclasses.distinct_ratio"] = (
            len(self.block_keys) / blocks if blocks else 0.0
        )
        out.update(count)
        out["trace.spans"] = len(self.start)
        return out

    def dump(self, path: str, meta: dict) -> None:
        payload = {
            **meta,
            "names": self.names,
            "name": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _rebind(old, new) -> None:
    """Point every vercat module attribute bound to `old` at `new`."""
    for modname, mod in list(sys.modules.items()):
        if modname != "vercat" and not modname.startswith("vercat."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)
