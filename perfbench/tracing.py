"""Spans around the calls into each multicyclic module, installed from the
benchmark's side: no code of the library changes.

`Tracer.install()` replaces every traced function by a timing wrapper
wherever the package looks the name up: the class attribute for a
method, and every module attribute that is the same function object for
a module-level function (so `codes.idempotent_from_set`, `cli.fourier`
and `spectral.fourier` are all caught).  `uninstall()` puts the
originals back.  A target that no longer exists is skipped, so its
metrics read zero.

Calls of the hot layers (field arithmetic, coefficient moves, row
reduction steps) are not stored one span per call: they add to a counter
keyed by their nearest stored span.  A call into a hot layer made from
inside the same layer (`Field.sub` calling `Field.add`) is part of the
outer call and is not counted again.  Self time is a span's duration
minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

from workloads import search_space

# (module, attribute, span name, hot)
TARGETS = [
    ("gf", "Field.__init__", "gf.init", False),
    ("gf", "Field.dot", "gf.dot", True),
    ("gf", "Field.mul", "gf.mul", True),
    ("gf", "Field.add", "gf.addsub", True),
    ("gf", "Field.sub", "gf.addsub", True),
    ("gf", "Field.inv", "gf.inv", True),
    ("ring", "Ring.__init__", "ring.init", False),
    ("ring", "Ring.from_vector", "ring.poly", True),
    ("ring", "Poly.vector", "ring.poly", True),
    ("ring", "Poly.shift", "ring.poly", True),
    ("ring", "Poly.translate", "ring.poly", True),
    ("spectral", "fourier", "spectral.fourier", False),
    ("spectral", "idempotent_from_set", "spectral.idempotent", False),
    ("orbits", "closure", "orbits.closure", False),
    ("orbits", "all_orbits", "orbits.all_orbits", False),
    ("linalg", "rref", "linalg.rref", False),
    ("linalg", "RowReducer.add", "linalg.reducer", True),
    ("linalg", "RowReducer.contains", "linalg.reducer", True),
    ("codes", "construct", "codes.construct", False),
    ("codes", "k_profile", "codes.k_profile", False),
    ("codes", "build_basis", "codes.basis", False),
    ("codes", "min_distance", "codes.min_distance", False),
    ("codes", "search", "codes.search", False),
    ("cli", "readback_check", "cli.readback", False),
    ("cli", "emit_record", "cli.emit", False),
    ("cli", "format_defining_set", "cli.emit", False),
]

# Per-layer metrics reported by a traced run: name -> unit.
PER_LAYER = {
    "gf.dot.calls": "count", "gf.dot.s": "s", "gf.dot.macs": "count",
    "gf.mul.calls": "count", "gf.mul.s": "s",
    "gf.addsub.calls": "count", "gf.addsub.s": "s",
    "gf.inv.calls": "count", "gf.inv.s": "s",
    "gf.init.s": "s",
    "ring.init.calls": "count", "ring.init.s": "s",
    "ring.poly.calls": "count", "ring.poly.s": "s",
    "spectral.idempotent.calls": "count", "spectral.idempotent.s": "s",
    "spectral.fourier.calls": "count", "spectral.fourier.s": "s",
    "spectral.coeffs_per_s": "1/s",
    "orbits.closure.calls": "count", "orbits.closure.s": "s",
    "orbits.all_orbits.s": "s",
    "linalg.rref.calls": "count", "linalg.rref.s": "s",
    "linalg.reducer.calls": "count", "linalg.reducer.s": "s",
    "codes.construct.calls": "count", "codes.construct.s": "s",
    "codes.k_profile.s": "s", "codes.basis.s": "s",
    "codes.min_distance.calls": "count", "codes.min_distance.s": "s",
    "codes.min_distance.codewords": "count",
    "codes.min_distance.codewords_per_s": "1/s",
    "codes.search.s": "s", "codes.search.candidates": "count",
    "codes.search.constructs_per_candidate": "ratio",
    "cli.readback.calls": "count", "cli.readback.s": "s",
    "cli.emit.s": "s",
    "trace.untraced.s": "s", "trace.overhead_frac": "ratio",
}

# Counters that depend only on the inputs, never on timing.
EXACT = ("codes.min_distance.codewords", "codes.search.candidates",
         "codes.search.constructs_per_candidate", "gf.dot.macs")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _dot_macs(args, kwargs):
    fld, A, B = args[0], _arg(args, kwargs, 1, "A"), _arg(args, kwargs, 2, "B")
    a, b = np.shape(A), np.shape(B)
    cols = b[-1] if len(b) >= 2 else 1
    return math.prod(a[:-1]) * a[-1] * cols * fld.m ** 2


class _Frame:
    __slots__ = ("name", "layer", "hot", "t0", "child_s", "span_id")

    def __init__(self, name, layer, hot, span_id):
        self.name = name
        self.layer = layer
        self.hot = hot
        self.child_s = 0.0
        self.span_id = span_id      # own id, or the nearest stored span's
        self.t0 = time.perf_counter()


class Tracer:
    """Collects spans and counters for one traced run of a command list."""

    def __init__(self):
        self.stack = []
        self.command = 0            # index of the command being run
        self.spans = []             # (id, parent id, command, name, t0, t1, self_s)
        # (parent id, name) -> [calls, s, self_s]
        self.hot = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)
        self._ids = itertools.count()
        self._undo = []

    # -- installation ------------------------------------------------------

    def install(self):
        for mod, attr, name, hot in TARGETS:
            module = importlib.import_module(f"multicyclic.{mod}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(fn_name) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(name, hot, original)
            if owner_name:
                self._patch(owner, fn_name, original, wrapper)
                continue
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").split(".")[0] != "multicyclic":
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _wrap(self, name, hot, fn):
        stack = self.stack
        counter = self._counter(name)
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hot and stack and stack[-1].hot and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            if counter is not None:
                counter(args, kwargs)
            parent = stack[-1].span_id if stack else None
            span_id = parent if hot else next(self._ids)
            frame = _Frame(name, layer, hot, span_id)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, parent)

        return wrapper

    def _close(self, frame, parent):
        t1 = time.perf_counter()
        self.stack.pop()
        dur = t1 - frame.t0
        if self.stack:
            self.stack[-1].child_s += dur
        if frame.hot:
            agg = self.hot[(parent, frame.name)]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame.child_s
        else:
            self.spans.append((frame.span_id, parent, self.command, frame.name,
                               frame.t0, t1, dur - frame.child_s))

    def _counter(self, name):
        counts, stack = self.counts, self.stack
        if name == "gf.dot":
            def count(args, kwargs):
                counts["gf.dot.macs"] += _dot_macs(args, kwargs)
        elif name == "codes.min_distance":
            def count(args, kwargs):
                G = _arg(args, kwargs, 0, "G")
                counts["codes.min_distance.codewords"] += G.field.q ** G.rows - 1
        elif name == "spectral.fourier":
            def count(args, kwargs):
                counts["spectral.coeffs"] += _arg(args, kwargs, 0, "f").ring.N
        elif name == "spectral.idempotent":
            def count(args, kwargs):
                counts["spectral.coeffs"] += _arg(args, kwargs, 0, "ring").N
        elif name == "codes.search":
            def count(args, kwargs):
                ring = _arg(args, kwargs, 0, "ring")
                K = _arg(args, kwargs, 1, "K_target")
                counts["codes.search.candidates"] += search_space(
                    ring.lengths, ring.field.q, K)
        elif name == "codes.construct":
            def count(args, kwargs):
                if any(f.name == "codes.search" for f in stack):
                    counts["codes.search.constructs"] += 1
        else:
            return None
        return count

    # -- results -----------------------------------------------------------

    def totals(self):
        """name -> [calls, inclusive s, self s]."""
        tot = defaultdict(lambda: [0, 0.0, 0.0])
        for _, _, _, name, t0, t1, self_s in self.spans:
            row = tot[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += self_s
        for (_, name), (calls, dur, self_s) in self.hot.items():
            row = tot[name]
            row[0] += calls
            row[1] += dur
            row[2] += self_s
        return tot

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics for a traced run whose command list took wall_s."""
        tot = self.totals()
        c = self.counts
        out = {}
        for name in PER_LAYER:
            layer, _, kind = name.rpartition(".")
            if layer in tot and kind in ("calls", "s"):
                out[name] = tot[layer][0 if kind == "calls" else 2]
        covered = sum(t1 - t0 for _, parent, _, _, t0, t1, _ in self.spans
                      if parent is None)
        covered += sum(agg[1] for (parent, _), agg in self.hot.items()
                       if parent is None)
        spectral_s = tot["spectral.fourier"][1] + tot["spectral.idempotent"][1]
        md_s = tot["codes.min_distance"][1]
        cand = c["codes.search.candidates"]
        out.update({
            "gf.dot.macs": c["gf.dot.macs"],
            "spectral.coeffs_per_s":
                c["spectral.coeffs"] / spectral_s if spectral_s else 0.0,
            "codes.min_distance.codewords": c["codes.min_distance.codewords"],
            "codes.min_distance.codewords_per_s":
                c["codes.min_distance.codewords"] / md_s if md_s else 0.0,
            "codes.search.candidates": cand,
            "codes.search.constructs_per_candidate":
                c["codes.search.constructs"] / cand if cand else 0.0,
            "trace.untraced.s": wall_s - covered,
        })
        for name, unit in PER_LAYER.items():
            out.setdefault(name, 0.0 if unit == "s" else 0)
        return out

    def dump(self, path):
        """Write the spans and per-parent hot counters as JSON."""
        doc = {
            "span_fields": ["id", "parent", "command", "name", "t0", "t1", "self_s"],
            "spans": self.spans,
            "hot_fields": ["parent", "name", "calls", "s", "self_s"],
            "hot": [[p, n, *a] for (p, n), a in self.hot.items()],
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
