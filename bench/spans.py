"""Span tracing of dilatory's public functions, installed from outside.

Each traced function is replaced, in every ``dilatory.*`` module namespace
that binds it, by a wrapper that records one span (name, start, end, parent,
op) while it is installed.  Modules import each other's functions by name
(``check_star_hom`` is bound in algebra, cpmap, dilation and serialize), so
replacing only the defining module would miss most calls.  The source tree
is never edited.  Spans live in flat arrays in memory and are written out
once, when the run ends.

Self time of a span is its duration minus the durations of its direct child
spans; calls run on one thread, so child spans never overlap.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from array import array

import numpy as np

# layer -> public functions traced in that layer
TRACED = {
    "numerics": ("hermitian_eig", "svd", "as_matrix"),
    "algebra": ("check_star_hom", "commutant", "unit_product_index"),
    "cpmap": ("is_completely_positive", "choi_blocks", "is_ocp_morphism", "pullback"),
    "dilation": (
        "stinespring_dilate",
        "gram_matrix",
        "left_mult_matrix",
        "mediating_morphism",
        "stine_on_morphism",
        "stine_f",
        "universal_factorization",
        "is_minimal",
    ),
    "geometry": (
        "normal_form_general_rep",
        "connecting_morphism",
        "extend_partial_isometry",
        "purification_residuals",
        "partial_isometry_report",
    ),
    "laws": (
        "check_zigzag",
        "check_naturality_m",
        "check_modification",
        "check_oplax",
        "check_dagger",
        "objectwise_adjunction_suite",
        "counterexample_suite",
        "partial_isometry_suite",
        "run_default_suite",
    ),
    "randgen": ("random_cp_map", "inflate_rep", "random_hom"),
    "serialize": (
        "dumps",
        "encode_certificate",
        "encode_matrix",
        "loads",
        "decode_anchored_rep",
        "decode_ocp_map",
    ),
    "cli": ("main",),
}
# methods are wrapped on their class: (layer, class name, method)
TRACED_METHODS = (("algebra", "FdCStarAlgebra", "basis_labels"),)


def _eig_counts(tracer, args, kwargs):
    side = int(np.shape(args[0])[0])
    tracer.add("numerics.hermitian_eig.work", float(side) ** 3)
    tracer.peak("numerics.hermitian_eig.side_max", side)


def _svd_counts(tracer, args, kwargs):
    rows, cols = np.shape(args[0])
    tracer.add("numerics.svd.work", float(rows) * cols * min(rows, cols))
    tracer.add("numerics.svd.u_bytes", 16.0 * rows * rows)


def _dilate_counts(tracer, args, kwargs):
    phi = args[0] if args else kwargs["phi"]
    digest = hashlib.blake2b(repr((phi.domain.blocks, phi.k)).encode(), digest_size=16)
    for img in phi.basis_images:
        digest.update(img.tobytes())
    tracer.distinct.add((tracer.pass_index, digest.digest()))


def _loads_counts(tracer, args, kwargs):
    tracer.add("serialize.bytes_in", len(args[0]))


def _dumps_counts(tracer, result):
    tracer.add("serialize.bytes_out", len(result))


# counts taken at the same boundaries as the spans, outside the span's
# clock: from the arguments of every call, and from the result of calls
# that return
ARG_COUNTS = {
    "numerics.hermitian_eig": _eig_counts,
    "numerics.svd": _svd_counts,
    "dilation.stinespring_dilate": _dilate_counts,
    "serialize.loads": _loads_counts,
}
RESULT_COUNTS = {"serialize.dumps": _dumps_counts}


# (name, unit, better) of the counts that are not calls or self time
COUNTED = (
    ("numerics.hermitian_eig.work", "side3", "lower"),
    ("numerics.hermitian_eig.side_max", "rows", "lower"),
    ("numerics.svd.work", "mnk", "lower"),
    ("numerics.svd.u_bytes", "B", "lower"),
    ("serialize.bytes_out", "B", "lower"),
    ("serialize.bytes_in", "B", "lower"),
    ("dilation.stinespring_dilate.unique_ratio", "ratio", "higher"),
    ("randgen.setup_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order.

    Calls and self seconds are per pass over the workload's inputs; the
    counts above are per pass too, except side_max (the largest seen),
    unique_ratio (distinct inputs over calls), randgen.setup_s (one input
    generation) and trace.overhead_s (the untraced pass seconds times the
    median, over inputs, of traced over untraced op time, minus one).
    """
    functions = [f"{layer}.{f}" for layer, names in TRACED.items() for f in names]
    functions += [f"{layer}.{method}" for layer, _, method in TRACED_METHODS]
    out = []
    for name in functions:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    return out + list(COUNTED)


class Tracer:
    """Span recorder: every call of an installed wrapper records one span."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.op = -1
        self.pass_index = -1
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self.distinct: set = set()
        self._restore: list = []

    # --- counters -----------------------------------------------------
    def add(self, key: str, value: float):
        self.counts[key] = self.counts.get(key, 0.0) + value

    def peak(self, key: str, value: float):
        self.peaks[key] = max(self.peaks.get(key, 0.0), value)

    def reset_counts(self):
        self.counts.clear()
        self.peaks.clear()
        self.distinct.clear()

    # --- installation -------------------------------------------------
    def _wrap(self, name: str, fn):
        nid = self.name_of.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        arg_counts = ARG_COUNTS.get(name)
        result_counts = RESULT_COUNTS.get(name)
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if arg_counts is not None:
                arg_counts(tracer, args, kwargs)
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer.stack[-1])
            tracer.span_op.append(tracer.op)
            tracer.span_start.append(0)
            tracer.span_end.append(0)
            tracer.stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.stack.pop()
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
            if result_counts is not None:
                result_counts(tracer, result)
            return result

        return wrapper

    def install(self):
        """Wrap every traced function in every dilatory module binding it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("dilatory.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"dilatory.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))
        for layer, cls_name, method in TRACED_METHODS:
            cls = getattr(sys.modules[f"dilatory.{layer}"], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(f"{layer}.{method}", original))
            self._restore.append((cls, method, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- results ------------------------------------------------------
    def arrays(self):
        """Spans as numpy arrays; op is -1 for spans outside any op."""
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64),
            "op": np.frombuffer(self.span_op, dtype=np.int64),
            "start_ns": np.frombuffer(self.span_start, dtype=np.int64),
            "end_ns": np.frombuffer(self.span_end, dtype=np.int64),
        }

    def totals(self, in_ops: bool):
        """Per-name (calls, self seconds) over spans inside ops, or outside."""
        spans = self.arrays()
        dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
        parent = spans["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        keep = (spans["op"] >= 0) == in_ops
        names = spans["name"][keep]
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        self_s = np.bincount(names, weights=(dur - child)[keep], minlength=n) * 1e-9
        return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}

    def write(self, path):
        """Write every span and the name table as one .npz file."""
        np.savez(path, names=np.asarray(self.names), **self.arrays())
