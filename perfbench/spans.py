"""In-memory span tracer installed from outside the program.

`Tracer.installed` replaces module-level names of `reldelcech` with timing
wrappers, so every call the program makes through those names records a
span (name, start, end, parent, instance, tag).  Spans stay in memory until
the run ends; `layer_metrics` derives per-layer totals, counts and self
times from them.

Only calls that go through a module global are seen.  In particular the
float filter that `_HullSpace.visibility` evaluates inline is invisible:
`predicates.filter.*` counts the `filtered_det_sign` calls made by
`_HullSpace.orient` and `_HullSpace.infdown_sign`, i.e. the tests that the
inline filter did not certify plus the facet orientation tests.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

import numpy as np


def _cloud_dim(args, result) -> int:
    return args[0].dimension


def _certified(args, result) -> int:
    return result is not None


def _nnz(args, result) -> int:
    return sum(len(col) for col in result.columns)


def _pairs(args, result) -> int:
    return len(result.pairs)


# (module, global name, tag taken from the call's arguments and result).
# `reldelcech.delaunay` on the package is the function, hence import_module.
TARGETS = (
    ("reldelcech.cli", "read_points", None),
    ("reldelcech.relative_lift", "choose_s", None),
    ("reldelcech.relative_lift", "lift", None),
    ("reldelcech.relative_lift", "delaunay", _cloud_dim),
    ("reldelcech.relative_lift", "smallest_enclosing_ball", None),
    ("reldelcech.relative_lift", "build", None),
    ("reldelcech.persistence", "boundary_matrix", _nnz),
    ("reldelcech.persistence", "reduce_matrix", _pairs),
    ("reldelcech.delaunay", "filtered_det_sign", _certified),
    ("reldelcech.delaunay", "det_sign_exact", None),
    ("reldelcech.delaunay", "sos_sign", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.tag: list[int] = []
        self.instance: list[int] = []
        self.current_instance = -1
        self._stack = [-1]
        self._saved: list[tuple] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.instance.append(self.current_instance)
        self.tag.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def _wrap(self, name: str, fn, tagger):
        open_, close, tags = self.open, self.close, self.tag

        def traced(*args, **kwargs):
            sid = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if tagger is not None:
                tags[sid] = int(tagger(args, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        try:
            for module, attr, tagger in TARGETS:
                mod = importlib.import_module(module)
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(attr, fn, tagger))
            yield self
        finally:
            while self._saved:
                mod, attr, fn = self._saved.pop()
                setattr(mod, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "tag": np.array(self.tag, dtype=np.int64),
            "instance": np.array(self.instance, dtype=np.int64),
        }

    def save(self, path: str):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    child = np.zeros_like(duration)
    has = parent >= 0
    np.add.at(child, parent[has], duration[has])
    return duration - child


def layer_metrics(tracer: Tracer, lifted_dims: dict[int, int]) -> dict[int, dict[str, float]]:
    """Span-derived per-layer metrics of each traced instance.

    `lifted_dims[k]` is the dimension of Z in instance k, which tells the
    del(Z) call apart from the triangulations of X1 and X2.
    """
    a = tracer.arrays()
    duration = a["end"] - a["start"]
    own = self_times(a["parent"], duration)
    ids = tracer._ids
    out = {}
    for instance, lifted_dim in lifted_dims.items():
        mine = a["instance"] == instance

        def select(name: str) -> np.ndarray:
            return mine & (a["name"] == ids.get(name, -1))

        def seconds(name: str) -> float:
            return float(duration[select(name)].sum())

        def calls(name: str) -> int:
            return int(select(name).sum())

        filt = select("filtered_det_sign")
        dela = select("delaunay")
        out[instance] = {
            "parse.s": seconds("parse"),
            "choose_s.s": float(own[select("choose_s")].sum()),
            "lift.s": seconds("lift"),
            "delaunay.s": float(duration[dela].sum()),
            "delaunay.z.s": float(duration[dela & (a["tag"] == lifted_dim)].sum()),
            "delaunay.calls": int(dela.sum()),
            "predicates.filter.calls": int(filt.sum()),
            "predicates.filter.certified_frac": float(a["tag"][filt].mean()) if filt.any() else 0.0,
            "predicates.exact.calls": calls("det_sign_exact"),
            "predicates.sos.calls": calls("sos_sign"),
            "predicates.sos.s": seconds("sos_sign"),
            "meb.calls": calls("smallest_enclosing_ball"),
            "meb.s": seconds("smallest_enclosing_ball"),
            "complex.build.s": seconds("build"),
            "boundary_matrix.s": seconds("boundary_matrix"),
            "boundary_matrix.nnz": int(a["tag"][select("boundary_matrix")].sum()),
            "reduce.s": seconds("reduce_matrix"),
            "reduce.pairs": int(a["tag"][select("reduce_matrix")].sum()),
            "verify_embedding.s": seconds("verify_embedding"),
        }
    return out
