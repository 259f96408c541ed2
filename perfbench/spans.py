"""In-memory spans and counters around the public functions of each layer.

The tracer wraps library functions from outside the package.  A wrapper is
installed under every name the library looks the function up by: the
``from .boundary import jet_arrays`` in ``admissibility`` and ``catalog``
binds a second and a third name, so patching ``boundary.jet_arrays`` alone
would miss every call the scanner makes.  Methods are patched on their
classes, which also reroutes operator dispatch (``a * b``, ``a / b``).

Each span records (id, parent id, item id, name, start, end, work counts).  Spans stay in
memory while the workload runs and are written out once it has finished.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np


def _jet_arrays(args, kwargs):
    theta, m = args[0], args[1]
    points = np.size(theta) * np.size(m)
    if points == 1:  # the polish evaluates single points
        return "boundary.jet_arrays.point", {}
    return "boundary.jet_arrays.grid", {"boundary.jet_arrays.grid_points": points}


def _margin(args, kwargs):
    return "geometry.margin", {"geometry.margin.points": np.size(args[1])}


def _series_mul(args, kwargs):
    a, b = args
    if type(b) is not type(a):
        return None  # scalar product: a rescale, not a convolution
    return "series.mul", {}


def _series_div(args, kwargs):
    a, b = args
    if type(b) is not type(a):
        return None
    n = min(a.order, b.order)
    # the long-division recurrence takes a dot product of length k at step k
    return "series.div", {"series.div.mac": n * (n + 1) // 2}


def _values_on_circle(args, kwargs):
    points = kwargs["points"] if "points" in kwargs else args[2]
    return "series.values_on_circle", {"series.values_on_circle.points": int(points)}


def _named(name):
    return lambda args, kwargs: (name, {})


def _targets():
    """(owner, attribute, classifier) for every name a wrapped function is reached by."""
    from lemniscate import (admissibility, boundary, catalog, geometry, series,
                            thresholds, verifier)
    return [
        (thresholds, "find_beta_threshold", _named("thresholds.find_beta_threshold")),
        (thresholds, "certified_at", _named("thresholds.certified_at")),
        (thresholds, "scan_profile", _named("admissibility.scan_profile")),
        (admissibility, "scan_profile", _named("admissibility.scan_profile")),
        (admissibility, "check_admissible", _named("admissibility.check_admissible")),
        (admissibility, "min_over_t", _named("admissibility.min_over_t")),
        (admissibility, "jet_arrays", _jet_arrays),
        (catalog, "jet_arrays", _jet_arrays),
        (boundary, "jet_arrays", _jet_arrays),
        (admissibility, "make_triple", _named("boundary.make_triple")),
        (boundary, "make_triple", _named("boundary.make_triple")),
        (admissibility, "second_order_min_distance",
         _named("catalog.second_order_min_distance")),
        (catalog, "second_order_min_distance", _named("catalog.second_order_min_distance")),
        (geometry.LemniscateDelta, "margin", _margin),
        (geometry.Disk, "margin", _margin),
        (geometry.HalfPlaneReLess, "margin", _margin),
        (geometry.MoebiusDisk, "margin", _margin),
        (series.TruncatedSeries, "__mul__", _series_mul),
        (series.TruncatedSeries, "__truediv__", _series_div),
        (series.TruncatedSeries, "values_on_circle", _values_on_circle),
        (series.TruncatedSeries, "tail_estimate", _named("series.tail_estimate")),
        (verifier, "verify_implication", _named("verifier.verify_implication")),
        (verifier, "hypothesis_series", _named("verifier.hypothesis_series")),
        (verifier, "image_in_region", _named("verifier.image_in_region")),
    ]


class Tracer:
    """Records spans while ``active``; ``install``/``uninstall`` patch the library."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.item = -1
        self.active = False
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, fn, classify):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = classify(args, kwargs)
            if label is None:
                return fn(*args, **kwargs)
            name, extra = label
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, parent, tracer.item, name, t0, t1, extra)
                tracer.counts.update(extra)

        return wrapper

    def install(self) -> None:
        wrapped = {}  # one wrapper per original, shared by all its names
        for owner, attr, classify in _targets():
            fn = owner.__dict__[attr]
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(fn, classify)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def totals(self):
        """Per span name: calls, busy seconds and self seconds (minus direct children)."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        child: Counter = Counter()
        for sid, parent, _item, name, t0, t1, _extra in self.spans:
            calls[name] += 1
            busy[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: Counter = Counter()
        for sid, _parent, _item, name, t0, t1, _extra in self.spans:
            self_s[name] += (t1 - t0) - child[sid]
        return calls, busy, self_s

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: id, parent, item, name, start and duration
        in us, then the span's work counts (points, multiply-adds) where it has any."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][4] if self.spans else 0.0
        with path.open("w") as fh:
            for sid, parent, item, name, t0, t1, extra in self.spans:
                row = [sid, parent, item, name, round((t0 - origin) * 1e6, 3),
                       round((t1 - t0) * 1e6, 3)]
                fh.write(json.dumps(row + [extra] if extra else row) + "\n")
