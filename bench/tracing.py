"""Span tracing from outside the package.

A traced round replaces module attributes that flowrl's own code looks up
(for example ``flowrl.harness.select_rules``, which ``EpisodeEnv.run``
calls) with wrappers that record one span per call: a name, start and end
times, and the index of the span that was open when the call began. All
spans of one run share the tracer's run identifier. Spans stay in compact
arrays until the run ends; ``save`` writes them out then.

A span's self time is its duration minus the durations of its direct
children. Calls are strictly nested in one thread, so children never
overlap and that difference is exactly the uncovered part of the span.
"""

import time
import uuid
from array import array

import numpy as np

perf_counter = time.perf_counter


class Tracer:
    def __init__(self, run_id=None):
        self.run_id = run_id or uuid.uuid4().hex
        self.names = []
        self._name_index = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patched = []

    def _name_id(self, name):
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_id):
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name` (for the benchmark's own calls)."""
        idx = self._open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, owner, attr, name):
        """Replace owner.attr by a wrapper that records a span per call.

        Functions stored on a class stay methods, because the wrapper is a
        plain function and binds like the original.
        """
        original = owner.__dict__[attr]
        name_id = self._name_id(name)
        open_span = self._open
        close_span = self._close

        def traced(*args, **kwargs):
            idx = open_span(name_id)
            try:
                return original(*args, **kwargs)
            finally:
                close_span(idx)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self):
        """Put back every original attribute, last patched first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """Spans as numpy arrays: name ids, parents, starts, ends, self times."""
        name = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        start = np.array(self.span_start, dtype=np.float64)
        end = np.array(self.span_end, dtype=np.float64)
        duration = end - start
        child = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return name, parent, start, end, duration - child

    def summary(self):
        """Per span name: call count, total duration, total self time, and
        the list of durations."""
        name, _, start, end, self_time = self.arrays()
        duration = end - start
        out = {}
        for idx, label in enumerate(self.names):
            mask = name == idx
            out[label] = {
                "calls": int(mask.sum()),
                "total_s": float(duration[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "durations": duration[mask],
            }
        return out

    def _parent_names(self, child_name):
        """Name ids of the direct parents of every span named child_name."""
        name, parent, _, _, _ = self.arrays()
        cid = self._name_index.get(child_name)
        if cid is None:
            return name[:0], parent[:0]
        parents = parent[(name == cid) & (parent >= 0)]
        return name[parents], parents

    def child_count(self, parent_name, child_name):
        """How many spans named child_name have a direct parent named
        parent_name."""
        parent_names, _ = self._parent_names(child_name)
        return int(np.count_nonzero(parent_names == self._name_index.get(parent_name, -1)))

    def children_named(self, parent_name, child_name):
        """How many spans named parent_name have at least one direct child
        named child_name."""
        parent_names, parents = self._parent_names(child_name)
        matching = parents[parent_names == self._name_index.get(parent_name, -1)]
        return int(len(np.unique(matching)))

    def save(self, path):
        """Write every span to an .npz file: run id, name table, and the
        name/parent/start/end arrays (times relative to the first span)."""
        name, parent, start, end, _ = self.arrays()
        origin = start[0] if len(start) else 0.0
        np.savez_compressed(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            name=name,
            parent=parent,
            start=start - origin,
            end=end - origin,
        )
        return path
