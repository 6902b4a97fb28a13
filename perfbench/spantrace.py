"""Outside-in span tracer for the levyflow benchmark.

The tracer wraps functions of an already imported program from outside:
it replaces every binding of a target function (module globals that import
it by name, class attributes for methods and classmethods) with a wrapper
that records one span per call, and puts every original back on
``restore``.  Spans are kept in flat in-memory columns (name id, start,
end, parent span, path id) and written out once at the end.

A span's self time is its duration minus the part of it that its child
spans cover.  Because every span of a single-threaded run lies inside its
parent, the self times of all spans add up to the duration of the root
spans.

Only the standard library is used, so the arithmetic can be tested without
the program under test.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array


def self_times(start, end, parent) -> list[float]:
    """Self time of every span: its duration minus what its children cover.

    Spans are listed in the order they opened, so the children of one parent
    appear in order of start time.  Overlapping children are counted once,
    and a child is clipped to its parent's interval.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [float("-inf")] * n      # latest child end seen per parent
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if end[i] > reach[p]:
            reach[p] = end[i]
    return [end[i] - start[i] - covered[i] for i in range(n)]


class Tracer:
    """Records nested spans around wrapped callables and counts calls.

    ``path_roots`` names the spans that start a path: every span opened
    under the outermost such span shares its path id, and spans outside any
    path get path id -1.
    """

    def __init__(self, clock=time.perf_counter, path_roots=()):
        self._clock = clock
        self._path_roots = frozenset(path_roots)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.path = array("i")
        self.start = array("d")
        self.end = array("d")
        self.n_paths = 0
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, is_root: bool) -> int:
        idx = len(self.name)
        parent = self._stack[-1] if self._stack else -1
        path = self.path[parent] if parent >= 0 else -1
        if is_root and path < 0:
            path = self.n_paths
            self.n_paths += 1
        self.name.append(nid)
        self.parent.append(parent)
        self.path.append(path)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self._clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self._clock()
        self._stack.pop()

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._name_id(name)
        is_root = name in self._path_roots

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid, is_root)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, targets, namespaces) -> None:
        """Wrap each target and rebind it wherever ``namespaces`` bind it.

        A target is ``"package.module:Attr.path"``; its span name is the
        module's last component followed by the attribute path, as in
        ``cutoffs.Cutoff.factor``.  A target that no longer exists is
        listed in ``absent`` and skipped.
        """
        for target in targets:
            mod_name, attr_path = target.split(":")
            name = mod_name.rsplit(".", 1)[-1] + "." + attr_path
            try:
                owner = importlib.import_module(mod_name)
                *outer, last = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[last]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(owner, last, type(raw)(self.wrap(raw.__func__, name)))
                continue
            traced = self.wrap(raw, name)
            if isinstance(owner, type):
                self._set(owner, last, traced)
                continue
            for ns in [owner, *namespaces]:
                for key, value in list(vars(ns).items()):
                    if value is raw:
                        self._set(ns, key, traced)

    def count(self, owner, attrs, key: str, size) -> None:
        """Count calls of ``owner.<attr>`` and the ``size`` of their first argument.

        Adds to the counters ``<key>.calls`` and ``<key>.points``.
        """
        calls, points = key + ".calls", key + ".points"
        self.counters.setdefault(calls, 0)
        self.counters.setdefault(points, 0)
        for attr in attrs:
            fn = getattr(owner, attr, None)
            if fn is None:
                continue

            def counted(a, *args, _fn=fn, **kwargs):
                self.counters[calls] += 1
                self.counters[points] += size(a)
                return _fn(a, *args, **kwargs)

            self._set(owner, attr, functools.wraps(fn)(counted))

    def restore(self) -> None:
        """Put back every binding that ``install`` or ``count`` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Calls and summed self time per span name, plus the root total."""
        own = self_times(self.start, self.end, self.parent)
        calls = {n: 0 for n in self.names}
        selfs = {n: 0.0 for n in self.names}
        for i, nid in enumerate(self.name):
            n = self.names[nid]
            calls[n] += 1
            selfs[n] += own[i]
        root_s = sum(self.end[i] - self.start[i]
                     for i in range(len(self.name)) if self.parent[i] < 0)
        return {"calls": calls, "self_s": selfs, "root_s": root_s,
                "self_sum_s": sum(own), "n_spans": len(self.name),
                "n_paths": self.n_paths, "counters": dict(self.counters),
                "absent": list(self.absent)}

    def dump(self, path: str) -> None:
        """Write every span as columns: name id, start, end, parent, path."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": list(self.name),
                       "start": list(self.start), "end": list(self.end),
                       "parent": list(self.parent), "path": list(self.path)}, fh)
