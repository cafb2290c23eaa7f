"""Spans around the calls into each ``qge`` module's public functions.

The package binds names with ``from .x import f``, so one function object
sits in several module namespaces (``qge.cli.build_assembly`` is
``qge.evolution.build_assembly``).  ``install`` therefore wraps each public
function once and rebinds every attribute of every loaded ``qge.*`` module
that holds that same object.  Class methods of public classes (such as
``RunManifest.build``) are wrapped on their class.  Private modules and
private names stay unwrapped, so their time counts as the caller's self time.

A span is (id, parent id, name, start, end), with times from
``time.perf_counter``; spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from pathlib import Path

PACKAGE = "qge"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._local = threading.local()
        self._ids = itertools.count()

    def _wrap(self, name: str, fn):
        spans = self.spans
        local = self._local
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        return traced

    def install(self) -> int:
        """Wrap every public ``qge`` function; returns how many were wrapped."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers: dict[int, object] = {}
        for module in modules:
            short = module.__name__.partition(".")[2]
            if not short or short.startswith("_"):
                continue
            for attr, value in vars(module).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrappers[id(value)] = self._wrap(f"{short}.{attr}", value)
                elif inspect.isclass(value):
                    for name, raw in list(vars(value).items()):
                        if isinstance(raw, classmethod) and not name.startswith("_"):
                            traced = self._wrap(f"{short}.{attr}.{name}", raw.__func__)
                            setattr(value, name, classmethod(traced))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
        return len(wrappers)

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for sid, parent, name, start, end in self.spans:
                handle.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                ) + "\n")


def read_spans(path: Path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def span_stats(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, summed self time, and each call's duration.

    Self time is a span's duration minus the durations of its direct
    children, which lie inside it on the same thread.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    stats: dict[str, dict] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        entry = stats.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += dur - child_time.get(s["id"], 0.0)
        entry["durations"].append(dur)
    return stats
