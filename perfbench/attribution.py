"""The traced pass: host self time by layer, and serving spans.

Two recorders, both attached from outside the program:

* :class:`LayerProfile` — ``cProfile`` records a span for every call
  (C-level, so cheaper than Python wrappers); a function's
  ``inlinetime`` is its span minus its children's, i.e. its self
  time.  Self times are summed per layer, the layer being the
  ``repro`` package that defines the function.  Threads started while
  the profile is installed get a profiler of their own.
* :class:`SpanRecorder` — Python wrappers around named public
  functions of the serving path, keeping (name, thread, start, end,
  parent, self) records in memory.

Both write their records once, when the run ends.
"""

import cProfile
import itertools
import json
import os
import re
import threading
import time

from common import BENCH_DIR, SELF_BUCKETS, SRC

#: ``repro`` packages reported by name; any other one is "other".
LAYERS = SELF_BUCKETS[:-3]

_REPRO = os.path.join(SRC, "repro") + os.sep
#: Builtins that block: lock and queue waits, selector polls, sleeps.
_BLOCKING = re.compile(
    r"\b(acquire|wait|poll|select|sleep|control)\b|SimpleQueue")


def layer_of(code) -> str:
    """The bucket of one profiled function (code object or the string
    cProfile uses for a builtin)."""
    if isinstance(code, str):
        return "idle" if _BLOCKING.search(code) else "native"
    filename = os.path.abspath(code.co_filename)
    if filename.startswith(_REPRO):
        parts = filename[len(_REPRO):].split(os.sep)
        package = parts[0][:-3] if parts[0].endswith(".py") else parts[0]
        if package == "service" and len(parts) > 2 and parts[1] == "net":
            return "net"
        return package if package in LAYERS else "other"
    if filename.startswith(BENCH_DIR + os.sep):
        return "other"
    return "native"


class LayerProfile:
    """Self time per layer over the current thread and any thread
    started while installed."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries = []        # (layer, name, self_s, calls)
        self.thread_seconds = 0.0  # profiled thread lifetimes, summed
        self._main = None
        self._main_t0 = None
        self._saved_run = None

    def _absorb(self, profiler, seconds):
        rows = [(layer_of(e.code), getattr(e.code, "co_name", e.code),
                 e.inlinetime, e.callcount)
                for e in profiler.getstats()]
        with self._lock:
            self._entries.extend(rows)
            self.thread_seconds += seconds

    def start(self, threads=False):
        if threads:
            recorder = self
            original = threading.Thread.run
            self._saved_run = original

            def run(thread):
                profiler = cProfile.Profile()
                t0 = time.perf_counter()
                profiler.enable()
                try:
                    original(thread)
                finally:
                    profiler.disable()
                    recorder._absorb(profiler, time.perf_counter() - t0)

            threading.Thread.run = run
        self._main = cProfile.Profile()
        self._main_t0 = time.perf_counter()
        self._main.enable()

    def stop(self):
        self._main.disable()
        self._absorb(self._main, time.perf_counter() - self._main_t0)
        if self._saved_run is not None:
            threading.Thread.run = self._saved_run
            self._saved_run = None

    def self_seconds(self) -> dict:
        totals = dict.fromkeys(SELF_BUCKETS, 0.0)
        with self._lock:
            for layer, _name, seconds, _calls in self._entries:
                totals[layer] += seconds
        return totals

    def write(self, path):
        with self._lock:
            rows = sorted(self._entries, key=lambda r: -r[2])
        with open(path, "w") as handle:
            for layer, name, seconds, calls in rows:
                handle.write(json.dumps({"layer": layer,
                                         "name": str(name),
                                         "self_s": seconds,
                                         "calls": calls}) + "\n")


class SpanRecorder:
    """In-memory spans around wrapped functions, with self time.

    Calls from the main thread (the load generator) are not recorded,
    so only the server's side of each request is attributed.
    """

    def __init__(self):
        #: (span id, name, thread, start, end, parent id, self_s)
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        self._main = threading.main_thread()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr, name, rename=None):
        """Replace ``owner.attr`` by a recording wrapper.  ``rename``
        maps the call's result to a more specific span name."""
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            if threading.current_thread() is recorder._main:
                return original(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1][1] if stack else None
            frame = [0.0, next(recorder._ids)]  # children's time, id
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
            label = rename(result) if rename is not None else name
            recorder.spans.append((
                frame[1], label, threading.get_ident(), start, end,
                parent, end - start - frame[0],
            ))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def mean_self(self) -> dict:
        """Mean self seconds per call, by span name."""
        totals, calls = {}, {}
        for _id, name, _tid, _s, _e, _p, self_s in self.spans:
            totals[name] = totals.get(name, 0.0) + self_s
            calls[name] = calls.get(name, 0) + 1
        return {name: totals[name] / calls[name] for name in totals}

    def write(self, path):
        with open(path, "w") as handle:
            for span, name, tid, start, end, parent, self_s in self.spans:
                handle.write(json.dumps({
                    "id": span, "name": name, "thread": tid, "start": start,
                    "end": end, "parent": parent, "self_s": self_s,
                }) + "\n")
