"""Module -> layer map and a per-thread profiler for the traced run.

A layer is a package under ``src/repro`` (``sim``, ``reactors``,
``someip`` ...); the package's own top-level modules (``cli``,
``errors``) form the ``repro`` layer.  Builtins and the standard
library map to ``stdlib``; code that ``dataclasses`` generated goes to
the layer of its class; everything else (site-packages, the
benchmark's own files) maps to ``other``.

:class:`ThreadProfiler` runs one ``cProfile.Profile`` per OS thread:
the calling thread's directly, and every thread started while it is
active — the ``LocalService`` worker, heartbeat and HTTP threads —
through ``threading.setprofile``.  The timer is per-thread CPU time,
so self times of concurrent threads add up to process CPU time rather
than double-counting wall time spent waiting for the interpreter lock.
"""

from __future__ import annotations

import cProfile
import os
import sys
import sysconfig
import threading
import time
from collections import Counter
from pathlib import Path

#: Every layer a self time can land in.  Each package under
#: ``src/repro`` must appear here (``test_layers.py`` checks it), so a
#: new package is named before the benchmark can attribute its time.
LAYERS = (
    "analysis",
    "apps",
    "ara",
    "dear",
    "explore",
    "faults",
    "harness",
    "let",
    "network",
    "obs",
    "reactors",
    "repro",
    "service",
    "sim",
    "snapshot",
    "someip",
    "time",
    "stdlib",
    "other",
)

_STDLIB = tuple(
    str(Path(sysconfig.get_paths()[name]).resolve()) + os.sep
    for name in ("stdlib", "platstdlib")
)
_SITE = tuple(
    str(Path(sysconfig.get_paths()[name]).resolve()) + os.sep
    for name in ("purelib", "platlib")
)


class LayerMap:
    """Maps code to its layer (memoized per file name)."""

    def __init__(self, repro_root: str | Path):
        self.root = str(Path(repro_root).resolve()) + os.sep
        self._cache: dict[str, str] = {}
        self._generated: dict | None = None

    def layer_of(self, filename: str) -> str:
        layer = self._cache.get(filename)
        if layer is None:
            layer = self._classify(filename)
            self._cache[filename] = layer
        return layer

    def layer_of_code(self, code) -> str:
        """Like :meth:`layer_of`, but code that ``dataclasses`` or
        ``namedtuple`` generated (file name ``<string>``) goes to the
        layer of the module defining its class."""
        filename = code.co_filename
        if filename.startswith("<") and not filename.startswith("<frozen"):
            if self._generated is None:
                self._generated = self._scan_generated()
            return self._generated.get(code, "other")
        return self.layer_of(filename)

    def _classify(self, filename: str) -> str:
        if filename.startswith("<frozen"):
            return "stdlib"
        if filename.startswith("<"):
            return "other"
        path = str(Path(filename).resolve())
        if path.startswith(self.root):
            parts = path[len(self.root):].split(os.sep)
            return parts[0] if len(parts) > 1 else "repro"
        if path.startswith(_STDLIB) and not path.startswith(_SITE):
            return "stdlib"
        return "other"

    def _scan_generated(self) -> dict:
        found = {}
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            layer = self.layer_of(getattr(module, "__file__", None) or "<none>")
            for cls in list(vars(module).values()):
                if not isinstance(cls, type) or cls.__module__ != name:
                    continue
                for attr in vars(cls).values():
                    code = getattr(getattr(attr, "__func__", attr), "__code__", None)
                    if code is not None and code.co_filename.startswith("<"):
                        found[code] = layer
        return found


class ThreadProfiler:
    """cProfile in the calling thread and every thread it starts."""

    def __init__(self) -> None:
        self._profiles: list[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._main: cProfile.Profile | None = None

    def _new_profile(self) -> cProfile.Profile:
        profile = cProfile.Profile(time.thread_time_ns, 1e-9)
        with self._lock:
            self._profiles.append(profile)
        return profile

    def _boot(self, frame, event, arg) -> None:
        # First profile event in a new thread: swap this Python-level
        # hook for the thread's own C-level profiler.
        self._new_profile().enable()

    def __enter__(self) -> "ThreadProfiler":
        threading.setprofile(self._boot)
        self._main = self._new_profile()
        self._main.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        self._main.disable()
        threading.setprofile(None)

    def summary(self, layers: LayerMap) -> "ProfileSummary":
        """Self seconds and calls per function, across every thread."""
        functions: dict[tuple[str, str], list] = {}
        with self._lock:
            profiles = list(self._profiles)
        for profile in profiles:
            for entry in profile.getstats():
                code = entry.code
                if isinstance(code, str):  # builtin / C function
                    key = ("stdlib", code)
                else:
                    key = (
                        layers.layer_of_code(code),
                        f"{Path(code.co_filename).name}:{code.co_name}",
                    )
                row = functions.setdefault(key, [0.0, 0])
                row[0] += entry.inlinetime
                row[1] += entry.callcount
        return ProfileSummary(functions, len(profiles))


class ProfileSummary:
    """Aggregated result of one :class:`ThreadProfiler` window."""

    def __init__(self, functions: dict, threads: int):
        #: (layer, "file.py:function") -> [self seconds, calls]
        self.functions = functions
        self.threads = threads
        self.self_s: Counter = Counter()
        for (layer, _), (self_s, _) in functions.items():
            self.self_s[layer] += self_s

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def count(self, layer: str, prefix: str) -> int:
        """Calls of the *layer* functions whose key starts with *prefix*."""
        return sum(
            calls
            for (in_layer, key), (_, calls) in self.functions.items()
            if in_layer == layer and key.startswith(prefix)
        )

    def top(self, n: int) -> list[dict]:
        """The *n* functions with the most self time."""
        rows = sorted(self.functions.items(), key=lambda item: -item[1][0])[:n]
        return [
            {"layer": layer, "function": key, "self_s": self_s, "calls": calls}
            for (layer, key), (self_s, calls) in rows
        ]
