"""In-memory span tracer that times openmaps from the outside.

`Tracer.installed()` replaces every public function of every loaded
``openmaps`` module with a timing wrapper, in every module namespace
that binds it: ``cli_io`` and ``phase_space`` import names directly
(``from .spectral_counting import eigenvalues``), so wrapping only the
defining module would miss their calls.  One function gets one wrapper,
named ``<defining module>.<function>`` whichever alias it is called by.
The originals are put back when the context exits.  Nothing under
``src/`` changes.

A span records name, start, end, the index of the span open when it
started (its parent, -1 at top level) and an optional key computed from
the call's arguments.  Keys feed distinct-input ratios and per-depth or
per-command splits; computing one can be costly (hashing a matrix), so
it runs inside its own ``perfbench.key`` span and never inflates the
self time of the call it describes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

KEY_SPAN = "perfbench.key"
PACKAGE = "openmaps"


class Span:
    __slots__ = ("name", "start", "end", "parent", "key")

    def __init__(self, name, start, parent, key=None):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.key = key

    def as_list(self):
        key = self.key if self.key is None or isinstance(
            self.key, (int, float, str)) else repr(self.key)
        return [self.name, self.start, self.end, self.parent, key]


class Tracer:
    """Collects spans around calls into openmaps' public functions.

    ``keys`` maps a span name to a function taking the traced call's
    arguments and returning a hashable key for that call.
    """

    def __init__(self, keys):
        self.keys = keys
        self.spans = []
        self._stack = []

    def _open(self, name, key=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, key))
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()].end = time.perf_counter()

    def _wrap(self, fn, name):
        key_fn = self.keys.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = None
            if key_fn is not None:
                self._open(KEY_SPAN)
                try:
                    key = key_fn(*args, **kwargs)
                finally:
                    self._close()
            self._open(name, key)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return traced

    @contextmanager
    def installed(self):
        """Wrap openmaps' public functions for the duration of the block."""
        prefix = PACKAGE + "."
        wrappers = {}
        patched = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(prefix)]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith(prefix)):
                    continue
                if value not in wrappers:
                    layer = value.__module__.rpartition(".")[2]
                    wrappers[value] = self._wrap(value, f"{layer}.{value.__name__}")
                setattr(module, attr, wrappers[value])
                patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    def self_times(self):
        """Per-span duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def top_level_s(self):
        """Total duration of the spans that have no parent."""
        return sum(s.end - s.start for s in self.spans if s.parent < 0)
