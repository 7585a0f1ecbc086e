"""Spans around calls into the program, installed only for a traced run.

Each wrapped call records one span: name, start, end and the index of the
span that was open when it started.  Spans stay in memory until ``write``.
A function a caller imported by name must be wrapped in the caller's
namespace, since that is where the call looks it up.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self._stack: list = []
        self._patches: list = []

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper until ``uninstall``.

        ``on_return(args, result)`` runs after the span has closed.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        # The span bookkeeping is written out here, not taken from span(),
        # because a simulation makes tens of thousands of wrapped calls and a
        # context manager per call would add to the tracing overhead.
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """name -> [calls, total seconds, self seconds]; self time is a
        span's duration minus the time its direct child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")
