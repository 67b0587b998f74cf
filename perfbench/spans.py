"""Span recording for the benchmark's traced runs (``--trace 1``).

Spans are recorded from the benchmark's side of each layer boundary: the
benchmark times its own scenario build and operation, and wraps the public
entry points of the program's layers for the duration of a traced run:

* ``study``      -- :meth:`repro.api.Study.run` (facade dispatch and engine);
* ``certify``    -- :meth:`repro.core.valency.ValencyEstimator.certify_ensemble`;
* ``transition`` -- ``batch_transition`` of the algorithms the workloads run.

Nothing is patched in an untraced run, so the end-to-end figures carry no
tracing cost.  Spans nest on one thread; a layer's self time is its span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple


class Tracer:
    """In-memory span stack of a traced run.

    Spans are recorded only inside :meth:`recording` blocks, and only when
    the run is ``traced``.
    """

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.enabled = False
        # (name, duration, time covered by direct children)
        self._closed: List[Tuple[str, float, float]] = []
        self._open: List[List] = []

    @contextmanager
    def recording(self):
        self.enabled = self.traced
        try:
            yield
        finally:
            self.enabled = False

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        frame = [name, time.perf_counter(), 0.0]
        self._open.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[1]
            self._open.pop()
            if self._open:
                self._open[-1][2] += duration
            self._closed.append((name, duration, frame[2]))

    def take(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Self seconds and span counts per layer since the last call."""
        self_times: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for name, duration, children in self._closed:
            self_times[name] = self_times.get(name, 0.0) + duration - children
            counts[name] = counts.get(name, 0) + 1
        self._closed.clear()
        return self_times, counts

    def wrap(self, function, name: str):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced


@contextmanager
def patched_layers(tracer: Tracer, targets):
    """Wrap ``(owner, attribute, span name)`` targets; restore them on exit."""
    saved = []
    try:
        for owner, attribute, name in targets:
            saved.append((owner, attribute, owner.__dict__.get(attribute)))
            setattr(owner, attribute, tracer.wrap(getattr(owner, attribute), name))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
