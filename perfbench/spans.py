"""Outside-in span recording around calls into the library's layers.

Nothing here touches the library's source: a :class:`SpanRecorder`
replaces a public function or method with a timing wrapper for the
duration of a traced pass and puts the original back afterwards.  Each
wrapped call becomes one span ``(id, name, start, end, parent, run)``;
the parent is whichever wrapped call was open when this one started, so
nested layers (engine -> staged -> filter -> kernel) form a tree per
ingest call.

A layer's *self time* is its spans' total duration minus the part its
child spans cover.  Self and total times are accumulated as the spans
close, so the summary costs nothing extra at the end; the spans
themselves stay in memory and are written out once by :meth:`dump`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_MISSING = object()


class SpanRecorder:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Per-name counts bumped by result hooks (e.g. put timeouts).
        self.events: dict[str, int] = defaultdict(int)
        self.run_id = 0
        self._next_id = 0
        # Open spans, innermost last: [id, seconds covered by children, parent].
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> list:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0, parent]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.spans.append((frame[0], name, start, end, frame[2], self.run_id))
        self.total_s[name] += duration
        self.self_s[name] += duration - frame[1]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped so every call records a span ``name``.

        ``on_result(recorder, result)`` runs after the call, for counts
        that depend on the returned value.
        """
        recorder = self

        def traced(*args, **kwargs):
            frame = recorder._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(name, frame, start, time.perf_counter())
            if on_result is not None:
                on_result(recorder, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        frame = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, start, time.perf_counter())

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Wrap ``owner.attr`` (a class or an instance) until :meth:`restore`.

        Plain functions and bound methods are wrapped as they are; a
        classmethod is unwrapped, wrapped and re-wrapped so the class is
        still passed in.
        """
        own = vars(owner).get(attr, _MISSING)
        if isinstance(own, classmethod):
            replacement = classmethod(self.wrap(name, own.__func__, on_result))
        else:
            replacement = self.wrap(name, getattr(owner, attr), on_result)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- output ------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write one JSON object per span (JSON Lines)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, run in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": run,
                        }
                    )
                    + "\n"
                )

    def summary(self) -> dict:
        """Per-name calls, total seconds and self seconds."""
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_s[name],
                "self_s": self.self_s[name],
            }
            for name in sorted(self.calls)
            if self.calls[name]
        }
