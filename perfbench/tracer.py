"""Outside-in span tracer for the benchmark.

Spans are recorded around calls into the program's public functions,
from the benchmark's own files: ``install`` swaps each named function
for a timing wrapper in every ``gpdlab`` namespace that binds it, and
``uninstall`` puts the originals back.  Spans stay in memory until the
run ends; ``write_jsonl`` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    job: Optional[str]
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans from one thread, tagged with the current job."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.enabled = True
        self.job: Optional[str] = None
        self._stack: list[int] = []
        self._patched: list = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.job))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Suspend recording, e.g. while the benchmark checks an output."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, name: str, fn: Callable, pre=None, post=None) -> Callable:
        """Timing wrapper; ``pre(args, kwargs)`` and ``post(args, kwargs, result, before)``
        return counters recorded on the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            before = pre(args, kwargs) if pre is not None else None
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if post is not None:
                self.spans[idx].counts.update(post(args, kwargs, result, before))
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap each target in every namespace of the package that binds it.

        ``targets`` holds ``(span_name, owner, attribute, pre, post)``; the
        owner is a module or a class.  Module-level functions are rebound
        in every loaded ``gpdlab`` module whose global refers to the same
        object, so calls from inside the package are traced too.
        """
        namespaces = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "gpdlab" or n.startswith("gpdlab."))
        ]
        for span_name, owner, attr, pre, post in targets:
            original = getattr(owner, attr)
            wrapped = self.wrap(span_name, original, pre, post)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapped)
                continue
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(i, ())]
        out.append(s.duration - covered((a, b) for a, b in kids if b > a))
    return out


def ancestors(spans: list[Span], i: int):
    p = spans[i].parent
    while p >= 0:
        yield p
        p = spans[p].parent
