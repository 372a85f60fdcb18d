"""In-memory spans and counters recorded around calls into specsum.

The tracer never edits the package: while it is installed it replaces the
module attributes that specsum's own functions call through (for example
`certify.sdp_solve`, which `certify.certify` looks up as a module global)
with wrappers, and restores the originals when it is removed.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Spans (id, name, label, start, end, parent) and named counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    def begin(self, name: str, label: str = "") -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, label, perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][4] = perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name, label=None, on_result=None,
             span: bool = True) -> None:
        """Replace module.attr by a recording wrapper.

        name: span name, or a callable of the call's arguments giving it.
        label: optional callable of the arguments giving the span label.
        on_result: optional callable(counts, result) run after each call.
        span=False counts calls as `<name>_calls` without recording spans,
        for functions called too often for a span each.
        """
        orig = getattr(module, attr)
        counts = self.counts

        if span:
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                nm = name(*args, **kwargs) if callable(name) else name
                sid = self.begin(nm, label(*args, **kwargs) if label else "")
                try:
                    result = orig(*args, **kwargs)
                finally:
                    self.end(sid)
                counts[nm + "_calls"] += 1
                if on_result is not None:
                    on_result(counts, result)
                return result
        else:
            key = name + "_calls"

            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return orig(*args, **kwargs)

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def unwrap_all(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans add up to the root spans.
        """
        child_s: dict[int, float] = defaultdict(float)
        for sid, _, _, t0, t1, parent in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        out: dict[str, dict] = {}
        for sid, nm, label, t0, t1, _ in self.spans:
            for key in ((nm, f"{nm}.{label}") if label else (nm,)):
                row = out.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                row["calls"] += 1
                row["total_s"] += t1 - t0
                row["self_s"] += t1 - t0 - child_s[sid]
        return out
