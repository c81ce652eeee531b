"""Span recorder for the traced run.

Spans are recorded from the benchmark's side: `install` replaces a module
attribute with a wrapper that opens a span around each call, so only calls
that go through that name (for example `report.ac_lcu`, the name
`decompose_method` uses) are seen. `uninstall` restores the originals, so
the untraced runs execute the program with nothing in between.
"""
import resource
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    children_s: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s


@dataclass
class Recorder:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, func, on_result=None):
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if on_result else 0
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent >= 0:
                    self.spans[span.parent].children_s += span.end - span.start
            if on_result is not None:
                grown_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss
                on_result(self, result, args, grown_kb)
            return result

        return traced

    def install(self, points) -> None:
        """points: (module, attribute, span name, on_result or None)."""
        for module, attr, name, on_result in points:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, on_result))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict:
        """Summed self time per span name and per layer ('<layer>.self_s')."""
        out = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.self_s
            key = f"{span.layer}.self_s"
            out[key] = out.get(key, 0.0) + span.self_s
        return out

    def top_level_s(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(s.end - s.start for s in self.spans if s.parent < 0)
