"""In-memory spans around the benchmark's calls into the library.

A span is one call into a layer, named "<layer>.<what>" where <layer> is
a pericatalan module (euclid, enumeration, asymptotics, freewords, cli)
or "bench" for the benchmark's own pass and op wrappers.  Spans keep
their parent and the id of the op they belong to; all spans of one op
share that id.  Nothing is written until the run ends.

NullTracer is the tracing-off stand-in: the same interface, no records.
"""

import contextlib
import time
from dataclasses import asdict, dataclass

_NULL = contextlib.nullcontext()


@dataclass
class Span:
    id: int
    name: str
    op: int | None
    parent: int | None
    start: float
    end: float = 0.0
    label: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    enabled = True

    def __init__(self, tag: str = ""):
        self.tag = tag
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_op = 0

    def new_op(self) -> int:
        self._next_op += 1
        return self._next_op

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None, label: str = ""):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = parent.op
        sp = Span(len(self.spans), name, op, parent.id if parent else None, time.perf_counter(), label=label)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [sp.duration for sp in self.spans if sp.name == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in its own spans, children excluded.

        Calls run one at a time on one thread, so the children of a span
        never overlap and their durations add up to the part of the
        parent's interval they cover.
        """
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.duration
        out: dict[str, float] = {}
        for sp in self.spans:
            out[sp.layer] = out.get(sp.layer, 0.0) + sp.duration - child_time[sp.id]
        return out

    def records(self) -> list[dict]:
        return [dict(asdict(sp), tag=self.tag) for sp in self.spans]


class NullTracer:
    enabled = False

    def new_op(self) -> None:
        return None

    def span(self, name: str, op: int | None = None, label: str = ""):
        return _NULL
