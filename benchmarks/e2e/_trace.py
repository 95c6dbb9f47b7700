"""Spans recorded from the benchmark's own files.

The program has no telemetry of its own yet (a later issue), so a
traced round wraps the public calls into each layer from outside: the
harness opens a span around every call it makes (``repro.run``,
``repro.resume``, ``compile_program``, client ``submit``/``wait``), and
:func:`install` patches the public functions those calls reach
(``parse_program`` ... ``Machine.run``) so the nested layers show up as
child spans.  A span is ``(name, start, end, parent, op)``; spans stay
in memory until :meth:`Tracer.dump`.  Span names are
``<layer>.<function>``, the layer being the ``repro`` module name.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path
from typing import Any, Iterator, Optional

_NULL = contextlib.nullcontext()


class Tracer:
    """Span recorder; a disabled tracer costs one attribute test per
    span site."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        #: [name, start, end, parent index or None, op id]
        self.spans: list[list[Any]] = []
        self.op: Optional[int] = None
        self._stack: list[int] = []

    def span(self, name: str):
        return self._record(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _record(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(rec)
        self._stack.append(index)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    # -- aggregation ----------------------------------------------------
    def totals_ms(self, op: Optional[int] = None) -> dict[str, float]:
        """Summed duration per span name (of one op when given)."""
        out: dict[str, float] = {}
        for name, start, end, _parent, span_op in self.spans:
            if op is None or span_op == op:
                out[name] = out.get(name, 0.0) + (end - start) * 1000.0
        return out

    def self_ms(self) -> dict[str, float]:
        """Summed self time per span name: a span's duration minus the
        part of it its child spans cover."""
        own = [(end - start) * 1000.0 for _n, start, end, _p, _o in self.spans]
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                own[parent] -= (end - start) * 1000.0
        out: dict[str, float] = {}
        for (name, *_rest), ms in zip(self.spans, own):
            out[name] = out.get(name, 0.0) + ms
        return out

    def dump(self, path: Path, **header: Any) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header)
        doc["self_ms"] = self.self_ms()
        doc["spans"] = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
        path.write_text(json.dumps(doc), encoding="utf-8")


def _wrap(tracer: Tracer, owner: Any, attr: str, name: str) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            return fn(*args, **kwargs)

    setattr(owner, attr, traced)


def install(tracer: Tracer) -> None:
    """Route the public layer entry points the harness does not call
    itself through ``tracer`` (for the life of this process)."""
    from repro.compiler import pipeline
    from repro.machine.machine import Machine

    # compile_program resolves these through its module globals
    _wrap(tracer, pipeline, "parse_program", "val.parse_program")
    _wrap(tracer, pipeline, "check_program", "val.check_program")
    _wrap(tracer, pipeline, "link_program", "compiler.link_program")
    _wrap(tracer, pipeline, "balance_graph", "compiler.balance_graph")
    # every in-process backend builds a Machine (or a subclass) and
    # runs it; shard workers live in other processes and stay untraced
    _wrap(tracer, Machine, "__init__", "machine.Machine")
    _wrap(tracer, Machine, "run", "machine.run")
