"""Per-layer spans, timed from outside the program.

:func:`installed` wraps the public entry points of each layer — the
class attributes listed in :data:`SPANNED` and :data:`COUNTED` — for
the duration of a ``with`` block, in this process only, and restores
the originals on exit.  Nothing under ``src/`` is edited.

Each spanned call records ``(name, start, end, parent)`` in memory,
timed with the calling thread's CPU clock.  A layer's self time is its
spans' durations minus the part covered by their child spans, so the
layers' self times plus the unattributed rest (``other``) add up to the
thread CPU time of the traced window.  :meth:`Recorder.write` dumps the
spans when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import time
from array import array
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

#: Marker set on every wrapper, so a test can prove none is left behind.
WRAPPED = "__perfbench_wrapped__"

#: (module, class, attribute, span name).  The span name's first dotted
#: part is the layer; ``ioa`` and ``wire`` keep two parts.
SPANNED: tuple[tuple[str, str, str, str], ...] = (
    ("repro.sim.engine", "Simulator", "run_until", "sim.run_until"),
    ("repro.net.channel", "Channel", "send", "net.send"),
    ("repro.membership.ring", "RingMember", "on_message", "ring.on_message"),
    ("repro.membership.ring", "RingMember", "gpsnd", "ring.gpsnd"),
    ("repro.core.vstoto.runtime", "VStoTORuntime", "broadcast", "vstoto.broadcast"),
    ("repro.membership.service", "TokenRingVS", "emit_gprcv", "vstoto.gprcv"),
    ("repro.membership.service", "TokenRingVS", "emit_safe", "vstoto.safe"),
    ("repro.membership.service", "TokenRingVS", "emit_newview", "vstoto.newview"),
    ("repro.rt.node", "LiveNodeService", "emit_gprcv", "vstoto.gprcv"),
    ("repro.rt.node", "LiveNodeService", "emit_safe", "vstoto.safe"),
    ("repro.rt.node", "LiveNodeService", "emit_newview", "vstoto.newview"),
    ("repro.core.vstoto.process", "VStoTOProcess", "step", "ioa.step"),
    ("repro.core.vstoto.process", "VStoTOProcess", "enabled_actions", "ioa.enumerate"),
    ("repro.rt.wire", "BinaryWire", "encode", "wire.encode"),
    ("repro.rt.wire", "BinaryWire", "decode", "wire.decode"),
    ("repro.rt.transport", "LiveNetwork", "send", "transport.send"),
    ("repro.rt.transport", "LiveNetwork", "broadcast", "transport.broadcast"),
    ("repro.rt.transport", "LiveNetwork", "multicast", "transport.multicast"),
    ("repro.rt.trace", "EventLog", "record", "log.record"),
)

#: (module, class, attribute, counter): calls counted, not timed.
COUNTED: tuple[tuple[str, str, str, str], ...] = (
    ("repro.core.vstoto.process", "VStoTOProcess", "is_enabled", "ioa.preconditions"),
    ("repro.core.quorums", "MajorityQuorumSystem", "is_quorum", "quorum.calls"),
)

#: Span timestamps: the calling thread's CPU clock, in nanoseconds.
_clock = time.thread_time_ns

#: Self-time buckets, in report order.
LAYERS: tuple[str, ...] = (
    "sim", "net", "ring", "vstoto", "ioa.step", "ioa.enumerate",
    "wire.encode", "wire.decode", "transport", "log",
)


def layer_of(span_name: str) -> str:
    head, _, rest = span_name.partition(".")
    if head in ("ioa", "wire"):
        return f"{head}.{rest}"
    return head


class Recorder:
    """In-memory span store with online self-time accounting."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._layer_of_name: list[int] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._open: list[int] = []
        self._child_ns: list[int] = []
        self.self_ns = [0] * len(LAYERS)
        self.counts: dict[str, int] = {}
        #: trail length of every Token arriving at a ring member
        self.trails = array("q")

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._layer_of_name.append(LAYERS.index(layer_of(name)))
        return nid

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def open(self, nid: int) -> None:
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0)
        self._open.append(index)
        self._child_ns.append(0)
        self.start.append(_clock())

    def close(self) -> None:
        now = _clock()
        index = self._open.pop()
        child = self._child_ns.pop()
        duration = now - self.start[index]
        self.end[index] = now
        self.self_ns[self._layer_of_name[self.name[index]]] += duration - child
        if self._child_ns:
            self._child_ns[-1] += duration

    @property
    def spans(self) -> int:
        return len(self.start)

    def self_seconds(self) -> dict[str, float]:
        return {layer: ns / 1e9 for layer, ns in zip(LAYERS, self.self_ns)}

    def write(self, path: Path) -> None:
        """Write every span as gzipped TSV: name, start, end, parent
        (parent is the row index of the enclosing span, -1 at top)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as out:
            out.write("name\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(
                    f"{names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                    f"{self.parent[i]}\n"
                )


def _span(rec: Recorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    nid = rec.name_id(name)
    counts = rec.counts
    counts.setdefault(name, 0)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        counts[name] += 1
        rec.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close()

    return wrapper


def _span_each_next(
    rec: Recorder, name: str, fn: Callable[..., Iterator[Any]]
) -> Callable[..., Iterator[Any]]:
    """For a generator function: one span per item produced, since the
    enumeration's work happens in ``next``, not in the call."""
    nid = rec.name_id(name)
    counts = rec.counts
    counts.setdefault(name, 0)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
        counts[name] += 1
        inner = fn(*args, **kwargs)
        while True:
            rec.open(nid)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                rec.close()
            yield item

    return wrapper


def _counted(rec: Recorder, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    counts = rec.counts
    counts.setdefault(key, 0)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _probe(rec: Recorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Counts read at the boundary, before the call."""
    from repro.core.vstoto.process import is_summary
    from repro.membership.messages import Sequenced, Token

    counts = rec.counts
    if name == "ring.on_message":

        def probe(member: Any, src: Any, message: Any, *rest: Any) -> Any:
            body = message.body if isinstance(message, Sequenced) else message
            if isinstance(body, Token):
                rec.trails.append(len(body.trail))
            return fn(member, src, message, *rest)

    elif name == "ring.gpsnd":
        counts.setdefault("vstoto.summaries", 0)

        def probe(member: Any, payload: Any, *rest: Any) -> Any:
            if is_summary(payload):
                counts["vstoto.summaries"] += 1
            return fn(member, payload, *rest)

    else:
        return fn
    return functools.wraps(fn)(probe)


def _resolve(module: str, cls: str) -> type:
    return getattr(importlib.import_module(module), cls)


def targets() -> list[tuple[type, str]]:
    """Every (class, attribute) the tracer may replace."""
    return [(_resolve(m, c), a) for m, c, a, _ in SPANNED + COUNTED]


def is_wrapped(owner: type, attr: str) -> bool:
    return bool(getattr(owner.__dict__.get(attr), WRAPPED, False))


@contextlib.contextmanager
def installed(rec: Recorder) -> Iterator[Recorder]:
    """Install every wrapper for the ``with`` block, then restore."""
    saved: list[tuple[type, str, Any]] = []
    try:
        for module, cls, attr, name in SPANNED:
            owner = _resolve(module, cls)
            original = owner.__dict__.get(attr)
            fn = getattr(owner, attr)
            if name == "ioa.enumerate":
                wrapper = _span_each_next(rec, name, fn)
            else:
                wrapper = _span(rec, name, _probe(rec, name, fn))
            setattr(wrapper, WRAPPED, True)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        for module, cls, attr, key in COUNTED:
            owner = _resolve(module, cls)
            original = owner.__dict__.get(attr)
            wrapper = _counted(rec, key, getattr(owner, attr))
            setattr(wrapper, WRAPPED, True)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
