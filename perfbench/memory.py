"""Retained memory by layer, from a ``tracemalloc`` snapshot.

Allocations are attributed to the source file that made them and
grouped by the package that file belongs to.  ``tracemalloc`` slows the
program several times over, so it runs in a pass of its own.
"""

from __future__ import annotations

import tracemalloc

#: (path fragment, layer); the first match wins.
GROUPS: tuple[tuple[str, str], ...] = (
    ("repro/sim/", "sim"),
    ("repro/net/", "net"),
    ("repro/membership/", "ring"),
    ("repro/core/vstoto/", "vstoto"),
    ("repro/ioa/", "ioa"),
    ("repro/core/quorums", "ioa"),
    ("repro/rt/wire", "wire"),
    ("repro/rt/framing", "wire"),
    ("repro/rt/transport", "transport"),
    ("repro/rt/clock", "transport"),
    ("repro/rt/trace", "log"),
)

LAYERS: tuple[str, ...] = (
    "sim", "net", "ring", "vstoto", "ioa", "wire", "transport", "log",
)


class MemoryPass:
    """Start tracing allocations; :meth:`stop` returns retained KB by
    layer and stops tracing."""

    def start(self) -> None:
        tracemalloc.start()

    def stop(self) -> dict[str, float]:
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        out = {layer: 0.0 for layer in LAYERS}
        for stat in snapshot.statistics("filename"):
            path = stat.traceback[0].filename.replace("\\", "/")
            for fragment, layer in GROUPS:
                if fragment in path:
                    out[layer] += stat.size / 1024
                    break
        return out
