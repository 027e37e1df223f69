"""The live runtime's value vocabulary: the wire-type registry and the
tagged-JSON value encoding.

The frame format and the binary codec live in :mod:`repro.rt.wire`.
This module holds what that codec shares with the rest of the runtime:

- the wire-type registry (:func:`register_wire_type`) — every protocol
  dataclass that may ride a frame, by name;
- :class:`FrameError` and the :data:`MAX_FRAME` ceiling;
- :func:`encode_value`/:func:`decode_value`, the JSON-able spelling of
  protocol values that the event logs (:mod:`repro.rt.trace`) store and
  whose ``repr`` gives the binary encoder its canonical set order.

JSON alone cannot round-trip the protocol's value shapes (tuples vs
lists, frozensets, view records, the bottom element), so composite
values are tagged:

- ``{"!": "t", "v": [...]}`` — tuple;
- ``{"!": "fs", "v": [...]}`` — frozenset (elements sorted by their
  encoded form, so encoding is deterministic);
- ``{"!": "d", "v": [[k, v], ...]}`` — dict (insertion order kept,
  keys may be any encodable value);
- ``{"!": "view", "id": ..., "set": [...]}`` — a
  :class:`~repro.core.types.View`;
- ``{"!": "bot"}`` — :data:`~repro.core.types.BOTTOM`;
- ``{"!": "m", "m": name, "f": {...}}`` — a registered protocol
  dataclass (membership messages, VStoTO labels and summaries,
  transport control records).

Scalars (``None``/bool/int/float/str) and plain lists pass through
unchanged.  Nesting works (a
:class:`~repro.membership.messages.Sequenced` wraps another message, a
token's order entries are tuples of payload and origin).
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.core.types import BOTTOM, Bottom, Label, View
from repro.core.vstoto.summary import Summary
from repro.membership.messages import (
    Accept,
    Join,
    NewGroup,
    Probe,
    Sequenced,
    Token,
)

#: Default ceiling on one frame's payload size.  A steady-state token
#: carries O(new entries); even a full-history resync for thousands of
#: small messages fits comfortably below 1 MiB.
MAX_FRAME = 1 << 20


class FrameError(ValueError):
    """A frame violated the wire format (oversized or malformed)."""


# ----------------------------------------------------------------------
# Value vocabulary
# ----------------------------------------------------------------------
#: Registered wire dataclasses, by class name.  Control records from
#: :mod:`repro.rt.transport` register themselves at import time via
#: :func:`register_wire_type` (avoiding a circular import).
_REGISTRY: dict[str, type] = {
    cls.__name__: cls
    for cls in (NewGroup, Accept, Join, Probe, Token, Sequenced, Label, Summary)
}
_REGISTERED_TYPES: dict[type, str] = {cls: name for name, cls in _REGISTRY.items()}


def register_wire_type(cls: type) -> type:
    """Add a dataclass to the wire registry (decorator-friendly)."""
    _REGISTRY[cls.__name__] = cls
    _REGISTERED_TYPES[cls] = cls.__name__
    return cls


def registered_wire_types() -> dict[str, type]:
    """Snapshot of the wire registry (name -> class).  The equivalence
    tests sweep this so a newly registered dataclass cannot silently
    miss codec coverage."""
    return dict(_REGISTRY)


def lookup_wire_type(name: str) -> type | None:
    """The registered class for ``name`` (None when unknown)."""
    return _REGISTRY.get(name)


def wire_type_name(cls: type) -> str | None:
    """The registry name of ``cls`` (None when not a wire type)."""
    return _REGISTERED_TYPES.get(cls)


def _enc(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if value is BOTTOM or isinstance(value, Bottom):
        return {"!": "bot"}
    kind = _REGISTERED_TYPES.get(type(value))
    if kind is not None:
        fields = {
            f.name: _enc(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"!": "m", "m": kind, "f": fields}
    if isinstance(value, View):
        return {
            "!": "view",
            "id": _enc(value.id),
            "set": sorted((_enc(p) for p in value.set), key=repr),
        }
    if isinstance(value, tuple):
        return {"!": "t", "v": [_enc(v) for v in value]}
    if isinstance(value, list):
        return [_enc(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return {"!": "fs", "v": sorted((_enc(v) for v in value), key=repr)}
    if isinstance(value, dict):
        return {"!": "d", "v": [[_enc(k), _enc(v)] for k, v in value.items()]}
    raise FrameError(f"cannot encode value of type {type(value).__name__}: {value!r}")


def _dec(value: Any) -> Any:
    if isinstance(value, list):
        return [_dec(v) for v in value]
    if not isinstance(value, dict):
        return value
    tag = value.get("!")
    if tag == "bot":
        return BOTTOM
    if tag == "t":
        return tuple(_dec(v) for v in value["v"])
    if tag == "fs":
        return frozenset(_dec(v) for v in value["v"])
    if tag == "d":
        return {_dec(k): _dec(v) for k, v in value["v"]}
    if tag == "view":
        return View(_dec(value["id"]), frozenset(_dec(p) for p in value["set"]))
    if tag == "m":
        cls = _REGISTRY.get(value["m"])
        if cls is None:
            raise FrameError(f"unknown wire type {value['m']!r}")
        return cls(**{k: _dec(v) for k, v in value["f"].items()})
    raise FrameError(f"unknown codec tag {tag!r}")


def encode_value(value: Any) -> Any:
    """The JSON-able spelling of ``value`` (event logs store it; the
    binary encoder orders set elements by its ``repr``)."""
    return _enc(value)


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    return _dec(value)
