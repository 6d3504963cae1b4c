"""The runtime half of the isolation contract.

The static I-rules prove no *source line* retains-and-mutates a sent
payload or reaches through a node boundary; :class:`IsolationChecker`
proves no *code path* does at run time. It is a hook on one
:class:`~repro.sim.network.Network`: every payload the network puts on
the wire is fingerprinted with a deterministic structural digest, and
the digest is re-verified the moment the message is delivered (or
dropped on a dead destination). Any difference means some code kept a
reference to the object after sending it and mutated it while it was in
flight — :class:`~repro.errors.IsolationError` is raised naming sender,
receiver, message type, and both simulated times.

Design constraints, in order:

* **Trajectory-neutral.** The digest is pure SHA-256 over the payload's
  structure — no ``hash()`` (salted per process), no wall clock, no RNG
  — and the hook adds no events and changes no return values, so a
  checked run byte-compares against a plain run. The determinism CI
  matrix enforces exactly that.
* **Fan-out aware.** Protocols legitimately send *one* immutable message
  object to several peers (replication re-home, advert fan-out). The
  in-flight registry refcounts by object identity: each send of the same
  unmutated object bumps the count, each delivery drops it, and the
  entry keeps a reference to the object so CPython cannot reuse its id
  while copies are still in flight. Re-sending an object whose content
  changed while copies are in flight trips the same wire.
* **Scoped to one simulation.** The registry lives on the checker, and
  the checker sees only the network it is attached to.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Dict, Optional, Set

from repro.errors import IsolationError

__all__ = ["IsolationChecker", "payload_digest"]


# ------------------------------------------------------------------ digest


def payload_digest(obj: Any) -> str:
    """Deterministic structural SHA-256 of an arbitrary payload.

    Equal-by-structure objects digest equally across processes and runs:
    sequences feed elements in order, sets and dicts feed elements by
    their *own* sub-digests in sorted order (no reliance on element
    comparability or hash order), dataclasses feed fields in declaration
    order, and plain objects feed ``__dict__`` in sorted key order.
    Cycles are cut by identity, opaque leaves fall back to the type name.
    """
    hasher = hashlib.sha256()
    _feed(hasher, obj, set())
    return hasher.hexdigest()


def _sub_digest(obj: Any, stack: Set[int]) -> bytes:
    hasher = hashlib.sha256()
    _feed(hasher, obj, stack)
    return hasher.digest()


def _feed(hasher, obj: Any, stack: Set[int]) -> None:
    if obj is None or obj is True or obj is False:
        hasher.update(repr(obj).encode("ascii"))
        return
    if isinstance(obj, (int, float, complex)):
        hasher.update(b"n")
        hasher.update(repr(obj).encode("ascii"))
        hasher.update(b"\x00")
        return
    if isinstance(obj, str):
        hasher.update(b"s")
        hasher.update(obj.encode("utf-8", "surrogatepass"))
        hasher.update(b"\x00")
        return
    if isinstance(obj, (bytes, bytearray, memoryview)):
        hasher.update(b"b")
        hasher.update(bytes(obj))
        hasher.update(b"\x00")
        return
    oid = id(obj)
    if oid in stack:
        hasher.update(b"cycle")
        return
    stack.add(oid)
    try:
        if isinstance(obj, (list, tuple)):
            hasher.update(b"l" if isinstance(obj, list) else b"t")
            for item in obj:
                _feed(hasher, item, stack)
            hasher.update(b"\x00")
        elif isinstance(obj, (set, frozenset)):
            hasher.update(b"S")
            for encoded in sorted(_sub_digest(item, stack) for item in obj):
                hasher.update(encoded)
            hasher.update(b"\x00")
        elif isinstance(obj, dict):
            hasher.update(b"d")
            entries = [
                _sub_digest(key, stack) + _sub_digest(value, stack)
                for key, value in obj.items()
            ]
            for encoded in sorted(entries):
                hasher.update(encoded)
            hasher.update(b"\x00")
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            hasher.update(b"D")
            hasher.update(type(obj).__name__.encode("utf-8"))
            hasher.update(b"\x00")
            for field in dataclasses.fields(obj):
                _feed(hasher, getattr(obj, field.name), stack)
            hasher.update(b"\x00")
        elif hasattr(obj, "__dict__"):
            hasher.update(b"o")
            hasher.update(type(obj).__name__.encode("utf-8"))
            hasher.update(b"\x00")
            attrs = vars(obj)
            for key in sorted(attrs):
                hasher.update(key.encode("utf-8"))
                hasher.update(b"\x00")
                _feed(hasher, attrs[key], stack)
            hasher.update(b"\x00")
        else:
            # Opaque leaf (a __slots__ object, a function …): the type
            # name is all the structure we can see.
            hasher.update(b"x")
            hasher.update(type(obj).__name__.encode("utf-8"))
            hasher.update(b"\x00")
    finally:
        stack.discard(oid)


# ----------------------------------------------------------------- checker


class IsolationChecker:
    """Copy-on-send payload checker: a hook on one network."""

    def __init__(self) -> None:
        self.network = None
        # id(msg) -> [msg, digest, refcount, src, dst, kind, sent_at]
        self._inflight: Dict[int, list] = {}

    def attach(self, network) -> None:
        """Check every payload ``network`` carries from now on."""
        self.network = network
        network.hooks.append(self)

    def on_send(self, src: int, dst: int, msg: Any, cause: Optional[str]) -> None:
        if cause is not None:
            return  # dropped at send: never in flight
        now = self.network.scheduler.now
        digest = payload_digest(msg)
        entry = self._inflight.get(id(msg))
        if entry is None:
            self._inflight[id(msg)] = [
                msg, digest, 1, src, dst, type(msg).__name__, now,
            ]
        elif entry[1] != digest:
            # The object is being re-sent, but copies already in flight
            # were fingerprinted with different content — the sender
            # mutated it between sends.
            raise IsolationError(
                entry[3], entry[4], entry[5], entry[6], now,
                detail="object re-sent with different content while "
                "earlier copies are still in flight",
            )
        else:
            entry[2] += 1

    def on_deliver(
        self, src: int, dst: int, msg: Any, context: Any, sent_at: Optional[float]
    ) -> None:
        entry = self._inflight.get(id(msg))
        if entry is not None and entry[0] is msg:
            if payload_digest(msg) != entry[1]:
                raise IsolationError(
                    src, dst, type(msg).__name__, entry[6],
                    self.network.scheduler.now,
                )
            entry[2] -= 1
            if entry[2] == 0:
                del self._inflight[id(msg)]
