"""The runtime half of the protocol-flow analyzer.

The static pass (:mod:`repro.lint.protocol`) proves which
``(endpoint, message)`` edges *exist* in the source; this module
measures which of them a scenario actually *exercises*. A
:class:`CoverageAccountant` is a hook on one
:class:`~repro.sim.network.Network` that observes every delivery: a
**delivered** count is recorded for the destination node's class and
the message type, and a **handled** count for the handler's owning
class when the destination is alive and has a handler registered for
the type. After the run, :meth:`CoverageAccountant.unexercised_edges`
diffs the static handle-edges against the runtime handled keys — the
edges no message ever travelled.

Design constraints, in order:

* **Trajectory-neutral.** The hook only reads attributes the real
  delivery path reads anyway (``_delivery``, ``alive``, ``_handlers``)
  and bumps plain dicts — no events added, no RNG, no wall clock, no
  return values changed — so a covered run byte-compares against a
  plain run. The determinism CI matrix enforces exactly that.
* **Class-keyed, not instance-keyed.** Counters key on
  ``(node class name, message type name)`` — the same vocabulary as the
  static graph's endpoints — so runtime coverage and static edges diff
  directly, and accountants from several runs :meth:`merge
  <CoverageAccountant.merge>` by adding counts. Handler ownership
  resolves through the bound method (``handler.__self__``), matching
  the class whose ``start()`` called ``register_handler``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["CoverageAccountant"]


class CoverageAccountant:
    """Per-edge delivered/handled counters: a hook on one network."""

    def __init__(self) -> None:
        self.network = None
        # (node class name, message type name) -> count
        self.delivered: Dict[Tuple[str, str], int] = {}
        # (handler owner class name, message type name) -> count
        self.handled: Dict[Tuple[str, str], int] = {}

    def attach(self, network) -> None:
        """Account every delivery on ``network`` from now on."""
        self.network = network
        network.hooks.append(self)

    def detach(self) -> None:
        """Stop accounting; the counters stay readable and the
        accountant no longer keeps the simulation alive."""
        self.network.hooks.remove(self)
        self.network = None

    def on_send(self, src: int, dst: int, msg: Any, cause: Optional[str]) -> None:
        pass

    def on_deliver(
        self, src: int, dst: int, msg: Any, context: Any, sent_at: Optional[float]
    ) -> None:
        deliver = self.network._delivery.get(dst)
        owner = getattr(deliver, "__self__", None)
        if owner is None:
            return
        kind = type(msg).__name__
        key = (type(owner).__name__, kind)
        self.delivered[key] = self.delivered.get(key, 0) + 1
        if owner.alive:
            handler = owner._handlers.get(type(msg))
            if handler is not None:
                bound = getattr(handler, "__self__", owner)
                hkey = (type(bound).__name__, kind)
                self.handled[hkey] = self.handled.get(hkey, 0) + 1

    def merge(self, other: "CoverageAccountant") -> None:
        """Add ``other``'s counters to this accountant's."""
        for mine, theirs in (
            (self.delivered, other.delivered), (self.handled, other.handled)
        ):
            for key, count in theirs.items():
                mine[key] = mine.get(key, 0) + count

    def unexercised_edges(self, graph) -> List[Tuple[str, str, List[str]]]:
        """Static handle-edges no accounted delivery exercised.

        ``graph`` is a :class:`~repro.lint.protograph.ProtocolGraph`; the
        result is a sorted list of ``(endpoint, message, handlers)`` for
        every statically-registered edge with no runtime handled count.
        Static endpoints name the class that *registers* the handler (a
        service like ``RequestHandler``), which is exactly the class
        runtime handler ownership resolves to.
        """
        return [
            (endpoint, message, handlers)
            for (endpoint, message), handlers in sorted(graph.handle_edges().items())
            if self.handled.get((endpoint, message), 0) == 0
        ]
