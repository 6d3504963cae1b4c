"""Backend registration and lookup.

``spec.stack`` strings resolve to :class:`~repro.backends.base.StoreBackend`
classes through a :class:`BackendRegistry`. The module-level default
registry is what the scenario engine, the CLI and the spec validator
consult; the built-in backends (``core``, ``dht``, ``oracle``) register
with it on import of :mod:`repro.backends`.

Adding a stack is one class and one decorator::

    from repro.backends import StoreBackend, register_backend

    @register_backend("mystack")
    class MyCluster(StoreBackend):
        description = "one line for `repro backends list`"

        def _make_server(self, node_id, ctx): ...
        def new_client(self, timeout=5.0, retries=2): ...
        @classmethod
        def deploy(cls, spec, sim): ...
        def converge(self, spec): ...
        def converged(self): ...

and every scenario spec, bench, CLI command and the backend contract
test suite (``tests/test_backend_contract.py``) picks it up — no runner
changes needed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.backends.base import StoreBackend
from repro.errors import ConfigurationError

__all__ = ["BackendRegistry", "register_backend", "get_backend", "list_backends"]


class BackendRegistry:
    """name -> :class:`StoreBackend` class mapping with helpful errors."""

    def __init__(self) -> None:
        self._classes: Dict[str, Type[StoreBackend]] = {}

    def register(self, name: Optional[str] = None) -> Callable[[Type[StoreBackend]], Type[StoreBackend]]:
        """Class decorator registering a backend under ``name`` (defaults
        to the class's ``name`` attribute, which is set from the
        registration name either way)."""

        def decorator(cls: Type[StoreBackend]) -> Type[StoreBackend]:
            key = name or cls.name
            if not key:
                raise ConfigurationError(
                    f"backend class {cls.__name__} needs a registration name"
                )
            if key in self._classes:
                raise ConfigurationError(f"backend {key!r} is already registered")
            if cls.name and cls.name != key:
                # `name` is a class attribute shared by every registry the
                # class appears in; renaming here would silently corrupt
                # the other registrations (and `repro backends list`).
                raise ConfigurationError(
                    f"backend class {cls.__name__} is already named {cls.name!r}; "
                    f"register it under that name or subclass it for {key!r}"
                )
            cls.name = key
            self._classes[key] = cls
            return cls

        return decorator

    def get(self, name: str) -> Type[StoreBackend]:
        """The backend class registered under ``name``; unknown names
        raise a :class:`~repro.errors.ConfigurationError` that lists
        what *is* registered."""
        try:
            return self._classes[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown stack {name!r}; registered backends: {self.names()}"
            ) from None

    def names(self) -> List[str]:
        """Registered backend names, sorted."""
        return sorted(self._classes)

    def items(self) -> List[Tuple[str, Type[StoreBackend]]]:
        """(name, class) pairs, sorted by name."""
        return [(name, self._classes[name]) for name in self.names()]

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def __len__(self) -> int:
        return len(self._classes)


#: The default registry the scenario engine and CLI consult.
REGISTRY = BackendRegistry()


def register_backend(name: Optional[str] = None):
    """Register a backend class with the default registry."""
    return REGISTRY.register(name)


def get_backend(name: str) -> Type[StoreBackend]:
    """Resolve ``spec.stack`` against the default registry."""
    return REGISTRY.get(name)


def list_backends() -> List[str]:
    """Names registered with the default registry, sorted."""
    return REGISTRY.names()
