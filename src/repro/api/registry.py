"""String-keyed plugin registries.

A :class:`Registry` maps names to factory objects and is the extension
point the scenario layer is built on: schedulers, arrival processes,
workloads and figure experiments are all looked up by name, so a
third-party policy plugs in with one :meth:`Registry.add` call instead
of a patch to ``sim/engine.py`` or a new CLI branch.

Lookups of unknown names raise :class:`repro.errors.ConfigError` with
the full list of registered names (and a close-match suggestion when
one exists), so a typo in a scenario file fails with an actionable
message rather than a ``KeyError``.
"""

from __future__ import annotations

import difflib
import threading
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

from repro.errors import ConfigError

T = TypeVar("T")


class Registry:
    """A named map from strings to entries, with lazy builtin loading.

    ``loader`` is called once, on first access, to register the built-in
    entries; this keeps registry modules import-light (no simulator or
    compiler imports until a lookup actually needs them).

    Typical plugin flow (any of the built-in registries in
    :mod:`repro.api.registries` works the same way)::

        from repro.api import SCHEDULERS, SchedulerInfo

        SCHEDULERS.add("my-policy", SchedulerInfo(
            "my-policy", MyScheduler, description="..."))
        SCHEDULERS.get("my-policy")      # -> the SchedulerInfo
        "my-policy" in SCHEDULERS        # -> True
        SCHEDULERS.names()               # built-ins first, then plugins

    After the ``add`` every scenario file, CLI choice list and sweep
    accepts the new name; ``remove`` is the teardown used by tests.
    """

    def __init__(
        self,
        kind: str,
        loader: Optional[Callable[["Registry"], None]] = None,
    ) -> None:
        self.kind = kind
        self._entries: Dict[str, object] = {}
        self._loader = loader
        self._loaded = loader is None
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add(self, name: str, entry: object, overwrite: bool = False) -> None:
        """Register ``entry`` under ``name``.

        Re-registering an existing name is an error unless ``overwrite``
        is set -- silent shadowing of a builtin is how plugin systems
        grow un-debuggable.
        """
        if not name or not isinstance(name, str):
            raise ConfigError(f"{self.kind} name must be a non-empty string")
        self._ensure_loaded()
        with self._lock:
            if name in self._entries and not overwrite:
                raise ConfigError(
                    f"{self.kind} {name!r} is already registered "
                    "(pass overwrite=True to replace it)"
                )
            self._entries[name] = entry

    def register(self, name: str) -> Callable[[T], T]:
        """Decorator form of :meth:`add` for function/class entries."""

        def deco(obj: T) -> T:
            self.add(name, obj)
            return obj

        return deco

    def remove(self, name: str) -> None:
        """Unregister ``name`` (used by tests and plugin teardown)."""
        self._ensure_loaded()
        with self._lock:
            self._entries.pop(name, None)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> object:
        self._ensure_loaded()
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise ConfigError(self._unknown_message(name))
        return entry

    def names(self) -> Tuple[str, ...]:
        """Registered names in registration (builtins-first) order."""
        self._ensure_loaded()
        with self._lock:
            return tuple(self._entries)

    def items(self) -> List[Tuple[str, object]]:
        self._ensure_loaded()
        with self._lock:
            return list(self._entries.items())

    def __contains__(self, name: str) -> bool:
        self._ensure_loaded()
        with self._lock:
            return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self.names())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        with self._lock:
            if self._loaded:
                return
            # Mark loaded *before* running the loader so the loader's own
            # add() calls do not recurse into it; roll back on failure so
            # the next lookup retries (and re-raises the root cause)
            # instead of serving a half-populated registry.
            self._loaded = True
            assert self._loader is not None
            try:
                self._loader(self)
            except BaseException:
                self._entries.clear()
                self._loaded = False
                raise

    def _unknown_message(self, name: str) -> str:
        known = ", ".join(sorted(self._entries)) or "<none registered>"
        hint = ""
        close = difflib.get_close_matches(name, list(self._entries), n=1)
        if close:
            hint = f" (did you mean {close[0]!r}?)"
        return f"unknown {self.kind} {name!r}{hint}; known: {known}"
