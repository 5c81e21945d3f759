"""The uniform structured result every scenario run returns.

A :class:`RunResult` is what used to be a wall of ``print()`` output:
one JSON-serialisable record with three sections --

- ``metrics``    -- the numbers the run produced (per-tenant tables,
  utilizations, attainment, headline aggregates...);
- ``metadata``   -- what was run (scheme, load, duration, figure
  parameters);
- ``provenance`` -- what would be needed to reproduce it (seed,
  canonical scenario digest, library version, fast-path flag).

``validate_run_result`` is the schema check CI's ``cli-smoke`` job and
the tests apply to ``repro run --json`` output.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from array import array
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Dict, Mapping, Optional

from repro.errors import ConfigError

#: Bump when the RunResult envelope changes shape.
RESULT_SCHEMA_VERSION = 1


#: Leaf types :func:`_plain` returns as they are (immutable, so a
#: deep copy would hand back the same object).
_ATOMS = frozenset({str, int, float, bool, type(None)})


def _plain(obj: Any) -> Any:
    """A deep copy of ``obj`` as :func:`dataclasses.asdict` copies a
    field: dicts, lists and tuples rebuilt with their type, dataclasses
    turned into dicts, anything else deep-copied.  Atoms inside a
    container are kept without a call, which is most of the work."""
    kind = type(obj)
    if kind is dict:
        return {
            key: value if type(value) in _ATOMS else _plain(value)
            for key, value in obj.items()
        }
    if kind is list:
        return [v if type(v) in _ATOMS else _plain(v) for v in obj]
    if kind is tuple:
        return tuple([v if type(v) in _ATOMS else _plain(v) for v in obj])
    if kind in _ATOMS:
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    return copy.deepcopy(obj)


def _json_default(obj: Any) -> Any:
    # A packed log (``SloReport``) encodes as the list it holds.
    if isinstance(obj, (tuple, array)):
        return list(obj)
    raise TypeError(f"not JSON-serialisable: {type(obj).__name__}")


def canonical_digest(payload: Mapping[str, Any]) -> str:
    """Stable sha256 over a canonical JSON encoding of ``payload``."""
    encoded = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_json_default
    ).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def base_provenance(
    seed: Optional[int] = None,
    scenario_digest: Optional[str] = None,
) -> Dict[str, Any]:
    """The provenance block every runner stamps onto its result."""
    import repro
    from repro.sim.engine import _fast_path_default

    prov: Dict[str, Any] = {
        "repro_version": getattr(repro, "__version__", "unknown"),
        "python": "%d.%d" % sys.version_info[:2],
        "fast_path": _fast_path_default(),
    }
    if seed is not None:
        prov["seed"] = seed
    if scenario_digest is not None:
        prov["scenario_digest"] = scenario_digest
    return prov


@dataclass
class RunResult:
    """Uniform outcome of one scenario / experiment / benchmark run.

    Three sections with distinct contracts:

    - ``metrics``    -- the numbers the run *produced* (per-tenant
      tables, utilizations, attainment, ``simulated_cycles``).  Keys
      vary by ``kind``; optional features (e.g. autoscaling) only add
      keys when enabled, so baseline outputs stay byte-stable.
    - ``metadata``   -- what was *asked for* (scheme, load, duration,
      figure parameters) in human-readable form.
    - ``provenance`` -- what reproduces it: ``seed``, the canonical
      ``scenario_digest``, ``repro_version``, the ``fast_path`` flag.

    ``to_dict``/``to_json`` emit a plain-JSON envelope (bump
    :data:`RESULT_SCHEMA_VERSION` when its shape changes);
    :func:`validate_run_result` checks it without third-party
    dependencies, and :meth:`from_dict` validates on the way in, so a
    payload that round-trips is known well-formed.  Example::

        result = run_scenario(sc)
        payload = json.loads(result.to_json())
        validate_run_result(payload)          # raises ConfigError if bad
        RunResult.from_dict(payload)          # inverse of to_dict
    """

    scenario: str
    kind: str
    scheme: Optional[str] = None
    metrics: Dict[str, Any] = field(default_factory=dict)
    metadata: Dict[str, Any] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = RESULT_SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        """The envelope as plain data, sharing nothing mutable with
        this result (what :func:`dataclasses.asdict` returns, built
        directly)."""
        return {
            "scenario": self.scenario,
            "kind": self.kind,
            "scheme": self.scheme,
            "metrics": _plain(self.metrics),
            "metadata": _plain(self.metadata),
            "provenance": _plain(self.provenance),
            "schema_version": self.schema_version,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(
            self.to_dict(), indent=indent, sort_keys=False,
            default=_json_default,
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunResult":
        validate_run_result(payload)
        return cls(
            scenario=payload["scenario"],
            kind=payload["kind"],
            scheme=payload.get("scheme"),
            metrics=dict(payload["metrics"]),
            metadata=dict(payload["metadata"]),
            provenance=dict(payload["provenance"]),
            schema_version=payload["schema_version"],
        )


def figure_result(
    figure: str,
    metrics: Dict[str, Any],
    metadata: Optional[Dict[str, Any]] = None,
) -> RunResult:
    """Wrap one figure experiment's structured metrics as a RunResult."""
    return RunResult(
        scenario=figure,
        kind="figure",
        scheme=None,
        metrics=metrics,
        metadata=dict(metadata or {}),
        provenance=base_provenance(),
    )


def validate_run_result(payload: Mapping[str, Any]) -> None:
    """Raise :class:`ConfigError` unless ``payload`` is a valid RunResult.

    This is deliberately dependency-free (no jsonschema) so the CI smoke
    job can run it with nothing but the library on the path.
    """
    if not isinstance(payload, Mapping):
        raise ConfigError("RunResult payload must be a JSON object")

    def fail(msg: str) -> None:
        raise ConfigError(f"invalid RunResult: {msg}")

    version = payload.get("schema_version")
    if not isinstance(version, int):
        fail("missing integer 'schema_version'")
    if version != RESULT_SCHEMA_VERSION:
        fail(
            f"schema_version {version} unsupported "
            f"(expected {RESULT_SCHEMA_VERSION})"
        )
    for key in ("scenario", "kind"):
        if not isinstance(payload.get(key), str) or not payload.get(key):
            fail(f"missing non-empty string {key!r}")
    scheme = payload.get("scheme")
    if scheme is not None and not isinstance(scheme, str):
        fail("'scheme' must be a string or null")
    for key in ("metrics", "metadata", "provenance"):
        section = payload.get(key)
        if not isinstance(section, Mapping):
            fail(f"missing object section {key!r}")
        for sub in section:
            if not isinstance(sub, str):
                fail(f"section {key!r} has a non-string key: {sub!r}")
    prov = payload["provenance"]
    if "repro_version" not in prov:
        fail("provenance must record 'repro_version'")
    extra = set(payload) - {
        "scenario", "kind", "scheme", "metrics", "metadata",
        "provenance", "schema_version",
    }
    if extra:
        fail(f"unexpected top-level keys: {sorted(extra)}")
