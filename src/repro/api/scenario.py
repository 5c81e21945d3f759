"""Declarative scenario specs with YAML/JSON round-trip.

A :class:`Scenario` is the single description every front-end consumes:
hardware config, tenant/workload mix, arrival process, scheduler scheme,
duration and SLOs -- as *data*.  The same spec runs through
:func:`repro.api.runner.run_scenario` whether it came from a YAML file
(``repro run scenario.yaml``), a benchmark suite, or was built inline by
an example script.

Five kinds cover the repo's workloads:

======== ==============================================================
serving   closed-loop collocation (the paper's methodology: run until
          every tenant hits ``target_requests``)
open_loop open-loop traffic on one core: arrivals at ``load`` x
          calibrated capacity, scored against per-tenant SLOs
cluster   open-loop traffic across a cluster with tenant churn and,
          optionally, a closed-loop autoscaler over elastic host pools
          (``autoscaler:`` / ``pools:`` blocks)
llm       continuous-batching LLM serving under a KV-cache HBM budget
          with pluggable preemption (the ``llm:`` block)
figure    a registered paper-figure experiment (``figure:`` names it)
======== ==============================================================

The ``pools:``, ``virtualization:``, ``faults:``, ``llm.tenants`` and
``executor:`` blocks are the engines' own specs
(:class:`~repro.cluster.autoscale.HostPoolSpec`,
:class:`~repro.cluster.virt.VirtualizationSpec`,
:class:`~repro.cluster.virt.FaultSpec`,
:class:`~repro.llmserve.engine.LlmTenantSpec`,
:class:`~repro.exec.ExecSpec`), imported only when a scenario holds the
block.  Every block is parsed by one path, which turns a block of the
wrong shape into a :class:`~repro.errors.ConfigError` naming its key,
and encoded by one rule: a field is written when it has no default or
differs from it.  ``to_dict``/``from_dict`` round-trip losslessly;
files may hold one scenario, a ``scenarios:`` list, or (YAML) a
multi-document stream.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.result import canonical_digest
from repro.config import DEFAULT_CORE, DEFAULT_SEED, NpuCoreConfig
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - loaded on demand, see _BLOCKS
    from repro.cluster.autoscale import HostPoolSpec
    from repro.cluster.virt import FaultSpec, VirtualizationSpec
    from repro.exec import ExecSpec
    from repro.llmserve.engine import LlmTenantSpec

SCENARIO_KINDS = ("serving", "open_loop", "cluster", "llm", "figure")


def _require_yaml():
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - environment-dependent
        raise ConfigError(
            "PyYAML is required for YAML scenario files "
            "(pip install pyyaml), or use JSON"
        ) from exc
    return yaml


def _from_mapping(cls, payload: Any, what: str):
    """Build dataclass ``cls`` from a mapping.

    Rejects unknown keys, names missing required ones, and parses each
    of ``cls``'s blocks (:data:`_BLOCKS`) by the same path: a block
    whose field defaults to ``()`` is a list of mappings, any other
    block -- and any field defaulting to an empty dict -- a mapping.
    """
    if not isinstance(payload, Mapping):
        raise ConfigError(f"{what} must be a mapping, got {type(payload).__name__}")
    fields = dataclasses.fields(cls)
    known = {f.name for f in fields}
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(
            f"unknown {what} key(s) {sorted(unknown)}; "
            f"known: {sorted(known)}"
        )
    missing = {
        f.name for f in fields
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING  # type: ignore[misc]
    } - set(payload)
    if missing:
        raise ConfigError(f"{what} missing required key(s) {sorted(missing)}")
    data = dict(payload)
    blocks = _BLOCKS.get(cls, {})
    for f in fields:
        value = data.get(f.name)
        is_block = f.name in blocks
        if value is None or not (is_block or f.default_factory is dict):
            continue
        many = isinstance(f.default, tuple)
        if not isinstance(value, (list, tuple) if many else Mapping):
            raise ConfigError(
                f"{what} key {f.name!r} must be "
                f"{'a list of mappings' if many else 'a mapping'}, "
                f"got {type(value).__name__}"
            )
        if is_block:
            spec, entry = blocks[f.name]
            if isinstance(spec, str):
                module, _, name = spec.partition(":")
                spec = getattr(importlib.import_module(module), name)
            data[f.name] = (
                tuple(_from_mapping(spec, item, entry) for item in value)
                if many
                else _from_mapping(spec, value, entry)
            )
    return cls(**data)


@functools.lru_cache(maxsize=None)
def _defaults(cls: type) -> Tuple[Tuple[str, Any], ...]:
    """``(name, default)`` per field of dataclass ``cls``; a required
    field's default is ``dataclasses.MISSING``, which nothing equals."""
    return tuple(
        (f.name, f.default_factory()  # type: ignore[misc]
         if f.default_factory is not dataclasses.MISSING  # type: ignore[misc]
         else f.default)
        for f in dataclasses.fields(cls)
    )


def _encode(value: Any) -> Any:
    """The serialised form of a spec value.

    A dataclass becomes a dict of the fields that have no default or
    differ from it, nested specs by the same rule; tuples become lists.
    (Every mapping a spec holds is a plain dict: each spec's
    ``__post_init__`` copies its mappings into one.)
    """
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if not dataclasses.is_dataclass(value):
        return value
    out: Dict[str, Any] = {}
    for name, default in _defaults(type(value)):
        item = getattr(value, name)
        if item != default:
            out[name] = _encode(item)
    return out


@dataclass(frozen=True)
class ScenarioTenant:
    """One tenant of a serving / open-loop scenario."""

    model: str
    batch: int = 8
    #: Relative share of the scenario load factor (open-loop only).
    weight: float = 1.0
    alloc_mes: Optional[int] = None
    alloc_ves: Optional[int] = None
    priority: float = 1.0
    #: SLO as a multiple of calibrated isolated service time...
    slo_relative: float = 5.0
    #: ...unless an absolute cycle target is given (wins when set).
    slo_target_cycles: Optional[float] = None
    #: Per-tenant arrival-kind override (None = scenario default).
    arrival: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.model:
            raise ConfigError("tenant needs a model name")
        if self.batch < 1:
            raise ConfigError("tenant batch size must be positive")
        if self.weight <= 0:
            raise ConfigError("tenant weight must be positive")


@dataclass(frozen=True)
class ScenarioChurn:
    """One tenant arrive/depart event of a cluster scenario."""

    time_s: float
    action: str
    name: str
    model: Optional[str] = None
    batch: int = 8
    num_mes: int = 2
    num_ves: int = 2
    weight: float = 1.0
    slo_relative: float = 5.0
    priority: float = 1.0

    def __post_init__(self) -> None:
        if self.action not in ("arrive", "depart"):
            raise ConfigError(
                f"churn action must be 'arrive' or 'depart', got {self.action!r}"
            )
        if self.action == "arrive" and not self.model:
            raise ConfigError(f"churn arrival {self.name!r} needs a model")


@dataclass(frozen=True)
class ScenarioAutoscaler:
    """Declarative ``autoscaler:`` block of a cluster scenario.

    ``policy`` names an entry of
    :data:`repro.api.registries.AUTOSCALERS`; ``params`` go to the
    policy constructor verbatim; ``interval_s`` adds observation
    boundaries every so many (simulated) seconds so the controller acts
    between churn events too.
    """

    policy: str
    interval_s: Optional[float] = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.policy:
            raise ConfigError("autoscaler block needs a policy name")
        if self.interval_s is not None and self.interval_s <= 0:
            raise ConfigError("autoscaler interval_s must be positive")
        object.__setattr__(self, "params", dict(self.params))

    def make(self):
        from repro.api.registries import make_autoscaler

        return make_autoscaler(self.policy, **dict(self.params))


#: One-line docs per ``virtualization:`` field, rendered by ``repro
#: list`` and ``tools/gen_docs.py``; a test pins its keys to the
#: :class:`~repro.cluster.virt.VirtualizationSpec` fields so they cannot
#: drift.
VIRTUALIZATION_FIELD_DOCS = {
    "num_vfs": "SR-IOV virtual functions per host (default 16); "
               "admission rejects tenants once a host's pool is empty",
    "pool_num_vfs": "per-pool VF overrides, e.g. {edge: 4}",
    "hypercall_cost_s": "control-plane latency charged per hypercall "
                        "against tenant onboarding/migration",
}


#: One-line docs per ``faults:`` field, rendered by ``repro list`` and
#: ``tools/gen_docs.py``; a test pins its keys to the
#: :class:`~repro.cluster.virt.FaultSpec` fields so they cannot drift.
FAULT_FIELD_DOCS = {
    "kind": "failure kind: host-crash, vf-loss, hypercall-spike or "
            "burst-storm",
    "time_s": "when the fault fires (a segment boundary is cut there)",
    "duration_s": "window length for hypercall-spike / burst-storm "
                  "(point faults use 0)",
    "factor": "multiplier applied by window faults (hypercall latency "
              "or offered load)",
    "count": "SR-IOV virtual functions removed by vf-loss",
    "host": "target host name (default: picked by load / free VFs)",
}


#: One-line docs per ``llm:`` field, rendered by ``repro list`` and
#: ``tools/gen_docs.py``; a test pins its keys to the
#: :class:`ScenarioLlm` fields so they cannot drift.
LLM_FIELD_DOCS = {
    "tenants": "open-loop LLM tenants: "
               "{name, prompt_tokens, decode_tokens, weight}",
    "batch_tokens": "per-step batch token budget b "
                    "(decodes count 1, prefills their full prompt)",
    "m_total": "device HBM KV budget in tokens; "
               "overflow preempts running requests",
    "preemption_mode": "victim KV handling: 'swap' (preserve off-device, "
                       "pay reload) or 'sacrifice' (drop, restart)",
    "victim_policy": "PREEMPTION registry entry picking who is evicted "
                     "(lifo, fifo, random)",
    "ttft_slo_scale": "TTFT target as a multiple of the unqueued "
                      "prefill step time",
    "tpot_slo_scale": "TPOT target as a multiple of a full-batch "
                      "decode step time",
    "step_overhead_cycles": "explicit step overhead d0 override "
                            "(with cycles_per_token, skips calibration)",
    "cycles_per_token": "explicit marginal cost d1 override "
                        "(with step_overhead_cycles, skips calibration)",
    "swap_cycles_per_token": "KV reload cost per token on swap-in "
                             "(default: HBM streaming time)",
}


@dataclass(frozen=True)
class ScenarioLlm:
    """Declarative ``llm:`` block of an ``llm`` scenario.

    Configures the :mod:`repro.llmserve` continuous-batching engine:
    open-loop tenants (prompt/decode geometry), the per-step batch token
    budget ``batch_tokens``, the device HBM KV budget ``m_total``, and
    how memory pressure is resolved (``preemption_mode`` x
    ``victim_policy``, the latter a
    :data:`repro.api.registries.PREEMPTION` entry).  Step costs come
    from simulator calibration unless both explicit overrides are set.
    """

    tenants: Tuple[LlmTenantSpec, ...] = ()
    batch_tokens: int = 2048
    m_total: int = 8192
    preemption_mode: str = "swap"
    victim_policy: str = "lifo"
    ttft_slo_scale: float = 5.0
    tpot_slo_scale: float = 1.5
    step_overhead_cycles: Optional[float] = None
    cycles_per_token: Optional[float] = None
    swap_cycles_per_token: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        from repro.llmserve.preemption import check_preemption_mode

        check_preemption_mode(self.preemption_mode)
        if self.batch_tokens < 1 or self.m_total < 1:
            raise ConfigError("batch_tokens and m_total must be positive")
        for tenant in self.tenants:
            if tenant.prompt_tokens > self.batch_tokens:
                raise ConfigError(
                    f"llm tenant {tenant.name!r} prompt "
                    f"({tenant.prompt_tokens}) exceeds "
                    f"batch_tokens={self.batch_tokens}"
                )
            if tenant.prompt_tokens + tenant.decode_tokens > self.m_total:
                raise ConfigError(
                    f"llm tenant {tenant.name!r} peak KV "
                    f"({tenant.prompt_tokens + tenant.decode_tokens}) "
                    f"exceeds m_total={self.m_total}"
                )


#: One-line docs per ``executor:`` field, rendered by ``repro list``
#: and ``tools/gen_docs.py``; a test pins its keys to the
#: :class:`~repro.exec.ExecSpec` fields so they cannot drift.
EXECUTOR_FIELD_DOCS = {
    "backend": "EXECUTORS registry entry dispatching sweep points "
               "(serial, pool, local-queue, or a plugin)",
    "max_workers": "fan-out width (default: REPRO_PARALLEL_WORKERS "
                   "or the usable CPU count)",
    "task_timeout_s": "per-task wall-clock limit; enforced by "
                      "local-queue, warned-and-ignored elsewhere",
    "retries": "extra attempts after a failed/timed-out/crashed task "
               "(default 2)",
    "retry_backoff_s": "base delay before attempt k, doubled each "
                       "retry (local-queue)",
    "keep_going": "record permanently failed points as structured "
                  "failures instead of aborting the sweep",
}


#: One-line docs per ``checkpoint:`` field, rendered by ``repro list``
#: and ``tools/gen_docs.py``; a test pins its keys to the
#: :class:`ScenarioCheckpoint` fields so they cannot drift.
CHECKPOINT_FIELD_DOCS = {
    "directory": "journal directory for segment checkpoints (created "
                 "on first run; 'repro run --resume' restores from it)",
    "every": "record a checkpoint every N completed segments "
             "(default 1)",
}


@dataclass(frozen=True)
class ScenarioCheckpoint:
    """Declarative ``checkpoint:`` block: journaled segment snapshots.

    A cluster run with this block records a
    :class:`repro.traffic.stepper.ClusterCheckpoint` into a
    :class:`repro.exec.SweepJournal` under ``directory`` every
    ``every`` completed segments; ``repro run --resume`` restores from
    the furthest one and continues, and the completed run is
    bit-identical to an uninterrupted one.  The block configures
    persistence only -- metrics never depend on it.
    """

    directory: str
    every: int = 1

    def __post_init__(self) -> None:
        if not self.directory:
            raise ConfigError("checkpoint block needs a directory")
        if self.every < 1:
            raise ConfigError("checkpoint cadence ('every') must be >= 1")


@dataclass(frozen=True)
class SweepSpec:
    """Declarative sweep: vary one scenario field over several values."""

    param: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.param:
            raise ConfigError("sweep needs a param name")
        if not self.values:
            raise ConfigError("sweep needs at least one value")
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class Scenario:
    """A complete, serialisable description of one run.

    The single spec every front-end consumes: ``repro run`` loads one
    from YAML/JSON, benchmarks and examples build one inline, and
    :func:`repro.api.runner.run_scenario` executes it regardless of
    origin.  Instances are immutable and hashable-by-content:
    :meth:`digest` is a canonical sha256 over :meth:`to_dict` and is
    stamped into every result's provenance, so a result can always be
    traced back to the exact spec that produced it.

    Which fields matter depends on ``kind``:

    - every kind: ``name``, ``scheme`` (except ``figure``), ``seed``,
      ``hardware`` (overrides for :data:`repro.config.DEFAULT_CORE`);
    - ``serving``: ``tenants``, ``target_requests``;
    - ``open_loop``: ``tenants``, ``arrival``, ``load``,
      ``duration_s``, ``drain``;
    - ``cluster``: ``churn``, ``hosts``/``cores_per_host`` (or
      ``pools``, :class:`~repro.cluster.autoscale.HostPoolSpec`),
      ``arrival``, ``load``, ``duration_s``, the optional
      ``autoscaler`` control loop, the optional ``virtualization``
      control plane (:class:`~repro.cluster.virt.VirtualizationSpec`:
      VF budgets, hypercall cost), optional injected ``faults``
      (:class:`~repro.cluster.virt.FaultSpec`: host crashes, VF loss,
      hypercall spikes, burst storms), and the optional ``checkpoint``
      block (journaled segment snapshots for ``repro run --resume``);
    - ``llm``: the ``llm`` block (tenants as
      :class:`~repro.llmserve.engine.LlmTenantSpec`, token budgets,
      preemption), plus ``arrival``, ``load``, ``duration_s``,
      ``drain``;
    - ``figure``: ``figure`` (the experiment name) and ``params``.

    Any kind may carry an ``executor`` block (:class:`~repro.exec.ExecSpec`)
    choosing how its sweeps are dispatched; results never depend on it.

    Example::

        sc = Scenario(
            name="demo", kind="open_loop", scheme="neu10",
            tenants=(ScenarioTenant(model="MNIST", batch=8),),
            load=0.8, duration_s=0.002,
        )
        sc == Scenario.from_yaml(sc.to_yaml())   # lossless round-trip

    :meth:`from_dict` parses every block through one path, so a block
    of the wrong shape (``executor: pool``, ``pools: 3``) is a
    :class:`~repro.errors.ConfigError` naming its key.  Construction
    validates shape (positive durations, kind-appropriate blocks, each
    engine spec's own ranges); :meth:`validate` additionally resolves
    every registry name (scheme, arrival kinds, models, figure,
    autoscaler policy) with did-you-mean errors and rejects figure
    ``params`` the figure's ``run_result`` does not accept, which is
    what ``run_scenario`` calls first.
    """

    name: str
    kind: str
    description: str = ""
    scheme: str = "neu10"
    tenants: Tuple[ScenarioTenant, ...] = ()
    arrival: str = "poisson"
    load: float = 0.8
    duration_s: float = 0.002
    target_requests: int = 4
    seed: int = DEFAULT_SEED
    drain: bool = False
    #: Overrides applied to :data:`repro.config.DEFAULT_CORE` fields.
    hardware: Mapping[str, Any] = field(default_factory=dict)
    hosts: int = 2
    cores_per_host: int = 1
    churn: Tuple[ScenarioChurn, ...] = ()
    #: Elastic host pools (cluster kind; empty = one ``host`` pool of
    #: ``hosts`` hosts with ``cores_per_host`` cores each).
    pools: Tuple[HostPoolSpec, ...] = ()
    #: Closed-loop scaling policy (cluster kind; None = static cluster,
    #: bit-identical to pre-autoscaling runs).
    autoscaler: Optional[ScenarioAutoscaler] = None
    #: Virtualization control plane (cluster kind; None = default VF
    #: pools, free hypercalls, no control-plane metrics -- bit-identical
    #: to pre-virtualization runs).
    virtualization: Optional[VirtualizationSpec] = None
    #: Injected failures (cluster kind; empty = the exact fault-free
    #: code path, bit-identical to releases without fault injection).
    faults: Tuple[FaultSpec, ...] = ()
    #: Continuous-batching LLM serving block (llm kind only).
    llm: Optional[ScenarioLlm] = None
    #: Fan-out backend (None = the default ``pool`` backend; results
    #: never depend on it).
    executor: Optional[ExecSpec] = None
    #: Journaled segment checkpoints (cluster kind; None = no snapshots
    #: are written.  Persistence only: metrics never depend on it).
    checkpoint: Optional[ScenarioCheckpoint] = None
    #: Figure experiment name (kind == "figure").
    figure: Optional[str] = None
    #: Extra keyword parameters for the figure runner.
    params: Mapping[str, Any] = field(default_factory=dict)
    sweep: Optional[SweepSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        object.__setattr__(self, "churn", tuple(self.churn))
        object.__setattr__(self, "pools", tuple(self.pools))
        object.__setattr__(self, "faults", tuple(self.faults))
        object.__setattr__(self, "hardware", dict(self.hardware))
        object.__setattr__(self, "params", dict(self.params))
        self._validate_shape()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate_shape(self) -> None:
        if not self.name:
            raise ConfigError("scenario needs a name")
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(
                f"unknown scenario kind {self.kind!r}; "
                f"known: {', '.join(SCENARIO_KINDS)}"
            )
        if self.kind in ("serving", "open_loop") and not self.tenants:
            raise ConfigError(
                f"{self.kind} scenario {self.name!r} needs at least one tenant"
            )
        if self.kind == "llm":
            if self.llm is None or not self.llm.tenants:
                raise ConfigError(
                    f"llm scenario {self.name!r} needs an 'llm' block "
                    "with at least one tenant"
                )
            if self.tenants:
                raise ConfigError(
                    f"llm scenario {self.name!r}: tenants go inside the "
                    "'llm' block, not the top-level 'tenants' list"
                )
        elif self.llm is not None:
            raise ConfigError(
                f"{self.kind} scenario {self.name!r}: "
                "'llm' only applies to kind: llm"
            )
        if self.kind == "cluster" and not self.churn:
            raise ConfigError(
                f"cluster scenario {self.name!r} needs churn events"
            )
        if self.kind == "figure" and not self.figure:
            raise ConfigError(
                f"figure scenario {self.name!r} needs a 'figure' name"
            )
        if self.load <= 0:
            raise ConfigError("load factor must be positive")
        if self.duration_s <= 0:
            raise ConfigError("duration must be positive")
        if self.target_requests < 1:
            raise ConfigError("target_requests must be positive")
        if self.hosts < 1 or self.cores_per_host < 1:
            raise ConfigError("cluster needs at least one host and core")
        if self.kind != "cluster" and (
            self.pools or self.autoscaler or self.virtualization
            or self.faults or self.checkpoint
        ):
            raise ConfigError(
                f"{self.kind} scenario {self.name!r}: 'pools', "
                "'autoscaler', 'virtualization', 'faults' and "
                "'checkpoint' only apply to kind: cluster"
            )
        pool_names = [p.name for p in self.pools]
        if len(set(pool_names)) != len(pool_names):
            raise ConfigError("host pool names must be unique")
        if self.virtualization is not None and self.virtualization.pool_num_vfs:
            if not self.pools:
                raise ConfigError(
                    f"scenario {self.name!r}: 'virtualization.pool_num_vfs' "
                    "needs explicit 'pools' to name"
                )
            unknown = set(self.virtualization.pool_num_vfs) - set(pool_names)
            if unknown:
                raise ConfigError(
                    f"virtualization names unknown pool(s) {sorted(unknown)}; "
                    f"known: {sorted(pool_names)}"
                )
        self.core()  # hardware overrides must name real config fields

    def validate(self) -> None:
        """Full validation including registry lookups (helpful errors)."""
        from repro.api import registries
        from repro.workloads.catalog import model_info

        if self.executor is not None:
            registries.EXECUTORS.get(self.executor.backend)
        if self.kind == "figure":
            from repro.api.figures import FIGURES

            accepted = inspect.signature(
                FIGURES.get(self.figure).run_result
            ).parameters
            takes_any = any(
                p.kind is p.VAR_KEYWORD for p in accepted.values()
            )
            unknown = set(self.params) - set(accepted)
            if unknown and not takes_any:
                raise ConfigError(
                    f"figure {self.figure!r} does not accept param(s) "
                    f"{sorted(unknown, key=str)}; accepted: {sorted(accepted)}"
                )
            return
        registries.SCHEDULERS.get(self.scheme)
        if self.kind in ("open_loop", "cluster", "llm"):
            registries.ARRIVALS.get(self.arrival)
        if self.autoscaler is not None:
            registries.AUTOSCALERS.get(self.autoscaler.policy)
        if self.llm is not None:
            registries.PREEMPTION.get(self.llm.victim_policy)
        for tenant in self.tenants:
            model_info(tenant.model)
            if tenant.arrival is not None:
                registries.ARRIVALS.get(tenant.arrival)
        for event in self.churn:
            if event.model is not None:
                model_info(event.model)

    # ------------------------------------------------------------------
    # Derived objects
    # ------------------------------------------------------------------
    def core(self) -> NpuCoreConfig:
        """The hardware config with this scenario's overrides applied."""
        if not self.hardware:
            return DEFAULT_CORE
        known = {f.name for f in dataclasses.fields(NpuCoreConfig)}
        unknown = set(self.hardware) - known
        if unknown:
            raise ConfigError(
                f"unknown hardware key(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return dataclasses.replace(DEFAULT_CORE, **dict(self.hardware))

    def digest(self) -> str:
        """Canonical content digest (provenance)."""
        return canonical_digest(self.to_dict())

    def replaced(self, **changes: Any) -> "Scenario":
        """A copy with top-level or dotted ``hardware.X`` overrides."""
        hw_changes = {
            k.split(".", 1)[1]: v
            for k, v in changes.items()
            if k.startswith("hardware.")
        }
        flat = {
            k: v for k, v in changes.items() if not k.startswith("hardware.")
        }
        if hw_changes:
            merged = dict(self.hardware)
            merged.update(hw_changes)
            flat["hardware"] = merged
        known = {f.name for f in dataclasses.fields(Scenario)}
        unknown = set(flat) - known
        if unknown:
            raise ConfigError(
                f"unknown scenario field(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return dataclasses.replace(self, **flat)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        out = _encode(self)
        if self.executor is not None:
            # Written even at its default, as every release has: the
            # digest of an ``executor: {}`` scenario must not change.
            out["executor"].setdefault("backend", self.executor.backend)
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Scenario":
        try:
            return _from_mapping(cls, payload, "scenario")
        except TypeError as exc:
            # A value of the wrong type (``load: high``) fails deep
            # inside construction; report it, not a traceback.
            raise ConfigError(
                f"scenario {payload.get('name')!r} is malformed: {exc}"
            ) from exc

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_yaml(self) -> str:
        yaml = _require_yaml()
        return yaml.safe_dump(self.to_dict(), sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_yaml(cls, text: str) -> "Scenario":
        scenarios = parse_scenarios(text, fmt="yaml")
        if len(scenarios) != 1:
            raise ConfigError(
                f"expected exactly one scenario, found {len(scenarios)}"
            )
        return scenarios[0]


#: The blocks :func:`_from_mapping` parses, per owner class: field ->
#: (spec class, what one entry is called in errors).  A spec named
#: ``"module:Class"`` is an engine's own, imported only when a scenario
#: holds its block, so loading a figure or open-loop scenario never
#: imports the cluster, LLM or executor engines.
_BLOCKS: Dict[type, Dict[str, Tuple[Union[type, str], str]]] = {
    Scenario: {
        "tenants": (ScenarioTenant, "tenant"),
        "churn": (ScenarioChurn, "churn event"),
        "pools": ("repro.cluster.autoscale:HostPoolSpec", "host pool"),
        "autoscaler": (ScenarioAutoscaler, "autoscaler"),
        "virtualization": (
            "repro.cluster.virt:VirtualizationSpec", "virtualization"
        ),
        "faults": ("repro.cluster.virt:FaultSpec", "fault"),
        "llm": (ScenarioLlm, "llm"),
        "executor": ("repro.exec:ExecSpec", "executor"),
        "checkpoint": (ScenarioCheckpoint, "checkpoint"),
        "sweep": (SweepSpec, "sweep"),
    },
    ScenarioLlm: {
        "tenants": ("repro.llmserve.engine:LlmTenantSpec", "llm tenant"),
    },
}


# ----------------------------------------------------------------------
# File loading
# ----------------------------------------------------------------------
def _payload_to_scenarios(payload: Any, source: str) -> List[Scenario]:
    if payload is None:
        return []
    if isinstance(payload, Mapping) and "scenarios" in payload:
        extra = set(payload) - {"scenarios"}
        if extra:
            raise ConfigError(
                f"{source}: 'scenarios' files cannot have extra keys {sorted(extra)}"
            )
        items = payload["scenarios"]
        if not isinstance(items, Sequence) or isinstance(items, (str, bytes)):
            raise ConfigError(f"{source}: 'scenarios' must be a list")
        return [Scenario.from_dict(item) for item in items]
    if isinstance(payload, Mapping):
        return [Scenario.from_dict(payload)]
    if isinstance(payload, Sequence) and not isinstance(payload, (str, bytes)):
        return [Scenario.from_dict(item) for item in payload]
    raise ConfigError(
        f"{source}: expected a scenario mapping or list, "
        f"got {type(payload).__name__}"
    )


def parse_scenarios(text: str, fmt: str = "yaml", source: str = "<string>") -> List[Scenario]:
    """Parse one or many scenarios from ``text`` (YAML or JSON)."""
    out: List[Scenario] = []
    if fmt == "json":
        out.extend(_payload_to_scenarios(json.loads(text), source))
    elif fmt == "yaml":
        yaml = _require_yaml()
        try:
            docs = list(yaml.safe_load_all(text))
        except yaml.YAMLError as exc:
            raise ConfigError(f"{source}: invalid YAML: {exc}") from exc
        for doc in docs:
            out.extend(_payload_to_scenarios(doc, source))
    else:
        raise ConfigError(f"unknown scenario format {fmt!r} (yaml or json)")
    if not out:
        raise ConfigError(f"{source}: no scenarios found")
    return out


def load_scenarios(path: Union[str, Path]) -> List[Scenario]:
    """Load every scenario in a ``.yaml``/``.yml``/``.json`` file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    fmt = "json" if path.suffix.lower() == ".json" else "yaml"
    return parse_scenarios(path.read_text(encoding="utf-8"), fmt, str(path))


def load_scenario(path: Union[str, Path], name: Optional[str] = None) -> Scenario:
    """Load exactly one scenario; ``name`` selects from a multi-file."""
    scenarios = load_scenarios(path)
    if name is not None:
        for sc in scenarios:
            if sc.name == name:
                return sc
        raise ConfigError(
            f"no scenario named {name!r} in {path}; "
            f"found: {', '.join(s.name for s in scenarios)}"
        )
    if len(scenarios) != 1:
        raise ConfigError(
            f"{path} holds {len(scenarios)} scenarios; pick one by name "
            f"({', '.join(s.name for s in scenarios)})"
        )
    return scenarios[0]


def save_scenario(scenario: Scenario, path: Union[str, Path]) -> None:
    path = Path(path)
    if path.suffix.lower() == ".json":
        path.write_text(scenario.to_json() + "\n", encoding="utf-8")
    else:
        path.write_text(scenario.to_yaml(), encoding="utf-8")
