"""The built-in plugin registries: schedulers, arrivals, workloads.

These are the single source of truth for the names every front-end
(CLI, experiments, traffic, benchmarks) used to hard-code:

- :data:`SCHEDULERS` -- scheduling schemes.  Each entry is a
  :class:`SchedulerInfo` carrying the factory, the ISA its workloads
  are compiled with, and whether the scheme belongs to the paper's
  default comparison set.
- :data:`ARRIVALS`   -- open-loop arrival-process builders
  (:mod:`repro.traffic.arrivals` kinds).
- :data:`WORKLOADS`  -- the Table I model zoo
  (:mod:`repro.workloads.catalog` entries, canonical names only).
- :data:`AUTOSCALERS` -- cluster autoscaling policies
  (:mod:`repro.cluster.autoscale` controllers for ``kind: cluster``
  scenarios with an ``autoscaler:`` block).
- :data:`PREEMPTION` -- LLM-serving victim policies
  (:mod:`repro.llmserve.preemption` selectors for ``kind: llm``
  scenarios; who gets evicted under KV-cache pressure).
- :data:`EXECUTORS` -- sweep fan-out backends
  (:mod:`repro.exec` executors for ``repro sweep --executor`` and
  scenario ``executor:`` blocks; how independent simulations are
  dispatched, retried and checkpointed).

Built-ins are registered lazily on first lookup, so importing this
module costs nothing; third-party policies extend the system with e.g.
``SCHEDULERS.add("my-policy", SchedulerInfo(...))`` and every scenario
file, CLI choice list and sweep immediately accepts the new name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from repro.api.registry import Registry


@dataclass(frozen=True)
class SchedulerInfo:
    """Registry entry for one scheduling scheme."""

    name: str
    factory: Callable[[], object]
    #: ISA the scheme's workloads are compiled with ("vliw" | "neuisa").
    isa: str = "neuisa"
    #: Part of the paper's default four-scheme comparison set?
    default: bool = True
    description: str = ""

    def make(self) -> object:
        return self.factory()


@dataclass(frozen=True)
class ArrivalInfo:
    """Registry entry for one arrival-process kind."""

    name: str
    #: ``builder(mean_rate_per_cycle, **kwargs) -> ArrivalProcess``.
    builder: Callable[..., object]
    description: str = ""


@dataclass(frozen=True)
class AutoscalerInfo:
    """Registry entry for one cluster autoscaling policy.

    ``factory(**params)`` builds a fresh, stateful
    :class:`repro.cluster.autoscale.Autoscaler`; ``params`` come from a
    scenario's ``autoscaler: {params: ...}`` block, so constructor
    keywords are the policy's declarative configuration surface.
    """

    name: str
    factory: Callable[..., object]
    description: str = ""

    def make(self, **params: object) -> object:
        return self.factory(**params)


def _load_schedulers(reg: Registry) -> None:
    from repro.baselines.pmt import PmtScheduler
    from repro.baselines.v10 import V10Scheduler
    from repro.sim.sched_neu10 import Neu10Scheduler
    from repro.sim.sched_static import StaticPartitionScheduler
    from repro.sim.sched_temporal import TemporalNeu10Scheduler

    reg.add("pmt", SchedulerInfo(
        "pmt", PmtScheduler, isa="vliw",
        description="preemptive multi-task baseline (VLIW ISA)"))
    reg.add("v10", SchedulerInfo(
        "v10", V10Scheduler, isa="vliw",
        description="V10 spatial-sharing baseline (VLIW ISA)"))
    reg.add("neu10-nh", SchedulerInfo(
        "neu10-nh", StaticPartitionScheduler,
        description="Neu10 without harvesting (static partition)"))
    reg.add("neu10", SchedulerInfo(
        "neu10", Neu10Scheduler,
        description="Neu10 with idle-engine harvesting"))
    reg.add("neu10-temporal", SchedulerInfo(
        "neu10-temporal", TemporalNeu10Scheduler, default=False,
        description="Neu10 temporal-sharing variant"))


def _load_arrivals(reg: Registry) -> None:
    from repro.traffic import arrivals

    descriptions = {
        "poisson": "memoryless steady load",
        "bursty": "two-state MMPP on/off bursts",
        "diurnal": "sinusoidal day/night rate swing",
        "trace": "replay of recorded timestamps",
    }
    for kind, builder in arrivals.BUILDERS.items():
        reg.add(kind, ArrivalInfo(kind, builder, descriptions.get(kind, "")))


def _load_workloads(reg: Registry) -> None:
    from repro.workloads import catalog

    for info in catalog.catalog_entries():
        reg.add(info.name, info)


@dataclass(frozen=True)
class PreemptionInfo:
    """Registry entry for one LLM-serving victim policy.

    ``factory()`` builds a fresh
    :class:`repro.llmserve.preemption.VictimPolicy`; selection itself is
    driven by the engine's seeded RNG, so policies stay stateless.
    """

    name: str
    factory: Callable[[], object]
    description: str = ""

    def make(self) -> object:
        return self.factory()


@dataclass(frozen=True)
class ExecutorInfo:
    """Registry entry for one sweep fan-out backend.

    ``factory(spec)`` builds a fresh :class:`repro.exec.Executor` from
    an :class:`repro.exec.ExecSpec`; the spec carries every declarative
    knob (worker count, timeout, retries, keep-going), so third-party
    backends plug in with just a name and a constructor.
    """

    name: str
    factory: Callable[..., object]
    description: str = ""

    def make(self, spec: object) -> object:
        return self.factory(spec)


def _load_autoscalers(reg: Registry) -> None:
    from repro.cluster import autoscale

    entries = (
        (autoscale.StaticAutoscaler,
         "fixed provisioning (baseline; never scales)"),
        (autoscale.ThresholdAutoscaler,
         "hysteresis on utilization: up above `high`, down below `low`"),
        (autoscale.TargetUtilizationAutoscaler,
         "HPA-style proportional control toward a utilization setpoint"),
        (autoscale.SloBurnRateAutoscaler,
         "error-budget burn rate on SLO attainment (fast up, slow down)"),
    )
    for cls, description in entries:
        reg.add(cls.name, AutoscalerInfo(cls.name, cls, description))


def _load_preemption(reg: Registry) -> None:
    from repro.llmserve.preemption import VICTIM_POLICIES

    descriptions = {
        "lifo": "evict the newest running request (least sunk work)",
        "fifo": "evict the oldest running request",
        "random": "evict a seeded uniform pick (reproducible)",
    }
    for name, cls in VICTIM_POLICIES.items():
        reg.add(name, PreemptionInfo(name, cls, descriptions.get(name, "")))


def _load_executors(reg: Registry) -> None:
    from repro.exec import (
        LocalQueueExecutor,
        PoolExecutor,
        SerialExecutor,
    )

    entries = (
        (SerialExecutor,
         "in-process reference: retries, no parallelism, no timeouts"),
        (PoolExecutor,
         "process-pool fan-out with in-worker retries (default)"),
        (LocalQueueExecutor,
         "spawn-based crew: per-task timeouts, crash isolation, respawn"),
    )
    for cls, description in entries:
        reg.add(cls.name, ExecutorInfo(cls.name, cls, description))


SCHEDULERS = Registry("scheduler scheme", loader=_load_schedulers)
ARRIVALS = Registry("arrival process", loader=_load_arrivals)
WORKLOADS = Registry("workload", loader=_load_workloads)
AUTOSCALERS = Registry("autoscaler policy", loader=_load_autoscalers)
PREEMPTION = Registry("victim policy", loader=_load_preemption)
EXECUTORS = Registry("executor backend", loader=_load_executors)


# ----------------------------------------------------------------------
# Convenience views (the names the old hard-coded lists spelled out)
# ----------------------------------------------------------------------
def make_scheduler(scheme: str) -> object:
    """Instantiate a fresh scheduler for ``scheme`` (registry-backed)."""
    info = SCHEDULERS.get(scheme)
    return info.make()


def scheme_isa(scheme: str) -> str:
    return SCHEDULERS.get(scheme).isa


def default_scheme_names() -> Tuple[str, ...]:
    """The paper's default comparison set (legacy ``ALL_SCHEMES``)."""
    return tuple(
        name for name, info in SCHEDULERS.items() if info.default
    )


def all_scheme_names() -> Tuple[str, ...]:
    """Every registered scheme, including non-default variants."""
    return SCHEDULERS.names()


def arrival_kind_names() -> Tuple[str, ...]:
    return ARRIVALS.names()


def workload_names() -> Tuple[str, ...]:
    return WORKLOADS.names()


def make_autoscaler(policy: str, **params) -> object:
    """Instantiate a fresh autoscaler for ``policy`` (registry-backed).

    ``params`` are passed to the policy's constructor, so unknown knobs
    fail with the policy's own :class:`~repro.errors.ConfigError`.
    """
    info = AUTOSCALERS.get(policy)
    return info.make(**params)


def autoscaler_names() -> Tuple[str, ...]:
    return AUTOSCALERS.names()


def make_executor(spec: object) -> object:
    """Instantiate a fresh executor for ``spec.backend`` (registry-backed).

    ``spec`` is an :class:`repro.exec.ExecSpec`; the entry's factory
    receives it whole, so backend-specific knobs stay declarative.
    """
    info = EXECUTORS.get(spec.backend)  # type: ignore[attr-defined]
    return info.make(spec)


def executor_names() -> Tuple[str, ...]:
    return EXECUTORS.names()


def make_victim_policy(policy: str) -> object:
    """Instantiate a fresh LLM victim policy (registry-backed)."""
    info = PREEMPTION.get(policy)
    return info.make()


def victim_policy_names() -> Tuple[str, ...]:
    return PREEMPTION.names()
