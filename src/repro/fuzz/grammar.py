"""Seeded grammar over random *valid* :class:`Scenario` specs.

The generator is the fuzzer's front half: :func:`generate_scenario`
samples one scenario from a tunable :class:`FuzzGrammar` -- kind, tenant
mix, arrival process, optional control blocks (autoscaler,
virtualization, executor, faults, pools, sweep) -- using only the
supplied ``random.Random`` stream, so every spec is reproducible from
``(seed, index)`` alone.  Every sample satisfies construction-time
*and* registry validation: the grammar's job is to explore the valid
space, the invariant harness's job (:mod:`repro.fuzz.invariants`) is to
prove the engines behave there.

Speed is a design constraint (CI smoke-runs a 25-scenario budget):
durations are a few simulated milliseconds, workloads are the cheap
MNIST/NCF traces (their calibrations are lru-cached across scenarios
because the grammar never varies the hardware block), and LLM scenarios
always pin explicit step costs so they skip simulator calibration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.api.scenario import (
    Scenario,
    ScenarioAutoscaler,
    ScenarioChurn,
    ScenarioLlm,
    ScenarioTenant,
    SweepSpec,
)
from repro.cluster.autoscale import HostPoolSpec
from repro.cluster.virt import FaultSpec, VirtualizationSpec
from repro.errors import ConfigError
from repro.exec import ExecSpec
from repro.llmserve.engine import LlmTenantSpec


@dataclass(frozen=True)
class FuzzGrammar:
    """Tunable knobs of the scenario generator.

    Weights and probabilities shape *where* the fuzzer spends its
    budget; every field has a default chosen so the full grammar stays
    fast enough for the CI smoke budget.
    """

    kinds: Tuple[str, ...] = ("open_loop", "serving", "cluster", "llm")
    kind_weights: Tuple[float, ...] = (0.35, 0.15, 0.3, 0.2)
    models: Tuple[str, ...] = ("MNIST", "NCF")
    schemes: Tuple[str, ...] = ("neu10", "pmt", "v10", "neu10-nh")
    arrivals: Tuple[str, ...] = ("poisson", "bursty", "diurnal")
    batches: Tuple[int, ...] = (1, 4, 8)
    max_tenants: int = 3
    duration_range: Tuple[float, float] = (0.0008, 0.003)
    load_range: Tuple[float, float] = (0.2, 1.4)
    max_seed: int = 2 ** 16
    p_drain: float = 0.5
    p_pools: float = 0.35
    p_autoscaler: float = 0.3
    p_virtualization: float = 0.35
    p_hypercall_cost: float = 0.5
    p_executor: float = 0.2
    p_faults: float = 0.4
    p_sweep: float = 0.25
    max_churn_arrivals: int = 4
    p_depart: float = 0.4
    max_faults: int = 2

    def __post_init__(self) -> None:
        if not self.kinds:
            raise ConfigError("fuzz grammar needs at least one kind")
        if len(self.kind_weights) != len(self.kinds):
            raise ConfigError(
                "kind_weights must match kinds "
                f"({len(self.kind_weights)} vs {len(self.kinds)})"
            )
        if not self.models:
            raise ConfigError("fuzz grammar needs at least one model")


def _round(x: float, places: int = 4) -> float:
    """Quantize sampled floats so specs serialize compactly and stably."""
    return round(x, places)


def _tenants(rng: random.Random, g: FuzzGrammar) -> Tuple[ScenarioTenant, ...]:
    n = rng.randint(1, g.max_tenants)
    return tuple(
        ScenarioTenant(
            model=rng.choice(g.models),
            batch=rng.choice(g.batches),
            weight=_round(rng.uniform(0.5, 2.0), 2),
            priority=rng.choice((0.5, 1.0, 2.0)),
            slo_relative=rng.choice((3.0, 5.0, 8.0)),
        )
        for _ in range(n)
    )


def _churn(
    rng: random.Random, g: FuzzGrammar, duration_s: float
) -> Tuple[ScenarioChurn, ...]:
    """A valid churn script: arrivals, some with later departures."""
    n = rng.randint(1, g.max_churn_arrivals)
    events: List[ScenarioChurn] = []
    for i in range(n):
        # First tenant lands at t=0 so the cluster is never fully idle.
        at = 0.0 if i == 0 else _round(rng.uniform(0.0, 0.7 * duration_s), 6)
        name = f"t{i}"
        events.append(
            ScenarioChurn(
                time_s=at,
                action="arrive",
                name=name,
                model=rng.choice(g.models),
                batch=rng.choice(g.batches),
                num_mes=rng.randint(1, 2),
                num_ves=rng.randint(1, 2),
                weight=_round(rng.uniform(0.5, 1.5), 2),
                priority=rng.choice((0.5, 1.0, 2.0)),
            )
        )
        if rng.random() < g.p_depart:
            depart_at = _round(
                rng.uniform(at + 0.1 * duration_s, duration_s * 0.95), 6
            )
            if depart_at > at:
                events.append(
                    ScenarioChurn(
                        time_s=depart_at, action="depart", name=name
                    )
                )
    events.sort(key=lambda e: (e.time_s, e.action != "depart", e.name))
    return tuple(events)


def _pools(rng: random.Random) -> Tuple[HostPoolSpec, ...]:
    n = rng.randint(1, 2)
    names = ("std", "edge")
    out = []
    for i in range(n):
        min_hosts = rng.randint(1, 2)
        max_hosts = min_hosts + rng.randint(0, 2)
        out.append(
            HostPoolSpec(
                name=names[i],
                cores_per_host=rng.randint(1, 2),
                min_hosts=min_hosts,
                max_hosts=max_hosts,
                initial_hosts=rng.choice((None, min_hosts)),
            )
        )
    return tuple(out)


def _autoscaler(rng: random.Random, duration_s: float) -> ScenarioAutoscaler:
    policy = rng.choice(
        ("static", "threshold", "target-utilization", "slo-burn-rate")
    )
    interval = rng.choice((None, _round(duration_s / 4, 6)))
    return ScenarioAutoscaler(policy=policy, interval_s=interval)


def _virtualization(
    rng: random.Random, g: FuzzGrammar, pools: Tuple[HostPoolSpec, ...]
) -> VirtualizationSpec:
    cost = 0.0
    if rng.random() < g.p_hypercall_cost:
        cost = rng.choice((1e-5, 5e-5, 2e-4))
    pool_vfs = {}
    if pools and rng.random() < 0.5:
        pool_vfs = {pools[0].name: rng.randint(1, 4)}
    return VirtualizationSpec(
        num_vfs=rng.randint(2, 8),
        pool_num_vfs=pool_vfs,
        hypercall_cost_s=cost,
    )


def _faults(
    rng: random.Random, g: FuzzGrammar, duration_s: float
) -> Tuple[FaultSpec, ...]:
    out = []
    for _ in range(rng.randint(1, g.max_faults)):
        kind = rng.choice(
            ("host-crash", "vf-loss", "hypercall-spike", "burst-storm")
        )
        at = _round(rng.uniform(0.1 * duration_s, 0.8 * duration_s), 6)
        if kind in ("hypercall-spike", "burst-storm"):
            out.append(
                FaultSpec(
                    kind=kind,
                    time_s=at,
                    duration_s=_round(
                        rng.uniform(0.1 * duration_s, 0.5 * duration_s), 6
                    ),
                    factor=_round(rng.uniform(1.5, 6.0), 2),
                )
            )
        elif kind == "vf-loss":
            out.append(
                FaultSpec(kind=kind, time_s=at, count=rng.randint(1, 4))
            )
        else:
            out.append(FaultSpec(kind=kind, time_s=at))
    return tuple(out)


def _llm_block(rng: random.Random) -> ScenarioLlm:
    batch_tokens = rng.choice((512, 1024, 2048))
    n = rng.randint(1, 3)
    tenants = tuple(
        LlmTenantSpec(
            name=f"llm{i}",
            prompt_tokens=rng.choice((64, 128, 256)),
            decode_tokens=rng.choice((16, 32, 64)),
            weight=_round(rng.uniform(0.5, 1.5), 2),
        )
        for i in range(n)
    )
    peak = max(t.prompt_tokens + t.decode_tokens for t in tenants)
    # A KV budget between "one request fits" and "plenty" keeps the
    # preemption machinery exercised without starving every run.
    m_total = rng.choice((max(2 * peak, 512), 2048, 8192))
    return ScenarioLlm(
        tenants=tenants,
        batch_tokens=batch_tokens,
        m_total=m_total,
        preemption_mode=rng.choice(("swap", "sacrifice")),
        victim_policy=rng.choice(("lifo", "fifo", "random")),
        # Explicit costs skip simulator calibration: the fuzzer's budget
        # goes to the serving engine, not to repeated llama builds.
        step_overhead_cycles=float(rng.choice((2000, 5000))),
        cycles_per_token=float(rng.choice((20, 40))),
    )


def generate_scenario(
    rng: random.Random, grammar: Optional[FuzzGrammar] = None, index: int = 0
) -> Scenario:
    """Sample one valid scenario from the grammar.

    Deterministic in the ``rng`` stream: the same ``random.Random``
    state always yields the same spec.  The result passes both
    construction-time shape checks and :meth:`Scenario.validate`.
    """
    g = grammar if grammar is not None else FuzzGrammar()
    kind = rng.choices(g.kinds, weights=g.kind_weights, k=1)[0]
    name = f"fuzz-{index:04d}"
    duration_s = _round(rng.uniform(*g.duration_range), 6)
    load = _round(rng.uniform(*g.load_range), 3)
    seed = rng.randrange(g.max_seed)
    scheme = rng.choice(g.schemes)
    arrival = rng.choice(g.arrivals)

    common = dict(
        name=name,
        description=f"fuzz grammar sample #{index}",
        scheme=scheme,
        seed=seed,
    )
    executor = (
        ExecSpec(backend="serial")
        if rng.random() < g.p_executor
        else None
    )
    sweep = (
        SweepSpec(
            param="load",
            values=(load, _round(load * 1.5, 3)),
        )
        if rng.random() < g.p_sweep
        else None
    )

    if kind == "serving":
        return Scenario(
            kind="serving",
            tenants=_tenants(rng, g),
            target_requests=rng.randint(2, 5),
            executor=executor,
            **common,
        )
    if kind == "open_loop":
        return Scenario(
            kind="open_loop",
            tenants=_tenants(rng, g),
            arrival=arrival,
            load=load,
            duration_s=duration_s,
            drain=rng.random() < g.p_drain,
            executor=executor,
            sweep=sweep,
            **common,
        )
    if kind == "cluster":
        pools = _pools(rng) if rng.random() < g.p_pools else ()
        virtualization = (
            _virtualization(rng, g, pools)
            if rng.random() < g.p_virtualization
            else None
        )
        autoscaler = (
            _autoscaler(rng, duration_s)
            if rng.random() < g.p_autoscaler
            else None
        )
        faults = (
            _faults(rng, g, duration_s) if rng.random() < g.p_faults else ()
        )
        return Scenario(
            kind="cluster",
            churn=_churn(rng, g, duration_s),
            hosts=rng.randint(1, 3),
            cores_per_host=rng.randint(1, 2),
            arrival=arrival,
            load=load,
            duration_s=duration_s,
            pools=pools,
            autoscaler=autoscaler,
            virtualization=virtualization,
            faults=faults,
            executor=executor,
            **common,
        )
    if kind == "llm":
        return Scenario(
            kind="llm",
            llm=_llm_block(rng),
            arrival=arrival,
            load=load,
            duration_s=duration_s,
            drain=rng.random() < g.p_drain,
            executor=executor,
            sweep=sweep,
            **common,
        )
    raise ConfigError(f"fuzz grammar cannot generate kind {kind!r}")
