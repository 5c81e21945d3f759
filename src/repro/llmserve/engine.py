"""Continuous-batching LLM serving under a KV-cache HBM budget.

The engine iterates *steps* (vLLM-style iteration-level scheduling):
every running request decodes one token per step, newly admitted
requests prefill their whole prompt in the step they join, and the step
time follows the calibrated :class:`repro.llmserve.cost.LlmCostModel`
(``d0 + d1 * batch_tokens``, plus KV-reload time for swap-ins).  Two
budgets bound each step:

- ``batch_tokens`` -- step token budget ``b``: decodes count 1 token,
  prefills count their full prompt;
- ``m_total`` -- device HBM KV budget in tokens: the sum of resident
  KV caches (each grows by one token per decode step) must fit.

When the running batch's KV growth would overflow ``m_total``, victims
are preempted via the configured :mod:`repro.llmserve.preemption`
policy and mode (``swap`` keeps KV off-device and pays a reload;
``sacrifice`` drops KV and restarts from prefill).  Batch priority is
RUNNING > SWAPPED > WAITING, all ordered by ``(arrival, rid)``.

Everything is seeded through :func:`repro.config.spawn_rng`, so a run
replays bit-exactly in-process and across pool workers.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import DEFAULT_CORE, DEFAULT_SEED, NpuCoreConfig, spawn_rng
from repro.errors import ConfigError, SimulationError
from repro.llmserve.cost import LlmCostModel, calibrate_llm_cost
from repro.llmserve.preemption import PreemptionEvent, check_preemption_mode
from repro.llmserve.requests import (
    FINISHED,
    RUNNING,
    SWAPPED,
    WAITING,
    LlmRequest,
)
from repro.sim.stats import ordered_mean

#: Max KV-occupancy timeline points exported into result metrics.
KV_TIMELINE_POINTS = 200


@dataclass(frozen=True)
class LlmTenantSpec:
    """One open-loop LLM tenant: request geometry plus a load weight."""

    name: str
    prompt_tokens: int = 512
    decode_tokens: int = 64
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("llm tenant needs a name")
        if self.prompt_tokens < 1 or self.decode_tokens < 1:
            raise ConfigError(
                f"llm tenant {self.name!r} needs positive prompt/decode tokens"
            )
        if self.weight <= 0:
            raise ConfigError(f"llm tenant {self.name!r} weight must be > 0")

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.decode_tokens


@dataclass(frozen=True)
class LlmServeConfig:
    """Engine knobs; cost overrides skip simulator calibration."""

    core: NpuCoreConfig = DEFAULT_CORE
    scheme: str = "neu10"
    seed: int = DEFAULT_SEED
    duration_s: float = 1.0
    #: Offered load as a fraction of full-batch decode token capacity.
    load: float = 0.8
    arrival: str = "poisson"
    #: Per-step batch token budget ``b``.
    batch_tokens: int = 2048
    #: Device HBM KV budget ``m_total`` in tokens.
    m_total: int = 8192
    preemption_mode: str = "swap"
    victim_policy: str = "lifo"
    #: Drain every arrival past the horizon (vs stop at the horizon).
    drain: bool = True
    #: TTFT SLO = scale x unqueued prefill step time.
    ttft_slo_scale: float = 5.0
    #: TPOT SLO = scale x full-batch decode step time.
    tpot_slo_scale: float = 1.5
    max_steps: int = 500_000
    step_overhead_cycles: Optional[float] = None
    cycles_per_token: Optional[float] = None
    swap_cycles_per_token: Optional[float] = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigError("duration must be positive")
        if self.load <= 0:
            raise ConfigError("load must be positive")
        if self.batch_tokens < 1 or self.m_total < 1:
            raise ConfigError("batch_tokens and m_total must be positive")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be positive")
        check_preemption_mode(self.preemption_mode)
        if not self.victim_policy:
            raise ConfigError("victim_policy must be named")

    def cost_model(self) -> LlmCostModel:
        """Resolve the step-cost model (explicit overrides or calibrate)."""
        if self.step_overhead_cycles is not None and self.cycles_per_token is not None:
            swap = self.swap_cycles_per_token
            if swap is None:
                from repro.llmserve.cost import default_swap_cycles_per_token

                swap = default_swap_cycles_per_token(self.core)
            return LlmCostModel(
                step_overhead_cycles=self.step_overhead_cycles,
                cycles_per_token=self.cycles_per_token,
                swap_cycles_per_token=swap,
            )
        return calibrate_llm_cost(
            core=self.core,
            scheme=self.scheme,
            swap_cycles_per_token=self.swap_cycles_per_token,
        )


@dataclass
class LlmTenantReport:
    """Per-tenant serving outcome."""

    name: str
    arrived: int
    completed: int
    generated_tokens: int
    swaps: int
    sacrifices: int
    mean_ttft_cycles: float
    mean_tpot_cycles: float
    ttft_target_cycles: float
    tpot_target_cycles: float
    #: Fraction of completed requests meeting each latency target.
    ttft_attainment: float
    tpot_attainment: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "arrived": self.arrived,
            "completed": self.completed,
            "generated_tokens": self.generated_tokens,
            "swaps": self.swaps,
            "sacrifices": self.sacrifices,
            "mean_ttft_cycles": self.mean_ttft_cycles,
            "mean_tpot_cycles": self.mean_tpot_cycles,
            "ttft_target_cycles": self.ttft_target_cycles,
            "tpot_target_cycles": self.tpot_target_cycles,
            "ttft_attainment": self.ttft_attainment,
            "tpot_attainment": self.tpot_attainment,
        }


@dataclass
class LlmServeResult:
    """Whole-run outcome of :func:`run_llm_serving`."""

    scheme: str
    batch_tokens: int
    m_total: int
    preemption_mode: str
    victim_policy: str
    cost: LlmCostModel
    duration_cycles: float
    steps: int
    arrived: int
    completed: int
    goodput_tokens_per_s: float
    peak_kv_tokens: int
    mean_kv_occupancy: float
    tenants: Dict[str, LlmTenantReport]
    events: List[PreemptionEvent] = field(default_factory=list)
    #: ``(cycles, resident KV tokens)`` sampled at every step boundary.
    kv_timeline: List[Tuple[float, int]] = field(default_factory=list)

    @property
    def swap_count(self) -> int:
        return sum(1 for e in self.events if e.mode == "swap")

    @property
    def sacrifice_count(self) -> int:
        return sum(1 for e in self.events if e.mode == "sacrifice")

    @property
    def preemption_count(self) -> int:
        return len(self.events)

    def metrics(self) -> Dict[str, object]:
        """JSON-ready metrics block for :class:`repro.api.RunResult`."""
        stride = max(1, -(-len(self.kv_timeline) // KV_TIMELINE_POINTS))
        timeline = [
            [cycles, kv] for cycles, kv in self.kv_timeline[::stride]
        ]
        return {
            "scheme": self.scheme,
            "batch_tokens": self.batch_tokens,
            "m_total": self.m_total,
            "steps": self.steps,
            "duration_cycles": self.duration_cycles,
            "requests": {"arrived": self.arrived, "completed": self.completed},
            "goodput_tokens_per_s": self.goodput_tokens_per_s,
            "cost": {
                "step_overhead_cycles": self.cost.step_overhead_cycles,
                "cycles_per_token": self.cost.cycles_per_token,
                "swap_cycles_per_token": self.cost.swap_cycles_per_token,
            },
            "kv": {
                "peak_tokens": self.peak_kv_tokens,
                "mean_occupancy": self.mean_kv_occupancy,
                "timeline": timeline,
            },
            "preemption": {
                "mode": self.preemption_mode,
                "policy": self.victim_policy,
                "count": self.preemption_count,
                "swaps": self.swap_count,
                "sacrifices": self.sacrifice_count,
                "events": [e.to_dict() for e in self.events],
            },
            "tenants": {
                name: report.to_dict()
                for name, report in sorted(self.tenants.items())
            },
        }


def _validate_specs(
    specs: Sequence[LlmTenantSpec], cfg: LlmServeConfig
) -> None:
    if not specs:
        raise ConfigError("llm serving needs at least one tenant")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate llm tenant names: {names}")
    for spec in specs:
        if spec.prompt_tokens > cfg.batch_tokens:
            raise ConfigError(
                f"tenant {spec.name!r} prompt ({spec.prompt_tokens}) exceeds "
                f"the step budget batch_tokens={cfg.batch_tokens}; "
                "its prefill could never be scheduled"
            )
        if spec.total_tokens > cfg.m_total:
            raise ConfigError(
                f"tenant {spec.name!r} peak KV ({spec.total_tokens}) exceeds "
                f"m_total={cfg.m_total}; the request could never finish"
            )


def _generate_requests(
    specs: Sequence[LlmTenantSpec],
    cfg: LlmServeConfig,
    cost: LlmCostModel,
    horizon: float,
) -> List[LlmRequest]:
    """Open-loop arrivals; ``load=1.0`` saturates the token capacity."""
    from repro.traffic.arrivals import make_arrival_process

    capacity = cost.token_capacity_per_cycle(cfg.batch_tokens)
    total_weight = sum(s.weight for s in specs)
    timed: List[Tuple[float, str, LlmTenantSpec]] = []
    for idx, spec in enumerate(specs):
        rate = (
            cfg.load
            * (spec.weight / total_weight)
            * capacity
            / spec.total_tokens
        )
        process = make_arrival_process(
            cfg.arrival, rate, duration_cycles=horizon
        )
        rng = spawn_rng(cfg.seed, "llmserve", cfg.arrival, spec.name, idx)
        for t in process.generate(horizon, rng):
            timed.append((t, spec.name, spec))
    timed.sort(key=lambda item: (item[0], item[1]))
    return [
        LlmRequest(
            rid=rid,
            tenant=spec.name,
            arrival_cycles=t,
            prompt_tokens=spec.prompt_tokens,
            decode_tokens=spec.decode_tokens,
        )
        for rid, (t, _name, spec) in enumerate(timed)
    ]


def run_llm_serving(
    specs: Sequence[LlmTenantSpec],
    cfg: LlmServeConfig = LlmServeConfig(),
) -> LlmServeResult:
    """Serve open-loop LLM traffic under KV pressure; fully seeded."""
    _validate_specs(specs, cfg)
    cost = cfg.cost_model()
    horizon = cfg.core.seconds_to_cycles(cfg.duration_s)
    requests = _generate_requests(specs, cfg, cost, horizon)

    # Registry-backed so third-party policies plug in by name (the
    # registry loads lazily -- no import cycle with repro.api).
    from repro.api.registries import make_victim_policy

    policy = make_victim_policy(cfg.victim_policy)
    preempt_rng = spawn_rng(cfg.seed, "llmserve", "victim", cfg.victim_policy)

    wait_heap: List[Tuple[float, int, LlmRequest]] = [
        (r.arrival_cycles, r.rid, r) for r in requests
    ]
    heapq.heapify(wait_heap)
    swapped: List[LlmRequest] = []
    running: List[LlmRequest] = []
    events: List[PreemptionEvent] = []
    kv_timeline: List[Tuple[float, int]] = []
    device_kv = 0
    kv_cycle_area = 0.0
    peak_kv = 0
    now = 0.0
    steps = 0

    while True:
        if not running and not swapped:
            if not wait_heap:
                break
            now = max(now, wait_heap[0][0])
        if not cfg.drain and now >= horizon:
            break
        if steps >= cfg.max_steps:
            raise SimulationError(
                f"llm serving exceeded max_steps={cfg.max_steps} "
                f"({len(wait_heap)} waiting, {len(running)} running)"
            )

        # -- KV pressure: running decodes each grow by one token ----------
        projected = device_kv + len(running)
        sacrificed = False
        while projected > cfg.m_total:
            # Forward-progress guarantee: the FCFS head of the batch is
            # never a victim, so it decodes to completion no matter what
            # the policy picks.  Without this, a policy that victimises
            # the oldest request (fifo) re-evicts the same head each
            # pressure event after it re-prefills, and under sacrifice
            # mode the system repeats that wasted prefill forever.  A
            # lone runner always fits (peak KV is validated <= m_total),
            # so pressure with len(running) == 1 cannot happen.
            candidates = running
            if len(running) > 1:
                head = min(running, key=lambda r: (r.arrival_cycles, r.rid))
                candidates = [r for r in running if r is not head]
            victim = policy.select(candidates, preempt_rng)
            running.remove(victim)
            freed = victim.kv_tokens
            device_kv -= freed
            projected -= freed + 1
            if cfg.preemption_mode == "swap":
                victim.kv_saved = victim.kv_tokens
                victim.kv_tokens = 0
                victim.state = SWAPPED
                victim.swaps += 1
                swapped.append(victim)
            else:
                victim.kv_tokens = 0
                victim.kv_saved = 0
                victim.decoded = 0
                victim.state = WAITING
                victim.sacrifices += 1
                sacrificed = True
                heapq.heappush(
                    wait_heap, (victim.arrival_cycles, victim.rid, victim)
                )
            events.append(
                PreemptionEvent(
                    step=steps,
                    time_cycles=now,
                    rid=victim.rid,
                    tenant=victim.tenant,
                    mode=cfg.preemption_mode,
                    policy=policy.name,
                    kv_freed=freed,
                )
            )

        step_tokens = len(running)
        reload_tokens = 0
        prefilling: List[LlmRequest] = []

        # -- swap-ins first (they already hold paid-for progress) ---------
        swapped.sort(key=lambda r: (r.arrival_cycles, r.rid))
        remaining_swapped: List[LlmRequest] = []
        for req in swapped:
            if (
                step_tokens + 1 <= cfg.batch_tokens
                and projected + req.kv_saved + 1 <= cfg.m_total
            ):
                step_tokens += 1
                projected += req.kv_saved + 1
                reload_tokens += req.kv_saved
                req.kv_tokens = req.kv_saved
                req.kv_saved = 0
                device_kv += req.kv_tokens
                req.state = RUNNING
                req.enter_running_cycles = now
                running.append(req)
            else:
                remaining_swapped.append(req)
        swapped = remaining_swapped

        # -- then waiting prefills, in (arrival, rid) order ---------------
        # A sacrifice means KV pressure, and a sacrificed victim re-enters
        # the heap under its original arrival key -- at or near the head.
        # Admitting here would re-prefill it into the space its own
        # eviction freed, only for the next pressure event to sacrifice
        # it again: a livelock that repeats the same prefill forever
        # (FIFO victims make it deterministic, any policy can cycle).
        # Skipping admission for one step lets the surviving runners
        # decode and finish, so pressure genuinely clears first.
        while not sacrificed and wait_heap and wait_heap[0][0] <= now:
            req = wait_heap[0][2]
            if (
                step_tokens + req.prompt_tokens > cfg.batch_tokens
                or projected + req.prompt_tokens + 1 > cfg.m_total
            ):
                break
            heapq.heappop(wait_heap)
            step_tokens += req.prompt_tokens
            projected += req.prompt_tokens + 1
            req.state = RUNNING
            req.enter_running_cycles = now
            prefilling.append(req)
            running.append(req)

        if not running:
            # Nothing admissible yet; jump to the next arrival.
            if not wait_heap:
                break
            now = max(now, wait_heap[0][0])
            continue

        # -- execute the step ---------------------------------------------
        step_time = cost.batch_cycles(step_tokens)
        step_time += reload_tokens * cost.swap_cycles_per_token
        end = now + step_time
        still_running: List[LlmRequest] = []
        for req in running:
            if req.kv_tokens == 0:  # prefilled this step
                req.kv_tokens = req.prompt_tokens + 1
                device_kv += req.kv_tokens
                req.decoded = 1
                if req.first_token_cycles is None:
                    req.first_token_cycles = end
            else:
                req.kv_tokens += 1
                device_kv += 1
                req.decoded += 1
            if req.decoded >= req.decode_tokens:
                req.state = FINISHED
                req.finish_cycles = end
                device_kv -= req.kv_tokens
                req.kv_tokens = 0
            else:
                still_running.append(req)
        running = still_running
        kv_cycle_area += device_kv * step_time
        peak_kv = max(peak_kv, device_kv)
        kv_timeline.append((end, device_kv))
        now = end
        steps += 1

    # -- reports ------------------------------------------------------------
    from repro.serving.metrics import slo_attainment

    tenants: Dict[str, LlmTenantReport] = {}
    spec_by_name = {s.name: s for s in specs}
    finished_tokens = 0
    for name, spec in spec_by_name.items():
        reqs = [r for r in requests if r.tenant == name]
        done = [r for r in reqs if r.finished]
        ttft_target = cfg.ttft_slo_scale * cost.batch_cycles(
            spec.prompt_tokens
        )
        tpot_target = cfg.tpot_slo_scale * cost.batch_cycles(cfg.batch_tokens)
        ttfts = [r.ttft_cycles for r in done]
        tpots = [r.tpot_cycles for r in done]
        generated = sum(r.decode_tokens for r in done)
        finished_tokens += generated
        tenants[name] = LlmTenantReport(
            name=name,
            arrived=len(reqs),
            completed=len(done),
            generated_tokens=generated,
            swaps=sum(r.swaps for r in reqs),
            sacrifices=sum(r.sacrifices for r in reqs),
            mean_ttft_cycles=ordered_mean(ttfts),
            mean_tpot_cycles=ordered_mean(tpots),
            ttft_target_cycles=ttft_target,
            tpot_target_cycles=tpot_target,
            # Offered accounting: requests still queued at the end
            # count as misses (vacuously 1.0 when nothing arrived).
            ttft_attainment=slo_attainment(
                ttfts, ttft_target, offered=len(reqs)
            ),
            tpot_attainment=slo_attainment(
                tpots, tpot_target, offered=len(reqs)
            ),
        )

    elapsed_s = cfg.core.cycles_to_seconds(now) if now > 0 else 0.0
    return LlmServeResult(
        scheme=cfg.scheme,
        batch_tokens=cfg.batch_tokens,
        m_total=cfg.m_total,
        preemption_mode=cfg.preemption_mode,
        victim_policy=cfg.victim_policy,
        cost=cost,
        duration_cycles=now,
        steps=steps,
        arrived=len(requests),
        completed=sum(1 for r in requests if r.finished),
        goodput_tokens_per_s=(
            finished_tokens / elapsed_s if elapsed_s > 0 else 0.0
        ),
        peak_kv_tokens=peak_kv,
        mean_kv_occupancy=(
            kv_cycle_area / (now * cfg.m_total) if now > 0 else 0.0
        ),
        tenants=tenants,
        events=events,
        kv_timeline=kv_timeline,
    )
