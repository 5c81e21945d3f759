"""``repro.api`` -- the unified scenario layer.

One declarative, serialisable :class:`Scenario` spec describes any run
the repo models (closed-loop collocation, open-loop traffic, cluster
churn, continuous-batching LLM serving, paper figures); string-keyed
registries make schedulers, arrival processes, workloads, autoscalers,
preemption victim policies and figure experiments pluggable; every run
returns the same structured :class:`RunResult`.

Typical use::

    from repro.api import Scenario, ScenarioTenant, run_scenario

    sc = Scenario(
        name="demo", kind="open_loop", scheme="neu10",
        tenants=(ScenarioTenant(model="MNIST", batch=8),
                 ScenarioTenant(model="DLRM", batch=8)),
        load=0.8, duration_s=0.002,
    )
    result = run_scenario(sc)
    print(result.to_json())

or, from a file::

    from repro.api import load_scenario, run_scenario
    result = run_scenario(load_scenario("examples/scenarios/smoke.yaml"))
"""

from repro.api.figures import FIGURES, FigureInfo, figure_names
from repro.api.registries import (
    ARRIVALS,
    AUTOSCALERS,
    EXECUTORS,
    PREEMPTION,
    SCHEDULERS,
    WORKLOADS,
    ArrivalInfo,
    AutoscalerInfo,
    ExecutorInfo,
    PreemptionInfo,
    SchedulerInfo,
    all_scheme_names,
    arrival_kind_names,
    autoscaler_names,
    default_scheme_names,
    executor_names,
    make_autoscaler,
    make_executor,
    make_scheduler,
    make_victim_policy,
    scheme_isa,
    victim_policy_names,
    workload_names,
)
from repro.api.registry import Registry
from repro.api.result import (
    RESULT_SCHEMA_VERSION,
    RunResult,
    figure_result,
    validate_run_result,
)
from repro.api.runner import (
    SweepReport,
    cluster_inputs,
    run_scenario,
    sweep_scenario,
    sweep_scenario_report,
    sweep_variants,
)
from repro.api.scenario import (
    CHECKPOINT_FIELD_DOCS,
    EXECUTOR_FIELD_DOCS,
    FAULT_FIELD_DOCS,
    LLM_FIELD_DOCS,
    SCENARIO_KINDS,
    VIRTUALIZATION_FIELD_DOCS,
    Scenario,
    ScenarioAutoscaler,
    ScenarioCheckpoint,
    ScenarioChurn,
    ScenarioLlm,
    ScenarioTenant,
    SweepSpec,
    load_scenario,
    load_scenarios,
    parse_scenarios,
    save_scenario,
)

__all__ = [
    "ARRIVALS",
    "AUTOSCALERS",
    "ArrivalInfo",
    "AutoscalerInfo",
    "CHECKPOINT_FIELD_DOCS",
    "EXECUTORS",
    "EXECUTOR_FIELD_DOCS",
    "ExecutorInfo",
    "FAULT_FIELD_DOCS",
    "FIGURES",
    "FigureInfo",
    "LLM_FIELD_DOCS",
    "PREEMPTION",
    "PreemptionInfo",
    "RESULT_SCHEMA_VERSION",
    "Registry",
    "RunResult",
    "SCENARIO_KINDS",
    "SCHEDULERS",
    "Scenario",
    "ScenarioAutoscaler",
    "ScenarioCheckpoint",
    "ScenarioChurn",
    "ScenarioLlm",
    "ScenarioTenant",
    "SchedulerInfo",
    "SweepReport",
    "SweepSpec",
    "VIRTUALIZATION_FIELD_DOCS",
    "WORKLOADS",
    "all_scheme_names",
    "arrival_kind_names",
    "autoscaler_names",
    "cluster_inputs",
    "default_scheme_names",
    "executor_names",
    "figure_names",
    "figure_result",
    "load_scenario",
    "load_scenarios",
    "make_autoscaler",
    "make_executor",
    "make_scheduler",
    "make_victim_policy",
    "parse_scenarios",
    "run_scenario",
    "save_scenario",
    "scheme_isa",
    "sweep_scenario",
    "sweep_scenario_report",
    "sweep_variants",
    "validate_run_result",
    "victim_policy_names",
    "workload_names",
]
