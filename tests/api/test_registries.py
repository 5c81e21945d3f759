"""Registries: single source of scheme/arrival/workload names + plugins."""

import pytest

from repro.api import (
    ARRIVALS,
    FIGURES,
    SCHEDULERS,
    WORKLOADS,
    ArrivalInfo,
    SchedulerInfo,
    all_scheme_names,
    default_scheme_names,
)
from repro.api.registry import Registry
from repro.errors import ConfigError


# ----------------------------------------------------------------------
# The dedup satellite: one source of truth for scheme names
# ----------------------------------------------------------------------
def test_serving_scheme_lists_come_from_the_registry():
    from repro.serving import server

    assert server.ALL_SCHEMES == default_scheme_names()
    assert server.ALL_SCHEMES == ("pmt", "v10", "neu10-nh", "neu10")
    assert "neu10-temporal" in all_scheme_names()


def test_make_scheduler_matches_legacy_factory():
    from repro.api.registries import make_scheduler
    from repro.baselines.pmt import PmtScheduler
    from repro.sim.sched_neu10 import Neu10Scheduler

    assert isinstance(make_scheduler("pmt"), PmtScheduler)
    assert isinstance(make_scheduler("neu10"), Neu10Scheduler)
    # Fresh instance per call (schedulers are stateful).
    assert make_scheduler("neu10") is not make_scheduler("neu10")


def test_unknown_scheme_error_is_helpful():
    with pytest.raises(ConfigError) as exc:
        SCHEDULERS.get("neu20")
    message = str(exc.value)
    assert "known:" in message and "neu10" in message


def test_arrival_kinds_match_traffic_module():
    from repro.traffic.arrivals import ARRIVAL_KINDS

    assert ARRIVALS.names() == ARRIVAL_KINDS


def test_workloads_registry_matches_catalog():
    from repro.workloads.catalog import catalog_entries

    assert WORKLOADS.names() == tuple(i.name for i in catalog_entries())


def test_figures_registry_has_descriptions_and_runners():
    assert "fig19" in FIGURES and "hwcost" in FIGURES
    for _name, info in FIGURES.items():
        assert callable(info.run_result)
        assert info.description


# ----------------------------------------------------------------------
# Plugins
# ----------------------------------------------------------------------
def test_scheduler_plugin_flows_through_every_front_end():
    from repro.api.registries import make_scheduler, scheme_isa
    from repro.sim.sched_neu10 import Neu10Scheduler

    SCHEDULERS.add("test-plugin", SchedulerInfo(
        "test-plugin", Neu10Scheduler, isa="neuisa", default=False,
        description="unit-test plugin",
    ))
    try:
        assert isinstance(make_scheduler("test-plugin"), Neu10Scheduler)
        assert scheme_isa("test-plugin") == "neuisa"
        assert "test-plugin" in all_scheme_names()
        # Not part of the paper's default comparison set.
        assert "test-plugin" not in default_scheme_names()
    finally:
        SCHEDULERS.remove("test-plugin")
    assert "test-plugin" not in all_scheme_names()


def test_arrival_plugin_is_constructible_by_name():
    from repro.traffic.arrivals import PoissonProcess, make_arrival_process

    ARRIVALS.add("test-poisson", ArrivalInfo(
        "test-poisson", lambda rate, **_kw: PoissonProcess(rate),
    ))
    try:
        process = make_arrival_process("test-poisson", 1e-4)
        assert isinstance(process, PoissonProcess)
    finally:
        ARRIVALS.remove("test-poisson")
    with pytest.raises(ConfigError):
        make_arrival_process("test-poisson", 1e-4)


# ----------------------------------------------------------------------
# Registry mechanics
# ----------------------------------------------------------------------
def test_duplicate_registration_is_rejected_unless_overwritten():
    reg = Registry("thing")
    reg.add("a", 1)
    with pytest.raises(ConfigError, match="already registered"):
        reg.add("a", 2)
    reg.add("a", 2, overwrite=True)
    assert reg.get("a") == 2


def test_register_decorator_and_suggestions():
    reg = Registry("thing")

    @reg.register("fancy")
    def entry():
        return 42

    assert reg.get("fancy") is entry
    with pytest.raises(ConfigError, match="did you mean 'fancy'"):
        reg.get("fancyy")
    with pytest.raises(ConfigError, match="non-empty string"):
        reg.add("", 1)


def test_failed_loader_rolls_back_and_retries():
    attempts = []

    def loader(reg):
        reg.add("early", 1)
        if not attempts:
            attempts.append("fail")
            raise ImportError("transient")
        attempts.append("ok")

    reg = Registry("flaky", loader=loader)
    with pytest.raises(ImportError, match="transient"):
        reg.get("early")
    # The root cause surfaces again (no silent half-populated registry)
    # and a later attempt that succeeds serves the full set.
    assert reg.get("early") == 1
    assert attempts == ["fail", "ok"]


def test_lazy_loader_runs_once():
    calls = []

    def loader(reg):
        calls.append(1)
        reg.add("x", "y")

    reg = Registry("lazy", loader=loader)
    assert not calls  # nothing loaded at construction
    assert "x" in reg
    assert reg.names() == ("x",)
    assert calls == [1]
