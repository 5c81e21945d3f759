"""RunResult.to_dict builds exactly what dataclasses.asdict would.

``to_dict`` builds the envelope directly because ``asdict`` was a third
of a live ``/metrics`` call.  ``asdict`` stays the reference: the same
keys in the same order, the same leaf types (tuples stay tuples, nested
dataclasses become dicts), and nothing mutable shared with the result.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Tuple

import pytest

from repro.api import (
    RunResult,
    Scenario,
    load_scenario,
    load_scenarios,
    run_scenario,
    sweep_scenario_report,
)
from repro.api.result import figure_result

REPO_ROOT = Path(__file__).resolve().parents[2]
SCENARIOS = REPO_ROOT / "examples" / "scenarios"


def _assert_matches_asdict(result: RunResult) -> None:
    """Equal to ``asdict`` down to every leaf's type and key order, and
    independent of ``result``: mutating every container of the returned
    dict leaves the result as it was."""
    reference = asdict(result)
    payload = result.to_dict()
    # repr tells 1 from 1.0 and a list from a tuple, and lists keys in
    # insertion order.
    assert repr(payload) == repr(reference)
    _scribble(payload)
    assert repr(asdict(result)) == repr(reference)


def _scribble(obj) -> None:
    """Mutate every dict and list reachable from ``obj``."""
    if isinstance(obj, dict):
        for value in list(obj.values()):
            _scribble(value)
        obj["scribbled"] = True
    elif isinstance(obj, list):
        for value in obj:
            _scribble(value)
        obj.append("scribbled")
    elif isinstance(obj, tuple):
        for value in obj:
            _scribble(value)


def _example_scenarios():
    yield load_scenario(SCENARIOS / "smoke.yaml")
    yield from load_scenarios(SCENARIOS / "showcase.yaml")
    for path in sorted((SCENARIOS / "adversarial").glob("*.yaml")):
        yield load_scenario(path)


@pytest.mark.parametrize(
    "scenario", list(_example_scenarios()), ids=lambda sc: sc.name
)
def test_example_results_match_asdict(scenario):
    _assert_matches_asdict(run_scenario(scenario))


def test_figure_result_matches_asdict():
    _assert_matches_asdict(
        run_scenario(Scenario(name="fig-hwcost", kind="figure",
                              figure="hwcost"))
    )


def test_sweep_point_matches_asdict():
    report = sweep_scenario_report(
        load_scenario(SCENARIOS / "smoke.yaml"),
        param="load", values=[0.3, 0.6], executor="serial",
    )
    assert len(report.results) == 2
    for point in report.results:
        _assert_matches_asdict(point)


def test_mid_run_serve_metrics_match_asdict():
    from repro.api.runner import _cluster_run_result
    from repro.serve import ServeController

    # Autoscaler, faults and virtualization: every optional section.
    scenario = load_scenario(
        SCENARIOS / "adversarial" / "crash_mid_segment.yaml"
    )
    ctl = ServeController(scenario)
    ctl.advance(segments=3)
    assert not ctl.sim.done
    result = _cluster_run_result(scenario, ctl._cfg, ctl.sim.result())
    _assert_matches_asdict(result)
    assert ctl.metrics() == asdict(result)


@dataclass
class _Inner:
    label: str
    span: Tuple[float, float]


def test_nested_dataclasses_and_tuples_copy_like_asdict():
    result = figure_result(
        "synthetic",
        {
            "inner": _Inner("x", (1.0, 2.0)),
            "pairs": [(1, "a"), (2, "b")],
            "nested": {"tuple": (1, [2, (3, {"k": [4]})]), "none": None},
            "flags": [True, 0, 0.0, -0.0, "s"],
        },
        {"rows": (["a"], ["b"])},
    )
    _assert_matches_asdict(result)
    assert result.to_dict()["metrics"]["inner"] == {
        "label": "x", "span": (1.0, 2.0),
    }
