"""Error-hierarchy and miscellaneous coverage tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import errors


def test_all_errors_derive_from_neu10error():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            assert issubclass(obj, errors.Neu10Error) or obj is errors.Neu10Error


def test_specific_hierarchy_relations():
    assert issubclass(errors.SchedulerError, errors.SimulationError)
    assert issubclass(errors.HypercallError, errors.VirtualizationError)
    assert issubclass(errors.DmaFault, errors.VirtualizationError)


def test_catching_base_covers_subsystems():
    with pytest.raises(errors.Neu10Error):
        raise errors.CommandRingError("x")
    with pytest.raises(errors.Neu10Error):
        raise errors.SegmentationFault("x")


def test_package_exports():
    assert repro.__version__
    for name in repro.__all__:
        assert hasattr(repro, name), name


#: A scenario dict shaped like perfbench's seed_sweep point.
_OPEN_LOOP = {
    "name": "o", "kind": "open_loop", "scheme": "neu10",
    "arrival": "poisson", "load": 0.8, "duration_s": 0.003, "seed": 1,
    "tenants": [{"model": "MNIST", "batch": 8}, {"model": "DLRM", "batch": 8}],
}

IMPORT_LIGHT = {
    "run-paths": (
        "import repro.api, repro.megabatch, repro.serve\n"
        "import repro.traffic.cluster_sim\n",
        ("numpy",),
    ),
    "figure-scenario": (
        "import repro.api\n"
        "repro.api.Scenario.from_dict("
        "{'name': 'f', 'kind': 'figure', 'figure': 'fig19'}).validate()\n",
        ("numpy", "repro.cluster", "repro.llmserve", "repro.exec",
         "multiprocessing"),
    ),
    "open-loop-scenario": (
        "import repro.api\n"
        f"repro.api.Scenario.from_dict({_OPEN_LOOP!r}).validate()\n",
        ("numpy", "repro.llmserve", "repro.exec", "multiprocessing"),
    ),
}


@pytest.mark.parametrize(
    "snippet, absent", IMPORT_LIGHT.values(), ids=IMPORT_LIGHT.keys()
)
def test_run_paths_do_not_import_numpy(snippet, absent):
    """numpy is not a dependency: a fresh interpreter loading every run
    path (scenarios, batch engine, live control, cluster driver) must
    not pull it in.  Nor may parsing a scenario load an engine that
    only a block it does not hold needs."""
    code = (
        "import sys\n"
        + snippet
        + f"loaded = [m for m in {absent!r} if m in sys.modules]\n"
        "assert not loaded, f'imported {loaded}'\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_ablations_driver_smoke():
    from repro.experiments.ablations import ablate_harvesting

    points = ablate_harvesting("MNIST", "DLRM", target_requests=1)
    assert set(points) == {"harvest-on", "harvest-off"}
    for point in points.values():
        assert all(t > 0 for t in point.throughputs)


def test_fig25_driver_smoke():
    from repro.experiments.fig25_scaling import run as fig25

    result = fig25("MNIST", "DLRM", configs=[(2, 2), (4, 4)],
                   target_requests=1)
    assert (2, 2) in result.points and (4, 4) in result.points
    assert result.points[(2, 2)]["v10"] == pytest.approx(1.0, rel=0.2)


def test_fig26_driver_smoke():
    from repro.experiments.fig26_bandwidth import run as fig26

    result = fig26("MNIST", "DLRM", bandwidths_gbps=[1200],
                   target_requests=1)
    assert 1200 in result.speedup
    assert result.speedup[1200] > 0
    assert result.is_monotone_nondecreasing()


def test_serving_temporal_scheme():
    """The fifth scheme (oversubscribed temporal sharing) completes the
    standard collocation run."""
    from repro.serving.server import (
        SCHEME_TEMPORAL,
        ServingConfig,
        WorkloadSpec,
        run_collocation,
    )

    pair = run_collocation(
        [
            WorkloadSpec("MNIST", 8, alloc_mes=4, alloc_ves=4),
            WorkloadSpec("DLRM", 8, alloc_mes=4, alloc_ves=4),
        ],
        SCHEME_TEMPORAL,
        ServingConfig(target_requests=2),
    )
    assert all(t.completed_requests >= 2 for t in pair.tenants)
