"""The ``bench_serving.py --check-floor`` gate.

Each floor names the record key it bounds, in that key's unit: a rate
in cycles (or steps) per wall-second, or a dimensionless ratio such as
``mega_batch``'s ``speedup_vs_per_point``.
"""

from __future__ import annotations

import json

from bench_serving import FLOOR_PATH, check_floor


def _floor_file(tmp_path, floors):
    path = tmp_path / "floor.json"
    path.write_text(json.dumps({"floors": floors}), encoding="utf-8")
    return path


def test_ratio_below_its_floor_fails_with_its_decimals(tmp_path):
    floor = _floor_file(
        tmp_path, {"mega_batch": {"speedup_vs_per_point": 1.5}}
    )
    record = {"scenarios": {"mega_batch": {"speedup_vs_per_point": 1.43}}}
    assert check_floor(record, floor) == [
        "mega_batch: speedup_vs_per_point 1.43 below floor 1.50"
    ]


def test_ratio_at_its_floor_passes(tmp_path):
    floor = _floor_file(
        tmp_path, {"mega_batch": {"speedup_vs_per_point": 1.5}}
    )
    record = {"scenarios": {"mega_batch": {"speedup_vs_per_point": 1.5}}}
    assert check_floor(record, floor) == []


def test_missing_key_fails(tmp_path):
    floor = _floor_file(
        tmp_path, {"mega_batch": {"speedup_vs_per_point": 1.5}}
    )
    record = {
        "scenarios": {"mega_batch": {"simulated_cycles_per_wall_s": 2e8}}
    }
    assert check_floor(record, floor) == [
        "mega_batch: no 'speedup_vs_per_point' in results"
    ]


def test_missing_mode_fails(tmp_path):
    floor = _floor_file(
        tmp_path, {"mega_batch": {"speedup_vs_per_point": 1.5}}
    )
    assert check_floor({"scenarios": {}}, floor) == [
        "scenario 'mega_batch' missing from results"
    ]


def test_rates_print_as_whole_numbers(tmp_path):
    floor = _floor_file(
        tmp_path, {"poisson": {"simulated_cycles_per_wall_s": 14_000_000}}
    )
    record = {
        "scenarios": {"poisson": {"simulated_cycles_per_wall_s": 9_876_543.2}}
    }
    assert check_floor(record, floor) == [
        "poisson: simulated_cycles_per_wall_s 9,876,543 below floor "
        "14,000,000"
    ]


def test_checked_in_floor_gates_mega_batch_on_its_speedup():
    floors = json.loads(FLOOR_PATH.read_text(encoding="utf-8"))["floors"]
    assert list(floors["mega_batch"]) == ["speedup_vs_per_point"]
    assert 1.0 < floors["mega_batch"]["speedup_vs_per_point"]


def _stub_suite(quick=False, repeats=3):
    return {"suite_version": 2, "quick": quick, "repeats": repeats,
            "fast_path": True, "scenarios": {}}


def test_quick_run_leaves_the_trajectory_alone(tmp_path, monkeypatch):
    import bench_serving

    result_path = tmp_path / "BENCH_serving.json"
    monkeypatch.setattr(bench_serving, "RESULT_PATH", result_path)
    monkeypatch.setattr(bench_serving, "run_suite", _stub_suite)
    assert bench_serving.main(["--quick"]) == 0
    assert not result_path.exists()
    smoke = tmp_path / "smoke.json"
    assert bench_serving.main(["--quick", "--output", str(smoke)]) == 0
    assert json.loads(smoke.read_text(encoding="utf-8"))["quick"] is True
    assert not result_path.exists()


def test_full_run_writes_the_trajectory(tmp_path, monkeypatch):
    import bench_serving

    result_path = tmp_path / "BENCH_serving.json"
    monkeypatch.setattr(bench_serving, "RESULT_PATH", result_path)
    monkeypatch.setattr(bench_serving, "run_suite", _stub_suite)
    assert bench_serving.main([]) == 0
    assert json.loads(result_path.read_text(encoding="utf-8"))["quick"] is False
