"""The CLI: subcommands, --json schema, exit codes."""

import json
from pathlib import Path

import pytest

from repro.api import FIGURES, validate_run_result
from repro.api.figures import FigureInfo
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[2]
SMOKE_YAML = REPO_ROOT / "examples" / "scenarios" / "smoke.yaml"
SHOWCASE_YAML = REPO_ROOT / "examples" / "scenarios" / "showcase.yaml"

TINY_SCENARIO = {
    "name": "tiny",
    "kind": "open_loop",
    "scheme": "neu10",
    "duration_s": 0.0003,
    "load": 0.8,
    "seed": 7,
    "tenants": [{"model": "MNIST", "batch": 8}],
    "sweep": {"param": "load", "values": [0.5, 1.0]},
}


@pytest.fixture
def tiny_file(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_SCENARIO), encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def test_run_json_emits_valid_runresult(tiny_file, capsys):
    assert cli_main(["run", tiny_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    validate_run_result(payload)
    assert payload["scenario"] == "tiny"
    assert payload["metrics"]["simulated_cycles"] > 0


def test_run_human_output(tiny_file, capsys):
    assert cli_main(["run", tiny_file]) == 0
    out = capsys.readouterr().out
    assert "tiny [open_loop]" in out
    assert "MNIST" in out and "attain" in out


def test_run_checked_in_smoke_scenario(capsys):
    pytest.importorskip("yaml")
    assert cli_main(["run", str(SMOKE_YAML), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    validate_run_result(payload)
    assert payload["kind"] == "open_loop"


def test_run_showcase_selects_by_name(capsys):
    pytest.importorskip("yaml")
    code = cli_main([
        "run", str(SHOWCASE_YAML), "--scenario", "figure-ve-idle", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    validate_run_result(payload)
    assert payload["kind"] == "figure"


def test_run_missing_file_returns_one(capsys):
    assert cli_main(["run", "/nonexistent/file.yaml", "--json"]) == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("figure, params, message", [
    ("fig19", {"bogus": 1}, "does not accept param"),
    ("fig06", {"bogus": 1}, "does not accept param"),
    ("fig19", {"schemes": ["pmt", "neu10"]}, "must include"),
    ("fig19", {"schemes": "pmt"}, "list of scheme names"),
    ("fig19", {"schemes": ["pmt", "v10", "neu10", "nope"]},
     "unknown scheduler scheme"),
    ("fig19", {"pairs": [["NCF"]]}, "pairs"),
    ("fig19", {"pairs": "NCF"}, "pairs"),
    ("fig19", {"pairs": [["NCF", "Nope"]]}, "unknown model"),
    ("fig19", {"target_requests": "abc"}, "positive int"),
    ("fig19", {"target_requests": 0}, "positive int"),
])
def test_run_rejects_bad_figure_params(
    figure, params, message, tmp_path, capsys
):
    """Bad figure params fail in the parent with one ConfigError line,
    before any simulation or worker task."""
    from repro.api import Scenario, run_scenario
    from repro.errors import ConfigError

    scenario = {"name": "bad", "kind": "figure", "figure": figure,
                "params": params}
    with pytest.raises(ConfigError, match=message):
        run_scenario(Scenario.from_dict(scenario))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert cli_main(["run", str(path), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


def test_run_output_file(tiny_file, tmp_path, capsys):
    out_path = tmp_path / "result.json"
    assert cli_main(["run", tiny_file, "--json",
                     "--output", str(out_path)]) == 0
    validate_run_result(json.loads(out_path.read_text(encoding="utf-8")))


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def test_sweep_uses_embedded_block(tiny_file, capsys):
    assert cli_main(["sweep", tiny_file, "--json", "--workers", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["scenario"] for p in payload] == [
        "tiny@load=0.5", "tiny@load=1.0",
    ]
    for item in payload:
        validate_run_result(item)


def test_sweep_param_values_override(tiny_file, capsys):
    code = cli_main([
        "sweep", tiny_file, "--param", "scheme",
        "--values", "pmt,neu10", "--json", "--workers", "1",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["scheme"] for p in payload] == ["pmt", "neu10"]


# ----------------------------------------------------------------------
# list / fig
# ----------------------------------------------------------------------
def test_list_json_names_every_registry(capsys):
    assert cli_main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "fig19" in payload["figures"]
    assert "neu10" in payload["schemes"]
    assert "poisson" in payload["arrivals"]
    assert "MNIST" in payload["workloads"]


def test_fig_json_emits_runresult(capsys):
    assert cli_main(["fig", "hwcost", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    validate_run_result(payload)
    assert payload["scenario"] == "hwcost"


def test_fig_unknown_name_returns_two(capsys):
    assert cli_main(["fig", "fig99"]) == 2
    assert "unknown experiments" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Exit-code satellite: a failing experiment must not be silent
# ----------------------------------------------------------------------
def test_failing_experiment_returns_nonzero_but_finishes_batch(capsys):
    def boom():
        raise RuntimeError("injected failure")

    FIGURES.add("boom", FigureInfo(name="boom", run_result=boom,
                                   render=boom, description="test"))
    try:
        code = cli_main(["fig", "hwcost", "boom"])
    finally:
        FIGURES.remove("boom")
    captured = capsys.readouterr()
    assert code == 1
    # hwcost still ran to completion...
    assert "uTOp scheduler hardware cost" in captured.out
    # ...and the failure is reported loudly.
    assert "FAILED boom" in captured.err
    assert "injected failure" in captured.err


def test_fig_all_propagates_failures(capsys, monkeypatch):
    """`fig --all` runs minutes of work; patch the registry down to two
    entries to prove the exit-code contract."""
    def boom():
        raise RuntimeError("kaboom")

    fake = {
        "hwcost": FIGURES.get("hwcost"),
        "broken": FigureInfo(name="broken", run_result=boom, render=boom),
    }
    monkeypatch.setattr(FIGURES, "names", lambda: tuple(fake))
    monkeypatch.setattr(FIGURES, "get", lambda name: fake[name])
    assert cli_main(["fig", "--all"]) == 1
    captured = capsys.readouterr()
    assert "uTOp scheduler hardware cost" in captured.out
    assert "FAILED broken" in captured.err


def test_sweep_values_without_param_overrides_block(tiny_file, capsys):
    code = cli_main(["sweep", tiny_file, "--values", "0.7",
                     "--json", "--workers", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "tiny@load=0.7"
    assert payload["metadata"]["load"] == 0.7


def test_legacy_unknown_experiment_returns_two(capsys):
    """An unknown bare token is not a subcommand: argparse rejects it
    with its usage error."""
    with pytest.raises(SystemExit) as exc:
        cli_main(["frobnicate"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_no_arguments_prints_help(capsys):
    assert cli_main([]) == 0
    assert "run" in capsys.readouterr().out
