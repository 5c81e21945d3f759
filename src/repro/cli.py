"""Command-line interface: one entry point for every scenario.

Subcommands (``python -m repro.cli ...`` or the installed ``repro``)::

    run scenario.yaml [--json]        # run the scenario(s) in a file
    run scenario.yaml --checkpoint DIR [--resume] [--progress]
    sweep scenario.yaml --param load --values 0.5,0.8,1.1
    serve scenario.yaml [--port 0] [--tick 0.5]  # live HTTP control
    list [--json]                     # figures, schemes, arrivals, models
    fig fig19 fig22 [--json]          # paper-figure experiments
    fig --all                         # every figure (nonzero on failure)
    bench scenario.yaml [--repeats 3] # time a scenario, report cycles/s
    bench scenario.yaml --profile     # + cProfile top-25 (cumulative)
    fuzz --seed 0 --budget 25         # metamorphic fuzzing (exit 1 on bug)
    fuzz --seed 0 --budget 500 --shrink --out /tmp/repros

``--json`` emits the uniform :class:`repro.api.RunResult` schema on
stdout (one object, or a list when several scenarios ran), so output
is scriptable and CI-checkable via
:func:`repro.api.result.validate_run_result`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import Neu10Error


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
_TENANT_COLUMNS = (
    # (metrics key, header, format)
    ("name", "tenant", "{}"),
    ("offered", "offered", "{}"),
    ("arrived", "offered", "{}"),
    ("completed", "done", "{}"),
    ("completed_requests", "done", "{}"),
    ("attainment", "attain", "{:.1%}"),
    ("ttft_attainment", "ttft", "{:.1%}"),
    ("tpot_attainment", "tpot", "{:.1%}"),
    ("generated_tokens", "tokens", "{}"),
    ("swaps", "swaps", "{}"),
    ("sacrifices", "sacr", "{}"),
    ("goodput_rps", "goodput/s", "{:.0f}"),
    ("throughput_rps", "thr/s", "{:.0f}"),
    ("p95_latency_cycles", "p95(cyc)", "{:.0f}"),
    ("mean_latency_cycles", "mean(cyc)", "{:.0f}"),
    ("me_utilization", "ME", "{:.1%}"),
    ("ve_utilization", "VE", "{:.1%}"),
)


def _print_tenant_table(tenants: Sequence[Dict[str, Any]]) -> None:
    columns = [
        (key, header, fmt)
        for key, header, fmt in _TENANT_COLUMNS
        if all(key in t for t in tenants)
    ]
    rows = [
        [fmt.format(t[key]) for key, _h, fmt in columns] for t in tenants
    ]
    headers = [header for _k, header, _f in columns]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows))
        for i in range(len(headers))
    ]
    print("  " + "  ".join(h.rjust(widths[i]) for i, h in enumerate(headers)))
    for row in rows:
        print("  " + "  ".join(c.rjust(widths[i]) for i, c in enumerate(row)))


def _print_result(result) -> None:
    scheme = f" scheme={result.scheme}" if result.scheme else ""
    print(f"==== {result.scenario} [{result.kind}]{scheme}")
    metrics = dict(result.metrics)
    tenants = metrics.get("tenants")
    if isinstance(tenants, list) and tenants:
        metrics.pop("tenants")
        _print_tenant_table(tenants)
    elif isinstance(tenants, dict) and tenants:
        # llm results key tenant reports by name; tabulate the values.
        metrics.pop("tenants")
        _print_tenant_table(
            [{"name": name, **rep} for name, rep in tenants.items()]
        )
    for key, value in metrics.items():
        if isinstance(value, float):
            print(f"  {key}: {value:.6g}")
        elif isinstance(value, (int, str, bool)) or value is None:
            print(f"  {key}: {value}")
        else:
            value = _summarize_long_series(value)
            blob = json.dumps(value, indent=2, default=list)
            indented = "\n".join("    " + line for line in blob.splitlines())
            print(f"  {key}:\n{indented}")


def _summarize_long_series(value, limit: int = 8):
    """Text mode elides long sample lists (KV timelines and the like);
    the full series stays available under ``--json``."""
    if isinstance(value, dict):
        return {k: _summarize_long_series(v, limit) for k, v in value.items()}
    if isinstance(value, list) and len(value) > limit:
        return [*value[:3], f"... {len(value) - 4} more ...", value[-1]]
    return value


def _emit(results: List, as_json: bool, output: Optional[str] = None) -> None:
    payload = (
        results[0].to_dict() if len(results) == 1
        else [r.to_dict() for r in results]
    )
    text = json.dumps(payload, indent=2, default=list)
    if not as_json:
        for result in results:
            _print_result(result)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    elif as_json:
        print(text)


# ----------------------------------------------------------------------
# Subcommand: run
# ----------------------------------------------------------------------
def _select_scenarios(args: argparse.Namespace) -> List:
    """Load the file's scenarios, honouring --scenario NAME."""
    from repro.api import load_scenarios

    scenarios = load_scenarios(args.scenario_file)
    if args.scenario is not None:
        scenarios = [s for s in scenarios if s.name == args.scenario]
        if not scenarios:
            from repro.errors import ConfigError

            raise ConfigError(
                f"no scenario named {args.scenario!r} in "
                f"{args.scenario_file}"
            )
    return scenarios


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import run_scenario

    scenarios = _select_scenarios(args)
    if (args.checkpoint is not None or args.resume) and len(scenarios) != 1:
        from repro.errors import ConfigError

        raise ConfigError(
            "--checkpoint/--resume drive exactly one scenario; "
            "pick one with --scenario NAME"
        )
    # Per-segment ticks are opt-in and never mix into --json output.
    progress = bool(args.progress) and not args.json

    def on_segment(done: int, total: int, observation) -> None:
        if observation is None:
            print(f"  resuming {done}/{total} segment(s) from checkpoint",
                  file=sys.stderr)
            return
        print(f"  [{done}/{total}] segment t={observation.time_s:.6g}s "
              f"hosts={observation.active_hosts} "
              f"offered={observation.offered} "
              f"attained={observation.attained}", file=sys.stderr)

    checkpoint = None
    if args.checkpoint is not None:
        from repro.api import ScenarioCheckpoint

        checkpoint = ScenarioCheckpoint(
            directory=args.checkpoint, every=args.checkpoint_every
        )
    results = [
        run_scenario(
            scenario, resume=args.resume, checkpoint=checkpoint,
            on_segment=(
                on_segment if progress and scenario.kind == "cluster"
                else None
            ),
        )
        for scenario in scenarios
    ]
    _emit(results, args.json, args.output)
    return 0


# ----------------------------------------------------------------------
# Subcommand: serve
# ----------------------------------------------------------------------
def _cmd_serve(args: argparse.Namespace) -> int:
    import os

    from repro.api import load_scenario
    from repro.serve import make_server, serve_forever

    scenario = load_scenario(args.scenario_file, name=args.scenario)
    restore_key = args.restore_key or os.environ.get("REPRO_SERVE_KEY")
    server = make_server(
        scenario, host=args.host, port=args.port, tick_s=args.tick,
        restore_key=restore_key,
    )
    host, port = server.server_address[:2]
    # One machine-readable line so wrappers can discover the bound
    # (possibly ephemeral) port before the server blocks.  The restore
    # key rides along so a wrapper can start a replacement server that
    # accepts this one's snapshots; anyone who can read it can POST
    # /restore, which executes pickled state -- treat it as a secret.
    print(json.dumps({
        "host": host, "port": port, "scenario": scenario.name,
        "tick_s": args.tick,
        "restore_key": server.controller.restore_key,
    }), flush=True)
    try:
        serve_forever(server)
    except KeyboardInterrupt:
        pass
    return 0


# ----------------------------------------------------------------------
# Subcommand: sweep
# ----------------------------------------------------------------------
def _parse_value(raw: str) -> Any:
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.api import load_scenario, sweep_scenario_report

    scenario = load_scenario(args.scenario_file, name=args.scenario)
    values = (
        [_parse_value(v) for v in args.values.split(",")]
        if args.values is not None
        else None
    )
    progress = args.progress if args.progress is not None else not args.json

    def on_progress(done: int, total: int, outcome) -> None:
        if not progress:
            return
        if outcome is None:
            print(f"  resuming {done}/{total} shard(s) from checkpoint",
                  file=sys.stderr)
            return
        if outcome.ok:
            status = "ok"
        else:
            status = f"FAILED ({outcome.failure.error_type})"
        print(f"  [{done}/{total}] shard {outcome.key[:12]} {status} "
              f"(attempt {outcome.attempts})", file=sys.stderr)

    report = sweep_scenario_report(
        scenario, param=args.param, values=values,
        max_workers=args.workers,
        executor=args.executor,
        checkpoint=args.checkpoint,
        resume=args.resume,
        keep_going=True if args.keep_going else None,
        task_timeout_s=args.task_timeout,
        on_progress=on_progress,
    )
    if progress:
        print(f"  sweep done: {len(report.results)}/{report.total} "
              f"point(s) ({report.resumed} resumed) "
              f"via {report.backend}", file=sys.stderr)
    _emit(report.results, args.json, args.output)
    if report.failures:
        for failure in report.failures:
            print(f"sweep point failed: {failure.describe()}",
                  file=sys.stderr)
        print(f"{len(report.failures)} sweep point(s) failed permanently "
              f"(of {report.total})", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# Subcommand: list
# ----------------------------------------------------------------------
def _cmd_list(args: argparse.Namespace) -> int:
    from repro.api import (
        ARRIVALS,
        AUTOSCALERS,
        CHECKPOINT_FIELD_DOCS,
        EXECUTORS,
        EXECUTOR_FIELD_DOCS,
        FAULT_FIELD_DOCS,
        FIGURES,
        LLM_FIELD_DOCS,
        PREEMPTION,
        SCHEDULERS,
        SCENARIO_KINDS,
        VIRTUALIZATION_FIELD_DOCS,
        workload_names,
    )

    if args.json:
        print(json.dumps({
            "figures": {
                name: info.description for name, info in FIGURES.items()
            },
            "schemes": {
                name: {"isa": info.isa, "default": info.default,
                       "description": info.description}
                for name, info in SCHEDULERS.items()
            },
            "arrivals": {
                name: info.description for name, info in ARRIVALS.items()
            },
            "workloads": list(workload_names()),
            "autoscalers": {
                name: info.description for name, info in AUTOSCALERS.items()
            },
            "preemption_policies": {
                name: info.description for name, info in PREEMPTION.items()
            },
            "executors": {
                name: info.description for name, info in EXECUTORS.items()
            },
            "scenario_kinds": list(SCENARIO_KINDS),
            "virtualization": VIRTUALIZATION_FIELD_DOCS,
            "llm": LLM_FIELD_DOCS,
            "executor": EXECUTOR_FIELD_DOCS,
            "faults": FAULT_FIELD_DOCS,
            "checkpoint": CHECKPOINT_FIELD_DOCS,
        }, indent=2))
        return 0
    print("Scenario kinds (for `repro run <file.yaml>`):")
    print("  " + ", ".join(SCENARIO_KINDS))
    print("Figure experiments (for `repro fig <name>`):")
    for name, info in FIGURES.items():
        print(f"  {name:10s} {info.description}")
    print("Scheduler schemes:")
    for name, info in SCHEDULERS.items():
        flag = "" if info.default else "  (extra)"
        print(f"  {name:16s} isa={info.isa}{flag}  {info.description}")
    print("Arrival processes:")
    for name, info in ARRIVALS.items():
        print(f"  {name:10s} {info.description}")
    print("Workloads:")
    print("  " + ", ".join(workload_names()))
    print("Autoscaler policies (cluster scenarios, `autoscaler:` block):")
    for name, info in AUTOSCALERS.items():
        print(f"  {name:20s} {info.description}")
    print("Virtualization control plane (cluster scenarios, "
          "`virtualization:` block):")
    for field_name, blurb in VIRTUALIZATION_FIELD_DOCS.items():
        print(f"  {field_name:20s} {blurb}")
    print("Preemption victim policies (llm scenarios, "
          "`llm.victim_policy`):")
    for name, info in PREEMPTION.items():
        print(f"  {name:20s} {info.description}")
    print("LLM serving (llm scenarios, `llm:` block):")
    for field_name, blurb in LLM_FIELD_DOCS.items():
        print(f"  {field_name:20s} {blurb}")
    print("Executor backends (sweeps, `executor:` block or "
          "`sweep --executor`):")
    for name, info in EXECUTORS.items():
        print(f"  {name:20s} {info.description}")
    print("Executor block fields (`executor:` block):")
    for field_name, blurb in EXECUTOR_FIELD_DOCS.items():
        print(f"  {field_name:20s} {blurb}")
    print("Fault injection (cluster scenarios, `faults:` list):")
    for field_name, blurb in FAULT_FIELD_DOCS.items():
        print(f"  {field_name:20s} {blurb}")
    print("Checkpoint block fields (`checkpoint:` block, cluster "
          "scenarios; also `run --checkpoint DIR`):")
    for field_name, blurb in CHECKPOINT_FIELD_DOCS.items():
        print(f"  {field_name:20s} {blurb}")
    return 0


# ----------------------------------------------------------------------
# Subcommand: fig
# ----------------------------------------------------------------------
def _run_figures(names: Sequence[str], as_json: bool) -> int:
    """Run figure experiments; never abort the batch on one failure."""
    from repro.api import FIGURES

    unknown = [n for n in names if n not in FIGURES.names()]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2

    failures: List[str] = []
    results = []
    for name in names:
        info = FIGURES.get(name)
        start = time.time()
        if not as_json:
            print(f"==== {name} " + "=" * max(1, 60 - len(name)))
        try:
            if as_json:
                results.append(info.run_result())
            elif info.render is not None:
                info.render()
            else:
                _print_result(info.run_result())
        except Exception as exc:  # noqa: BLE001 - keep the batch going
            failures.append(name)
            print(f"FAILED {name}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        if not as_json:
            print(f"---- {name} done in {time.time() - start:.1f}s\n")
    if as_json:
        _emit(results, as_json=True)
    if failures:
        print(f"{len(failures)} experiment(s) failed: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    from repro.api import FIGURES

    names = list(args.names)
    if args.all:
        names = [n for n in FIGURES.names() if n != "ablations"] + (
            ["ablations"] if "ablations" in names else []
        )
    if not names:
        print("error: name at least one experiment (or --all); "
              "see `repro list`", file=sys.stderr)
        return 2
    return _run_figures(names, args.json)


# ----------------------------------------------------------------------
# Subcommand: bench
# ----------------------------------------------------------------------
def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.api import RunResult, run_scenario
    from repro.api.result import base_provenance

    results = []
    for scenario in _select_scenarios(args):
        last = run_scenario(scenario)  # warm caches
        best = float("inf")
        for _ in range(max(1, args.repeats)):
            t0 = time.perf_counter()
            last = run_scenario(scenario)
            best = min(best, time.perf_counter() - t0)
        if args.profile:
            import cProfile
            import io
            import pstats

            prof = cProfile.Profile()
            prof.runcall(run_scenario, scenario)
            buf = io.StringIO()
            stats = pstats.Stats(prof, stream=buf)
            stats.sort_stats("cumulative").print_stats(args.profile)
            print(f"---- profile: {scenario.name} "
                  f"(top {args.profile} by cumulative time)",
                  file=sys.stderr)
            print(buf.getvalue(), file=sys.stderr)
        cycles = last.metrics.get("simulated_cycles")
        metrics: Dict[str, Any] = {"wall_s": best}
        if isinstance(cycles, (int, float)) and cycles > 0:
            metrics["simulated_cycles"] = cycles
            metrics["simulated_cycles_per_wall_s"] = cycles / best
        results.append(RunResult(
            scenario=scenario.name,
            kind="bench",
            scheme=last.scheme,
            metrics=metrics,
            metadata={"repeats": args.repeats, "benched_kind": scenario.kind},
            provenance=base_provenance(
                seed=scenario.seed, scenario_digest=scenario.digest()
            ),
        ))
    _emit(results, args.json, args.output)
    return 0


# ----------------------------------------------------------------------
# Subcommand: fuzz
# ----------------------------------------------------------------------
def _cmd_fuzz(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.fuzz import FuzzConfig, fuzz_run

    out_dir = Path(args.out) if args.out is not None else None
    cfg = FuzzConfig(
        seed=args.seed,
        budget=args.budget,
        tolerance=args.tolerance,
        deep_every=args.deep_every,
        shrink=args.shrink,
        out_dir=out_dir,
    )
    log = (lambda _msg: None) if args.json else (
        lambda msg: print(msg, file=sys.stderr)
    )
    report = fuzz_run(cfg, log=log)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for violation in report.violations:
            print(f"VIOLATION {violation}")
        for path in report.repro_paths:
            print(f"repro written: {path}")
        status = "ok" if report.ok else "FAILED"
        print(
            f"fuzz {status}: {report.scenarios} scenario(s), "
            f"{report.checks_run} check(s), "
            f"{len(report.violations)} violation(s) "
            f"[seed={report.seed}] in {report.elapsed_s:.1f}s"
        )
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    raw = argparse.RawDescriptionHelpFormatter
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Neu10 reproduction (MICRO 2024): scenarios, figures, "
                    "benchmarks.",
        formatter_class=raw,
        epilog=(
            "quickstart:\n"
            "  repro list                                # what's runnable\n"
            "  repro run examples/scenarios/smoke.yaml   # one scenario file\n"
            "  repro fig fig19                           # one paper figure\n"
            "docs: docs/architecture.md, docs/scenario-reference.md"
        ),
    )
    sub = parser.add_subparsers(dest="command")

    def add_io_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true",
                       help="emit the RunResult schema on stdout")
        p.add_argument("--output", default=None,
                       help="also write the JSON result(s) to a file")

    p_run = sub.add_parser(
        "run", help="run the scenario(s) in a YAML/JSON file",
        formatter_class=raw,
        epilog=(
            "examples:\n"
            "  repro run examples/scenarios/smoke.yaml --json\n"
            "  repro run examples/scenarios/showcase.yaml"
            " --scenario cluster-autoscale-demo\n"
            "  repro run cluster.yaml --checkpoint /tmp/ck --progress\n"
            "  repro run cluster.yaml --checkpoint /tmp/ck --resume\n"
            "scenario files are YAML/JSON Scenario specs (kind: serving |\n"
            "open_loop | cluster | llm | figure); "
            "see docs/scenario-reference.md\n"
            "segment checkpoints and resume: docs/live-control.md"
        ),
    )
    p_run.add_argument("scenario_file")
    p_run.add_argument("--scenario", default=None,
                       help="pick one scenario by name from a multi-file")
    p_run.add_argument("--checkpoint", default=None, metavar="DIR",
                       help="journal a segment-level cluster checkpoint to "
                            "DIR as the run advances (cluster scenarios; "
                            "overrides the file's `checkpoint:` block)")
    p_run.add_argument("--checkpoint-every", type=int, default=1,
                       metavar="N",
                       help="with --checkpoint, record every N completed "
                            "segments (default 1)")
    p_run.add_argument("--resume", action="store_true",
                       help="restore from the newest checkpoint in the "
                            "journal and finish the run; the result is "
                            "bit-identical to an uninterrupted run")
    p_run.add_argument("--progress", action="store_true",
                       help="per-segment completion ticks on stderr for "
                            "cluster scenarios (off under --json)")
    add_io_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_serve = sub.add_parser(
        "serve", help="drive one cluster scenario live over HTTP",
        formatter_class=raw,
        epilog=(
            "examples:\n"
            "  repro serve cluster.yaml --port 8123\n"
            "  repro serve cluster.yaml --port 0 --tick 0.5\n"
            "prints one JSON line ({\"host\": ..., \"port\": ...}) on stdout\n"
            "once bound, then blocks.  Endpoints: GET /status /metrics\n"
            "/snapshot /segments?since=N; POST /advance /pause /start\n"
            "/restore /inject.  With --tick the run starts paused and\n"
            "auto-steps one segment per interval after POST /start.\n"
            "see docs/live-control.md"
        ),
    )
    p_serve.add_argument("scenario_file")
    p_serve.add_argument("--scenario", default=None,
                         help="pick one scenario by name from a multi-file")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="bind port; 0 picks an ephemeral port "
                              "(reported on stdout)")
    p_serve.add_argument("--tick", type=float, default=None,
                         metavar="SECONDS",
                         help="auto-step one segment per interval "
                              "(starts paused; POST /start begins)")
    p_serve.add_argument("--restore-key", default=None, metavar="KEY",
                         help="HMAC key authenticating POST /restore "
                              "payloads (default: $REPRO_SERVE_KEY, else "
                              "a fresh random key announced in the "
                              "address line); start a replacement server "
                              "with the dead server's key to restore its "
                              "snapshots")
    p_serve.set_defaults(func=_cmd_serve)

    p_sweep = sub.add_parser(
        "sweep", help="run one scenario across several parameter values",
        formatter_class=raw,
        epilog=(
            "examples:\n"
            "  repro sweep examples/scenarios/smoke.yaml --workers 4\n"
            "  repro sweep examples/scenarios/smoke.yaml"
            " --param scheme --values pmt,neu10\n"
            "  repro sweep examples/scenarios/smoke.yaml"
            " --param hardware.num_mes --values 2,4,8 --json\n"
            "  repro sweep smoke.yaml --executor local-queue"
            " --checkpoint /tmp/ck --task-timeout 120\n"
            "  repro sweep smoke.yaml --checkpoint /tmp/ck --resume\n"
            "without --param/--values the file's `sweep:` block is used;\n"
            "executors, checkpoints and resume: docs/sweeps.md"
        ),
    )
    p_sweep.add_argument("scenario_file")
    p_sweep.add_argument("--scenario", default=None)
    p_sweep.add_argument("--param", default=None,
                         help="scenario field to vary (e.g. load, scheme, "
                              "hardware.num_mes); default: the file's sweep block")
    p_sweep.add_argument("--values", default=None,
                         help="comma-separated values (JSON literals)")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="process-pool width (default: the "
                              "`executor:` block's, else one worker per "
                              "64 points up to the CPU count)")
    p_sweep.add_argument("--executor", default=None,
                         help="fan-out backend from the EXECUTORS registry "
                              "(serial, pool, local-queue) running one "
                              "shard per point; default: the scenario's "
                              "`executor:` block, else pool")
    p_sweep.add_argument("--checkpoint", default=None, metavar="DIR",
                         help="journal completed sweep points to DIR as "
                              "they finish (crash-safe, append-only)")
    p_sweep.add_argument("--resume", action="store_true",
                         help="skip points already journalled in "
                              "--checkpoint DIR; results are bit-identical "
                              "to an uninterrupted run")
    p_sweep.add_argument("--keep-going", action="store_true",
                         help="record permanently failed points as "
                              "structured failures (exit 1) instead of "
                              "aborting the sweep")
    p_sweep.add_argument("--task-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-point wall-clock limit; enforced by the "
                              "local-queue backend (kill + retry)")
    p_sweep.add_argument("--progress", action="store_true", default=None,
                         help="per-shard completion ticks on stderr "
                              "(default: on unless --json)")
    p_sweep.add_argument("--no-progress", dest="progress",
                         action="store_false",
                         help="suppress the progress ticks")
    add_io_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_list = sub.add_parser(
        "list",
        help="list figures, schemes, arrivals, models, autoscalers",
        formatter_class=raw,
        epilog=(
            "`repro list --json` is machine-readable; tools/gen_docs.py\n"
            "turns it into docs/scenario-reference.md"
        ),
    )
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=_cmd_list)

    p_fig = sub.add_parser(
        "fig", help="run paper-figure experiments",
        formatter_class=raw,
        epilog=(
            "examples:\n"
            "  repro fig fig19 fig22        # two figures, human reports\n"
            "  repro fig --all              # everything (exit 1 on failure)\n"
            "  repro fig hwcost --json      # structured RunResult"
        ),
    )
    p_fig.add_argument("names", nargs="*", help="figure names (see `list`)")
    p_fig.add_argument("--all", action="store_true",
                       help="every figure experiment (ablations only when "
                            "also named explicitly)")
    p_fig.add_argument("--json", action="store_true",
                       help="structured RunResults instead of reports")
    p_fig.set_defaults(func=_cmd_fig)

    p_bench = sub.add_parser(
        "bench", help="time a scenario (cycles per wall-second)",
        formatter_class=raw,
        epilog=(
            "example:\n"
            "  repro bench examples/scenarios/showcase.yaml"
            " --scenario serving-bench-pair\n"
            "the full benchmark suite lives in benchmarks/bench_serving.py"
        ),
    )
    p_bench.add_argument("scenario_file")
    p_bench.add_argument("--scenario", default=None)
    p_bench.add_argument("--profile", nargs="?", const=25, default=None,
                         type=int, metavar="N",
                         help="also run each scenario once under cProfile "
                              "and print the top N functions by cumulative "
                              "time to stderr (default N=25)")
    p_bench.add_argument("--repeats", type=int, default=3,
                         help="timed repetitions, best wins (default 3)")
    add_io_flags(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="fuzz the engines with random scenarios + metamorphic "
             "invariants",
        formatter_class=raw,
        epilog=(
            "examples:\n"
            "  repro fuzz --seed 0 --budget 25           # CI smoke\n"
            "  repro fuzz --seed 7 --budget 500 --shrink --out /tmp/repros\n"
            "checks: serialization round-trip, request conservation,\n"
            "determinism (repeat runs, REPRO_SIM_MEGABATCH=0/1,\n"
            "REPRO_SIM_FAST_PATH=0/1, sweep worker counts), attainment\n"
            "monotonicity in load and KV budget, and checkpoint resume\n"
            "after a torn journal; exit 1 when any invariant breaks.\n"
            "--shrink minimizes each failing spec to a replayable YAML;\n"
            "see docs/fuzzing.md"
        ),
    )
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed; scenario i depends only on "
                             "(seed, i) (default 0)")
    p_fuzz.add_argument("--budget", type=int, default=25,
                        help="number of scenarios to generate (default 25)")
    p_fuzz.add_argument("--shrink", action="store_true",
                        help="greedily minimize failing scenarios and write "
                             "repro YAMLs")
    p_fuzz.add_argument("--out", default=None, metavar="DIR",
                        help="directory for shrunk repro YAMLs "
                             "(with --shrink)")
    p_fuzz.add_argument("--tolerance", type=float, default=0.1,
                        help="slack for monotonicity checks, absorbs "
                             "re-drawn arrival noise (default 0.1)")
    p_fuzz.add_argument("--deep-every", type=int, default=5,
                        help="run the expensive differential checks on "
                             "every Nth scenario; 0 disables (default 5)")
    p_fuzz.add_argument("--json", action="store_true",
                        help="emit the campaign report as JSON on stdout")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) is None:
        parser.print_help()
        return 0
    try:
        return args.func(args)
    except Neu10Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
