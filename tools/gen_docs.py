#!/usr/bin/env python
"""Generate ``docs/scenario-reference.md`` from the live registries.

The reference tables -- schedulers, arrival processes, workloads,
figure experiments, autoscaler policies, scenario kinds -- are exactly
what ``repro list --json`` reports, rendered as markdown.  Because the
file is *generated*, it cannot drift from the code: CI runs
``tools/gen_docs.py --check`` and fails when a registry changed without
the reference being regenerated.

Usage::

    PYTHONPATH=src python tools/gen_docs.py            # (re)write the file
    PYTHONPATH=src python tools/gen_docs.py --check    # fail if stale
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, List, Sequence

REPO = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO / "docs" / "scenario-reference.md"

HEADER = """\
# Scenario reference

<!-- GENERATED FILE - DO NOT EDIT.
     Regenerate with: PYTHONPATH=src python tools/gen_docs.py
     CI checks staleness with: tools/gen_docs.py --check -->

Everything in this file is read from the live plugin registries
(`repro.api.SCHEDULERS` / `ARRIVALS` / `WORKLOADS` / `FIGURES` /
`AUTOSCALERS` / `PREEMPTION`), the same source `repro list --json`
reports, so it cannot drift from the code.  Third-party plugins
registered at runtime extend these tables without any documentation
edit -- see [architecture.md](architecture.md) for how the registries
fit together, [autoscaling.md](autoscaling.md) for the autoscaler
how-to, [llm-serving.md](llm-serving.md) for the LLM serving
subsystem, [sweeps.md](sweeps.md) for checkpointed, fault-tolerant
sweeps and [fuzzing.md](fuzzing.md) for the metamorphic fuzz harness
and fault injection.
"""


def _table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> List[str]:
    out = ["| " + " | ".join(headers) + " |",
           "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        out.append("| " + " | ".join(row) + " |")
    return out


def generate() -> str:
    from repro.api import (
        ARRIVALS,
        AUTOSCALERS,
        FIGURES,
        SCENARIO_KINDS,
        SCHEDULERS,
        WORKLOADS,
    )

    lines: List[str] = [HEADER]

    lines.append("## Scenario kinds\n")
    lines.append("`kind:` of a scenario file selects the engine a run "
                 "goes through (`repro run <file.yaml>`):\n")
    kind_blurbs = {
        "serving": "closed-loop collocation (run until every tenant hits "
                   "`target_requests`)",
        "open_loop": "open-loop traffic on one core, scored against "
                     "per-tenant SLOs",
        "cluster": "open-loop traffic across an (optionally autoscaled) "
                   "cluster with tenant churn",
        "llm": "continuous-batching LLM serving under a KV-cache HBM "
               "budget with pluggable preemption (`llm:` block)",
        "figure": "a registered paper-figure experiment (`figure:` names "
                  "it)",
    }
    lines.extend(_table(
        ("kind", "what runs"),
        [(k, kind_blurbs.get(k, "")) for k in SCENARIO_KINDS],
    ))

    lines.append("\n## Scheduler schemes (`scheme:`)\n")
    lines.extend(_table(
        ("name", "ISA", "default set", "description"),
        [
            (name, info.isa, "yes" if info.default else "no",
             info.description)
            for name, info in SCHEDULERS.items()
        ],
    ))

    lines.append("\n## Arrival processes (`arrival:`)\n")
    lines.extend(_table(
        ("name", "description"),
        [(name, info.description) for name, info in ARRIVALS.items()],
    ))

    lines.append("\n## Workloads (`tenants[].model` / churn `model`)\n")
    lines.extend(_table(
        ("name", "abbrev", "category", "HBM footprint @ batch 8"),
        [
            (info.name, info.abbrev, info.category,
             f"{info.hbm_footprint_bytes / 2**30:.2f} GiB")
            for _name, info in WORKLOADS.items()
        ],
    ))

    lines.append("\n## Figure experiments (`repro fig`, `kind: figure`)\n")
    lines.extend(_table(
        ("name", "description"),
        [(name, info.description) for name, info in FIGURES.items()],
    ))

    lines.append("\n## Autoscaler policies (`autoscaler.policy`)\n")
    lines.append("Cluster scenarios close the loop with an `autoscaler:` "
                 "block; `params:` go to the policy constructor "
                 "(see [autoscaling.md](autoscaling.md)):\n")
    lines.extend(_table(
        ("name", "description"),
        [(name, info.description) for name, info in AUTOSCALERS.items()],
    ))

    from repro.api import VIRTUALIZATION_FIELD_DOCS

    lines.append("\n## Virtualization control plane (`virtualization:`)\n")
    lines.append("Cluster scenarios opt into binding SR-IOV/hypercall "
                 "semantics with a `virtualization:` block; its presence "
                 "enables the control-plane metrics (hypercall counts, "
                 "VF-occupancy timeline, VF-exhaustion rejections) on the "
                 "result, and omitting it keeps results bit-identical to "
                 "pre-virtualization releases (see "
                 "[architecture.md](architecture.md)):\n")
    lines.extend(_table(
        ("field", "meaning"),
        [(name, blurb) for name, blurb in VIRTUALIZATION_FIELD_DOCS.items()],
    ))

    from repro.api import LLM_FIELD_DOCS, PREEMPTION

    lines.append("\n## Preemption victim policies (`llm.victim_policy`)\n")
    lines.append("LLM scenarios resolve who gets evicted under KV-cache "
                 "pressure through the `PREEMPTION` registry "
                 "(see [llm-serving.md](llm-serving.md)):\n")
    lines.extend(_table(
        ("name", "description"),
        [(name, info.description) for name, info in PREEMPTION.items()],
    ))

    lines.append("\n## LLM serving (`llm:`)\n")
    lines.append("`kind: llm` scenarios drive the continuous-batching "
                 "engine (`repro.llmserve`): open-loop tenants decode "
                 "against a per-step batch token budget and a device HBM "
                 "KV budget, preempting under pressure (see "
                 "[llm-serving.md](llm-serving.md)):\n")
    lines.extend(_table(
        ("field", "meaning"),
        [(name, blurb) for name, blurb in LLM_FIELD_DOCS.items()],
    ))

    from repro.api import EXECUTOR_FIELD_DOCS, EXECUTORS

    lines.append("\n## Executor backends (`executor.backend`, "
                 "`sweep --executor`)\n")
    lines.append("Sweeps of every kind run through a "
                 "pluggable executor (`repro.exec`); the backend only "
                 "changes *how* points run (parallelism, timeouts, crash "
                 "isolation), never the simulated results (see "
                 "[sweeps.md](sweeps.md)):\n")
    lines.extend(_table(
        ("name", "description"),
        [(name, info.description) for name, info in EXECUTORS.items()],
    ))

    lines.append("\n## Executor block (`executor:`)\n")
    lines.append("Any scenario kind may carry an `executor:` block; "
                 "`repro sweep` flags (`--executor`, `--task-timeout`, "
                 "`--keep-going`, `--workers`) override it per "
                 "invocation without changing the scenario's digest:\n")
    lines.extend(_table(
        ("field", "meaning"),
        [(name, blurb) for name, blurb in EXECUTOR_FIELD_DOCS.items()],
    ))

    from repro.api import FAULT_FIELD_DOCS
    from repro.cluster.virt import FAULT_KINDS

    lines.append("\n## Fault injection (`faults:`)\n")
    lines.append("Cluster scenarios may declare a `faults:` list of "
                 "injected failures (" +
                 ", ".join(f"`{k}`" for k in FAULT_KINDS) +
                 "); each applied fault lands in the result's "
                 "`fault_events` audit log, and an empty list keeps "
                 "results bit-identical to fault-free releases (see "
                 "[fuzzing.md](fuzzing.md) for the adversarial harness "
                 "built on top):\n")
    lines.extend(_table(
        ("field", "meaning"),
        [(name, blurb) for name, blurb in FAULT_FIELD_DOCS.items()],
    ))

    from repro.api import CHECKPOINT_FIELD_DOCS

    lines.append("\n## Segment checkpoints (`checkpoint:`)\n")
    lines.append("Cluster scenarios may declare a `checkpoint:` block "
                 "(or pass `repro run --checkpoint DIR`): the run "
                 "journals a versioned, digest-stamped snapshot at "
                 "segment boundaries, and `repro run --resume` restores "
                 "the newest one and finishes bit-identically to an "
                 "uninterrupted run.  The same snapshots drive "
                 "`repro serve` live control (see "
                 "[live-control.md](live-control.md)):\n")
    lines.extend(_table(
        ("field", "meaning"),
        [(name, blurb) for name, blurb in CHECKPOINT_FIELD_DOCS.items()],
    ))

    lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the checked-in reference is stale")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    content = generate()
    if args.check:
        if not args.output.exists():
            print(f"STALE: {args.output} does not exist; "
                  "run tools/gen_docs.py", file=sys.stderr)
            return 1
        on_disk = args.output.read_text(encoding="utf-8")
        if on_disk != content:
            print(f"STALE: {args.output} does not match the live "
                  "registries; run tools/gen_docs.py and commit the result",
                  file=sys.stderr)
            return 1
        print(f"{args.output} is up to date")
        return 0
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(content, encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
