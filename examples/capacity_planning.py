#!/usr/bin/env python
"""Capacity planning with the vNPU allocator (paper SectionIII-B/Fig. 12).

A cloud operator wants to sell pay-as-you-go vNPUs.  For a set of
customer workloads this example:

1. profiles each workload and derives its optimal ME:VE ratio (Eq. 4);
2. sweeps EU budgets and shows predicted utilisation per configuration;
3. validates the analytical pick against simulation for one model;
4. packs the resulting vNPUs onto a board with the greedy mapper.

Run:  python examples/capacity_planning.py
"""

from repro.config import DEFAULT_CORE
from repro.core.allocator import VnpuAllocator, optimal_me_ve_ratio, utilization
from repro.core.mapper import MappingMode, VnpuMapper
from repro.core.vnpu import VnpuInstance
from repro.experiments.fig12_allocator import run as allocator_sweep
from repro.workloads.traces import build_trace

CUSTOMER_MODELS = ["BERT", "DLRM", "ResNet", "EfficientNet", "NCF"]


def main() -> None:
    core = DEFAULT_CORE.with_engines(8, 8)
    allocator = VnpuAllocator(core)

    # -- 1. Optimal ME:VE ratios per workload ---------------------------
    print("Optimal ME:VE ratios (Eq. 4):")
    profiles = {}
    for model in CUSTOMER_MODELS:
        trace = build_trace(model, batch=32, core=core)
        profiles[model] = trace.profile
        k = optimal_me_ve_ratio(trace.profile.m, trace.profile.v)
        print(f"  {model:14s} m={trace.profile.m:.3f} v={trace.profile.v:.3f} "
              f"-> k = nm/nv = {k:.2f}")

    # -- 2. EU budget sweep ----------------------------------------------
    print("\nAllocations per EU budget (MEs, VEs) + predicted utilization:")
    header = "  model          " + "".join(f"{eus:>12d}EU" for eus in (4, 8, 12, 16))
    print(header)
    for model, profile in profiles.items():
        cells = []
        for eus in (4, 8, 12, 16):
            result = allocator.allocate(profile, eus)
            cells.append(
                f"  ({result.num_mes},{result.num_ves}) {result.predicted_utilization*100:3.0f}%"
            )
        print(f"  {model:14s}" + "".join(f"{c:>14s}" for c in cells))

    # -- 3. Validate against simulation for BERT -------------------------
    print("\nSimulated validation for BERT (Fig. 12 methodology):")
    sweep = allocator_sweep("BERT", batch=32, budgets=[4, 8])
    for point in sweep.points:
        print(f"  EUs={point.total_eus}: allocator picked {point.selected} "
              f"(best {point.best}), efficiency {point.efficiency*100:.1f}%")

    # -- 4. Pack vNPUs onto a 4-core board --------------------------------
    print("\nPacking allocator-sized vNPUs onto 4 physical cores:")
    mapper = VnpuMapper([core] * 4, mode=MappingMode.SPATIAL)
    for vnpu_id, (model, profile) in enumerate(profiles.items(), start=1):
        result = allocator.allocate(profile, 8)
        vnpu = VnpuInstance(
            config=result.as_vnpu_config(), owner=model, vnpu_id=vnpu_id
        )
        pnpu = mapper.map(vnpu)
        print(f"  {model:14s} ({result.num_mes},{result.num_ves}) "
              f"-> pNPU core {pnpu.core_index} "
              f"(now {pnpu.mes_committed}/{core.num_mes} MEs committed)")


if __name__ == "__main__":
    main()
