"""Mega-batch engine core.

Runs many independent :class:`repro.sim.engine.Simulator` instances
("lanes"), each in its own ``Simulator.run()`` epoch loop with a
promotion hook.  In memoised steady state the hook binds the lane to
shared *chain nodes* (interned structural states), where it advances
through per-unit remaining-work arrays instead of re-fingerprinting and
re-planning per epoch.  Results are bit-identical to running each
simulator without the hook.

:func:`run_simulators` is the one driver for every simulation the
library runs: a single run -- and so every sweep point, which runs as
its own executor shard -- is a batch of one, and each cluster segment
steps all of its busy hosts as one batch.
Simulators that can never bind to a chain node (fast path off, a
scheduler without a memo context, op/assignment/bandwidth recording)
run through ``Simulator.run()`` without a hook.
``REPRO_SIM_MEGABATCH=0`` makes it run every simulator that way -- the
differential reference for the engine.
"""

from repro.megabatch.engine import (
    MEGABATCH_ENV,
    MegaBatchEngine,
    megabatch_default,
    run_simulators,
)

__all__ = [
    "MEGABATCH_ENV",
    "MegaBatchEngine",
    "megabatch_default",
    "run_simulators",
]
