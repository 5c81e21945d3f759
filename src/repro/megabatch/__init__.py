"""Mega-batch engine core.

Steps many independent :class:`repro.sim.engine.Simulator` instances
("lanes") together through one struct-of-arrays epoch loop.  Lanes in
memoised steady state are bound to shared *chain nodes* (interned
structural states) and advance through per-unit remaining-work arrays
instead of re-fingerprinting and re-planning per epoch.  Results are
bit-identical to running each simulator alone.

:func:`run_simulators` is the one driver for every simulation the
library runs: a single run -- and so every sweep point, which runs as
its own executor shard -- is a batch of one, and each cluster segment
steps all of its busy hosts as one batch.
Simulators that can never bind to a chain node (fast path off, a
scheduler without a memo context, op/assignment/bandwidth recording)
run alone through ``Simulator.run()``.  ``REPRO_SIM_MEGABATCH=0`` makes
it step every simulator that way -- the differential reference for the
engine.
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
