"""Mega-batch engine core.

Steps many independent :class:`repro.sim.engine.Simulator` instances
("lanes") together through one struct-of-arrays epoch loop.  Lanes in
memoised steady state are bound to shared *chain nodes* (interned
structural states) and advance through per-unit remaining-work arrays
instead of re-fingerprinting and re-planning per epoch.  Results are
bit-identical to running each simulator alone.

Every :func:`repro.exec.map_chunks` task of ``api.runner.sweep_scenario``
and of the cluster host-segment fan-out runs its simulators through
:func:`run_simulators`.
``REPRO_SIM_MEGABATCH=0`` makes it step the lanes one by one with
``Simulator.run()`` -- the differential reference for the engine.
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
