"""Default fan-out width for the process-pool executors.

Every process fan-out goes through an executor from the
:data:`repro.api.registries.EXECUTORS` registry; this module only
decides how wide a pool is by default.  Override the
width with the ``REPRO_PARALLEL_WORKERS`` environment variable (``1``
forces serial execution).
"""

from __future__ import annotations

import os

from repro.errors import ConfigError

#: Environment override for the default pool size.
WORKERS_ENV = "REPRO_PARALLEL_WORKERS"


def default_workers() -> int:
    """Pool size: ``REPRO_PARALLEL_WORKERS`` if set, else the number of
    CPUs this process may actually run on.

    Containerized CI typically pins the process to a subset of the
    machine's cores (cgroup cpusets); ``os.cpu_count()`` reports the
    machine, so a pool sized by it oversubscribes the pinned cores.  The
    scheduling affinity mask is the honest capacity where the platform
    exposes it.
    """
    env = os.environ.get(WORKERS_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError(
                f"{WORKERS_ENV} must be an integer, got {env!r}"
            ) from exc
        if value < 1:
            raise ConfigError(f"{WORKERS_ENV} must be >= 1, got {value}")
        return value
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1
