"""Open-loop arrival processes.

Every process generates per-tenant request timestamps (in core cycles,
sorted, within ``[0, duration)``) from an explicit ``random.Random``
stream, so a whole traffic scenario replays bit-exactly from one seed
(see :func:`repro.config.spawn_rng`).

Four families cover the workload axis the closed-loop methodology
cannot:

- :class:`PoissonProcess`     -- memoryless steady load;
- :class:`OnOffProcess`       -- bursty MMPP-style on/off modulation;
- :class:`DiurnalProcess`     -- slow sinusoidal rate swing (day/night);
- :class:`TraceProcess`       -- replay of recorded timestamps (CSV).
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

from repro.errors import ConfigError


class ArrivalProcess:
    """Base class: a rate-parameterised generator of arrival times."""

    kind = "base"

    #: Mean arrivals per cycle (used for load accounting and display).
    mean_rate_per_cycle: float = 0.0

    def generate(self, duration_cycles: float, rng: random.Random) -> List[float]:
        raise NotImplementedError

    @staticmethod
    def _check_duration(duration_cycles: float) -> None:
        if duration_cycles <= 0:
            raise ConfigError("arrival window must be positive")


class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals: exponential inter-arrival gaps."""

    kind = "poisson"

    def __init__(self, rate_per_cycle: float) -> None:
        if rate_per_cycle <= 0:
            raise ConfigError("arrival rate must be positive")
        self.mean_rate_per_cycle = rate_per_cycle

    def generate(self, duration_cycles: float, rng: random.Random) -> List[float]:
        self._check_duration(duration_cycles)
        out: List[float] = []
        t = rng.expovariate(self.mean_rate_per_cycle)
        while t < duration_cycles:
            out.append(t)
            t += rng.expovariate(self.mean_rate_per_cycle)
        return out


class OnOffProcess(ArrivalProcess):
    """Two-state MMPP: Poisson bursts separated by silent periods.

    State dwell times are exponential with means ``mean_on_cycles`` and
    ``mean_off_cycles``; during ON the instantaneous rate is scaled so
    the *long-run* mean rate equals ``mean_rate_per_cycle``.  The same
    mean load as :class:`PoissonProcess` therefore arrives with a much
    higher inter-arrival coefficient of variation -- the interesting
    regime for SLO attainment.
    """

    kind = "bursty"

    def __init__(
        self,
        mean_rate_per_cycle: float,
        mean_on_cycles: float,
        mean_off_cycles: float,
    ) -> None:
        if mean_rate_per_cycle <= 0:
            raise ConfigError("arrival rate must be positive")
        if mean_on_cycles <= 0 or mean_off_cycles < 0:
            raise ConfigError("burst durations must be positive")
        self.mean_rate_per_cycle = mean_rate_per_cycle
        self.mean_on = mean_on_cycles
        self.mean_off = mean_off_cycles
        duty = mean_on_cycles / (mean_on_cycles + mean_off_cycles)
        self.on_rate = mean_rate_per_cycle / duty

    def generate(self, duration_cycles: float, rng: random.Random) -> List[float]:
        self._check_duration(duration_cycles)
        out: List[float] = []
        t = 0.0
        on = True
        while t < duration_cycles:
            dwell = rng.expovariate(1.0 / (self.mean_on if on else self.mean_off))
            end = min(duration_cycles, t + dwell)
            if on:
                s = t + rng.expovariate(self.on_rate)
                while s < end:
                    out.append(s)
                    s += rng.expovariate(self.on_rate)
            t = end
            on = not on
        return out


class DiurnalProcess(ArrivalProcess):
    """Non-homogeneous Poisson with a sinusoidal rate (thinning method).

    ``rate(t) = mean * (1 + amplitude * sin(2*pi*t/period))`` -- the
    cluster-scale day/night swing compressed into simulation time.
    """

    kind = "diurnal"

    def __init__(
        self,
        mean_rate_per_cycle: float,
        period_cycles: float,
        amplitude: float = 0.8,
    ) -> None:
        if mean_rate_per_cycle <= 0:
            raise ConfigError("arrival rate must be positive")
        if period_cycles <= 0:
            raise ConfigError("diurnal period must be positive")
        if not 0.0 <= amplitude < 1.0:
            raise ConfigError("diurnal amplitude must be in [0, 1)")
        self.mean_rate_per_cycle = mean_rate_per_cycle
        self.period = period_cycles
        self.amplitude = amplitude

    def rate_at(self, t: float) -> float:
        return self.mean_rate_per_cycle * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period)
        )

    def generate(self, duration_cycles: float, rng: random.Random) -> List[float]:
        self._check_duration(duration_cycles)
        peak = self.mean_rate_per_cycle * (1.0 + self.amplitude)
        out: List[float] = []
        t = rng.expovariate(peak)
        while t < duration_cycles:
            if rng.random() <= self.rate_at(t) / peak:
                out.append(t)
            t += rng.expovariate(peak)
        return out


class TraceProcess(ArrivalProcess):
    """Replay recorded arrival timestamps (already in cycles)."""

    kind = "trace"

    def __init__(self, times_cycles: Sequence[float]) -> None:
        times = sorted(float(t) for t in times_cycles)
        if times and times[0] < 0:
            raise ConfigError("trace timestamps cannot be negative")
        self.times = times
        if times:
            span = max(times[-1], 1.0)
            self.mean_rate_per_cycle = len(times) / span

    def generate(self, duration_cycles: float, rng: random.Random) -> List[float]:
        self._check_duration(duration_cycles)
        del rng  # replay is deterministic by construction
        return [t for t in self.times if t < duration_cycles]


def load_trace_csv(path: str, frequency_hz: Optional[float] = None) -> List[float]:
    """Read one timestamp per line (first CSV column, seconds).

    With ``frequency_hz`` the timestamps are converted to cycles, the
    unit every simulator API expects.
    """
    times: List[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            cell = line.split(",")[0].strip()
            if not cell or cell.startswith("#"):
                continue
            try:
                value = float(cell)
            except ValueError as exc:
                raise ConfigError(f"bad trace line {line!r} in {path}") from exc
            times.append(value * frequency_hz if frequency_hz else value)
    return sorted(times)


# ----------------------------------------------------------------------
# Builders (the entries the ARRIVALS registry exposes)
#
# Every builder takes ``(mean_rate_per_cycle, **kwargs)`` and ignores
# the kwargs it does not use, so one factory signature serves every
# kind -- including third-party processes registered through
# :data:`repro.api.registries.ARRIVALS`.
# ----------------------------------------------------------------------
def build_poisson(mean_rate_per_cycle: float, **_kwargs) -> ArrivalProcess:
    return PoissonProcess(mean_rate_per_cycle)


def build_bursty(
    mean_rate_per_cycle: float,
    *,
    duration_cycles: Optional[float] = None,
    mean_on_cycles: Optional[float] = None,
    mean_off_cycles: Optional[float] = None,
    **_kwargs,
) -> ArrivalProcess:
    # Default each dwell time independently (~10 bursts per window
    # with a 1:3 duty cycle) so a supplied value is never discarded.
    if (mean_on_cycles is None or mean_off_cycles is None) and (
        duration_cycles is None
    ):
        raise ConfigError("bursty arrivals need durations or a window")
    if mean_on_cycles is None:
        mean_on_cycles = duration_cycles / 40.0
    if mean_off_cycles is None:
        mean_off_cycles = 3.0 * duration_cycles / 40.0
    return OnOffProcess(mean_rate_per_cycle, mean_on_cycles, mean_off_cycles)


def build_diurnal(
    mean_rate_per_cycle: float,
    *,
    duration_cycles: Optional[float] = None,
    period_cycles: Optional[float] = None,
    amplitude: float = 0.8,
    **_kwargs,
) -> ArrivalProcess:
    if period_cycles is None:
        if duration_cycles is None:
            raise ConfigError("diurnal arrivals need a period or a window")
        period_cycles = duration_cycles / 2.0
    return DiurnalProcess(mean_rate_per_cycle, period_cycles, amplitude)


def build_trace_process(
    mean_rate_per_cycle: float,
    *,
    trace_times: Optional[Sequence[float]] = None,
    **_kwargs,
) -> ArrivalProcess:
    del mean_rate_per_cycle  # the replayed timestamps define the rate
    if trace_times is None:
        raise ConfigError("trace arrivals need timestamps")
    return TraceProcess(trace_times)


#: Built-in builders; the single source the ARRIVALS registry loads.
BUILDERS = {
    "poisson": build_poisson,
    "bursty": build_bursty,
    "diurnal": build_diurnal,
    "trace": build_trace_process,
}

ARRIVAL_KINDS = tuple(BUILDERS)


def make_arrival_process(
    kind: str,
    mean_rate_per_cycle: float,
    *,
    duration_cycles: Optional[float] = None,
    mean_on_cycles: Optional[float] = None,
    mean_off_cycles: Optional[float] = None,
    period_cycles: Optional[float] = None,
    amplitude: float = 0.8,
    trace_times: Optional[Sequence[float]] = None,
) -> ArrivalProcess:
    """Factory used by the open-loop runners.

    Dispatches through :data:`repro.api.registries.ARRIVALS`, so kinds
    registered by third parties are constructed the same way as the
    built-ins.  Burst/period defaults are derived from
    ``duration_cycles`` so a bare ``arrival: bursty`` or ``arrival:
    diurnal`` is immediately usable.
    """
    from repro.api.registries import ARRIVALS

    info = ARRIVALS.get(kind)
    return info.builder(
        mean_rate_per_cycle,
        duration_cycles=duration_cycles,
        mean_on_cycles=mean_on_cycles,
        mean_off_cycles=mean_off_cycles,
        period_cycles=period_cycles,
        amplitude=amplitude,
        trace_times=trace_times,
    )
