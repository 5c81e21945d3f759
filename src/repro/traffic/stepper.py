"""Segment timeline and checkpoint primitives for the steppable
cluster-simulation core.

:func:`merge_boundaries` is the single source of truth for where the
cluster timeline is cut: churn events, fault fire times and window
edges, and autoscale observation ticks all land here, deduplicated and
strictly ordered.  :func:`build_timeline` turns the same inputs into a
unified, sorted :class:`Timeline` -- one stream of typed
:class:`TimelineEvent` entries grouped by the boundary that applies
them -- which :class:`repro.traffic.cluster_sim.ClusterSimulation`
consumes one segment at a time instead of re-scanning interleaved
churn/fault lists at every boundary.

:class:`ClusterCheckpoint` is the serialized between-segments state of
a :class:`~repro.traffic.cluster_sim.ClusterSimulation`: versioned,
digest-stamped (both the configuration that produced it and the
payload bytes), and JSON-safe via :meth:`ClusterCheckpoint.to_dict`,
so it rides the :class:`repro.exec.SweepJournal` machinery and plain
HTTP alike.  The payload is one pickle of the simulation's entire
mutable state, taken in a single ``pickle.dumps`` call so shared
object identity (a resident's host *is* the fleet's host) survives the
round trip.

The payload is hashed once, where outside input is parsed:
:meth:`ClusterCheckpoint.from_dict` refuses a payload whose sha256
differs from ``payload_digest`` before anything is unpickled, and
:meth:`ClusterCheckpoint.state` unpickles what :meth:`create` or
:meth:`from_dict` produced.

Because the payload is a pickle, restoring a checkpoint executes
whatever its bytes describe: the digest check only proves integrity
(the payload matches its own recorded digest), never provenance.  Only
restore checkpoints from sources you trust -- your own journal
directory, your own process.  Network-facing paths must authenticate
first: ``repro serve`` refuses ``POST /restore`` payloads that do not
carry a valid HMAC under the server's restore key.  The HMAC signs the
header, ``payload_digest`` included, so it binds the payload through
the digest check (see :mod:`repro.serve.controller`).
"""

from __future__ import annotations

import base64
import hashlib
import pickle
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.virt import (
    FAULT_BURST_STORM,
    FAULT_HOST_CRASH,
    FAULT_HYPERCALL_SPIKE,
    FAULT_VF_LOSS,
    FaultSpec,
)
from repro.errors import CheckpointError

#: Timeline event kinds, in the order one boundary applies them:
#: autoscale actions first (not timeline events -- they happen at every
#: boundary), then churn, then point faults.  Window-fault edges and
#: autoscale ticks only *cut* the timeline: the load multiplier is
#: evaluated per segment, and a tick exists so the controller observes
#: between churn events.
EVENT_CHURN = "churn"
EVENT_FAULT = "fault"

#: Schema version of :class:`ClusterCheckpoint`.  Bump on any change to
#: the payload layout or to the fields ``repro serve`` signs;
#: :meth:`ClusterCheckpoint.verify` refuses other versions rather than
#: unpickling a layout it does not understand.  Version 3 packs each
#: ``SloReport`` log as ``array('d')``, and ``repro serve`` signs its
#: header instead of its payload.
CHECKPOINT_VERSION = 3

#: Pickle protocol pinned for checkpoint payloads so snapshots written
#: by one interpreter restore under another (protocol 4 is available
#: from Python 3.4 on).
_PICKLE_PROTOCOL = 4

_WINDOW_KINDS = (FAULT_BURST_STORM, FAULT_HYPERCALL_SPIKE)
_POINT_KINDS = (FAULT_HOST_CRASH, FAULT_VF_LOSS)


def merge_boundaries(
    events: Sequence[object],
    end_s: float,
    interval_s: Optional[float] = None,
    extra_cuts: Sequence[float] = (),
) -> List[float]:
    """Merge churn, fault and autoscale-interval cut times.

    Returns the deduplicated, strictly increasing boundary list starting
    at ``0.0`` and ending at ``end_s``.  ``events`` need only expose
    ``time_s``; ``extra_cuts`` carries fault fire times and window
    edges, which cut the timeline exactly like churn events so a fault
    never lands mid-segment.
    """
    cuts = {0.0, end_s}
    for ev in events:
        if ev.time_s < end_s:
            cuts.add(ev.time_s)
    for t in extra_cuts:
        # Fault fire times and window edges cut the timeline exactly
        # like churn events, so a fault never lands mid-segment.
        if 0.0 < t < end_s:
            cuts.add(t)
    if interval_s is not None:
        # Multiply rather than accumulate, and drop ticks that land
        # within float jitter of an existing cut: a phantom ~0-width
        # segment would otherwise reach the autoscaler as a fully idle
        # observation and trigger spurious drains.
        eps = end_s * 1e-9
        exact = sorted(cuts)
        i = 1
        while True:
            t = i * interval_s
            if t >= end_s - eps:
                break
            # Only the nearest cut on each side can lie within eps.
            # Both exist: 0.0 < t < end_s, and both are cuts.
            pos = bisect_left(exact, t)
            if t - exact[pos - 1] > eps and exact[pos] - t > eps:
                cuts.add(t)
            i += 1
    return sorted(cuts)


@dataclass(frozen=True)
class TimelineEvent:
    """One entry of the unified timeline.

    ``payload`` is the underlying object: a
    :class:`~repro.traffic.cluster_sim.ChurnEvent` for ``churn`` and a
    :class:`~repro.cluster.virt.FaultSpec` for ``fault`` entries.
    """

    time_s: float
    kind: str
    payload: object = None


@dataclass(frozen=True)
class Timeline:
    """The unified sorted event timeline of one cluster run.

    ``boundaries`` is the full cut list (including ``0.0`` and the
    horizon); ``events_at`` groups the events each boundary applies, in
    application order (churn before point faults, each preserving its
    deterministic input order).
    """

    boundaries: Tuple[float, ...]
    events_at: Mapping[float, Tuple[TimelineEvent, ...]]

    @property
    def total_segments(self) -> int:
        return max(0, len(self.boundaries) - 1)


def build_timeline(
    churn: Sequence[object],
    faults: Sequence[FaultSpec],
    end_s: float,
    interval_s: Optional[float] = None,
) -> Timeline:
    """Build the unified timeline from churn + fault scripts.

    ``churn`` must already be in deterministic application order
    (time, departs-before-arrives) and ``faults`` in deterministic
    fault order (time, kind, target); within one boundary the grouped
    events preserve those orders, churn first.
    """
    windows = [f for f in faults if f.kind in _WINDOW_KINDS]
    point = [f for f in faults if f.kind in _POINT_KINDS]
    extra = [f.time_s for f in faults] + [w.end_s for w in windows]
    boundaries = merge_boundaries(churn, end_s, interval_s, extra)

    events_at: Dict[float, List[TimelineEvent]] = {}
    for ev in churn:
        if ev.time_s < end_s:
            events_at.setdefault(ev.time_s, []).append(
                TimelineEvent(ev.time_s, EVENT_CHURN, ev)
            )
    for f in point:
        # A point fault fires iff its time opens a segment: every fire
        # time in (0, end_s) is a cut, t=0 opens the first segment, and
        # anything at/after the horizon (or negative) never fires.
        if 0.0 <= f.time_s < end_s:
            events_at.setdefault(f.time_s, []).append(
                TimelineEvent(f.time_s, EVENT_FAULT, f)
            )
    return Timeline(
        boundaries=tuple(boundaries),
        events_at={t: tuple(evs) for t, evs in events_at.items()},
    )


@dataclass(frozen=True)
class ClusterCheckpoint:
    """Serialized between-segments state of a cluster simulation.

    ``config_digest`` identifies the (events, config) pair the snapshot
    was taken under -- restore refuses a checkpoint from a different
    run.  ``payload_digest`` covers the pickle bytes, so torn or
    bit-rotted checkpoints fail loudly instead of unpickling garbage.
    """

    config_digest: str
    #: Number of segments completed when the snapshot was taken (the
    #: next segment to simulate).
    segment_index: int
    #: Simulated time of the snapshot (the boundary opening the next
    #: segment).
    time_s: float
    payload: bytes
    payload_digest: str
    version: int = CHECKPOINT_VERSION

    @classmethod
    def create(
        cls,
        state: object,
        config_digest: str,
        segment_index: int,
        time_s: float,
    ) -> "ClusterCheckpoint":
        payload = pickle.dumps(state, protocol=_PICKLE_PROTOCOL)
        return cls(
            config_digest=config_digest,
            segment_index=segment_index,
            time_s=time_s,
            payload=payload,
            payload_digest=hashlib.sha256(payload).hexdigest(),
        )

    def verify(self) -> None:
        """Raise :class:`CheckpointError` on version or digest mismatch."""
        if self.version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {self.version} is not supported "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        digest = hashlib.sha256(self.payload).hexdigest()
        if digest != self.payload_digest:
            raise CheckpointError(
                "checkpoint payload is corrupt: digest "
                f"{digest[:12]}... does not match the recorded "
                f"{self.payload_digest[:12]}..."
            )

    def state(self) -> object:
        """Unpickle the captured simulation state.  The payload was
        verified where it entered: :meth:`create` hashed its own
        pickle, and :meth:`from_dict` checks outside input."""
        return pickle.loads(self.payload)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (payload base64-encoded)."""
        return {
            "version": self.version,
            "config_digest": self.config_digest,
            "segment_index": self.segment_index,
            "time_s": self.time_s,
            "payload": base64.b64encode(self.payload).decode("ascii"),
            "payload_digest": self.payload_digest,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ClusterCheckpoint":
        try:
            raw = base64.b64decode(str(payload["payload"]).encode("ascii"))
            cp = cls(
                config_digest=str(payload["config_digest"]),
                segment_index=int(payload["segment_index"]),
                time_s=float(payload["time_s"]),
                payload=raw,
                payload_digest=str(payload["payload_digest"]),
                version=int(payload["version"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint: {exc}") from exc
        cp.verify()
        return cp
