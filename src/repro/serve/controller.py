"""Live control of one steppable cluster simulation.

:class:`ServeController` wraps a
:class:`repro.traffic.cluster_sim.ClusterSimulation` behind a lock and
exposes exactly the verbs ``repro serve`` maps to HTTP: advance (by
segments or to a simulated time), pause/start the auto-tick, snapshot
and restore (the same versioned, digest-stamped
:class:`~repro.traffic.stepper.ClusterCheckpoint` the checkpointed CLI
path journals, so a serve snapshot restores under ``repro run
--resume`` and vice versa), partial metrics at any point, and live
injection of tenants and traffic spikes through the simulation's
churn/fault machinery.

Everything the controller returns is a JSON-safe dict; the HTTP layer
(:mod:`repro.serve.server`) only serialises.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import secrets
import threading
from typing import Any, Dict, List, Mapping, Optional

from repro.api.runner import _cluster_run_result, cluster_inputs
from repro.api.scenario import Scenario
from repro.cluster.virt import (
    FAULT_BURST_STORM,
    FAULT_HOST_CRASH,
    FAULT_HYPERCALL_SPIKE,
    FAULT_VF_LOSS,
    FaultSpec,
)
from repro.errors import CheckpointError, ConfigError, ValidationError
from repro.traffic.cluster_sim import (
    ACTION_ARRIVE,
    ACTION_DEPART,
    ChurnEvent,
    ClusterSimulation,
)
from repro.traffic.openloop import TrafficTenantSpec
from repro.traffic.slo import SloSpec
from repro.traffic.stepper import ClusterCheckpoint

#: ``POST /inject`` kinds and the churn/fault machinery each maps to.
INJECT_KINDS = (
    "tenant-arrive",
    "tenant-depart",
    "traffic-spike",
    "hypercall-spike",
    "host-crash",
    "vf-loss",
)

#: Injection kinds that map straight onto a window/point fault kind.
_FAULT_KIND_MAP = {
    "traffic-spike": FAULT_BURST_STORM,
    "hypercall-spike": FAULT_HYPERCALL_SPIKE,
    "host-crash": FAULT_HOST_CRASH,
    "vf-loss": FAULT_VF_LOSS,
}


def _checkpoint_hmac(payload: Mapping[str, Any], key: str) -> str:
    """HMAC-SHA256 under ``key`` of a checkpoint's header: the canonical
    JSON of every field except ``auth`` and ``payload``.

    The header holds ``payload_digest``, and
    :meth:`ClusterCheckpoint.from_dict` refuses a payload whose sha256
    differs from it before anything is unpickled, so the signature binds
    the payload without running its base64 text through the HMAC.
    """
    try:
        canonical = json.dumps(
            {
                k: v for k, v in payload.items()
                if k not in ("auth", "payload")
            },
            sort_keys=True,
            separators=(",", ":"),
        )
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    return hmac.new(
        key.encode("utf-8"), canonical.encode("utf-8"), hashlib.sha256
    ).hexdigest()


def sign_checkpoint(
    payload: Mapping[str, Any], key: str
) -> Dict[str, Any]:
    """Return ``payload`` with the ``auth`` HMAC a server holding ``key``
    accepts.

    A checkpoint payload embeds pickled simulator state, and unpickling
    attacker-supplied bytes executes arbitrary code -- so ``POST
    /restore`` only unpickles payloads whose ``auth`` field carries a
    valid HMAC under the server's restore key.  The HMAC covers the
    header, ``payload_digest`` included, and the payload must match that
    digest, so a signature admits exactly one payload.  Snapshots minted
    by ``GET /snapshot`` arrive pre-signed; use this helper to push an
    unsigned journal checkpoint (``repro run --checkpoint``) into a
    live server whose key you hold.
    """
    signed = {k: v for k, v in payload.items() if k != "auth"}
    signed["auth"] = _checkpoint_hmac(signed, key)
    return signed


class ServeController:
    """One scenario, one live simulation, one lock.

    Thread-safe: every verb takes the controller lock, so the HTTP
    server's worker threads and the auto-tick thread serialise their
    access to the underlying :class:`ClusterSimulation`.
    """

    def __init__(
        self, scenario: Scenario, restore_key: Optional[str] = None
    ) -> None:
        if scenario.kind != "cluster":
            raise ConfigError(
                f"scenario {scenario.name!r} is kind {scenario.kind!r}; "
                "repro serve drives kind: cluster scenarios"
            )
        scenario.validate()
        self.scenario = scenario
        #: The scenario never changes, so neither does its digest, which
        #: every ``metrics()`` result stamps.
        self._digest = scenario.digest()
        self._lock = threading.RLock()
        self._events, self._cfg = cluster_inputs(scenario)
        self.sim = ClusterSimulation(self._events, self._cfg)
        self.paused = False
        #: HMAC key gating ``restore`` -- the one verb that unpickles
        #: its input.  Anyone holding the key can run code as the
        #: server, so it never appears in any endpoint's output.
        self.restore_key = (
            restore_key if restore_key else secrets.token_hex(32)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        with self._lock:
            sim = self.sim
            return {
                "scenario": self.scenario.name,
                "kind": self.scenario.kind,
                "time_s": sim.time_s,
                "end_s": self._cfg.end_s,
                "segments_completed": sim.segments_completed,
                "total_segments": sim.total_segments,
                "done": sim.done,
                "paused": self.paused,
                "resident_tenants": len(sim.residents),
                "rejected": len(sim.rejected),
                "active_hosts": sim.fleet.active_count(),
                "config_digest": sim.config_digest,
            }

    def segments(self, since: int = 0) -> List[Dict[str, Any]]:
        """Per-segment observations streamed so far, from index ``since``."""
        with self._lock:
            return [
                obs.to_dict()
                for obs in self.sim.segment_log
                if obs.segment_index >= since
            ]

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def advance(
        self,
        until_s: Optional[float] = None,
        segments: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Advance by ``segments`` steps or to simulated time ``until_s``.

        With neither given, advances one segment.  Returns the new
        per-segment observations.
        """
        with self._lock:
            sim = self.sim
            out = []
            if until_s is not None:
                out.extend(sim.advance(float(until_s)))
            else:
                steps = 1 if segments is None else int(segments)
                if steps < 0:
                    raise ValidationError(
                        "segments", segments, "cannot step backwards"
                    )
                for _ in range(steps):
                    if sim.done:
                        break
                    obs = sim.step_segment()
                    if obs is not None:
                        out.append(obs)
            return [obs.to_dict() for obs in out]

    def tick(self) -> bool:
        """One auto-tick step; returns False once done or paused."""
        with self._lock:
            if self.paused or self.sim.done:
                return False
            self.sim.step_segment()
            return not self.sim.done

    def pause(self) -> Dict[str, Any]:
        with self._lock:
            self.paused = True
            return self.status()

    def start(self) -> Dict[str, Any]:
        with self._lock:
            self.paused = False
            return self.status()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return sign_checkpoint(
                self.sim.snapshot().to_dict(), self.restore_key
            )

    def restore(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        # Authenticate before anything else touches the payload: the
        # checkpoint embeds a pickle, and unpickling unauthenticated
        # input would hand remote clients arbitrary code execution.
        # ``from_dict`` then checks the payload against the signed
        # digest.  A non-ASCII ``auth`` never matches a hex digest, and
        # ``compare_digest`` raises TypeError on one.
        provided = payload.get("auth")
        expected = _checkpoint_hmac(payload, self.restore_key)
        if (
            not isinstance(provided, str)
            or not provided.isascii()
            or not hmac.compare_digest(provided, expected)
        ):
            raise CheckpointError(
                "restore payload is not authenticated: checkpoints embed "
                "pickled simulator state, so restore only accepts "
                "payloads whose 'auth' HMAC matches this server's "
                "restore key (see repro.serve.sign_checkpoint)"
            )
        checkpoint = ClusterCheckpoint.from_dict(payload)
        with self._lock:
            # The checkpoint itself carries any events injected before
            # it was taken.  A refused checkpoint (digest mismatch ->
            # 409) leaves the controller on the live simulation.
            self.sim = ClusterSimulation.restore(
                checkpoint, self._events, self._cfg
            )
            return self.status()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, Any]:
        """The scenario's RunResult dict for the run so far.

        Mid-run this reports consistent partial metrics; once ``done``
        it is bit-identical to ``repro run``'s result for the same
        scenario (injections aside).
        """
        with self._lock:
            result = self.sim.result()
            return _cluster_run_result(
                self.scenario, self._cfg, result, self._digest
            ).to_dict()

    # ------------------------------------------------------------------
    # Live injection
    # ------------------------------------------------------------------
    def inject(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Splice a live event into the not-yet-simulated timeline.

        ``payload["kind"]`` picks one of :data:`INJECT_KINDS`;
        ``time_s`` must land strictly in the simulation's future.
        Tenant kinds build a churn event (``tenant-arrive`` needs
        ``name`` and ``model``); the rest build the matching
        :class:`~repro.cluster.virt.FaultSpec`.
        """
        data = dict(payload)
        kind = data.pop("kind", None)
        if kind not in INJECT_KINDS:
            raise ValidationError(
                "kind", kind,
                f"unknown injection kind (expected one of {INJECT_KINDS})",
            )
        try:
            time_s = float(data.pop("time_s"))
        except KeyError:
            raise ValidationError(
                "time_s", None, "injection needs a time_s"
            ) from None
        with self._lock:
            if kind in ("tenant-arrive", "tenant-depart"):
                event = self._churn_event(kind, time_s, data)
                self.sim.inject_churn(event)
            else:
                fault = self._fault(kind, time_s, data)
                self.sim.inject_fault(fault)
            return self.status()

    def _churn_event(
        self, kind: str, time_s: float, data: Dict[str, Any]
    ) -> ChurnEvent:
        name = data.pop("name", None)
        if not name:
            raise ValidationError("name", name, "tenant injection needs a name")
        if kind == "tenant-depart":
            self._refuse_extras(kind, data)
            return ChurnEvent(
                time_s=time_s, action=ACTION_DEPART, name=str(name)
            )
        model = data.pop("model", None)
        if not model:
            raise ValidationError(
                "model", model, "tenant-arrive injection needs a model"
            )
        spec = TrafficTenantSpec(
            model=str(model),
            batch=int(data.pop("batch", 8)),
            weight=float(data.pop("weight", 1.0)),
            slo=SloSpec(relative=float(data.pop("slo_relative", 5.0))),
            priority=float(data.pop("priority", 1.0)),
        )
        num_mes = int(data.pop("num_mes", 1))
        num_ves = int(data.pop("num_ves", 1))
        self._refuse_extras(kind, data)
        return ChurnEvent(
            time_s=time_s,
            action=ACTION_ARRIVE,
            name=str(name),
            spec=spec,
            num_mes=num_mes,
            num_ves=num_ves,
        )

    def _fault(
        self, kind: str, time_s: float, data: Dict[str, Any]
    ) -> FaultSpec:
        fault_kind = _FAULT_KIND_MAP[kind]
        kwargs: Dict[str, Any] = {"kind": fault_kind, "time_s": time_s}
        if kind in ("traffic-spike", "hypercall-spike"):
            try:
                kwargs["duration_s"] = float(data.pop("duration_s"))
            except KeyError:
                raise ValidationError(
                    "duration_s", None, f"{kind} injection needs a duration_s"
                ) from None
            kwargs["factor"] = float(data.pop("factor", 4.0))
        if kind in ("host-crash", "vf-loss") and "host" in data:
            kwargs["host"] = str(data.pop("host"))
        if kind == "vf-loss":
            kwargs["count"] = int(data.pop("count", 1))
        self._refuse_extras(kind, data)
        return FaultSpec(**kwargs)

    @staticmethod
    def _refuse_extras(kind: str, data: Dict[str, Any]) -> None:
        if data:
            raise ValidationError(
                "payload", sorted(data),
                f"unknown key(s) for {kind} injection",
            )
