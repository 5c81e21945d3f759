"""Scheduler interface and schedulable execution units.

A *unit* is the atom the hardware scheduler places onto engines:

- ``ME_UTOP``    -- a NeuISA ME uTOp: exactly one ME, plus an embedded
  VE post-processing stream (``ve_rate`` VE-cycles per ME-cycle);
- ``VE_UTOP``    -- a NeuISA VE uTOp: elastic over up to ``parallelism``
  VEs;
- ``VLIW_ME``    -- a VLIW-compiled ME operator: an *indivisible block*
  of ``me_engines_needed`` MEs (the coupling of paper SectionII-C);
- ``VLIW_VE``    -- a VLIW-compiled VE-only operator.

Every epoch the active scheduler produces a :class:`Decision`: which
units run, with how many engines, which are harvesting foreign engines,
which get preempted, and when the next mandatory re-decision happens.
The engine (:mod:`repro.sim.engine`) validates capacity and advances the
fluid state.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

from repro.errors import SchedulerError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator, Tenant

_unit_ids = itertools.count()


class UnitKind(enum.Enum):
    ME_UTOP = "me_utop"
    VE_UTOP = "ve_utop"
    VLIW_ME = "vliw_me"
    VLIW_VE = "vliw_ve"


class UnitState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    DONE = "done"


#: ``state * 64`` in a unit's fingerprint code.
_STATE_OFFSET = {UnitState.READY: 0, UnitState.RUNNING: 64, UnitState.DONE: 128}


@dataclass(slots=True, eq=False)
class ExecUnit:
    """Runtime state of one schedulable unit.

    The class is slotted and hot-path instantiation goes through
    :meth:`from_template`, which skips ``__init__`` validation: tenants
    replay the same compiled graph per request, so the per-unit specs are
    validated once when the template is built (see
    ``Tenant._unit_templates``) and then stamped onto fresh (or pooled)
    objects per request.

    Units compare and hash by identity (``eq=False``): they serve as keys
    of :class:`Decision` dicts and members of scheduler sets, and no two
    live units share a ``unit_id`` because recycled shells take a fresh
    one.
    """

    kind: UnitKind
    owner: int
    op_index: int
    op_name: str
    request_id: int
    me_engines_needed: int
    remaining_me: float
    remaining_ve: float
    ve_rate: float
    hbm_rate: float
    parallelism: int = 1
    #: Identity of the validated template this unit was stamped from
    #: (-1 for directly constructed units).  Units sharing a template id
    #: are attribute-identical, which lets the engine's fingerprint use
    #: one small int instead of hashing every float field.
    tpl_id: int = -1
    unit_id: int = field(default_factory=lambda: next(_unit_ids))
    state: UnitState = UnitState.READY
    harvesting: bool = False
    #: Engine-count this unit currently holds (set by the engine).
    granted_me: int = 0
    granted_ve: float = 0.0

    #: Cached kind check (hot path) -- set in __post_init__.
    is_me_unit: bool = field(init=False, default=False)
    #: This unit's part of :func:`unit_state_fingerprint`'s key,
    #: ``tpl_id * 256 + state * 64 + granted_me`` with state READY=0,
    #: RUNNING=1, DONE=2; None when the unit has no template or holds 64
    #: or more engines, where the key spells the attributes out.  Every
    #: writer of ``state`` or ``granted_me`` sets it: template stamping,
    #: the engine's fresh decisions, plan replays and completion retire,
    #: and the mega-batch engine's materialisation.
    code: Optional[int] = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.me_engines_needed < 0:
            raise SchedulerError("negative engine requirement")
        if self.remaining_me < 0 or self.remaining_ve < 0:
            raise SchedulerError("negative remaining work")
        self.is_me_unit = self.kind in (UnitKind.ME_UTOP, UnitKind.VLIW_ME)
        self.code = unit_code(self.tpl_id, self.state, self.granted_me)

    @property
    def done(self) -> bool:
        return self.state is UnitState.DONE

    @classmethod
    def from_template(
        cls,
        template: Tuple,
        owner: int,
        request_id: int,
        pool: Optional[List["ExecUnit"]] = None,
    ) -> "ExecUnit":
        """Stamp a pre-validated unit spec onto a fresh schedulable unit.

        ``template`` is the tuple built by the tenant's template cache:
        ``(kind, is_me_unit, me_engines_needed, remaining_me,
        remaining_ve, ve_rate, hbm_rate, parallelism, op_index, op_name,
        tpl_id)``.  Objects from ``pool`` (the tenant's free-list) are
        recycled; every mutable field is reset and a fresh ``unit_id`` is
        taken so scheduling order stays FIFO-by-creation.
        """
        unit = pool.pop() if pool else object.__new__(cls)
        (
            unit.kind,
            unit.is_me_unit,
            unit.me_engines_needed,
            unit.remaining_me,
            unit.remaining_ve,
            unit.ve_rate,
            unit.hbm_rate,
            unit.parallelism,
            unit.op_index,
            unit.op_name,
            tpl_id,
        ) = template
        unit.tpl_id = tpl_id
        unit.owner = owner
        unit.request_id = request_id
        unit.unit_id = next(_unit_ids)
        unit.state = UnitState.READY
        unit.harvesting = False
        unit.granted_me = 0
        unit.granted_ve = 0.0
        unit.code = tpl_id * 256 if tpl_id >= 0 else None
        return unit


def unit_code(tpl_id: int, state: UnitState, granted_me: int) -> Optional[int]:
    """:attr:`ExecUnit.code` for these attributes (the engine's hot
    paths inline the same expression)."""
    if tpl_id < 0 or granted_me >= 64:
        return None
    return tpl_id * 256 + _STATE_OFFSET[state] + granted_me


@dataclass
class Decision:
    """One epoch's scheduling decision.

    ``running_me`` grants engines to ME units (value = engine count; must
    equal the unit's ``me_engines_needed`` for VLIW units and 1 for ME
    uTOps).  ``harvested_me`` marks how many of a unit's granted engines
    are *foreign* (harvested) -- used for accounting and reclaim.
    ``ve_alloc`` grants fractional VEs: for ME units this feeds the
    embedded post-processing stream, for VE units it is the execution
    parallelism.  ``preempt`` lists units to preempt before this epoch
    starts (they return to READY and their engines pay the reclaim
    penalty).  ``next_decision_at`` forces a re-decision (quantum expiry).
    """

    running_me: Dict[ExecUnit, int] = field(default_factory=dict)
    harvested_me: Dict[ExecUnit, int] = field(default_factory=dict)
    ve_alloc: Dict[ExecUnit, float] = field(default_factory=dict)
    preempt: List[ExecUnit] = field(default_factory=list)
    #: Which tenant each preempted unit's engines are reclaimed for; the
    #: reclaim penalty reduces that tenant's usable capacity until it
    #: expires.  Defaults to the preempted unit's owner.
    reclaim_owners: Dict[ExecUnit, int] = field(default_factory=dict)
    next_decision_at: Optional[float] = None


def unit_state_fingerprint(
    sim: "Simulator",
) -> Tuple[Hashable, List[ExecUnit]]:
    """Shared fingerprint for state-free schedulers (Neu10, Neu10-NH).

    Captures, per tenant, every unit attribute those policies read
    (kind, state, engine requirement, current grant, VE/HBM rates,
    parallelism) plus the tenant's allocation and pending reclaim count,
    and -- because displaced-harvester and VE-harvest ordering tie-break
    on ``unit_id`` *across* tenants -- the cross-tenant FIFO permutation
    of the active units.  Two epochs with equal keys are guaranteed to
    produce identical decisions, so the engine may replay a memoised one.

    The key is ``(reclaim counts or None, rank permutation, flat codes)``.
    Each unit contributes its :attr:`ExecUnit.code`, which packs
    (template, state, grant) into one small int -- cheap to hash, where
    enum members hash through a Python-level ``__hash__``; a unit without
    one contributes a full attribute tuple (an int never equals a tuple,
    so the encodings cannot collide).  The tenant boundary marker -1
    keeps per-tenant runs distinct; tenant allocations and priorities are
    deliberately absent because they are constant for the lifetime of
    the Simulator that owns the memo.  The rank permutation depends only
    on which units are active, so it is cached on the simulator
    (``sim._rank_perm``), which the engine clears whenever a tenant
    replaces its active units.
    """
    units: List[ExecUnit] = []
    flat: List = []
    append = flat.append
    for tenant in sim.tenants:
        active = tenant.active_units
        units += active
        append(-1)
        for u in active:
            code = u.code
            append(code if code is not None else attribute_code(u))
    if sim.reclaims:
        rc = tuple(sim.reclaiming_for(t.tenant_id) for t in sim.tenants)
    else:
        rc = None
    rank_perm = sim._rank_perm
    if rank_perm is None:
        rank_perm = sim._rank_perm = creation_rank_perm(units)
    return (rc, rank_perm, tuple(flat)), units


def attribute_code(u: ExecUnit) -> Tuple:
    """A unit's fingerprint part when it has no :attr:`ExecUnit.code`."""
    k = u.kind
    s = u.state
    return (
        0 if k is UnitKind.ME_UTOP else 1 if k is UnitKind.VE_UTOP
        else 2 if k is UnitKind.VLIW_ME else 3,
        0 if s is UnitState.READY else 1 if s is UnitState.RUNNING else 2,
        u.me_engines_needed,
        u.granted_me,
        u.ve_rate,
        u.hbm_rate,
        u.parallelism,
    )


def creation_rank_perm(units: List[ExecUnit]) -> Tuple[int, ...]:
    """Positions of ``units`` in creation (``unit_id``) order; the empty
    tuple, canonical for the identity, when they already are in FIFO
    order (the common case)."""
    ids = [u.unit_id for u in units]
    if ids == sorted(ids):
        return ()
    return tuple(sorted(range(len(ids)), key=ids.__getitem__))


class SchedulerBase:
    """Base class for all scheduling policies."""

    #: Human-readable policy name used in experiment tables.
    name = "base"

    def decide(self, sim: "Simulator") -> Decision:
        raise NotImplementedError

    def state_fingerprint(
        self, sim: "Simulator"
    ) -> Optional[Tuple[Hashable, List[ExecUnit]]]:
        """Cheap signature of every input this epoch's plan reads, or
        None.

        A scheduler that opts in returns ``(key, units)``: ``key``
        hashes everything the plan depends on (the decision, the
        blocked tenants and the progress rates), and nothing else, and
        ``units`` lists the units the plan touches, in tenant order and
        each tenant's active-unit order.  Every other active unit must
        be READY or DONE, with no grant and not harvesting, whenever
        the plan replays, so that a fresh decision would leave it as it
        is.  The engine's fast path uses the key to memoise decisions
        (and the epoch's progress rates) across structurally identical
        epochs -- closed-loop tenants replay the same graph per
        request, so the same states recur thousands of times.

        - State-free policies (Neu10, Neu10-NH) return
          :func:`unit_state_fingerprint` as is: every active unit.
        - History-dependent policies (PMT, V10) build their own key and
          add a small *policy token*: the discrete outcome of the
          service counters and policy state :meth:`decide` reads, such
          as the current owner or the tenant a preemption benefits.  An
          epoch in which :meth:`decide` would mutate policy state
          carries that mutation in its key as well (PMT: the next owner
          of a switch), and :meth:`replay_policy` re-applies it when the
          key replays.  Between owner switches PMT's plan touches the
          owner's units only.

        Returning ``None`` (the default) forces a fresh :meth:`decide`
        call every epoch, as Neu10-temporal and any custom scheduler
        that does not opt in do.
        """
        return None

    def replay_policy(self, sim: "Simulator", key: Hashable) -> None:
        """Re-apply the policy-state change of a memoised decision.

        The engine calls this on every memo hit, with the replayed
        ``key`` from :meth:`state_fingerprint`, before the plan's
        preempt effects and grants replay and before it asks
        :meth:`forced_decision_at` for the plan's re-decision time.  A
        policy whose :meth:`decide` mutates its own state on some epochs
        spells the mutation out in those epochs' keys and performs it
        here exactly as :meth:`decide` does (PMT: the new owner and its
        quantum end), so a replay leaves the scheduler where a fresh
        decision would have.  Keys whose decision mutates nothing are
        left alone.

        The engine binds the hook once per run and skips it entirely
        for a scheduler that does not override this no-op (a policy
        whose keys never carry a mutation).
        """

    def memo_context(self) -> Optional[Hashable]:
        """Policy identity for sharing decision memos across simulators.

        Schedulers whose :meth:`state_fingerprint` reads only unit,
        reclaim and allocation state return a hashable describing every
        constructor knob that influences decisions; the engine combines
        it with the core configuration and tenant allocations to share
        one plan memo across all structurally identical simulations in
        the process (repeated measurement windows, sweep points, cluster
        segments).  ``None`` (the default) keeps the memo private to
        each Simulator, which a policy token requires: the token is only
        meaningful against the policy state of the run that made it, and
        the memo is freed with its run.
        """
        return None

    def forced_decision_at(self, sim: "Simulator") -> Optional[float]:
        """When a plan that forces a re-decision asks to be re-planned.

        A scheduler that sets ``Decision.next_decision_at`` and also
        fingerprints returns that time here, computed from its current
        policy state (PMT: the quantum end; V10: one check period from
        now), and its :meth:`decide` sets the field from this hook so
        the time has one source.  The engine memoises such a plan only
        when this returns exactly the plan's time, and on a replay takes
        the time from here, after :meth:`replay_policy` has run (so a
        replayed PMT switch reads its new quantum end).  ``None`` (the
        default) keeps every plan that forces a re-decision out of the
        memo.
        """
        return None

    # Helpers shared by concrete schedulers ----------------------------
    @staticmethod
    def ready_me_units(tenant: "Tenant") -> List[ExecUnit]:
        return [
            u
            for u in tenant.active_units
            if u.is_me_unit and u.state is not UnitState.DONE
        ]
