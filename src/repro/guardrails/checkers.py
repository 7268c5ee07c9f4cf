"""Invariant checkers for the timing core.

Each checker enforces one structural property STRAIGHT's correctness argument
(or the SS baseline's) rests on:

* :class:`WriteOnceChecker` — a physical register is written exactly once per
  allocation: no two in-flight instructions may map to the same RP slot, and
  commit-time accounting must return the slot its dispatcher claimed;
* :class:`DistanceBoundChecker` — no dispatched instruction names a source
  further away than the binary's ``max_distance``;
* :class:`FreelistChecker` — SS free-list conservation: free + in-flight
  destinations always equals the physical registers not pinned by the RMT;
* :class:`OccupancyChecker` — ROB/IQ/LSQ occupancy stays within configured
  capacity and each in-flight ROB slot holds its own position;
* :class:`CommitSanityChecker` — only the oldest in-flight position
  commits, and only after its completion event fired (catches corrupted
  ``seq`` and ``done`` fields);
* :class:`PredictorStateChecker` — branch-predictor SRAM contents stay within
  their encodable ranges (2-bit/3-bit counters, bounded history);
* :class:`Watchdog` — forward progress: some instruction must commit every N
  cycles or the run dies with a :class:`~repro.common.errors.DeadlockError`
  carrying a full occupancy snapshot.

Checkers raise immediately on the first violation; the suite decorates the
error with the commit-window replay context.
"""

from repro.common.errors import DeadlockError, InvariantViolation
from repro.guardrails.suite import InvariantChecker


class WriteOnceChecker(InvariantChecker):
    """Write-once physical-register enforcement for STRAIGHT cores."""

    name = "write-once"

    def __init__(self, max_rp):
        self.max_rp = max_rp
        self.inflight = {}

    def begin_run(self, view, config):
        self.inflight = {}

    def on_dispatch(self, view, seq, entry, cycle):
        reg = seq % self.max_rp
        owner = self.inflight.get(reg)
        if owner is not None:
            raise InvariantViolation(
                f"write-once violation: RP slot {reg} claimed by in-flight "
                f"instruction #{owner} is re-written by #{seq}",
                cycle=cycle,
                pc=entry.pc,
                context={"checker": self.name, "reg": reg, "owner": owner,
                         "writer": seq},
            )
        self.inflight[reg] = seq

    def on_commit(self, view, rob_entry, cycle):
        reg = rob_entry.seq % self.max_rp
        owner = self.inflight.pop(reg, None)
        if owner != rob_entry.seq:
            raise InvariantViolation(
                f"RP accounting mismatch at commit: slot {reg} was claimed by "
                f"#{owner}, committing instruction is #{rob_entry.seq}",
                cycle=cycle,
                pc=rob_entry.entry.pc,
                context={"checker": self.name, "reg": reg, "owner": owner,
                         "committing": rob_entry.seq},
            )


class DistanceBoundChecker(InvariantChecker):
    """Every STRAIGHT source distance must respect the binary's bound."""

    name = "distance-bound"

    def __init__(self, max_distance):
        self.max_distance = max_distance

    def on_dispatch(self, view, seq, entry, cycle):
        for distance in entry.src_distances:
            if distance > self.max_distance:
                raise InvariantViolation(
                    f"source distance {distance} exceeds max_distance "
                    f"{self.max_distance}",
                    cycle=cycle,
                    pc=entry.pc,
                    context={"checker": self.name, "seq": seq,
                             "distance": distance,
                             "max_distance": self.max_distance},
                )


class FreelistChecker(InvariantChecker):
    """SS rename free-list conservation (free + in-flight dests == capacity)."""

    name = "freelist"

    def __init__(self, interval=64):
        self.interval = interval

    def on_cycle(self, view):
        if view.cycle % self.interval:
            return
        frontend = view.core.frontend
        capacity = view.config.phys_regs - 32
        free = frontend.free_regs
        if not 0 <= free <= capacity:
            raise InvariantViolation(
                f"free list out of range: {free} not in [0, {capacity}]",
                cycle=view.cycle,
                occupancy=view.occupancy(),
                context={"checker": self.name},
            )
        used = sum(1 for e in view.rob if e.entry.dest is not None)
        if free + used != capacity:
            raise InvariantViolation(
                f"free-list leak: free={free} + in-flight dests={used} != "
                f"capacity={capacity}",
                cycle=view.cycle,
                occupancy=view.occupancy(),
                context={"checker": self.name, "free": free, "used": used},
            )


class OccupancyChecker(InvariantChecker):
    """ROB/IQ/LSQ occupancy bounds plus ROB slot positions."""

    name = "occupancy"

    def __init__(self, deep_interval=64):
        self.deep_interval = deep_interval

    def on_cycle(self, view):
        cfg = view.config
        if view.rob_occupancy > cfg.rob_entries:
            self._fail(view, f"ROB occupancy {view.rob_occupancy} > "
                             f"{cfg.rob_entries}")
        if not 0 <= view.iq_count <= cfg.iq_entries:
            self._fail(view, f"IQ occupancy {view.iq_count} out of "
                             f"[0, {cfg.iq_entries}]")
        lsq = view.lsq
        if len(lsq.loads) > lsq.load_entries:
            self._fail(view, f"LQ occupancy {len(lsq.loads)} > {lsq.load_entries}")
        if len(lsq.stores) > lsq.store_entries:
            self._fail(view, f"SQ occupancy {len(lsq.stores)} > {lsq.store_entries}")
        if view.cycle % self.deep_interval == 0:
            self._deep_scan(view)

    def _deep_scan(self, view):
        for position, rob_entry in enumerate(view.rob, view.committed):
            if rob_entry.seq != position:
                self._fail(view, f"ROB slot of position #{position} holds "
                                 f"#{rob_entry.seq}")

    def end_run(self, view):
        self._deep_scan(view)

    def _fail(self, view, message):
        raise InvariantViolation(
            message,
            cycle=view.cycle,
            pc=view.head_pc(),
            occupancy=view.occupancy(),
            context={"checker": self.name},
        )


class CommitSanityChecker(InvariantChecker):
    """Only the oldest in-flight position may commit, once completed."""

    name = "commit-sanity"

    def on_commit(self, view, rob_entry, cycle):
        if rob_entry.seq != view.committed:
            raise InvariantViolation(
                f"committing slot holds #{rob_entry.seq}, not the oldest "
                f"in-flight position #{view.committed}",
                cycle=cycle,
                pc=rob_entry.entry.pc,
                occupancy=view.occupancy(),
                context={"checker": self.name, "seq": rob_entry.seq},
            )
        if not rob_entry.done:
            raise InvariantViolation(
                f"instruction #{rob_entry.seq} committing without done flag",
                cycle=cycle,
                pc=rob_entry.entry.pc,
                context={"checker": self.name, "seq": rob_entry.seq},
            )
        if rob_entry.entry.op_class != "nop":
            ready = rob_entry.ready_at
            if ready is None or ready > cycle:
                raise InvariantViolation(
                    f"instruction #{rob_entry.seq} commits at cycle {cycle} "
                    f"but its completion is recorded at {ready!r}",
                    cycle=cycle,
                    pc=rob_entry.entry.pc,
                    occupancy=view.occupancy(),
                    context={"checker": self.name, "seq": rob_entry.seq,
                             "ready": ready},
                )


class PredictorStateChecker(InvariantChecker):
    """Branch-predictor storage must stay within encodable ranges."""

    name = "predictor-state"

    def __init__(self, interval=4096):
        self.interval = interval

    def on_cycle(self, view):
        if view.cycle % self.interval == 0:
            self.sweep(view)

    def end_run(self, view):
        self.sweep(view)

    def sweep(self, view):
        predictor = view.core.predictor
        table = getattr(predictor, "table", None)
        if table is not None:  # gshare
            self._check_counters(view, table, 0, 3, "gshare counter")
            if predictor.history & ~predictor.history_mask:
                self._fail(view, f"gshare history {predictor.history:#x} "
                                 "exceeds its mask")
            return
        bimodal = getattr(predictor, "bimodal", None)
        if bimodal is not None:  # tage
            self._check_counters(view, bimodal, 0, 3, "TAGE bimodal counter")
            for i, tagged in enumerate(predictor.tables):
                self._check_counters(view, tagged.counters, -4, 3,
                                     f"TAGE T{i} counter")
                self._check_counters(view, tagged.useful, 0, 3,
                                     f"TAGE T{i} useful bit")

    def _check_counters(self, view, counters, low, high, label):
        for index, counter in enumerate(counters):
            if not low <= counter <= high:
                self._fail(view, f"{label}[{index}] = {counter} outside "
                                 f"[{low}, {high}]")

    def _fail(self, view, message):
        raise InvariantViolation(
            message,
            cycle=view.cycle,
            context={"checker": self.name},
        )


class Watchdog(InvariantChecker):
    """Forward progress: no commit for N cycles means the core is wedged."""

    name = "watchdog"

    def __init__(self, limit=50_000):
        self.limit = limit
        self.last_committed = 0
        self.last_commit_cycle = 0

    def begin_run(self, view, config):
        self.last_committed = 0
        self.last_commit_cycle = 0

    def on_cycle(self, view):
        if view.committed != self.last_committed:
            self.last_committed = view.committed
            self.last_commit_cycle = view.cycle
        elif view.cycle - self.last_commit_cycle > self.limit:
            raise DeadlockError(
                f"no instruction committed for {self.limit} cycles "
                f"({view.committed}/{len(view.trace)} committed)",
                cycle=view.cycle,
                pc=view.head_pc(),
                occupancy=view.occupancy(),
                context={"checker": self.name,
                         "last_commit_cycle": self.last_commit_cycle},
            )


class StallAttributionChecker(InvariantChecker):
    """Top-down attribution conservation: every issue slot, exactly one bucket.

    Wraps a live :class:`~repro.obs.attribution.StallAttributionAccountant`
    and re-verifies, on every simulated cycle, that the accountant charged
    that cycle's ``issue_width`` slots to buckets summing exactly to the
    width — and at end of run, that the lifetime totals equal
    ``issue_width × cycles_observed``.  A mismatch means the attribution
    data is unsound (double- or under-charged slots) and the run fails
    rather than report misleading stall breakdowns.
    """

    name = "stall-attribution"

    def __init__(self, accountant):
        self.accountant = accountant

    def on_cycle(self, view):
        accountant = self.accountant
        charges = accountant.last_cycle_charges
        total = sum(charges.values())
        if total != accountant.issue_width:
            raise InvariantViolation(
                f"attribution not conserved at cycle {view.cycle}: charges "
                f"{charges} sum to {total}, machine has "
                f"{accountant.issue_width} issue slots",
                cycle=view.cycle,
                occupancy=view.occupancy(),
                context={"checker": self.name, "charges": dict(charges)},
            )
        for bucket, slots in charges.items():
            if slots < 0:
                raise InvariantViolation(
                    f"negative attribution charge at cycle {view.cycle}: "
                    f"{bucket} = {slots}",
                    cycle=view.cycle,
                    context={"checker": self.name, "charges": dict(charges)},
                )

    def end_run(self, view):
        accountant = self.accountant
        if not accountant.conserved():
            raise InvariantViolation(
                "attribution totals not conserved: charged "
                f"{accountant.total_charged} slots over "
                f"{accountant.cycles_observed} cycles on a "
                f"{accountant.issue_width}-wide machine "
                f"(expected {accountant.issue_width * accountant.cycles_observed})",
                context={"checker": self.name,
                         "buckets": dict(accountant.buckets)},
            )
