"""Top-down stall attribution: charge every issue slot of every cycle.

The accountant is the subsystem's quantitative sink: each simulated cycle it
charges each of the machine's ``issue_width`` slots to **exactly one**
bucket, so the buckets sum bit-exactly to ``issue_slots × cycles`` over any
run (the conservation law the :class:`~repro.guardrails.checkers.
StallAttributionChecker` guardrail re-verifies cycle by cycle).

Bucket taxonomy (a trace-driven adaptation of top-down analysis [Yasin,
ISPASS 2014], with one STRAIGHT-specific bucket):

* ``slots_retiring`` — slots that issued useful work this cycle;
* ``slots_rmov_overhead`` — slots that issued an RMOV: architecturally
  required distance-relaying on STRAIGHT, pure ISA overhead the RE+ pass
  exists to remove (identically zero on SS);
* ``slots_bad_speculation`` — idle slots while a mispredict recovery is in
  progress: fetch parked on an unresolved branch, or dispatch blocked by
  the front-end model's recovery cost (SS's RMT-restoring ROB walk vs
  STRAIGHT's one ROB-entry read — the Fig. 13 mechanism);
* ``slots_backend_memory`` — idle slots while the oldest uncompleted
  instruction is a load/store (cache miss, forwarding wait, memory
  dependence);
* ``slots_backend_core`` — idle slots blamed on execution resources: the
  oldest uncompleted instruction is a non-memory op still executing, or
  ready instructions lost the port/width race;
* ``slots_frontend_latency`` — idle slots with nothing in flight to blame:
  the front end (I-cache stalls, fetch/decode pipe refill) failed to
  supply.

Idle-slot blame is single-cause by design — one bucket per cycle's idle
slots, chosen by the priority recovery > backend > frontend — because the
buckets must stay additive.  See DESIGN.md §10 for the taxonomy's edge
cases.
"""

from repro.obs.events import PipelineSink

#: Bucket field names in declaration (reporting) order; these are also
#: contributed to the :class:`~repro.uarch.stats.StatsRegistry` so every
#: ``SimStats`` carries them (zero unless an accountant was attached).
ATTRIBUTION_BUCKETS = (
    "slots_retiring",
    "slots_rmov_overhead",
    "slots_frontend_latency",
    "slots_bad_speculation",
    "slots_backend_memory",
    "slots_backend_core",
)


class StallAttributionAccountant(PipelineSink):
    """Sink implementing the bucket taxonomy above, cycle by cycle."""

    name = "attribution"
    STAT_FIELDS = ATTRIBUTION_BUCKETS

    def __init__(self):
        self.buckets = {bucket: 0 for bucket in ATTRIBUTION_BUCKETS}
        self.cycles_observed = 0
        self.issue_width = 0
        #: Charges of the most recently accounted cycle (checker surface).
        self.last_cycle_charges = {}
        self._issued_useful = 0
        self._issued_rmov = 0
        self._state = None

    # -- event intake --------------------------------------------------------

    def begin_run(self, core, state, sched):
        self.issue_width = core.config.issue_width
        self._state = state
        self.buckets = {bucket: 0 for bucket in ATTRIBUTION_BUCKETS}
        self.cycles_observed = 0
        self.last_cycle_charges = {}
        self._issued_useful = 0
        self._issued_rmov = 0

    def on_issue(self, seq, entry, cycle, done_at):
        if entry.is_rmov:
            self._issued_rmov += 1
        else:
            self._issued_useful += 1

    def on_cycle_end(self, cycle):
        state = self._state
        useful = self._issued_useful
        rmov = self._issued_rmov
        self._issued_useful = 0
        self._issued_rmov = 0
        idle = self.issue_width - useful - rmov
        charges = {
            "slots_retiring": useful,
            "slots_rmov_overhead": rmov,
        }
        if idle > 0:
            charges[self._idle_bucket(state, cycle)] = idle
        buckets = self.buckets
        for bucket, slots in charges.items():
            buckets[bucket] += slots
        self.cycles_observed += 1
        self.last_cycle_charges = charges

    def _idle_bucket(self, state, cycle):
        """The single bucket this cycle's idle slots are charged to."""
        if state.awaiting_branch is not None or cycle < state.rename_blocked_until:
            return "slots_bad_speculation"
        head = state.rob_head()
        if head is not None and not head.done:
            if head.entry.op_class in ("load", "store"):
                return "slots_backend_memory"
            return "slots_backend_core"
        if state.iq_count > 0:
            # Nothing older is executing, but ready instructions still
            # lost the port/width race.
            return "slots_backend_core"
        return "slots_frontend_latency"

    def end_run(self, stats):
        for bucket, slots in self.buckets.items():
            setattr(stats, bucket, slots)

    # -- reporting -----------------------------------------------------------

    @property
    def total_charged(self):
        return sum(self.buckets.values())

    def conserved(self):
        """True iff every observed slot was charged exactly once."""
        return self.total_charged == self.issue_width * self.cycles_observed

    def report(self):
        """JSON-friendly summary with fractions and the conservation check."""
        total = self.total_charged
        return {
            "issue_width": self.issue_width,
            "cycles": self.cycles_observed,
            "slots_total": self.issue_width * self.cycles_observed,
            "slots_charged": total,
            "conserved": self.conserved(),
            "buckets": dict(self.buckets),
            "fractions": {
                bucket: (round(slots / total, 6) if total else 0.0)
                for bucket, slots in self.buckets.items()
            },
        }

    def text(self):
        """Human-readable bucket breakdown."""
        report = self.report()
        lines = [
            f"issue slots: {report['slots_total']} "
            f"({report['issue_width']}-wide x {report['cycles']} cycles), "
            f"charged {report['slots_charged']} "
            f"[{'conserved' if report['conserved'] else 'NOT CONSERVED'}]"
        ]
        for bucket in ATTRIBUTION_BUCKETS:
            slots = report["buckets"][bucket]
            frac = report["fractions"][bucket]
            bar = "#" * int(round(frac * 40))
            lines.append(f"  {bucket:<24} {slots:>12}  {frac:>7.2%}  {bar}")
        return "\n".join(lines)
