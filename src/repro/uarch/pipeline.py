"""Stage-decomposed timing engine with an event-driven, cycle-skipping clock.

This replaces the seed's monolithic ``OoOCore._run`` closure with explicit
pipeline-stage components that communicate through one typed
:class:`PipelineState` object:

* :class:`CompletionStage` — retires completion events, wakes issue-queue
  consumers, resolves awaited branches and charges recovery stalls;
* :class:`CommitStage` — in-order commit at commit width, guardrail commit
  hooks, LSQ deallocation, and pruning of per-seq bookkeeping;
* :class:`IssueStage` — wakeup-select with per-class ports, LSQ issue
  (forwarding / memory-dependence waits / violation replays);
* :class:`DispatchStage` — ROB/IQ/LSQ structural stalls, front-end model
  rename / operand determination, dependence capture;
* :class:`FetchStage` — I-cache access, branch/target/return prediction and
  misprediction handling.

Stage order within one cycle is exactly the seed's: completion, commit,
issue, dispatch, fetch — so all timing is bit-identical to the monolithic
engine (enforced by the golden snapshots in ``tests/test_golden_snapshots``).

Stages read the replayed trace through the program's static timing table
(:mod:`repro.isa.timing`): op classes and ports are ints, control outcomes
come from the successor's PC, and STRAIGHT producer tags are trace
positions minus source distances.

The clock is owned by an :class:`~repro.uarch.scheduler.EventScheduler`.
Every stage implements ``can_tick()`` (could it make progress or count a
stall *this* cycle?) and ``next_wake()`` (the earliest future cycle at which
it could, when that cycle is not already in the scheduler's event heap).
When every stage is idle the engine jumps the clock to the next scheduled
event instead of stepping cycle-by-cycle, which is where the wall-clock
speedup on stall-heavy traces comes from.  Guardrailed runs never jump, so
per-cycle hooks observe every cycle.
"""

from collections import deque
from heapq import heappop, heappush

from repro.common.errors import SimulationError
from repro.common.trace import OP_CLASSES
from repro.isa.timing import (
    C_ALU,
    C_DIV,
    C_LOAD,
    C_MUL,
    C_NOP,
    C_STORE,
    C_SYS,
    PORTS,
)
from repro.uarch.frontend_models import RenameFrontEnd, StraightFrontEnd
from repro.uarch.lsq import LoadStoreQueue


class _RobEntry:
    """One ROB slot, refilled by every dispatch that lands in it.  ``entry``
    is what guards see: the static record, or — on guarded runs — the full
    :class:`~repro.common.trace.TraceEntry`."""

    __slots__ = ("seq", "entry", "done", "fetch_cycle")

    def __init__(self):
        self.seq = -1
        self.entry = None
        self.done = False
        self.fetch_cycle = 0


class PipelineState:
    """All mutable pipeline state crossing stage boundaries, in one place.

    The seed engine held these as closure-local variables; making them
    attributes of one shared object is what lets stages be separate
    components and lets guardrail checkers observe stage-boundary state
    without reaching into closures.

    Instructions are named by their trace position ``seq``, and ``ops``
    holds each position's static record
    (:class:`~repro.isa.timing.StaticOp`), so no stage decodes anything.
    At most ``rob_entries`` consecutive positions are in flight, so
    per-instruction state lives in rings indexed by ``seq & ring_mask``,
    like the hardware's circular ROB: the ROB slot objects themselves and
    the issue-queue wakeup counters.

    ``events`` and ``ready_buckets`` lists are only ever created for future
    cycles, and a cycle stays in the scheduler until the clock reaches it,
    so stages register a cycle with the scheduler only when they create
    its list.
    """

    __slots__ = (
        "trace",            # the CompactTrace being replayed
        "ops",              # static record per position, then the successor's
        "mem",              # load/store addresses in program order
        "n",                # len(trace)
        "committed",        # instructions retired so far
        "fetch_idx",        # next trace index to fetch
        "fetch_resume",     # earliest cycle fetch may proceed
        "awaiting_branch",  # seq of unresolved mispredicted branch, or None
        "rename_blocked_until",  # dispatch blocked during recovery until here
        "pipe",             # front-end pipe: (seq, dispatch_ready_cycle, fetch_cycle)
        "rob",              # deque of _RobEntry, program order
        "rob_by_seq",       # seq -> _RobEntry for in-flight instructions
        "rob_slots",        # ring of reusable _RobEntry objects
        "iq_count",         # issue-queue occupancy
        "events",           # cycle -> [seq, ...] completing that cycle
        "ready_buckets",    # cycle -> [seq, ...] becoming ready
        "ready_heap",       # heap of ready seqs (oldest-first select)
        "waiting",          # producer seq -> [consumer seq, ...] blocked on it
        "reg_ready",        # in-flight producer seq -> result-available cycle
        "iq_remaining",     # ring: unresolved producers of a waiting entry
        "iq_min_issue",     # ring: earliest issue cycle of a waiting entry
        "ring_mask",        # ring size - 1
        "mem_cursor",       # next unread address in ``mem`` (dispatch order)
        "store_addr",       # dispatched, unexecuted store seq -> address
        "last_fetch_line",  # last I-cache line touched by fetch
        "line_shift",       # log2(cache line bytes)
    )

    def __init__(self, trace, line_shift, rob_entries):
        self.trace = trace
        static = trace.table.ops
        self.ops = list(map(static.__getitem__, trace.idx))
        if self.ops:
            self.ops.append(static[trace.end])
        self.mem = trace.mem
        self.n = len(trace)
        self.committed = 0
        self.fetch_idx = 0
        self.fetch_resume = 0
        self.awaiting_branch = None
        self.rename_blocked_until = 0
        self.pipe = deque()
        self.rob = deque()
        self.rob_by_seq = {}
        self.iq_count = 0
        self.events = {}
        self.ready_buckets = {}
        self.ready_heap = []
        self.waiting = {}
        self.reg_ready = {}
        ring = 1 << max(0, rob_entries - 1).bit_length()
        self.rob_slots = [_RobEntry() for _ in range(ring)]
        self.iq_remaining = [0] * ring
        self.iq_min_issue = [0] * ring
        self.ring_mask = ring - 1
        self.mem_cursor = 0
        self.store_addr = {}
        self.last_fetch_line = -1
        self.line_shift = line_shift

    def occupancy(self, lsq, fetched=None):
        """Per-structure occupancy snapshot (error payloads, guard views)."""
        return {
            "rob": len(self.rob),
            "iq": self.iq_count,
            "lsq_loads": len(lsq.loads),
            "lsq_stores": len(lsq.stores),
            "pipe": len(self.pipe),
            "fetched": self.fetch_idx if fetched is None else fetched,
            "committed": self.committed,
        }


class PipelineStage:
    """Base class: one pipeline stage ticking against the shared state.

    ``tick()`` performs this cycle's work.  ``can_tick()`` answers whether
    the stage could make progress — or count a stall — at the scheduler's
    current cycle; it must err on the side of ``True``, since a wrongly-idle
    verdict would let the clock jump over an observable cycle.
    ``next_wake()`` names the earliest future cycle the stage could act at
    when that cycle is *not* carried by the scheduler's event heap (front-end
    pipe readiness, fetch resumption, rename unblocking).
    """

    name = "stage"
    STAT_FIELDS = ()

    def __init__(self, core, state, sched, stats, guard=None, obs=None):
        self.core = core
        self.cfg = core.config
        self.state = state
        self.sched = sched
        self.stats = stats
        self.guard = guard
        # Observer bus (repro.obs) or None; stages publish lifecycle events
        # behind the same ``is not None`` pattern the guard hooks use, so an
        # unobserved run pays nothing beyond the existing-style checks.
        self.obs = obs

    def tick(self):
        raise NotImplementedError

    def can_tick(self):
        return True

    def next_wake(self):
        return None


class CompletionStage(PipelineStage):
    """Retire completion events; wake consumers; resolve awaited branches."""

    name = "completion"
    STAT_FIELDS = ("recovery_stall_cycles", "iq_wakeups")

    def tick(self):
        state = self.state
        cycle = self.sched.cycle
        seqs = state.events.pop(cycle, None)
        if not seqs:
            return
        waiting = state.waiting
        rob_by_seq = state.rob_by_seq
        ready_buckets = state.ready_buckets
        remaining = state.iq_remaining
        min_issue = state.iq_min_issue
        mask = state.ring_mask
        obs = self.obs
        wakeups = 0
        for seq in seqs:
            rob_entry = rob_by_seq.get(seq)
            if rob_entry is not None:
                rob_entry.done = True
            if obs is not None:
                obs.on_complete(seq, cycle)
            consumers = waiting.pop(seq, None)
            if consumers is not None:
                # Count down each consumer's unresolved operands.
                wakeups += len(consumers)
                for consumer in consumers:
                    slot = consumer & mask
                    left = remaining[slot] - 1
                    remaining[slot] = left
                    if min_issue[slot] < cycle:
                        min_issue[slot] = cycle
                    if left == 0:
                        bucket_at = min_issue[slot]
                        if bucket_at <= cycle:
                            bucket_at = cycle + 1
                        bucket = ready_buckets.get(bucket_at)
                        if bucket is None:
                            ready_buckets[bucket_at] = [consumer]
                            self.sched.schedule(bucket_at)
                        else:
                            bucket.append(consumer)
            if seq == state.awaiting_branch:
                self._resolve(seq, cycle)
        self.stats.iq_wakeups += wakeups

    def _resolve(self, seq, cycle):
        """The awaited mispredicted branch ``seq`` resolved this cycle."""
        state = self.state
        state.awaiting_branch = None
        state.fetch_resume = cycle + 1
        rob_free = self.cfg.rob_entries - len(state.rob)
        blocked = self.core.frontend.recovery_block_until(
            cycle, state.rob_by_seq[seq].fetch_cycle, rob_free
        )
        if blocked > state.rename_blocked_until:
            state.rename_blocked_until = blocked
        self.stats.recovery_stall_cycles += max(0, blocked - cycle)
        if self.obs is not None:
            self.obs.on_recovery(seq, state.ops[seq], cycle, blocked)

    def can_tick(self):
        return self.sched.cycle in self.state.events


class CommitStage(PipelineStage):
    """In-order commit at commit width, plus per-seq bookkeeping pruning."""

    name = "commit"

    def tick(self):
        state = self.state
        rob = state.rob
        if not rob or not rob[0].done:
            return
        cycle = self.sched.cycle
        guard = self.guard
        obs = self.obs
        lsq = self.core.lsq
        ops = state.ops
        rob_by_seq = state.rob_by_seq
        reg_ready = state.reg_ready
        slots = self.cfg.commit_width
        freed = 0
        while rob and slots > 0:
            head = rob[0]
            if not head.done:
                break
            seq = head.seq
            op = ops[seq]
            if guard is not None:
                guard.on_commit(head, cycle)
            if obs is not None:
                obs.on_commit(seq, op, cycle)
            rob.popleft()
            del rob_by_seq[seq]
            if op.dest is not None:
                freed += 1
            if op.is_mem:
                if op.cls == C_LOAD:
                    lsq.commit_load(seq)
                else:
                    lsq.commit_store(seq)
            # Retired instructions need no further wakeup bookkeeping: a
            # consumer dispatched after this point finds the seq absent from
            # both maps and treats the operand as ready, which is exactly
            # what the result-available cycle would have said (completion
            # always precedes commit).  Without this pruning the dict grew
            # O(trace) on long runs.
            reg_ready.pop(seq, None)
            state.committed += 1
            slots -= 1
        if freed:
            self.core.frontend.on_commit(freed)

    def can_tick(self):
        rob = self.state.rob
        return bool(rob) and rob[0].done


class IssueStage(PipelineStage):
    """Wakeup-select issue with per-class ports and LSQ execution.

    The ready heap holds sequence numbers, so oldest-first select is the
    heap's own int order.  A seq enters it no earlier than the cycle before
    its earliest issue cycle — from its ready bucket, or from dispatch,
    which runs after issue — so everything the stage finds in it may issue.
    """

    name = "issue"
    STAT_FIELDS = ("regfile_reads", "regfile_writes", "alu_ops", "mul_ops",
                   "div_ops", "mem_violations")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        cfg = self.cfg
        self.units = [cfg.units.get(port, 0) for port in PORTS]
        #: ports with fewer units than the issue width; only they can run
        #: out within one cycle, so only they are counted
        self.scarce = [units < cfg.issue_width for units in self.units]
        self.latency = [cfg.latencies.get(name, 1) for name in OP_CLASSES]

    def tick(self):
        state = self.state
        cycle = self.sched.cycle
        ready_heap = state.ready_heap
        bucket = state.ready_buckets.pop(cycle, None)
        if bucket:
            for seq in bucket:
                heappush(ready_heap, seq)
        if not ready_heap:
            return
        ops = state.ops
        reg_ready = state.reg_ready
        events = state.events
        latency = self.latency
        scarce = self.scarce
        free = self.units[:]
        width = self.cfg.issue_width
        obs = self.obs
        issued = 0
        reads = writes = alu = mul = div = 0
        deferred = []
        while ready_heap and issued < width:
            seq = heappop(ready_heap)
            op = ops[seq]
            port = op.port
            if scarce[port] and not free[port]:
                deferred.append(seq)
                continue
            cls = op.cls
            if cls == C_LOAD:
                lat = self._issue_load(seq, cycle)
                if lat is None:
                    continue  # stays in the IQ, now waiting on a store
            elif cls == C_STORE:
                lat = self._execute_store(seq, cycle)
            else:
                lat = latency[cls]
            if scarce[port]:
                free[port] -= 1
            issued += 1
            done_at = cycle + lat
            reg_ready[seq] = done_at
            completing = events.get(done_at)
            if completing is None:
                events[done_at] = [seq]
                self.sched.schedule(done_at)
            else:
                completing.append(seq)
            if obs is not None:
                obs.on_issue(seq, op, cycle, done_at)
            reads += op.n_srcs
            if op.writes:
                writes += 1
            if cls == C_ALU or cls == C_SYS:
                alu += 1
            elif cls == C_MUL:
                mul += 1
            elif cls == C_DIV:
                div += 1
        for seq in deferred:
            heappush(ready_heap, seq)
        if issued:
            state.iq_count -= issued
            stats = self.stats
            stats.regfile_reads += reads
            stats.regfile_writes += writes
            if alu:
                stats.alu_ops += alu
            if mul:
                stats.mul_ops += mul
            if div:
                stats.div_ops += div

    def _issue_load(self, seq, cycle):
        """The issuing load's latency; ``None`` parks it behind a store."""
        core = self.core
        kind, payload = core.lsq.try_issue_load(
            seq, cycle, core.mdp, core.hierarchy, self.stats
        )
        if kind == "wait":
            # Forbidden to speculate past this older store; sleep until it
            # executes and recheck.
            state = self.state
            state.waiting.setdefault(payload, []).append(seq)
            state.iq_remaining[seq & state.ring_mask] += 1
            return None
        return payload

    def _execute_store(self, seq, cycle):
        """Execute store ``seq``: LSQ violation check; returns its latency."""
        state = self.state
        lsq = self.core.lsq
        latency = self.latency[C_STORE]
        violations = lsq.store_executed(
            seq, state.store_addr.pop(seq), cycle + latency
        )
        if violations:
            self.stats.mem_violations += len(violations)
            obs = self.obs
            for load_seq in violations:
                self.core.mdp.train_conflict(lsq.load_pc(load_seq))
                if obs is not None:
                    obs.on_squash(load_seq, cycle, "mem-order")
            # Replay of the violating loads and their dependents, modeled
            # as a short pipeline penalty.
            resume = cycle + self.cfg.mdp_replay_penalty
            if resume > state.fetch_resume:
                state.fetch_resume = resume
        return latency

    def can_tick(self):
        state = self.state
        return bool(state.ready_heap) or self.sched.cycle in state.ready_buckets


class DispatchStage(PipelineStage):
    """Structural stalls, front-end rename/operand-determination, wakeup."""

    name = "dispatch"
    STAT_FIELDS = ("rob_full_stalls", "iq_full_stalls", "lsq_full_stalls",
                   "rob_writes", "loads", "stores")

    def tick(self):
        state = self.state
        cycle = self.sched.cycle
        if cycle < state.rename_blocked_until:
            return
        pipe = state.pipe
        if not pipe or pipe[0][1] > cycle:
            return
        cfg = self.cfg
        guard = self.guard
        obs = self.obs
        ops = state.ops
        rob = state.rob
        rob_by_seq = state.rob_by_seq
        rob_slots = state.rob_slots
        mask = state.ring_mask
        rename = self.core.frontend.rename
        reg_ready = state.reg_ready
        ready_heap = state.ready_heap
        rob_entries = cfg.rob_entries
        iq_entries = cfg.iq_entries
        iq_count = state.iq_count
        next_cycle = cycle + 1
        waiting_in_pipe = len(pipe)
        spadds = 0
        for _ in range(cfg.fetch_width):
            if not pipe:
                break
            seq, ready_at, fetch_cycle = pipe[0]
            if ready_at > cycle:
                break
            op = ops[seq]
            if len(rob) >= rob_entries:
                self.stats.rob_full_stalls += 1
                break
            is_nop = op.cls == C_NOP
            if not is_nop and iq_count >= iq_entries:
                self.stats.iq_full_stalls += 1
                break
            if op.is_mem and not self._lsq_room(op):
                break
            tags = rename(op, seq, spadds)
            if tags is None:
                break  # the front-end model refused (its stall is counted)
            pipe.popleft()
            if op.is_spadd:
                spadds += 1
            rob_entry = rob_slots[seq & mask]
            rob_entry.seq = seq
            rob_entry.done = is_nop
            rob_entry.fetch_cycle = fetch_cycle
            rob.append(rob_entry)
            rob_by_seq[seq] = rob_entry
            if guard is None:
                rob_entry.entry = op
            else:
                rob_entry.entry = state.trace.entry(seq)
                guard.on_dispatch(seq, rob_entry.entry, cycle)
            if obs is not None:
                obs.on_dispatch(seq, op, cycle,
                                [tag for tag in tags if tag is not None])
            if is_nop:
                continue
            if op.is_mem:
                self._enter_lsq(seq, op)
            iq_count += 1
            # A None tag is a source register no in-flight producer writes.
            issue_at = next_cycle
            unresolved = 0
            for tag in tags:
                ready = reg_ready.get(tag)
                if ready is None:
                    if tag in rob_by_seq:
                        state.waiting.setdefault(tag, []).append(seq)
                        unresolved += 1
                    # else: producer long retired; operand ready
                elif ready > issue_at:
                    issue_at = ready
            if unresolved:
                state.iq_remaining[seq & mask] = unresolved
                state.iq_min_issue[seq & mask] = issue_at
            elif issue_at == next_cycle:
                # Issue runs before dispatch, so the heap is next read in
                # the cycle this instruction becomes ready.
                heappush(ready_heap, seq)
            else:
                bucket = state.ready_buckets.get(issue_at)
                if bucket is None:
                    state.ready_buckets[issue_at] = [seq]
                    self.sched.schedule(issue_at)
                else:
                    bucket.append(seq)
        state.iq_count = iq_count
        dispatched = waiting_in_pipe - len(pipe)
        if dispatched:
            self.stats.rob_writes += dispatched

    def _lsq_room(self, op):
        """Whether the LSQ has a free entry for ``op`` (else: a stall)."""
        lsq = self.core.lsq
        room = lsq.can_add_load() if op.cls == C_LOAD else lsq.can_add_store()
        if not room:
            self.stats.lsq_full_stalls += 1
        return room

    def _enter_lsq(self, seq, op):
        """Allocate the LSQ entry of a dispatching load or store."""
        state = self.state
        addr = state.mem[state.mem_cursor]
        state.mem_cursor += 1
        if op.cls == C_LOAD:
            self.core.lsq.add_load(seq, addr, op.pc)
            self.stats.loads += 1
        else:
            state.store_addr[seq] = addr
            self.core.lsq.add_store(seq)
            self.stats.stores += 1

    def can_tick(self):
        state = self.state
        cycle = self.sched.cycle
        if cycle < state.rename_blocked_until:
            return False
        pipe = state.pipe
        return bool(pipe) and pipe[0][1] <= cycle

    def next_wake(self):
        state = self.state
        if not state.pipe:
            return None
        ready_at = state.pipe[0][1]
        blocked_until = state.rename_blocked_until
        return ready_at if ready_at > blocked_until else blocked_until


class FetchStage(PipelineStage):
    """Fetch with I-cache stalls and branch/target/return prediction."""

    name = "fetch"
    #: fetch_stall_cycles is a legacy always-zero counter kept for output
    #: compatibility with the seed engine's as_dict() surface.
    STAT_FIELDS = ("fetch_stall_cycles", "icache_stall_cycles", "branches",
                   "branch_mispredicts", "target_mispredicts",
                   "return_mispredicts", "btb_redirects")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Front-end models may resolve control flow without prediction (the
        # bb block-header scheme); models without the hook take the classic
        # predictor path of _predict_control unchanged.
        self.resolve = getattr(self.core.frontend, "predict_control", None)

    def tick(self):
        state = self.state
        cycle = self.sched.cycle
        if state.awaiting_branch is not None or cycle < state.fetch_resume:
            return
        fetch_idx = state.fetch_idx
        if fetch_idx >= state.n:
            return
        cfg = self.cfg
        ops = state.ops
        pipe = state.pipe
        line_shift = state.line_shift
        last_line = state.last_fetch_line
        obs = self.obs
        dispatch_at = cycle + cfg.frontend_depth
        for seq in range(fetch_idx, min(state.n, fetch_idx + cfg.fetch_width)):
            op = ops[seq]
            line = op.pc >> line_shift
            if line != last_line:
                last_line = line
                if self._icache_miss(op.pc, cycle):
                    break
            pipe.append((seq, dispatch_at, cycle))
            fetch_idx = seq + 1
            if obs is not None:
                obs.on_fetch(seq, op, cycle)
            if op.is_control:
                mispredicted, stop_group, redirect = self._predict_control(
                    op, seq
                )
                if mispredicted:
                    state.awaiting_branch = seq
                    if obs is not None:
                        obs.on_mispredict(seq, op, cycle)
                    break
                if redirect:
                    state.fetch_resume = cycle + 1 + redirect
                    break
                if stop_group:
                    break
        state.fetch_idx = fetch_idx
        state.last_fetch_line = last_line

    def _icache_miss(self, pc, cycle):
        """Fetch a new I-cache line; a miss stalls fetch and returns True."""
        hierarchy = self.core.hierarchy
        extra = hierarchy.access_instr(pc) - hierarchy.l1i.hit_latency
        if extra <= 0:
            return False
        self.state.fetch_resume = cycle + extra
        self.stats.icache_stall_cycles += extra
        return True

    def _predict_control(self, op, seq):
        """Returns (mispredicted, stop_fetch_group, redirect_penalty).

        The outcome comes from the trace: the successor's PC, and for a
        conditional branch, whether that PC differs from the fall-through.
        """
        stats = self.stats
        core = self.core
        next_pc = self.state.ops[seq + 1].pc
        actual_taken = not op.is_branch or next_pc != op.fall_pc
        if self.resolve is not None:
            return self.resolve(stats, actual_taken)
        stats.branches += 1
        pc = op.pc
        actual_target = next_pc if actual_taken else None
        if op.is_branch:
            predicted_taken = core.predictor.predict(pc)
            core.predictor.update(pc, actual_taken)
        else:
            predicted_taken = True
        predicted_target = None
        if predicted_taken:
            if op.is_return:
                predicted_target = core.ras.pop()
            else:
                predicted_target = core.btb.predict(pc)
        if op.is_call:
            core.ras.push(pc + 4)
        if actual_taken and not op.is_return:
            core.btb.update(pc, next_pc)
        if self.cfg.ideal_recovery:
            return False, actual_taken, 0
        if predicted_taken != actual_taken:
            stats.branch_mispredicts += 1
            return True, True, 0
        if actual_taken and predicted_target != actual_target:
            if op.is_return:
                stats.return_mispredicts += 1
                stats.branch_mispredicts += 1
                return True, True, 0
            # Direct jump/branch with a BTB miss: the target is computed at
            # decode; short front-end redirect, not a full recovery.
            stats.btb_redirects += 1
            stats.target_mispredicts += 1
            return False, True, self.cfg.btb_miss_penalty
        return False, actual_taken, 0

    def can_tick(self):
        state = self.state
        return (state.awaiting_branch is None
                and self.sched.cycle >= state.fetch_resume
                and state.fetch_idx < state.n)

    def next_wake(self):
        state = self.state
        if state.awaiting_branch is not None or state.fetch_idx >= state.n:
            return None  # resumption rides on a completion event
        return state.fetch_resume


class TimingEngine:
    """Wires the five stages to one state object and one event scheduler.

    One engine instance drives one ``run``; the owning
    :class:`~repro.uarch.core.OoOCore` holds the cross-run structures
    (predictor, caches, LSQ, front-end model) that stages reach through
    ``core``.  ``idle_skip=False`` forces seed-style cycle-by-cycle stepping
    (used by benchmarks to measure the skip win, and implied whenever a
    guardrail suite is attached).
    """

    STAT_FIELDS = ("cycles", "instructions")

    def __init__(self, core, trace, guardrails=None, idle_skip=True,
                 observer=None):
        self.core = core
        self.guard = guardrails
        # Normalize an empty bus to None: the stages then skip even the
        # ``is not None`` publish checks' bodies, and the run is exactly the
        # unobserved hot path.
        obs = observer if (observer is not None and observer.active) else None
        self.obs = obs
        line_shift = (core.hierarchy.line_bytes - 1).bit_length()
        self.state = PipelineState(trace, line_shift, core.config.rob_entries)

        from repro.uarch.scheduler import EventScheduler

        self.sched = EventScheduler()
        # Guardrailed runs step every cycle so per-cycle hooks (watchdog,
        # fault schedules, periodic deep scans) observe the exact cadence
        # the seed engine gave them.  Cycle-granular observers (the stall
        # accountant) need the same: on_cycle_end must fire once per
        # simulated cycle for slot accounting to be conservative.
        # Instruction-granular sinks keep skipping — by the idle-skip
        # invariant no lifecycle event can fire on a jumped-over cycle.
        self.idle_skip = (idle_skip and guardrails is None
                          and (obs is None or not obs.cycle_granular))
        args = (core, self.state, self.sched, core.stats)
        self.completion = CompletionStage(*args, obs=obs)
        self.commit = CommitStage(*args, guard=guardrails, obs=obs)
        self.issue = IssueStage(*args, obs=obs)
        self.dispatch = DispatchStage(*args, guard=guardrails, obs=obs)
        self.fetch = FetchStage(*args, obs=obs)
        self.stages = (self.completion, self.commit, self.issue,
                       self.dispatch, self.fetch)

    def run(self, max_cycles=200_000_000):
        state = self.state
        stats = self.core.stats
        n = state.n
        if n == 0:
            return stats
        sched = self.sched
        guard = self.guard
        obs = self.obs
        if guard is not None:
            guard.begin_run(core=self.core, state=state, sched=sched)
        if obs is not None:
            obs.begin_run(self.core, state, sched)

        completion, commit, issue, dispatch, fetch = self.stages
        complete_tick = completion.tick
        commit_tick = commit.tick
        issue_tick = issue.tick
        dispatch_tick = dispatch.tick
        fetch_tick = fetch.tick
        events = state.events
        ready_buckets = state.ready_buckets
        ready_heap = state.ready_heap
        pipe = state.pipe
        rob = state.rob
        idle_skip = self.idle_skip
        while state.committed < n:
            # The cheap pre-filter first: a non-empty ready heap or front-end
            # pipe almost always means some stage can act, and reading two
            # attributes costs far less per executed cycle than five
            # can_tick() calls.  Only quiet windows (both empty) pay for the
            # full stage-by-stage idleness check.
            if (idle_skip
                    and not ready_heap
                    and not pipe
                    and not (
                        completion.can_tick()
                        or commit.can_tick()
                        or issue.can_tick()
                        or dispatch.can_tick()
                        or fetch.can_tick()
                    )):
                self._skip_to_next_event(max_cycles)
                continue
            # Each stage runs only when its can_tick() predicate holds —
            # inlined here, in stage order, on the state the earlier stages
            # of this cycle left behind — since a tick that fails the
            # predicate returns without effect.
            cycle = sched.cycle
            if cycle in events:
                complete_tick()
            if rob and rob[0].done:
                commit_tick()
            if ready_heap or cycle in ready_buckets:
                issue_tick()
            if (pipe and pipe[0][1] <= cycle
                    and cycle >= state.rename_blocked_until):
                dispatch_tick()
            if (state.awaiting_branch is None
                    and cycle >= state.fetch_resume
                    and state.fetch_idx < n):
                fetch_tick()
            # Observer cycle-end precedes the guard hook so the attribution
            # conservation checker sees this cycle's fresh charges.
            if obs is not None:
                obs.on_cycle_end(sched.cycle)
            if guard is not None:
                guard.on_cycle()
            sched.advance()
            if sched.cycle > max_cycles:
                raise self._exceeded(max_cycles)

        stats.cycles = sched.cycle
        stats.instructions = n
        stats.cache_stats = self.core.hierarchy.stats()
        stats.predictor_accuracy = self.core.predictor.accuracy
        # Sinks flush before the guard's end-of-run pass so final-state
        # checkers (attribution conservation) see the exported buckets.
        if obs is not None:
            obs.end_run(stats)
        if guard is not None:
            guard.end_run(stats)
        return stats

    # -- cycle skipping ------------------------------------------------------

    def _skip_to_next_event(self, max_cycles):
        """Jump the clock to the next cycle at which any stage can act.

        Candidates are the scheduler's event heap (completions and ready
        buckets) plus the stage-computed wakes that are not heap-carried:
        front-end pipe readiness / rename unblocking (dispatch) and fetch
        resumption (fetch).  Idle-skip invariant: every candidate is
        strictly in the future, and no statistic can change on the cycles
        jumped over.
        """
        sched = self.sched
        target = sched.next_event()
        for wake in (self.dispatch.next_wake(), self.fetch.next_wake()):
            if wake is not None and (target is None or wake < target):
                target = wake
        if target is None or target > max_cycles:
            # The seed engine would have idled cycle-by-cycle up to the
            # budget and raised there; reproduce that exactly.
            sched.jump(max_cycles + 1)
            raise self._exceeded(max_cycles)
        sched.jump(target)

    def _exceeded(self, max_cycles):
        state = self.state
        occupancy = state.occupancy(self.core.lsq)
        return SimulationError(
            f"{self.cfg_name}: exceeded {max_cycles} cycles "
            f"({state.committed}/{state.n} committed)",
            cycle=self.sched.cycle,
            occupancy=occupancy,
        )

    @property
    def cfg_name(self):
        return self.core.config.name


def contribute_default_stats(registry):
    """Assemble the canonical counter set from every pipeline component."""
    from repro.obs.attribution import StallAttributionAccountant

    registry.contribute("engine", TimingEngine.STAT_FIELDS)
    registry.contribute("fetch", FetchStage.STAT_FIELDS)
    registry.contribute("completion", CompletionStage.STAT_FIELDS)
    registry.contribute("dispatch", DispatchStage.STAT_FIELDS)
    registry.contribute("issue", IssueStage.STAT_FIELDS)
    registry.contribute("frontend.rename", RenameFrontEnd.STAT_FIELDS)
    registry.contribute("frontend.straight", StraightFrontEnd.STAT_FIELDS)
    registry.contribute("lsq", LoadStoreQueue.STAT_FIELDS)
    registry.contribute("obs.attribution",
                        StallAttributionAccountant.STAT_FIELDS)
