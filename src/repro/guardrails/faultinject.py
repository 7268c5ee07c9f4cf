"""Seeded fault injection: prove the checkers catch real corruption.

Flips bits in simulator state on a deterministic, seeded schedule and runs
the corrupted machine under full guardrails (checkers + lockstep).  Targets:

* ``regfile`` — flip one bit of the most recently produced live value in the
  functional interpreter's register file (detected by lockstep value/PC
  comparison or, if the program stops terminating, the step budget);
* ``written_seq`` — corrupt the RP bookkeeping that backs the interpreter's
  dynamic distance validation (detected by the stale-operand check);
* ``rob_done_set`` — prematurely mark an incomplete ROB entry done (detected
  by the commit-sanity checker);
* ``rob_done_clear`` — clear a completed entry's done flag (the entry wedges
  at the ROB head; detected by the forward-progress watchdog);
* ``rob_seq`` — flip a bit of an in-flight ROB slot's sequence number, so
  the slot no longer holds its own position (detected by the occupancy
  checker's slot-position scan or, at commit, by commit-sanity);
* ``predictor`` — flip a stored-counter bit outside its encodable range
  (detected by the predictor state sweep).

:func:`run_campaign` executes N seeded faults against a small workload and
reports detected vs. escaped faults, classifying escapes as *benign* (the
flip was architecturally dead: golden output and memory unchanged) or
*silent* (state corrupted but nothing noticed — a real checker gap).
"""

import random

from repro.common.errors import (
    GuardrailError,
    ReproError,
    RunTimeoutError,
    SimulationError,
)
from repro.guardrails.lockstep import LockstepMonitor

#: Instruction classes whose results are likely consumed later; functional
#: register-file faults aim at these so the corruption is live, not dead.
_VALUE_PRODUCERS = ("alu", "mul", "div", "load")

#: (target, weight) mix of one campaign; weighted toward the state whose
#: corruption must never escape.
DEFAULT_MIX = (
    ("regfile", 25),
    ("written_seq", 20),
    ("rob_done_set", 10),
    ("rob_done_clear", 15),
    ("rob_seq", 15),
    ("predictor", 15),
)

#: Compact campaign workload: loops, calls, arrays and data-dependent
#: branches in a few thousand dynamic instructions.
DEFAULT_CAMPAIGN_SOURCE = """
int buf[16];

int mix(int a, int b) { return (a * 17 + b) ^ (b >> 2); }

int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}

int main() {
    int acc = 1;
    for (int i = 0; i < 16; i++) buf[i] = mix(i, acc);
    for (int round = 0; round < 6; round++) {
        for (int i = 0; i < 16; i++) {
            if (buf[i] & 1) acc += buf[i];
            else acc ^= buf[i] + round;
            buf[i] = mix(buf[i], acc);
        }
        __out(acc);
    }
    __out(fib(9));
    for (int i = 0; i < 16; i += 3) __out(buf[i]);
    return 0;
}
"""


class FaultSpec:
    """One scheduled bit flip."""

    __slots__ = ("target", "step", "cycle", "bit", "index")

    def __init__(self, target, step=None, cycle=None, bit=0, index=None):
        self.target = target
        self.step = step  # functional-run step for interpreter-state faults
        self.cycle = cycle  # timing-core cycle for structural faults
        self.bit = bit
        self.index = index  # target-specific selector (e.g. predictor row)

    def is_functional(self):
        return self.target in ("regfile", "written_seq")

    def as_dict(self):
        return {
            "target": self.target,
            "step": self.step,
            "cycle": self.cycle,
            "bit": self.bit,
            "index": self.index,
        }

    def __repr__(self):
        where = f"step={self.step}" if self.is_functional() else f"cycle={self.cycle}"
        return f"FaultSpec({self.target}, {where}, bit={self.bit})"


# ---------------------------------------------------------------- functional


def _live_register(interp):
    """RP slot of the most recent value-producing instruction, if any."""
    for entry in reversed(interp.trace[-24:]):
        if entry.op_class in _VALUE_PRODUCERS or entry.is_rmov:
            return entry.dest % interp.max_rp
    if interp.seq:
        return (interp.seq - 1) % interp.max_rp
    return None


def inject_functional(interp, spec):
    """Apply one interpreter-state fault; returns an event record or None."""
    reg = _live_register(interp)
    if reg is None:
        return None
    if spec.target == "regfile":
        interp.regs[reg] ^= 1 << (spec.bit % 32)
        return {"target": spec.target, "reg": reg, "bit": spec.bit % 32,
                "step": spec.step}
    if spec.target == "written_seq":
        previous = interp.written_seq[reg]
        interp.written_seq[reg] = (previous or 0) ^ (1 << (spec.bit % 10))
        return {"target": spec.target, "reg": reg, "was": previous,
                "step": spec.step}
    raise ValueError(f"not a functional fault target: {spec.target}")


def run_functional_with_fault(binary, spec, max_steps=2_000_000):
    """Trace-generating run with one scheduled interpreter-state flip.

    Returns ``(interp, status, event)`` where ``status`` is ``'halt'`` or
    ``'limit'`` and ``event`` records what was actually flipped.
    """
    interp = binary.interpreter(collect_trace=True, trace_values=True)
    instrs = interp.program.instrs
    n_instrs = len(instrs)
    steps = 0
    event = None
    while not interp.halted and steps < max_steps:
        if steps == spec.step and event is None:
            event = inject_functional(interp, spec)
        if not 0 <= interp.pc_index < n_instrs:
            raise SimulationError(
                f"pc out of text segment after fault: index {interp.pc_index}"
            )
        interp.step(instrs[interp.pc_index])
        steps += 1
    return interp, ("halt" if interp.halted else "limit"), event


# ------------------------------------------------------------------- timing


class TimingFaultInjector:
    """Guard-suite component that corrupts core state at a scheduled cycle.

    Retries every cycle from ``spec.cycle`` until a suitable victim exists
    (e.g. an incomplete ROB entry for ``rob_done_set``), so short-lived
    structures don't let a scheduled fault silently evaporate.
    """

    def __init__(self, spec, seed=0):
        self.spec = spec
        self.rng = random.Random(seed)
        self.events = []
        self.done = False

    def begin_run(self, view):
        pass

    def on_cycle(self, view):
        if self.done or view.cycle < self.spec.cycle:
            return
        target = self.spec.target
        if target == "rob_done_set":
            # Flip the oldest incomplete entry, but only when its completion
            # is genuinely pending: if the real completion event lands before
            # the entry reaches the ROB head, the flip is architecturally
            # dead (the flag would have been set anyway).  Retry otherwise.
            for rob_entry in view.rob:
                if rob_entry.done:
                    continue
                ready = rob_entry.ready_at
                if ready is None or ready > view.cycle + 2:
                    rob_entry.done = True
                    self._record(view, seq=rob_entry.seq)
                return
        elif target == "rob_done_clear":
            for rob_entry in view.rob:
                if rob_entry.done and rob_entry.entry.op_class != "nop":
                    rob_entry.done = False
                    self._record(view, seq=rob_entry.seq)
                    return
        elif target == "rob_seq":
            rob = view.rob
            if rob:
                victim = rob[self.rng.randrange(len(rob))]
                victim.seq ^= 1 << (self.spec.bit % 8)
                self._record(view, seq=victim.seq)
        elif target == "predictor":
            self._inject_predictor(view)
        else:
            raise ValueError(f"unknown timing fault target: {target}")

    def _inject_predictor(self, view):
        predictor = view.core.predictor
        table = getattr(predictor, "table", None)
        if table is None:
            table = getattr(predictor, "bimodal", None)
        if not table:
            return
        index = (self.spec.index or 0) % len(table)
        # Counters are 2-bit; flipping bit 2..7 models a stuck/flipped cell in
        # the wider SRAM word and must land outside the encodable range.
        table[index] ^= 1 << (2 + self.spec.bit % 6)
        self._record(view, index=index)

    def _record(self, view, **detail):
        self.done = True
        event = dict(self.spec.as_dict())
        event["injected_cycle"] = view.cycle
        event.update(detail)
        self.events.append(event)

    def summary(self):
        return {"injected": self.done, "events": list(self.events)}


# ----------------------------------------------------------------- campaign


class CampaignReport:
    """Aggregated outcome of one fault-injection campaign."""

    def __init__(self, seed, records):
        self.seed = seed
        self.records = records
        self.total = len(records)
        self.detected = sum(1 for r in records if r["outcome"] == "detected")
        self.escaped_benign = sum(
            1 for r in records if r["outcome"] == "escaped_benign"
        )
        self.escaped_silent = sum(
            1 for r in records if r["outcome"] == "escaped_silent"
        )
        self.by_target = {}
        for record in records:
            bucket = self.by_target.setdefault(
                record["target"], {"detected": 0, "escaped_benign": 0,
                                   "escaped_silent": 0}
            )
            bucket[record["outcome"]] += 1

    @property
    def detection_rate(self):
        return self.detected / self.total if self.total else 1.0

    @property
    def harmful_detection_rate(self):
        """Detection rate over faults that actually corrupted state."""
        harmful = self.detected + self.escaped_silent
        return self.detected / harmful if harmful else 1.0

    def as_dict(self):
        return {
            "seed": self.seed,
            "total": self.total,
            "detected": self.detected,
            "escaped_benign": self.escaped_benign,
            "escaped_silent": self.escaped_silent,
            "detection_rate": round(self.detection_rate, 4),
            "harmful_detection_rate": round(self.harmful_detection_rate, 4),
            "by_target": self.by_target,
        }

    def text(self):
        lines = [
            f"fault-injection campaign: seed={self.seed} faults={self.total}",
            f"  detected        {self.detected:4d}  "
            f"({self.detection_rate:.1%})",
            f"  escaped benign  {self.escaped_benign:4d}",
            f"  escaped SILENT  {self.escaped_silent:4d}",
        ]
        for target, bucket in sorted(self.by_target.items()):
            lines.append(
                f"    {target:15s} detected={bucket['detected']} "
                f"benign={bucket['escaped_benign']} "
                f"silent={bucket['escaped_silent']}"
            )
        return "\n".join(lines)


def _weighted_choice(rng, mix):
    total = sum(weight for _, weight in mix)
    roll = rng.randrange(total)
    acc = 0
    for name, weight in mix:
        acc += weight
        if roll < acc:
            return name
    return mix[-1][0]


def _campaign_config(config):
    from repro.core.configs import straight_2way

    if config is None:
        config = straight_2way(name="STRAIGHT-2way-guarded")
    return config.copy(
        guardrails=True,
        watchdog_cycles=2_000,
        deep_check_interval=16,
        predictor_check_interval=1_024,
    )


def _build_suite(config, binary, spec=None, seed=0, window=32):
    from repro.guardrails import build_guardrails

    injector = None
    if spec is not None and not spec.is_functional():
        injector = TimingFaultInjector(spec, seed=seed)
    return build_guardrails(config, binary=binary, injector=injector,
                            window=window)


def _guarded_run(config, trace, suite):
    """One timing run of ``trace`` with ``suite`` as its only sink."""
    from repro.obs import ObserverBus
    from repro.uarch.core import OoOCore

    return OoOCore(config).run(trace, observer=ObserverBus([suite]))


def _run_one(binary, config, spec, golden, max_steps, seed):
    """Run one faulted simulation; returns (outcome, detail)."""
    golden_output, golden_memory = golden
    try:
        if spec.is_functional():
            interp, status, event = run_functional_with_fault(
                binary, spec, max_steps=max_steps
            )
            if status == "limit":
                return "detected", {"how": "step-budget",
                                    "event": event}
            suite = _build_suite(config, binary, spec)
        else:
            interp = binary.interpreter(collect_trace=True, trace_values=True)
            status = interp.run(max_steps).status
            if status == "limit":
                raise SimulationError("clean functional run hit step budget")
            suite = _build_suite(config, binary, spec, seed=seed)
        _guarded_run(config, interp.trace, suite)
        suite.finish(interp.output)
    except RunTimeoutError:
        # A campaign-level wall-clock budget is not a fault detection;
        # let it abort the whole campaign.
        raise
    except GuardrailError as exc:
        return "detected", {"how": type(exc).__name__,
                            "checker": exc.context.get("checker"),
                            "error": str(exc)[:160]}
    except ReproError as exc:
        return "detected", {"how": type(exc).__name__,
                            "error": str(exc)[:160]}
    except (KeyError, IndexError, ValueError) as exc:
        # A raw crash is still a loud failure, but it names a checker gap.
        return "detected", {"how": f"crash:{type(exc).__name__}",
                            "error": str(exc)[:160]}
    if interp.output != golden_output or interp.memory != golden_memory:
        return "escaped_silent", {"how": "state diverged, nothing raised"}
    return "escaped_benign", {"how": "fault was architecturally dead"}


def run_campaign(source=None, binary=None, config=None, n_faults=100,
                 seed=20260805, max_steps=2_000_000, mix=DEFAULT_MIX):
    """Seeded fault-injection campaign; returns a :class:`CampaignReport`."""
    if binary is None:
        from repro.core.api import build

        binary = build(source or DEFAULT_CAMPAIGN_SOURCE).straight_re
    config = _campaign_config(config)

    # Static pre-pass: the campaign's golden binary must verify cleanly
    # before any dynamic fault is injected (see repro.analysis).
    from repro.guardrails import static_precheck

    static_precheck(binary)

    # Golden references: functional state and the clean guarded timing run
    # (which also proves checkers are quiet on an uncorrupted machine).
    golden_interp = binary.interpreter(collect_trace=True, trace_values=True)
    golden_status = golden_interp.run(max_steps).status
    if golden_status != "halt":
        raise SimulationError("campaign workload did not halt cleanly")
    golden = (list(golden_interp.output), dict(golden_interp.memory))
    n_steps = len(golden_interp.trace)
    clean_suite = _build_suite(config, binary)
    clean_stats = _guarded_run(config, golden_interp.trace, clean_suite)
    clean_suite.finish(golden_interp.output)
    n_cycles = clean_stats.cycles

    rng = random.Random(seed)
    records = []
    for i in range(n_faults):
        target = _weighted_choice(rng, mix)
        spec = FaultSpec(
            target,
            step=rng.randrange(n_steps // 10, (n_steps * 9) // 10),
            cycle=rng.randrange(max(1, n_cycles // 10),
                                max(2, (n_cycles * 9) // 10)),
            bit=rng.randrange(32),
            index=rng.randrange(1 << 16),
        )
        outcome, detail = _run_one(binary, config, spec, golden, max_steps,
                                   seed=seed + i)
        records.append({
            "fault": i,
            "target": target,
            "spec": spec.as_dict(),
            "outcome": outcome,
            "detail": detail,
        })
    return CampaignReport(seed, records)
