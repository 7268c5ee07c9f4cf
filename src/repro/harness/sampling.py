"""SMARTS-style sampled timing simulation.

Full runs couple the cycle model to every dynamic instruction: the
functional ISS collects a complete trace and the out-of-order core
simulates all of it.  Sampled runs decouple the two — the functional
interpreter *fast-forwards* between periodic measurement windows on the
threaded-code fast path (:mod:`repro.fastpath`, no trace collection), and
only the windows are simulated cycle-accurately:

::

    |--- fast-forward ---|warmup|== window ==|cooldown|--- fast-forward ---|

* **warmup** instructions re-warm the microarchitectural state (caches,
  predictors, LSQ, memory-dependence predictor all *persist* across
  windows on one reused core — detailed warming in SMARTS terms) before
  measurement starts;
* the **window** is the measured region: the engine snapshots cycle and
  counters when its commit count reaches the window's first and last
  instruction (commit marks), so the segment runs the plain, unobserved
  engine path;
* **cooldown** instructions keep the pipeline fed past the last measured
  commit, killing the end-of-trace drain bias.

Extrapolation uses the ratio estimator ``IPC = Σ window instructions / Σ
window cycles`` with a CLT 95% confidence interval over per-window IPCs;
every other counter is scaled by the sampled fraction and gets a
per-bucket error bar the same way.  The estimate, schedule, seed and error
bars all land in ``SimStats.sampling`` so JSON reports are reproducible
byte-for-byte given the same parameters.

Programs too short to fill ``min_windows`` measurement windows fall back
to :func:`repro.core.api.simulate` (exact, no extrapolation), with the
fallback recorded in ``SimStats.sampling["mode"]``.
"""

import math
import random

from repro import fastpath
from repro.common.errors import SimulationError
from repro.common.layout import WORD_BYTES
from repro.uarch.core import OoOCore
from repro.uarch.stats import SimStats

#: Golden-ratio conjugate: the Weyl-sequence increment for window placement
#: (equidistributed modulo 1 against any rational loop period).
_WEYL = 0.6180339887498949


class SamplingParams:
    """The sampling schedule: all units are dynamic instructions.

    The defaults are the tuned accuracy schedule (see
    ``FASTPATH_ACCURACY_PARAMS`` in :mod:`repro.harness.bench`): windows
    long enough to amortize the segment-start settling transient, one
    window per 8k-instruction stratum.
    """

    def __init__(self, period=8000, window=2000, warmup=600, cooldown=300,
                 seed=0, min_windows=3, functional_warming=True,
                 keep_checkpoints=False):
        if window < 1:
            raise ValueError("window must be >= 1 instruction")
        if warmup < 0 or cooldown < 0:
            raise ValueError("warmup/cooldown must be >= 0")
        if period < warmup + window + cooldown:
            raise ValueError(
                "period must cover warmup + window + cooldown "
                f"({warmup} + {window} + {cooldown} > {period})"
            )
        self.period = period
        self.window = window
        self.warmup = warmup
        self.cooldown = cooldown
        #: Seeds the per-stratum window-position draws; recorded in the
        #: results so any sampled run can be reproduced exactly.
        self.seed = seed
        self.min_windows = min_windows
        #: Replay fast-forwarded control transfers into the branch
        #: predictor / BTB / RAS.  Without it, predictor state inside
        #: measurement windows systematically diverges from a continuous
        #: run (SMARTS's central accuracy result; measured +2–4% IPC bias
        #: on dhrystone/SS here).
        self.functional_warming = functional_warming
        #: Keep an architectural checkpoint per window start (replay/debug).
        self.keep_checkpoints = keep_checkpoints

    def as_dict(self):
        return {
            "period": self.period,
            "window": self.window,
            "warmup": self.warmup,
            "cooldown": self.cooldown,
            "seed": self.seed,
            "min_windows": self.min_windows,
            "functional_warming": self.functional_warming,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(**{key: data[key] for key in
                      ("period", "window", "warmup", "cooldown", "seed",
                       "min_windows", "functional_warming") if key in data})

    def __repr__(self):
        return (f"SamplingParams(period={self.period}, window={self.window},"
                f" warmup={self.warmup}, cooldown={self.cooldown},"
                f" seed={self.seed})")


class _PredictorWarmer:
    """Functional warming: trains predictor/BTB/RAS during fast-forward.

    Makes exactly the state writes of the fetch stage's
    ``_predict_control``, in its order, without any cycle modeling:
    ``predictor.update`` on conditional branches, ``ras.pop`` on returns,
    ``ras.push`` on calls and ``btb.update`` on taken non-returns.  The
    lookups whose results fetch compares against the outcome
    (``predictor.predict``, ``btb.predict``) write no state, so warming
    skips them.  No ISA has a conditional call or return, and no jump is
    both a call and a return.

    ``note`` consumes the compiled fast path's
    :data:`~repro.fastpath.codegen.CompiledProgram.term_at` descriptors;
    ``note_entry`` consumes :class:`~repro.common.trace.TraceEntry` views
    (the baseline-interpreter fallback), and the two produce bit-identical
    predictor state for the same execution.  Both are closures over the
    bound update methods: the compiled fast-forward calls ``note`` once
    per executed branch or jump.
    """

    def __init__(self, core, text_base):
        train = core.predictor.update
        fill = core.btb.update
        push = core.ras.push
        pop = core.ras.pop

        def note(term, next_index):
            pc, is_cond, is_call, is_return, fallthrough = term
            if is_cond:
                if next_index == fallthrough:
                    train(pc, False)
                    return
                train(pc, True)
            elif is_return:
                pop()
                return
            elif is_call:
                push(pc + WORD_BYTES)
            fill(pc, text_base + next_index * WORD_BYTES)

        def note_entry(entry):
            if not entry.is_control:
                return
            pc = entry.pc
            if entry.is_branch:
                train(pc, entry.taken)
                if not entry.taken:
                    return
            elif entry.is_return:
                pop()
                return
            elif entry.is_call:
                push(pc + WORD_BYTES)
            fill(pc, entry.next_pc)

        self.note = note
        self.note_entry = note_entry


def _ci95(values):
    """Half-width of the CLT 95% confidence interval (None for n < 2)."""
    n = len(values)
    if n < 2:
        return None
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return 1.96 * math.sqrt(var / n)


class SampledRunner:
    """Drives one binary × core-config pair through sampled simulation.

    One :class:`~repro.uarch.core.OoOCore` is reused for every window, so
    caches, branch predictor, BTB, RAS and the memory-dependence predictor
    stay warm across the fast-forwarded gaps; only the counter object is
    swapped per window.  The functional interpreter is the compiled
    fast path when enabled — fast-forwarding costs no trace memory at all.
    """

    def __init__(self, binary, config, params=None):
        self.binary = binary
        self.config = config
        self.params = params or SamplingParams()

    # -- window measurement ----------------------------------------------------

    def _simulate_segment(self, core, segment, warmup, warm):
        """Cycle-simulate one warmup+window+cooldown trace segment.

        Returns the measured window ``{"cycles", "instructions", "fields"}``
        or None when the program ended before filling the window.
        """
        window = self.params.window
        if len(segment) < warmup + window:
            return None
        stats = SimStats()
        core.stats = stats
        # The front-end model binds the counter object at core construction;
        # rebinding both keeps every component writing into this window.
        core.frontend.stats = stats
        core.run(segment, warm=warm, marks=(warmup, warmup + window))
        (start_cycle, start_fields), (stop_cycle, stop_fields) = (
            core.engine.marked)
        return {
            "cycles": max(1, stop_cycle - start_cycle),
            "instructions": window,
            "fields": {field: stop_fields[field] - start_fields[field]
                       for field in start_fields},
        }

    # -- fast-forward ------------------------------------------------------------

    def _fast_forward(self, interp, count, warmer):
        """Execute ``count`` instructions trace-less, warming the predictor.

        The compiled fast path reports control transfers through its
        terminator descriptors (one callback per basic block); the baseline
        interpreter fallback collects the gap's trace and replays its
        control entries — slower, but state-identical.
        """
        if warmer is None:
            return interp.run(max_steps=count).steps
        if getattr(interp, "_fast", None) is not None:
            return fastpath.run_compiled_warming(interp, count, warmer.note)
        interp.begin_trace()
        steps = interp.run(max_steps=count).steps
        interp.collect_trace = False
        for entry in interp.trace:
            warmer.note_entry(entry)
        return steps

    # -- the sampled run ---------------------------------------------------------

    def run(self, max_steps=50_000_000, warm_caches=False):
        """Sampled counterpart of :func:`repro.core.api.simulate`."""
        from repro.core.api import SimulationResult

        p = self.params
        interp = self.binary.interpreter()
        core = OoOCore(self.config)
        # Functional warming only makes sense for predictor-driven front
        # ends; models that resolve control flow themselves (bb) never
        # consult the predictor, and warming would skew its accuracy stat.
        warmer = None
        if (p.functional_warming
                and getattr(core.frontend, "predict_control", None) is None):
            warmer = _PredictorWarmer(core, self.binary.program.text_base)
        # Stratified low-discrepancy sampling: one window per period-sized
        # stratum, placed by a golden-ratio Weyl sequence from a seeded
        # random phase.  A single fixed offset (classic systematic
        # sampling) aliases with loop periods — coremark's ~40k-instruction
        # iteration sampled every 8k lands on five fixed phases, skewing
        # the windows' instruction mix by several percent.  Independent
        # per-stratum draws fix the aliasing but waste the strong
        # autocorrelation of loop phases (measured ±8% swings on phase-rich
        # cells); the Weyl sequence gets both — it sweeps the phase space
        # evenly like systematic sampling yet is equidistributed against
        # any loop period.  The draw range keeps each segment inside its
        # stratum, so segments never overlap and stay in program order.
        phase = random.Random(p.seed).random()
        span = max(1, p.period - p.window - p.cooldown - p.warmup)
        stratum = 0
        executed = 0
        windows = []
        checkpoints = []
        outputs = interp.output

        while not interp.halted and executed < max_steps:
            draw = int(((phase + stratum * _WEYL) % 1.0) * span)
            next_start = stratum * p.period + p.warmup + draw
            stratum += 1
            seg_begin = max(0, next_start - p.warmup)
            if seg_begin > executed:
                skip = min(seg_begin, max_steps) - executed
                executed += self._fast_forward(interp, skip, warmer)
                if interp.halted or executed >= max_steps:
                    break
            warm_actual = next_start - executed
            seg_len = min(warm_actual + p.window + p.cooldown,
                          max_steps - executed)
            if p.keep_checkpoints:
                checkpoints.append(interp.checkpoint())
            # A segment is a trace of its own: positions, and with them
            # STRAIGHT's producer tags (position − distance), start at 0.
            interp.begin_trace()
            executed += interp.run(max_steps=seg_len).steps
            interp.collect_trace = False
            segment = interp.trace
            window = self._simulate_segment(
                core, segment, warm_actual, warm_caches
            )
            if window is not None:
                windows.append(window)

        if not interp.halted:
            raise SimulationError(
                f"functional run did not finish within {max_steps} steps"
            )
        run_result = _FunctionalResult(interp, executed, outputs)

        if len(windows) < p.min_windows:
            # Too short to sample: exact full simulation, flagged as such.
            from repro.core.api import simulate

            result = simulate(self.binary, self.config, max_steps=max_steps,
                              warm_caches=warm_caches)
            result.stats.sampling = {
                "mode": "full-fallback",
                "params": p.as_dict(),
                "windows": len(windows),
                "total_instructions": result.stats.instructions,
            }
            return result

        stats = self._extrapolate(core, windows, executed)
        result = SimulationResult(self.binary, self.config, run_result,
                                  interp, stats)
        if p.keep_checkpoints:
            result.checkpoints = checkpoints
        return result

    # -- extrapolation ----------------------------------------------------------

    def _extrapolate(self, core, windows, total_instructions):
        """Ratio-estimator scale-up of the measured windows to the full run."""
        p = self.params
        measured_instr = sum(w["instructions"] for w in windows)
        measured_cycles = sum(w["cycles"] for w in windows)
        ipc_hat = measured_instr / measured_cycles
        window_ipcs = [w["instructions"] / w["cycles"] for w in windows]
        scale = total_instructions / measured_instr

        stats = SimStats()
        stats.instructions = total_instructions
        stats.cycles = max(1, round(total_instructions / ipc_hat))
        buckets = {}
        for field in windows[0]["fields"]:
            deltas = [w["fields"][field] for w in windows]
            estimate = round(sum(deltas) * scale)
            setattr(stats, field, estimate)
            rates = [d / w["instructions"]
                     for d, w in zip(deltas, windows)]
            rate_ci = _ci95(rates)
            buckets[field] = {
                "estimate": estimate,
                "ci95": (None if rate_ci is None
                         else rate_ci * total_instructions),
            }
        # Cumulative over the measured windows (the reused hierarchy and
        # predictor are never reset) — representative, not extrapolated.
        stats.cache_stats = core.hierarchy.stats()
        stats.predictor_accuracy = core.predictor.accuracy
        ipc_ci = _ci95(window_ipcs)
        stats.sampling = {
            "mode": "sampled",
            "schedule": "stratified-weyl",
            "params": p.as_dict(),
            "windows": len(windows),
            "measured_instructions": measured_instr,
            "measured_cycles": measured_cycles,
            "total_instructions": total_instructions,
            "coverage": measured_instr / total_instructions,
            "ipc": ipc_hat,
            "ipc_mean": sum(window_ipcs) / len(window_ipcs),
            "ipc_ci95": ipc_ci,
            "buckets": buckets,
        }
        return stats


class _FunctionalResult:
    """RunResult-shaped summary of the windowed functional execution."""

    def __init__(self, interp, steps, output):
        self.status = "halt" if interp.halted else "limit"
        self.steps = steps
        self.output = output
        self.exit_code = getattr(interp, "exit_code", None)

    def __repr__(self):
        return f"RunResult({self.status}, steps={self.steps})"


def simulate_sampled(binary, config, params=None, max_steps=50_000_000,
                     warm_caches=False):
    """Sampled drop-in for :func:`repro.core.api.simulate`.

    Returns a :class:`~repro.core.api.SimulationResult` whose
    ``stats.sampling`` dict records the schedule, seed, coverage and
    per-bucket 95% confidence intervals.  Guardrails are not supported on
    sampled runs (lockstep needs every committed instruction) — attach
    them to full runs instead.
    """
    return SampledRunner(binary, config, params).run(
        max_steps=max_steps, warm_caches=warm_caches
    )
