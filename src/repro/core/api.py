"""High-level API: source -> binaries -> functional run -> timing run.

This is the entry point a downstream user reaches for::

    from repro.core import build, simulate
    from repro.core.configs import ss_4way, straight_4way

    binaries = build(source_text)
    ss = simulate(binaries.riscv, ss_4way())
    st = simulate(binaries.straight_re, straight_4way())
    print(st.stats.ipc / ss.stats.ipc)
"""

from repro import isa as isa_registry
from repro.common.errors import SimulationError
from repro.frontend import compile_source
from repro.compiler import compile_to_riscv, compile_to_straight
from repro.uarch.core import OoOCore


class Binary:
    """One linked executable plus which ISA it targets."""

    def __init__(self, isa, program, compilation):
        self.isa = isa  # a registered ISA name ('riscv' | 'straight' | 'bb')
        self.program = program
        self.compilation = compilation

    @property
    def descriptor(self):
        """This binary's :class:`~repro.isa.descriptor.IsaDescriptor`."""
        return isa_registry.get(self.isa)

    def interpreter(self, collect_trace=False, compiled=None,
                    trace_values=False):
        """This binary's functional simulator.

        ``compiled`` forces the threaded-code fast path on (``True``), off
        (``False``) or leaves the interpreter's default policy (``None`` —
        on unless ``STRAIGHT_FASTPATH=0`` or the program is incompatible).
        ``trace_values`` makes the recorded trace keep every instruction's
        result, which lockstep co-simulation compares at commit.
        """
        return self.descriptor.make_interpreter(
            self.program, collect_trace=collect_trace, compiled=compiled,
            trace_values=trace_values,
        )


class BuildResult:
    """The evaluated binaries of one benchmark: the paper's three plus BB."""

    def __init__(self, module, riscv, straight_raw, straight_re, bb=None):
        self.module = module
        self.riscv = riscv
        self.straight_raw = straight_raw
        self.straight_re = straight_re
        self.bb = bb

    def all(self):
        binaries = {
            "SS": self.riscv,
            "STRAIGHT-RAW": self.straight_raw,
            "STRAIGHT-RE+": self.straight_re,
        }
        if self.bb is not None:
            binaries["BB"] = self.bb
        return binaries


def build(source, max_distance=1023, optimize=True):
    """Compile mini-C source to RV32IM, STRAIGHT RAW/RE+ and BB binaries."""
    module = compile_source(source, optimize=optimize)
    riscv = compile_to_riscv(module)
    raw = compile_to_straight(
        module, max_distance=max_distance, redundancy_elimination=False
    )
    re_plus = compile_to_straight(
        module, max_distance=max_distance, redundancy_elimination=True
    )
    from repro.compiler.bb_backend import compile_to_bb

    bb = compile_to_bb(module)
    return BuildResult(
        module,
        Binary("riscv", riscv.link(), riscv),
        Binary("straight", raw.link(), raw),
        Binary("straight", re_plus.link(), re_plus),
        bb=Binary("bb", bb.link(), bb),
    )


class SimulationResult:
    """Functional + timing results for one binary on one core."""

    def __init__(self, binary, config, run_result, interpreter, stats,
                 guardrail_report=None):
        self.binary = binary
        self.config = config
        self.run_result = run_result
        self.interpreter = interpreter
        self.stats = stats  # SimStats (None for functional-only runs)
        #: Dict summary of what the guardrails checked (None when disabled).
        self.guardrail_report = guardrail_report

    @property
    def output(self):
        return self.run_result.output

    @property
    def cycles(self):
        return self.stats.cycles

    @property
    def ipc(self):
        return self.stats.ipc


def run_functional(binary, max_steps=50_000_000, collect_trace=False,
                   compiled=None):
    """Execute a binary on its ISA's functional simulator."""
    interp = binary.interpreter(collect_trace=collect_trace,
                                compiled=compiled)
    result = interp.run(max_steps)
    if result.status == "limit":
        raise SimulationError(
            f"functional run did not finish within {max_steps} steps"
        )
    return SimulationResult(binary, None, result, interp, None)


def simulate(binary, config, max_steps=50_000_000, warm_caches=False,
             guardrails=None, observer=None):
    """Run a binary through the functional ISS, then the timing model.

    ``warm_caches=True`` pre-touches all lines so compulsory misses do not
    dominate short runs (the evaluation harness uses this; see DESIGN.md).

    ``guardrails`` turns on invariant checking plus lockstep co-simulation
    against a golden second interpreter (see :mod:`repro.guardrails`); the
    default ``None`` defers to ``config.guardrails``.  Disabled runs take the
    exact fast path and reproduce guardrail-free cycle counts.

    ``observer`` attaches an :class:`~repro.obs.ObserverBus` of pipeline
    sinks (Kanata log writer, stall-attribution accountant, hot-region
    profiler — see :mod:`repro.obs`) to the timing run.  When both
    guardrails and a stall accountant are present, the suite additionally
    enforces per-cycle attribution conservation.
    """
    if guardrails is None:
        guardrails = getattr(config, "guardrails", False)
    # Lockstep compares every committed result, so guarded runs record them.
    interp = binary.interpreter(collect_trace=True,
                                trace_values=bool(guardrails))
    result = interp.run(max_steps)
    if result.status == "limit":
        raise SimulationError(
            f"functional run did not finish within {max_steps} steps"
        )
    suite = None
    if guardrails:
        from repro.guardrails import GuardrailSuite, build_guardrails

        suite = (guardrails if isinstance(guardrails, GuardrailSuite)
                 else build_guardrails(config, binary=binary))
    if suite is not None and observer is not None and observer.active:
        from repro.guardrails.checkers import StallAttributionChecker
        from repro.obs.attribution import StallAttributionAccountant

        for sink in observer.sinks:
            if isinstance(sink, StallAttributionAccountant):
                suite.add_checker(StallAttributionChecker(sink))
                break
    core = OoOCore(config, guardrails=suite)
    stats = core.run(interp.trace, warm=warm_caches, observer=observer)
    report = suite.finish(result.output) if suite is not None else None
    return SimulationResult(binary, config, result, interp, stats,
                            guardrail_report=report)
