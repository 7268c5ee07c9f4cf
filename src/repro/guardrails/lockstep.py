"""Lockstep co-simulation: a golden functional run shadows the timing core.

The timing engine is trace-driven, so the commit stream it produces is the
trace the front-end interpreter generated.  The lockstep monitor re-executes
the *program* on a second, independent interpreter instance (the golden
machine, uncompiled: it single-steps through ``step_op``) one instruction
per commit and compares, at every commit:

* the committing PC against the golden PC,
* the architectural result (``dest_value``) against the golden write,
* the stored word for memory effects,
* the successor PC (control flow).

Any mismatch raises a :class:`~repro.common.errors.DivergenceError` naming
the first diverging commit, the field, expected/observed values, and a
replayable window (the program identity plus the commit-index range) so the
failure can be re-driven in isolation.  A final check compares the output
channels end-to-end.
"""

from repro.common.errors import DivergenceError


class LockstepMonitor:
    """Compares the timing core's commit stream against a golden re-execution."""

    name = "lockstep"

    def __init__(self, binary, window=32):
        self.binary = binary
        self.isa = binary.isa
        from repro import isa as isa_registry

        #: 'distance' (every instruction writes the next circular RP) or
        #: 'gpr' (named registers; writes only when ``dest`` is set).
        self.register_model = isa_registry.get(binary.isa).register_model
        self.golden = binary.interpreter(collect_trace=False, compiled=False)
        self.compared = 0
        self.window = window

    # -- per-commit comparison ----------------------------------------------

    def on_commit(self, entry, cycle):
        golden = self.golden
        if golden.halted:
            self._diverge("halt", "running golden machine", "halted", entry,
                          cycle)
        golden_pc = golden._pc()
        if golden_pc != entry.pc:
            self._diverge("pc", golden_pc, entry.pc, entry, cycle)
        decoded = getattr(golden, "decoded", None)
        if decoded is not None:
            # Step straight off the shared pre-decoded array (one decode
            # per binary, not per machine) — every built-in ISS has one.
            if not 0 <= golden.pc_index < len(decoded):
                self._diverge("pc_index", f"[0, {len(decoded)})",
                              golden.pc_index, entry, cycle)
            golden.step_op(decoded[golden.pc_index])
        else:
            instrs = golden.program.instrs
            if not 0 <= golden.pc_index < len(instrs):
                self._diverge("pc_index", f"[0, {len(instrs)})",
                              golden.pc_index, entry, cycle)
            golden.step(instrs[golden.pc_index])
        self._compare_result(entry, cycle)
        if entry.op_class == "store" and entry.mem_addr is not None:
            stored = golden.memory.get(entry.mem_addr // 4)
            if entry.dest_value is not None and stored != entry.dest_value:
                self._diverge("mem_value", stored, entry.dest_value, entry,
                              cycle)
        if not golden.halted and entry.next_pc is not None:
            next_pc = golden._pc()
            if next_pc != entry.next_pc:
                self._diverge("next_pc", next_pc, entry.next_pc, entry, cycle)
        self.compared += 1

    def _compare_result(self, entry, cycle):
        golden = self.golden
        if self.register_model == "distance":
            # Every distance-ISA instruction writes; seq was bumped by step().
            value = golden.regs[(golden.seq - 1) % golden.max_rp]
            if value != entry.dest_value:
                self._diverge("dest_value", value, entry.dest_value, entry,
                              cycle)
        elif entry.dest is not None:
            value = golden.regs[entry.dest]
            if value != entry.dest_value:
                self._diverge("dest_value", value, entry.dest_value, entry,
                              cycle)

    # -- final state ---------------------------------------------------------

    def finish(self, observed_output=None):
        """End-of-run verdict; raises if the output channels disagree."""
        if observed_output is not None:
            golden_out = list(self.golden.output)
            observed = list(observed_output)
            if golden_out != observed:
                raise DivergenceError(
                    "output channel diverged from the golden run",
                    context={
                        "checker": self.name,
                        "expected": golden_out[:64],
                        "observed": observed[:64],
                        "commits_compared": self.compared,
                    },
                )
        return {
            "commits_compared": self.compared,
            "golden_halted": self.golden.halted,
        }

    def _diverge(self, field, expected, observed, entry, cycle):
        start = max(0, self.compared - self.window)
        raise DivergenceError(
            f"lockstep divergence at commit #{self.compared}: {field} "
            f"expected {expected!r}, observed {observed!r}",
            cycle=cycle,
            pc=entry.pc,
            context={
                "checker": self.name,
                "field": field,
                "expected": expected,
                "observed": observed,
                "commit_index": self.compared,
                "replay_window": {
                    "isa": self.isa,
                    "first_commit": start,
                    "last_commit": self.compared,
                },
            },
        )
