"""Encoding-density report: payload bits per instruction, per registered ISA.

The STRAIGHT paper's §III argues the distance encoding fits comfortably in
32-bit words; BasicBlocker pays for hazard-free fetch with extra header
instructions.  This experiment quantifies both effects *from the descriptor
tables alone*: every registered ISA declares, per instruction format, the
encodable payload fields and their bit widths
(:attr:`~repro.isa.descriptor.IsaDescriptor.format_fields`), so the report
needs no per-ISA code — a new descriptor shows up in the table
automatically.

Two views per (ISA, workload) point:

* **static** — the linked text segment: instruction count, code bytes, and
  the mean encoded payload bits per instruction (payload bits / word bits
  is the format utilization);
* **dynamic** — the retired instruction stream of one functional run
  (a sweep-engine ``functional_task``, so memoized and result-cached):
  retired count and mean payload bits per *retired* instruction, which is
  what the fetch/decode bandwidth actually carries.

Code size is also reported relative to the RV32IM baseline of the same
workload, making the ``bb`` header overhead and STRAIGHT's RMOV overhead
directly comparable.
"""

from repro import isa as isa_registry

#: Workloads the standalone report covers (the paper's evaluation pair).
DEFAULT_WORKLOADS = ("dhrystone", "coremark")


def payload_bits_by_mnemonic(descriptor):
    """mnemonic -> encodable payload bits, straight from the format tables."""
    return {
        mnemonic: descriptor.format_payload_bits(spec.fmt)
        for mnemonic, spec in descriptor.opcodes.items()
    }


def _weighted_bits(counts, bits):
    total = sum(counts.values())
    if not total:
        return 0, 0.0
    weighted = sum(bits[mnemonic] * count for mnemonic, count in counts.items())
    return total, weighted / total


def static_mnemonic_counts(program):
    """Static mnemonic histogram of a linked program's text segment."""
    counts = {}
    for instr in program.instrs:
        counts[instr.mnemonic] = counts.get(instr.mnemonic, 0) + 1
    return counts


def density_rows(workloads=DEFAULT_WORKLOADS, isas=None, iterations=None):
    """One row per (workload, registered ISA): static + dynamic density."""
    from repro.harness.experiments import functional_task
    from repro.harness.sweep import ensure_results, payload_or_raise
    from repro.workloads import build_workload

    names = tuple(isas) if isas else isa_registry.names()
    tasks = {
        (workload, name): functional_task(
            workload, isa_registry.get(name).default_label,
            iterations=iterations)
        for workload in workloads
        for name in names
    }
    results = ensure_results(list(tasks.values()))
    rows = []
    for workload in workloads:
        build = build_workload(workload, iterations)
        binaries = build.all()
        baseline_bytes = None
        for name in names:
            descriptor = isa_registry.get(name)
            binary = binaries[descriptor.default_label]
            bits = payload_bits_by_mnemonic(descriptor)
            static_counts = static_mnemonic_counts(binary.program)
            static_instrs, static_bits = _weighted_bits(static_counts, bits)
            task = tasks[workload, name]
            dynamic_counts = payload_or_raise(
                results[task.task_id], task.task_id)["mnemonic_counts"]
            dynamic_instrs, dynamic_bits = _weighted_bits(dynamic_counts, bits)
            word_bits = descriptor.word_bits
            code_bytes = static_instrs * word_bits // 8
            if descriptor.name == "riscv":
                baseline_bytes = code_bytes
            rows.append(
                {
                    "workload": workload,
                    "isa": descriptor.name,
                    "binary": descriptor.default_label,
                    "static_instrs": static_instrs,
                    "code_bytes": code_bytes,
                    "static_bits_per_instr": round(static_bits, 2),
                    "utilization": round(static_bits / word_bits, 4),
                    "dynamic_instrs": dynamic_instrs,
                    "dynamic_bits_per_instr": round(dynamic_bits, 2),
                }
            )
        if baseline_bytes:
            for row in rows:
                if row["workload"] == workload:
                    row["code_size_vs_ss"] = round(
                        row["code_bytes"] / baseline_bytes, 4
                    )
    return rows


def density_report(workloads=DEFAULT_WORKLOADS, isas=None, iterations=None):
    """The encoding-density experiment: ``{"rows": ..., "text": ...}``."""
    from repro.harness.reporting import format_table

    rows = density_rows(workloads, isas=isas, iterations=iterations)
    columns = ["workload", "isa", "binary", "static_instrs", "code_bytes",
               "code_size_vs_ss", "static_bits_per_instr", "utilization",
               "dynamic_instrs", "dynamic_bits_per_instr"]
    return {
        "rows": rows,
        "text": format_table(
            rows,
            columns=columns,
            title="Encoding density by ISA (payload bits per 32-bit word)",
        ),
    }
