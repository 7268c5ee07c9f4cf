"""PC-indexed hot-region profiler: where do the committed cycles go?

A sink that counts commits and fetch→commit latency
per program counter, then maps each PC back through the linked program —
``labels`` give the enclosing region (nearest preceding label, i.e. the
function or loop the assembler named), ``AsmUnit.origins`` give the source
line when the program carries them (STRAIGHT binaries do; RISC-V programs
without origins degrade gracefully to PC/label only).

It consumes lifecycle events only, so profiling changes no simulated
cycle.
"""

from bisect import bisect_right

from repro.obs.events import PipelineSink


class HotRegionProfiler(PipelineSink):
    """Per-PC commit counts and latencies, aggregated into labeled regions.

    ``program`` is the linked binary being simulated (``StraightProgram``
    or ``RiscvProgram``); without one the profiler still reports per-PC
    counts, just without region/source mapping.
    """

    name = "profile"

    def __init__(self, program=None):
        self.program = program
        self.commits = {}        # pc -> committed instruction count
        self.latency = {}        # pc -> summed fetch->commit cycles
        self.rmov_commits = {}   # pc -> committed RMOVs (STRAIGHT overhead)
        self.mispredicts = {}    # pc -> fetch stalls blamed on this branch
        self.mnemonics = {}      # pc -> mnemonic (last seen)
        self._fetched_at = {}    # in-flight seq -> fetch cycle
        self.total_commits = 0
        self._region_index = None

    # -- event intake --------------------------------------------------------

    def on_fetch(self, seq, entry, cycle):
        self._fetched_at[seq] = cycle

    def on_mispredict(self, seq, entry, cycle):
        self.mispredicts[entry.pc] = self.mispredicts.get(entry.pc, 0) + 1

    def on_squash(self, seq, cycle, cause):
        self._fetched_at.pop(seq, None)

    def on_commit(self, seq, entry, cycle):
        pc = entry.pc
        self.commits[pc] = self.commits.get(pc, 0) + 1
        self.total_commits += 1
        self.mnemonics[pc] = entry.mnemonic
        if entry.is_rmov:
            self.rmov_commits[pc] = self.rmov_commits.get(pc, 0) + 1
        fetched = self._fetched_at.pop(seq, None)
        if fetched is not None:
            self.latency[pc] = self.latency.get(pc, 0) + (cycle - fetched)

    # -- region / source mapping ---------------------------------------------

    def _regions(self):
        """Sorted (instruction_index, label) pairs for bisect lookup."""
        if self._region_index is None:
            labels = getattr(self.program, "labels", None) or {}
            pairs = sorted((index, label) for label, index in labels.items())
            self._region_index = (
                [index for index, _ in pairs],
                [label for _, label in pairs],
            )
        return self._region_index

    def locate(self, pc):
        """Map a PC to (instruction_index, region_label, source_line)."""
        if self.program is None:
            return None, None, None
        index = self.program.index_of_pc(pc)
        starts, names = self._regions()
        pos = bisect_right(starts, index) - 1
        region = names[pos] if pos >= 0 else None
        origins = getattr(self.program, "origins", None)
        line = origins[index] if origins and 0 <= index < len(origins) else None
        return index, region, line

    # -- reporting -----------------------------------------------------------

    def report(self, top=10):
        """JSON-friendly summary: hottest PCs and per-region rollup."""
        rows = []
        for pc, count in self.commits.items():
            _, region, line = self.locate(pc)
            avg = self.latency.get(pc, 0) / count if count else 0.0
            rows.append({
                "pc": pc,
                "mnemonic": self.mnemonics.get(pc, "?"),
                "region": region,
                "source_line": line,
                "commits": count,
                "share": round(count / self.total_commits, 6)
                if self.total_commits else 0.0,
                "avg_latency": round(avg, 2),
                "rmov_commits": self.rmov_commits.get(pc, 0),
                "mispredicts": self.mispredicts.get(pc, 0),
            })
        rows.sort(key=lambda row: (-row["commits"], row["pc"]))
        regions = {}
        for row in rows:
            name = row["region"] or "<unmapped>"
            agg = regions.setdefault(
                name, {"commits": 0, "rmov_commits": 0, "mispredicts": 0})
            agg["commits"] += row["commits"]
            agg["rmov_commits"] += row["rmov_commits"]
            agg["mispredicts"] += row["mispredicts"]
        region_rows = [
            {"region": name, "share": round(
                agg["commits"] / self.total_commits, 6)
                if self.total_commits else 0.0, **agg}
            for name, agg in regions.items()
        ]
        region_rows.sort(key=lambda row: (-row["commits"], row["region"]))
        return {
            "total_commits": self.total_commits,
            "hot_pcs": rows[:top],
            "regions": region_rows,
        }

    def text(self, top=10):
        """Human-readable hot-region table."""
        report = self.report(top=top)
        lines = [f"committed instructions: {report['total_commits']}",
                 "", "hot regions:"]
        for row in report["regions"]:
            lines.append(
                f"  {row['region']:<24} {row['commits']:>10} commits "
                f"({row['share']:.2%})  rmov={row['rmov_commits']}  "
                f"mispredicts={row['mispredicts']}")
        lines += ["", f"hottest {len(report['hot_pcs'])} PCs:"]
        for row in report["hot_pcs"]:
            where = row["region"] or "?"
            if row["source_line"] is not None:
                where += f":{row['source_line']}"
            lines.append(
                f"  {row['pc']:#010x} {row['mnemonic']:<12} {where:<28} "
                f"{row['commits']:>8} commits  avg f->c "
                f"{row['avg_latency']:>6.1f} cyc")
        return "\n".join(lines)
