"""Kanata pipeline-visualizer log writer and round-trip parser.

The Kanata format is the text log consumed by the Konata pipeline viewer
(also emitted by Onikiri 2): a ``Kanata\\t0004`` header followed by
tab-separated records where ``C=``/``C`` move the clock, ``I`` opens an
instruction, ``L`` attaches labels, ``S``/``E`` begin and end a stage in a
lane, ``W`` records a wakeup dependency, and ``R`` retires (or flushes) the
instruction.  :class:`KanataWriter` is a
:class:`~repro.obs.events.PipelineSink` that buffers lifecycle events per
instruction and renders the log at the end of the run; :func:`parse_kanata`
reads such a log back into the same canonical record structure the writer
can produce (:meth:`KanataWriter.canonical_records`), which is what the
round-trip tests compare — write → parse → identical event stream.

Stage lanes (lane 0, pipeline order)::

    F  [fetch,    fetch+1)    front-end pipe entry
    D  [fetch+1,  dispatch)   decode / in front-end pipe
    I  [dispatch, issue)      waiting in the issue queue
    X  [issue,    complete)   executing
    C  [complete, commit)     done, waiting at/behind ROB head

Instructions that never enter the issue queue (nops and, on SS,
zero-latency ops the dispatch stage completes in place) skip I/X and wait
in C from dispatch.  Memory-order replay squashes are rendered as mouseover
labels rather than flush-retires: the trace-driven simulator re-executes
the violating load in place, so the instruction still commits.
"""

from repro.obs.events import PipelineSink

STAGE_LANE = 0
LABEL_TEXT = 0        # left-pane label
LABEL_MOUSEOVER = 1   # hover detail
RETIRE_COMMIT = 0
RETIRE_FLUSH = 1

# Per-instruction ordering of record kinds within one cycle.  Stage S/E
# records get explicit order numbers from their pipeline position (S before
# its own E), so zero-length stages still render start-before-end.
_ORDER_I = 0
_ORDER_L = 1
_ORDER_STAGE = 10   # + 2*stage_index (S) / + 2*stage_index + 1 (E)
_ORDER_W = 40
_ORDER_R = 50


class _Insn:
    __slots__ = ("seq", "pc", "mnemonic", "fetch", "dispatch", "tags",
                 "issue", "complete", "commit", "notes")

    def __init__(self, seq, pc, mnemonic, fetch):
        self.seq = seq
        self.pc = pc
        self.mnemonic = mnemonic
        self.fetch = fetch
        self.dispatch = None
        self.tags = ()
        self.issue = None
        self.complete = None
        self.commit = None
        self.notes = []


class KanataWriter(PipelineSink):
    """Buffers lifecycle events and renders a Kanata 0004 log.

    ``path`` (optional) is written at ``end_run``; :meth:`render` returns
    the log text either way.  ``max_insns`` caps the buffered window so
    logging a long run cannot exhaust memory — instructions past the cap
    are counted but not rendered (Konata itself struggles past ~1M rows).
    """

    name = "kanata"

    def __init__(self, path=None, max_insns=200_000):
        self.path = path
        self.max_insns = max_insns
        self._insns = {}      # seq -> _Insn, insertion (= fetch) order
        self._ids = {}        # seq -> file-local instruction id
        self.dropped = 0
        self.final_cycle = 0

    # -- event intake --------------------------------------------------------

    def on_fetch(self, seq, entry, cycle):
        if len(self._insns) >= self.max_insns:
            self.dropped += 1
            return
        self._ids[seq] = len(self._ids)
        self._insns[seq] = _Insn(seq, entry.pc, entry.mnemonic, cycle)

    def on_mispredict(self, seq, entry, cycle):
        insn = self._insns.get(seq)
        if insn is not None:
            insn.notes.append(f"mispredicted @{cycle}")

    def on_dispatch(self, seq, entry, cycle, tags):
        insn = self._insns.get(seq)
        if insn is not None:
            insn.dispatch = cycle
            insn.tags = tuple(tags)

    def on_issue(self, seq, entry, cycle, done_at):
        insn = self._insns.get(seq)
        if insn is not None:
            insn.issue = cycle

    def on_complete(self, seq, cycle):
        insn = self._insns.get(seq)
        if insn is not None:
            insn.complete = cycle

    def on_recovery(self, seq, entry, cycle, blocked_until):
        insn = self._insns.get(seq)
        if insn is not None:
            insn.notes.append(f"recovery {cycle}..{blocked_until}")

    def on_squash(self, seq, cycle, cause):
        insn = self._insns.get(seq)
        if insn is not None:
            insn.notes.append(f"replay:{cause} @{cycle}")

    def on_commit(self, seq, entry, cycle):
        insn = self._insns.get(seq)
        if insn is not None:
            insn.commit = cycle
        self.final_cycle = cycle

    def end_run(self, stats):
        if self.path is not None:
            with open(self.path, "w") as fh:
                fh.write(self.render())

    # -- rendering -----------------------------------------------------------

    def _end(self, insn):
        """Cycle an instruction's window closes at (commit, or end of run —
        never before its own fetch, so flush records stay well-ordered)."""
        if insn.commit is not None:
            return insn.commit
        return max(self.final_cycle, insn.fetch + 1)

    def _stages(self, insn):
        """Stage intervals for one instruction: list of (stage, start, end)."""
        end = self._end(insn)
        stages = [("F", insn.fetch, insn.fetch + 1)]
        if insn.dispatch is not None:
            stages.append(("D", insn.fetch + 1, insn.dispatch))
            if insn.issue is not None:
                stages.append(("I", insn.dispatch, insn.issue))
                done = insn.complete if insn.complete is not None else end
                stages.append(("X", insn.issue, done))
                stages.append(("C", done, end))
            else:
                stages.append(("C", insn.dispatch, end))
        else:
            stages.append(("D", insn.fetch + 1, end))
        # Clamp zero/negative spans to a one-record S+E pair at the start.
        return [(name, start, max(start, stop)) for name, start, stop in stages]

    def _events(self):
        """All log records as (cycle, insn_id, kind_order, line) tuples."""
        events = []
        retire_id = 0
        for insn in self._insns.values():
            iid = self._ids[insn.seq]

            def add(cyc, order, line, _iid=iid):
                events.append((cyc, _iid, order, line))

            add(insn.fetch, _ORDER_I, f"I\t{iid}\t{insn.seq}\t0")
            add(insn.fetch, _ORDER_L,
                f"L\t{iid}\t{LABEL_TEXT}\t{insn.pc:#x}: {insn.mnemonic}")
            for note in insn.notes:
                add(insn.fetch, _ORDER_L,
                    f"L\t{iid}\t{LABEL_MOUSEOVER}\t{note}")
            for index, (stage, start, stop) in enumerate(self._stages(insn)):
                add(start, _ORDER_STAGE + 2 * index,
                    f"S\t{iid}\t{STAGE_LANE}\t{stage}")
                add(stop, _ORDER_STAGE + 2 * index + 1,
                    f"E\t{iid}\t{STAGE_LANE}\t{stage}")
            if insn.dispatch is not None:
                for tag in insn.tags:
                    pid = self._ids.get(tag)
                    if pid is not None:
                        add(insn.dispatch, _ORDER_W, f"W\t{iid}\t{pid}\t0")
            if insn.commit is not None:
                add(insn.commit, _ORDER_R,
                    f"R\t{iid}\t{retire_id}\t{RETIRE_COMMIT}")
            else:
                add(self._end(insn), _ORDER_R,
                    f"R\t{iid}\t{retire_id}\t{RETIRE_FLUSH}")
            retire_id += 1
        events.sort(key=lambda ev: (ev[0], ev[1], ev[2]))
        return events

    def render(self):
        lines = ["Kanata\t0004"]
        cycle = None
        for at, _iid, _order, line in self._events():
            if cycle is None:
                lines.append(f"C=\t{at}")
            elif at != cycle:
                lines.append(f"C\t{at - cycle}")
            cycle = at
            lines.append(line)
        return "\n".join(lines) + "\n"

    def canonical_records(self):
        """The event stream in the comparison form :func:`parse_kanata` emits."""
        records = {}
        retire_id = 0
        for insn in self._insns.values():
            iid = self._ids[insn.seq]
            labels = [(LABEL_TEXT, f"{insn.pc:#x}: {insn.mnemonic}")]
            labels += [(LABEL_MOUSEOVER, note) for note in insn.notes]
            stages = {}
            for stage, start, stop in self._stages(insn):
                stages[(STAGE_LANE, stage)] = (start, max(start, stop))
            deps = []
            if insn.dispatch is not None:
                deps = [(self._ids[t], 0) for t in insn.tags if t in self._ids]
            if insn.commit is not None:
                retire = (insn.commit, retire_id, RETIRE_COMMIT)
            else:
                retire = (self._end(insn), retire_id, RETIRE_FLUSH)
            retire_id += 1
            records[iid] = {
                "sim_seq": insn.seq,
                "labels": labels,
                "stages": stages,
                "deps": deps,
                "retire": retire,
            }
        return records


def parse_kanata(text):
    """Parse a Kanata log back into canonical per-instruction records.

    Returns ``{insn_id: {"sim_seq", "labels", "stages", "deps", "retire"}}``
    where ``stages`` maps ``(lane, stage_name) -> (start_cycle, end_cycle)``
    — the same structure as :meth:`KanataWriter.canonical_records`, so
    equality between the two is the round-trip test.  Raises ``ValueError``
    on a malformed log (bad header, records before ``C=``, unknown ids,
    unterminated stages).
    """
    lines = text.splitlines()
    if not lines or lines[0].split("\t")[0] != "Kanata":
        raise ValueError("not a Kanata log: missing 'Kanata' header")
    records = {}
    open_stages = {}
    cycle = None
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        kind = parts[0]
        if kind == "C=":
            cycle = int(parts[1])
            continue
        if kind == "C":
            if cycle is None:
                raise ValueError(f"line {lineno}: 'C' before 'C='")
            cycle += int(parts[1])
            continue
        if cycle is None:
            raise ValueError(f"line {lineno}: record before 'C='")
        if kind == "I":
            iid = int(parts[1])
            records[iid] = {
                "sim_seq": int(parts[2]),
                "labels": [],
                "stages": {},
                "deps": [],
                "retire": None,
            }
        elif kind == "L":
            iid = int(parts[1])
            _require(records, iid, lineno)
            records[iid]["labels"].append((int(parts[2]), parts[3]))
        elif kind == "S":
            iid, lane, stage = int(parts[1]), int(parts[2]), parts[3]
            _require(records, iid, lineno)
            open_stages[(iid, lane, stage)] = cycle
        elif kind == "E":
            iid, lane, stage = int(parts[1]), int(parts[2]), parts[3]
            _require(records, iid, lineno)
            start = open_stages.pop((iid, lane, stage), None)
            if start is None:
                raise ValueError(
                    f"line {lineno}: 'E' for stage {stage!r} never started")
            records[iid]["stages"][(lane, stage)] = (start, cycle)
        elif kind == "W":
            iid, pid, dep_type = int(parts[1]), int(parts[2]), int(parts[3])
            _require(records, iid, lineno)
            _require(records, pid, lineno)
            records[iid]["deps"].append((pid, dep_type))
        elif kind == "R":
            iid = int(parts[1])
            _require(records, iid, lineno)
            records[iid]["retire"] = (cycle, int(parts[2]), int(parts[3]))
        else:
            raise ValueError(f"line {lineno}: unknown record kind {kind!r}")
    if open_stages:
        iid, lane, stage = next(iter(open_stages))
        raise ValueError(f"unterminated stage {stage!r} for instruction {iid}")
    return records


def _require(records, iid, lineno):
    if iid not in records:
        raise ValueError(f"line {lineno}: instruction {iid} not opened by 'I'")
