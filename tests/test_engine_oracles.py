"""Oracles for the timing side: pinned SimStats cells and trace digests.

Both fixtures were generated from the engine and trace builder that
predate the static timing table and the compact trace, by running::

    PYTHONPATH=src python -m tests.test_engine_oracles

* ``golden_simstats_extra.json`` pins the cells ``golden_simstats.json``
  leaves out: the ``bb`` cores (cold caches) and one warm-cache core per
  ISA — ``warm_caches=True`` is the mode the paper grid and the sweep
  engine run in, so it is the path ``OoOCore.warm_caches`` must keep
  bit-identical.
* ``golden_trace_digests.json`` holds one short digest per dynamic
  instruction of every ``TraceEntry`` field (``dest_value`` included) for
  a small program on each ISA's default binary.  Whatever the trace's
  storage, the entries it materializes must reproduce these on both the
  compiled and the ``compiled=False`` interpreter.
"""

import hashlib
import json
import os

import pytest

from repro import isa as isa_registry
from repro.core.api import build, simulate
from repro.core.configs import ALL_CORES
from repro.uarch.core import OoOCore
from tests.test_golden_snapshots import WORKLOADS, _flatten

HERE = os.path.join(os.path.dirname(__file__), "fixtures")
SIMSTATS_FIXTURE = os.path.join(HERE, "golden_simstats_extra.json")
TRACE_FIXTURE = os.path.join(HERE, "golden_trace_digests.json")

#: (core name, binary label, warm_caches)
SIM_CELLS = (
    ("BB-2way", "BB", False),
    ("BB-4way", "BB", False),
    ("SS-4way", "SS", True),
    ("STRAIGHT-2way", "STRAIGHT-RE+", True),
    ("BB-2way", "BB", True),
)

#: Calls and returns, a recursion, loads and stores, both directions of
#: data-dependent branches, multiply/divide and the output channel.
TRACE_PROGRAM = """
int g_data[6] = {5, 3, 8, 1, 9, 2};

int sum(int* arr, int n) {
    int total = 0;
    for (int i = 0; i < n; ++i) total += arr[i];
    return total;
}

int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}

int main() {
    __out(sum(g_data, 6));
    __out(fib(5));
    int x = 7;
    for (int i = 0; i < 6; i++) {
        if (i % 2 == 0) { g_data[i] = x * i; x += g_data[i] / 3; }
        else x -= 1;
    }
    __out(x);
    return 0;
}
"""

#: Every TraceEntry field, in a fixed order.
ENTRY_FIELDS = ("pc", "op_class", "mnemonic", "dest", "srcs", "is_branch",
                "is_control", "taken", "target_pc", "next_pc", "mem_addr",
                "is_call", "is_return", "is_rmov", "is_spadd",
                "src_distances", "dest_value")

#: Hex characters of each per-entry digest.
DIGEST_CHARS = 8


def _cell_key(core, label, warm):
    return f"{core}/{label}/{'warm' if warm else 'cold'}"


def _sim_cell(source, core, label, warm):
    binary = build(source).all()[label]
    return simulate(binary, ALL_CORES[core](), warm_caches=warm).stats.as_dict()


def entry_digest(entry):
    fields = tuple(getattr(entry, name) for name in ENTRY_FIELDS)
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:DIGEST_CHARS]


def trace_digests(binary, compiled):
    """The per-entry digest string of ``binary``'s full trace."""
    interp = binary.interpreter(collect_trace=True, compiled=compiled,
                                trace_values=True)
    assert interp.run(1_000_000).status in ("halt", "exit")
    return "".join(entry_digest(entry) for entry in interp.trace)


def _default_binaries():
    binaries = build(TRACE_PROGRAM).all()
    return {d.name: binaries[d.default_label] for d in isa_registry.descriptors()}


def generate():
    """Regenerate both fixtures from the current code (maintainers only)."""
    cells = {}
    for wl_name, source in sorted(WORKLOADS.items()):
        for core, label, warm in SIM_CELLS:
            cells[f"{_cell_key(core, label, warm)}/{wl_name}"] = _sim_cell(
                source, core, label, warm)
    with open(SIMSTATS_FIXTURE, "w") as handle:
        json.dump(cells, handle, indent=2, sort_keys=True)
    traces = {name: trace_digests(binary, compiled=False)
              for name, binary in _default_binaries().items()}
    with open(TRACE_FIXTURE, "w") as handle:
        json.dump(traces, handle, indent=1, sort_keys=True)
    return cells, traces


def _load(path):
    with open(path) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def trace_binaries():
    return _default_binaries()


class TestExtraSimStats:
    def test_fixture_covers_every_cell(self):
        expected = {f"{_cell_key(*cell)}/{wl}" for cell in SIM_CELLS
                    for wl in WORKLOADS}
        assert set(_load(SIMSTATS_FIXTURE)) == expected

    @pytest.mark.parametrize("wl_name", sorted(WORKLOADS))
    def test_cells_match(self, wl_name):
        golden = _load(SIMSTATS_FIXTURE)
        drift = []
        for core, label, warm in SIM_CELLS:
            cell = f"{_cell_key(core, label, warm)}/{wl_name}"
            observed = _flatten(_sim_cell(WORKLOADS[wl_name], core, label,
                                          warm))
            for field, want in sorted(_flatten(golden[cell]).items()):
                if observed.get(field) != want:
                    drift.append(f"{cell}: {field} {want!r} -> "
                                 f"{observed.get(field)!r}")
        assert not drift, "timing drift:\n" + "\n".join(drift)

    def test_baseline_interpreter_gives_the_same_stats(self):
        """Traces the ``compiled=False`` interpreter records reproduce the
        pinned cells."""
        golden = _load(SIMSTATS_FIXTURE)
        binaries = build(WORKLOADS["branchy_div"]).all()
        for core, label, warm in SIM_CELLS[2:]:
            cell = f"{_cell_key(core, label, warm)}/branchy_div"
            interp = binaries[label].interpreter(collect_trace=True,
                                                 compiled=False)
            assert interp.run(50_000_000).status in ("halt", "exit")
            stats = OoOCore(ALL_CORES[core]()).run(interp.trace, warm=warm)
            assert _flatten(stats.as_dict()) == _flatten(golden[cell]), cell


class TestTraceDigests:
    def test_fixture_covers_every_isa(self):
        assert set(_load(TRACE_FIXTURE)) == set(isa_registry.names())

    @pytest.mark.parametrize("compiled", [False, True])
    @pytest.mark.parametrize("isa_name", isa_registry.names())
    def test_entries_match(self, trace_binaries, isa_name, compiled):
        want = _load(TRACE_FIXTURE)[isa_name]
        got = trace_digests(trace_binaries[isa_name], compiled)
        assert len(got) == len(want), "trace length changed"
        if got != want:
            first = next(i for i in range(0, len(want), DIGEST_CHARS)
                         if got[i:i + DIGEST_CHARS] != want[i:i + DIGEST_CHARS])
            pytest.fail(f"{isa_name}: entry #{first // DIGEST_CHARS} differs")


if __name__ == "__main__":
    sims, digests = generate()
    for name in sorted(sims):
        print(f"{name}: cycles={sims[name]['cycles']}")
    for name in sorted(digests):
        print(f"trace {name}: {len(digests[name]) // DIGEST_CHARS} entries")
