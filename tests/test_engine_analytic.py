"""Analytic timing oracles: closed-form cycle counts for synthetic traces.

The golden fixtures pin what the engine did; these pin cycle counts worked
out by hand (DESIGN.md §7, "Analytic timing oracles").  Each trace is a
list of :class:`~repro.common.trace.TraceEntry` objects run through
``OoOCore.run(..., warm=True)``, so the I-cache is warm and only the
pipeline's depth, widths and latencies show.  With issue width W and the
class latency L from ``config.latencies``:

* N independent ALU ops, N a multiple of W, take N/W + 8 cycles on
  STRAIGHT and N/W + 10 on SS and BB;
* N independent MUL or DIV ops, on a port of U < W units and N a multiple
  of U, take N/U + L + 7 cycles on STRAIGHT and N/U + L + 9 on SS and BB;
* a chain of N dependent ops takes (L+1)·N + 7 cycles on STRAIGHT and
  (L+1)·N + 9 on SS and BB: a consumer that waits in the issue queue
  issues the cycle after its producer's completion event.
"""

import pytest

from repro.common.trace import TraceEntry
from repro.core.configs import ALL_CORES
from repro.uarch.core import OoOCore

#: Per register model: the constant of the independent-ALU form, and the
#: one the scarce-port and chain forms share.  The two models differ by
#: their front-end depths (6 and 8 stages).
CONSTANTS = {"STRAIGHT": (8, 7), "SS": (10, 9), "BB": (10, 9)}
SIZES = (8, 16, 32, 64)
BASE_PC = 0x1000


def _isa(core_name):
    return core_name.split("-")[0]


def _independent(n, distance, op_class="alu"):
    """N ops of ``op_class`` that read nothing and write distinct
    registers."""
    return [TraceEntry(BASE_PC + 4 * k, op_class, op_class.upper(),
                       dest=None if distance else 5 + k % 20)
            for k in range(n)]


def _chain(n, op_class, distance):
    """N ops of ``op_class``, each reading the previous one's result.

    STRAIGHT sources are producer positions; SS and BB read and write one
    register.
    """
    entries = []
    for k in range(n):
        if distance:
            entry = TraceEntry(BASE_PC + 4 * k, op_class, op_class.upper(),
                               srcs=(k - 1,) if k else (),
                               src_distances=(1,) if k else ())
        else:
            entry = TraceEntry(BASE_PC + 4 * k, op_class, op_class.upper(),
                               dest=5, srcs=(5,) if k else ())
        entries.append(entry)
    return entries


def _cycles(core_name, trace):
    return OoOCore(ALL_CORES[core_name]()).run(trace, warm=True).cycles


@pytest.mark.parametrize("core_name", sorted(ALL_CORES))
def test_independent_ops_are_width_bound(core_name):
    config = ALL_CORES[core_name]()
    width = config.issue_width
    constant = CONSTANTS[_isa(core_name)][0]
    distance = _isa(core_name) == "STRAIGHT"
    for n in SIZES:
        assert n % width == 0
        assert (_cycles(core_name, _independent(n, distance))
                == n // width + constant), n


@pytest.mark.parametrize("op_class", ["mul", "div"])
@pytest.mark.parametrize("core_name", sorted(ALL_CORES))
def test_scarce_port_is_unit_bound(core_name, op_class):
    """Independent ops on a port with fewer units than the issue width
    issue U per cycle; the last group completes L cycles after it issues."""
    config = ALL_CORES[core_name]()
    units = config.units[op_class]
    latency = config.latencies[op_class]
    assert units < config.issue_width
    constant = CONSTANTS[_isa(core_name)][1]
    distance = _isa(core_name) == "STRAIGHT"
    for n in SIZES:
        assert n % units == 0
        assert (_cycles(core_name, _independent(n, distance, op_class))
                == n // units + latency + constant), n


@pytest.mark.parametrize("op_class", ["alu", "mul", "div"])
@pytest.mark.parametrize("core_name", sorted(ALL_CORES))
def test_dependent_chain_is_latency_bound(core_name, op_class):
    config = ALL_CORES[core_name]()
    latency = config.latencies[op_class]
    constant = CONSTANTS[_isa(core_name)][1]
    distance = _isa(core_name) == "STRAIGHT"
    for n in SIZES:
        assert (_cycles(core_name, _chain(n, op_class, distance))
                == (latency + 1) * n + constant), n
