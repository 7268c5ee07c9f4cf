"""Shared fixtures: small programs and session-cached builds."""

import pytest

from repro.frontend import compile_source
from repro.core.api import build

#: A compact program exercising calls, loops, merges, arrays and globals.
SMALL_PROGRAM = """
int g_data[8] = {5, 3, 8, 1, 9, 2, 7, 4};

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
    __out(sum(g_data, 8));
    __out(fib(10));
    int x = 0;
    for (int i = 0; i < 10; i++) {
        if (i % 2 == 0) x += i;
        else x -= 1;
    }
    __out(x);
    return 0;
}
"""

#: Expected output channel of SMALL_PROGRAM.
SMALL_PROGRAM_OUTPUT = [39, 55, 15]


@pytest.fixture(scope="session")
def small_module():
    return compile_source(SMALL_PROGRAM)


@pytest.fixture(scope="session")
def small_build():
    return build(SMALL_PROGRAM)


def compile_and_run_both(source, max_steps=2_000_000, max_distance=1023,
                         guarded_timing=False):
    """Helper: build every registered ISA's binaries, run functionally,
    assert all outputs agree.  With ``guarded_timing``, each registered
    ISA's default binary must also finish a guarded timing run (invariant
    checkers plus lockstep) on its 2-way and 4-way cores.

    Returns the common output list.
    """
    from repro.core.api import run_functional

    result = build(source, max_distance=max_distance)
    binaries = result.all()
    outputs = {}
    for label, binary in binaries.items():
        outputs[label] = run_functional(binary, max_steps=max_steps).output
    reference = outputs["SS"]
    assert all(out == reference for out in outputs.values()), outputs
    if guarded_timing:
        from repro import isa as isa_registry
        from repro.core.api import simulate

        for descriptor in isa_registry.descriptors():
            binary = binaries[descriptor.default_label]
            for way in ("2way", "4way"):
                simulate(binary, descriptor.config_factories[way](),
                         max_steps=max_steps, guardrails=True)
    return reference
