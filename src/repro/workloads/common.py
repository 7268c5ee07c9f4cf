"""Workload registry and build/validation helpers."""

from repro.common.errors import SimulationError
from repro.core.api import build, run_functional
from repro.workloads import dhrystone as _dhrystone
from repro.workloads import coremark as _coremark


class Workload:
    """A named benchmark: mini-C source generator + default scale.

    ``default_iterations`` keeps a *full* timing run around 10^5 dynamic
    instructions (every paper figure is pinned to it — do not bump it when
    the simulator gets faster).  ``large_iterations`` is the sampled-
    simulation scale: an order of magnitude more work, affordable because
    the fast-forward path never touches the cycle model
    (:mod:`repro.harness.sampling`)."""

    def __init__(self, name, module, default_iterations,
                 large_iterations=None):
        self.name = name
        self.module = module
        self.default_iterations = default_iterations
        self.large_iterations = (
            default_iterations * 10 if large_iterations is None
            else large_iterations
        )

    def source(self, iterations=None):
        return self.module.source(
            self.default_iterations if iterations is None else iterations
        )

    def build(self, iterations=None, max_distance=1023):
        """Compile to every evaluated binary and cross-validate the outputs."""
        result = build(self.source(iterations), max_distance=max_distance)
        reference = run_functional(result.riscv).output
        for name, binary in result.all().items():
            if binary is result.riscv:
                continue
            output = run_functional(binary).output
            if output != reference:
                raise SimulationError(
                    f"{self.name}: {name} output {output} != SS {reference}"
                )
        return result


#: Default iteration counts keep one full timing sweep around 10^5 dynamic
#: instructions per binary — the paper's 9000 Dhrystone / 9 CoreMark runs
#: scaled to what a Python cycle model sweeps in seconds (see DESIGN.md).
WORKLOADS = {
    "dhrystone": Workload("dhrystone", _dhrystone, default_iterations=40,
                          large_iterations=400),
    "coremark": Workload("coremark", _coremark, default_iterations=3,
                         large_iterations=30),
}


def get_workload(name):
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(WORKLOADS)}"
        ) from None


_build_cache = {}


def _artifact_key(workload, iterations, max_distance):
    from repro.harness import cache as cache_mod

    return {
        "kind": "workload-build",
        "tag": cache_mod.TOOLCHAIN_TAG,
        "source": cache_mod.source_digest(
            workload.source(iterations)
        ),
        "max_distance": max_distance,
    }


def build_workload(name, iterations=None, max_distance=1023):
    """Cached cross-validated build of a workload.

    Two layers: an in-process memo, then the persistent artifact cache
    (when enabled — see :mod:`repro.harness.cache`).  Persisted builds are
    keyed on the *generated source digest* plus ``max_distance``, so an
    ``iterations`` override that changes the source lands on its own entry,
    and the expensive compile + three-way cross-validation is paid once per
    (source, backend options) point across all figures and runs.
    """
    key = (name, iterations, max_distance)
    if key not in _build_cache:
        from repro.harness import cache as cache_mod

        workload = get_workload(name)
        artifacts = cache_mod.artifact_cache()
        artifact_key = None
        built = None
        if artifacts is not None:
            artifact_key = _artifact_key(workload, iterations, max_distance)
            built = artifacts.get(artifact_key)
        if built is not None and getattr(built, "bb", None) is None:
            built = None  # stale pre-BB cache entry: rebuild with all labels
        if built is None:
            built = workload.build(iterations, max_distance)
            for binary in built.all().values():
                cache_mod.binary_digest(binary)  # persist digests in the pickle
            if artifacts is not None:
                artifacts.put(artifact_key, built)
        _build_cache[key] = built
    return _build_cache[key]


def peek_cached_build(name, iterations=None, max_distance=1023):
    """A cached build if one exists (memo or disk); never compiles."""
    key = (name, iterations, max_distance)
    built = _build_cache.get(key)
    if built is not None:
        return built
    from repro.harness import cache as cache_mod

    artifacts = cache_mod.artifact_cache()
    if artifacts is None:
        return None
    workload = get_workload(name)
    built = artifacts.get(_artifact_key(workload, iterations, max_distance))
    if built is not None and getattr(built, "bb", None) is None:
        return None  # stale pre-BB cache entry
    if built is not None:
        _build_cache[key] = built
    return built


def clear_build_cache(disk=False):
    """Forget memoized builds; with ``disk`` also the persistent artifacts."""
    _build_cache.clear()
    if disk:
        from repro.harness import cache as cache_mod

        artifacts = cache_mod.artifact_cache()
        if artifacts is not None:
            artifacts.clear()
