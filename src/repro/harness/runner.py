"""Memoized workload timing runs plus wall-clock deadlines.

``timed_run`` resolves one (workload, binary, core) simulation through the
sweep engine's single cache path
(:func:`~repro.harness.sweep.ensure_results`), so it shares entries with
every figure's grid.  :func:`deadline` bounds a run's wall-clock time; the
sweep engine runs every task under one.
"""

import signal
import threading
import time
from contextlib import contextmanager

from repro.common.errors import RunTimeoutError
from repro.core.api import simulate
from repro.workloads import build_workload

try:  # CPython-only: the thread-timer deadline path needs the C API.
    import ctypes

    _HAVE_ASYNC_EXC = hasattr(ctypes, "pythonapi") and hasattr(
        ctypes.pythonapi, "PyThreadState_SetAsyncExc"
    )
except ImportError:  # pragma: no cover - ctypes is stdlib on CPython
    ctypes = None
    _HAVE_ASYNC_EXC = False


def clear_cache(disk=False):
    """Forget the results this process resolved (tests use it for isolation).

    Empties the sweep engine's in-process memo.  With ``disk=True`` the
    workload build cache and the persistent on-disk layer are wiped too —
    this is what ``--no-cache`` entry points call, so a "no cache" run can
    never be silently served by results persisted from an earlier
    invocation.  Stale-schema entries need no manual eviction: the
    persistent layer drops any entry whose embedded schema version does not
    match :data:`repro.harness.cache.SCHEMA_VERSION` at first touch.
    """
    from repro.harness import sweep

    sweep._memo.clear()
    if disk:
        from repro.harness import cache as cache_mod
        from repro.workloads.common import clear_build_cache

        clear_build_cache(disk=False)
        # clear_persistent works on the configured root even while the
        # persistent layer is disabled — exactly the --no-cache situation.
        cache_mod.clear_persistent()


def timed_run(workload, binary_label, config, iterations=None,
              max_distance=1023, timeout_s=None, guardrails=False,
              observer=None):
    """Simulate one (workload, binary, core) combination, memoized.

    ``binary_label`` names one of the workload's binaries (``'SS'``,
    ``'STRAIGHT-RAW'``, ``'STRAIGHT-RE+'``, ``'BB'``); ``config`` is a
    CoreConfig.  The run is the registry
    :func:`~repro.harness.experiments.timing_task` of these arguments,
    resolved by :func:`~repro.harness.sweep.ensure_results`: the in-process
    memo, then the persistent result cache, then a fresh simulation.  Both
    caches key on the config's full timing identity, so any field that
    changes timing forces a fresh run.  The result is rebuilt from its
    payload, so a repeated call returns an equal result and simulates
    nothing.  ``timeout_s`` bounds the run's wall-clock time; an expired or
    failed run raises :class:`~repro.common.errors.SimulationError`.

    Guarded runs (``guardrails=True``) and observed runs (an ``observer``
    :class:`~repro.obs.ObserverBus` with active sinks) call
    :func:`~repro.core.api.simulate` directly and are not memoized: the
    guardrail report and the sinks' in-memory state (pipeline logs, slot
    charges) are not part of any payload, so a cached result would come
    back without them.
    """
    binary = build_workload(workload, iterations, max_distance).all()[
        binary_label]
    if guardrails or (observer is not None and observer.active):
        with deadline(timeout_s, f"{workload}/{binary_label}/{config.name}"):
            return simulate(binary, config, warm_caches=True,
                            guardrails=guardrails, observer=observer)
    from repro.harness.experiments import timing_task
    from repro.harness.sweep import (
        ensure_results,
        payload_or_raise,
        rehydrate_timing,
    )

    task = timing_task(workload, binary_label, config,
                       max_distance=max_distance, iterations=iterations)
    task.timeout_s = timeout_s
    payload = payload_or_raise(ensure_results([task])[task.task_id],
                               task.task_id)
    return rehydrate_timing(binary, config, payload)


#: Thread-local stack of active deadline records, innermost last.  Every
#: enforcement mode registers here so :func:`poll_deadline` works uniformly.
_deadlines = threading.local()


def _deadline_stack():
    stack = getattr(_deadlines, "stack", None)
    if stack is None:
        stack = _deadlines.stack = []
    return stack


class _DeadlineRecord:
    """One active :func:`deadline` scope on the current thread."""

    __slots__ = ("label", "seconds", "expires_at", "mode", "fired", "done",
                 "lock")

    def __init__(self, label, seconds, mode):
        self.label = label
        self.seconds = seconds
        self.expires_at = time.monotonic() + seconds
        self.mode = mode
        self.fired = False
        self.done = False
        self.lock = threading.Lock()

    def timeout_error(self):
        return RunTimeoutError(
            f"{self.label or 'run'}: exceeded {self.seconds}s "
            f"wall-clock budget"
        )


def active_deadline():
    """The innermost active deadline record on this thread, or ``None``."""
    stack = getattr(_deadlines, "stack", None)
    return stack[-1] if stack else None


def poll_deadline():
    """Cooperative deadline check: raise if any enclosing budget expired.

    Long-running loops that must honor a budget even in ``poll`` mode (no
    signals, no C-API async raise) call this at convenient safepoints.  It
    checks *every* active deadline on the current thread — an outer budget
    expiring during an inner scope is still caught — and raises the
    :class:`RunTimeoutError` of the most deeply nested expired scope.
    """
    stack = getattr(_deadlines, "stack", None)
    if not stack:
        return
    now = time.monotonic()
    for record in reversed(stack):
        if now >= record.expires_at and not record.done:
            record.fired = True
            raise record.timeout_error()


def deadline_mode():
    """The enforcement mode :func:`deadline` would auto-select here.

    ``sigalrm`` on a POSIX main thread, ``timer`` on worker threads of a
    CPython with the async-exception C API, ``poll`` (cooperative-only)
    otherwise.
    """
    if (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()):
        return "sigalrm"
    if _HAVE_ASYNC_EXC:
        return "timer"
    return "poll"


def _async_raise(thread_id, exc_class):
    """Deliver ``exc_class`` asynchronously to ``thread_id`` (CPython)."""
    res = ctypes.pythonapi.PyThreadState_SetAsyncExc(
        ctypes.c_ulong(thread_id), ctypes.py_object(exc_class)
    )
    if res > 1:  # pragma: no cover - only on a stale/wrong thread id
        ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(thread_id), None
        )


@contextmanager
def deadline(seconds, label="", mode=None):
    """Wall-clock budget for one run; raises :class:`RunTimeoutError`.

    Three documented enforcement modes, auto-selected (``mode=None``) per
    :func:`deadline_mode` and overridable for tests:

    * ``sigalrm`` — ``SIGALRM`` + ``setitimer`` (CPython main thread on
      POSIX).  Nests correctly: an inner ``deadline`` saves the outer
      timer's remaining interval on entry and re-arms it (minus the time
      the inner block spent) on exit, so an outer budget keeps ticking
      across any number of inner ones.  If the outer budget was exhausted
      while the inner block ran, the restored timer fires almost
      immediately rather than being lost.
    * ``timer`` — a ``threading.Timer`` that, on expiry, delivers
      :class:`RunTimeoutError` to the owning thread via the CPython
      async-exception C API.  This is the path server worker threads (the
      ``repro.serve`` executor) take automatically — worker contexts no
      longer silently lose deadline enforcement.  Delivery lands at the
      next Python bytecode boundary, so a blocking C call can outlive the
      budget; pure-Python simulation loops (all of this repo) are bounded.
      On scope exit a fired-but-undelivered expiry is normalized into a
      deterministic raise with the scope's label.
    * ``poll`` — registration only (non-CPython fallback).  Enforcement is
      cooperative: code inside the scope must call :func:`poll_deadline`
      at safepoints.  All three modes register, so ``poll_deadline`` works
      under any of them.

    ``seconds`` falsy disables enforcement entirely (no registration).
    """
    if not seconds:
        yield
        return
    if mode is None:
        mode = deadline_mode()
    elif mode == "sigalrm" and deadline_mode() != "sigalrm":
        raise ValueError("sigalrm deadline requested off the main thread")
    elif mode == "timer" and not _HAVE_ASYNC_EXC:
        mode = "poll"

    record = _DeadlineRecord(label, seconds, mode)
    stack = _deadline_stack()
    stack.append(record)
    try:
        if mode == "sigalrm":
            yield from _deadline_sigalrm(record)
        elif mode == "timer":
            yield from _deadline_timer(record)
        else:
            yield
    finally:
        record.done = True
        stack.remove(record)


def _deadline_sigalrm(record):
    def _on_alarm(signum, frame):
        record.fired = True
        raise record.timeout_error()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    outer_remaining, _ = signal.setitimer(signal.ITIMER_REAL, record.seconds)
    entered = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer_remaining:
            # Re-arm the outer deadline with whatever budget it has left;
            # an already-expired outer budget fires as soon as possible.
            remaining = outer_remaining - (time.monotonic() - entered)
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 1e-6))


def _deadline_timer(record):
    thread_id = threading.get_ident()

    def _fire():
        with record.lock:
            if record.done:
                return
            record.fired = True
        _async_raise(thread_id, RunTimeoutError)

    timer = threading.Timer(record.seconds, _fire)
    timer.daemon = True
    timer.start()
    try:
        yield
    finally:
        with record.lock:
            record.done = True
        timer.cancel()
        if record.fired:
            # The timer fired: the async exception may have been delivered
            # mid-block (we are unwinding through it now) or may still be
            # pending at the next bytecode boundary.  Clear any pending
            # delivery and raise deterministically with the scope's label,
            # so both races surface as the same well-formed error.
            ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(thread_id), None
            )
            raise record.timeout_error()
