"""Cycle-level out-of-order timing model shared by both architectures.

The paper's two in-house simulators "share common codes for the most part"
(§V-A) because STRAIGHT's back end is a conventional OoO back end; the
differences live in the front end (rename vs. RP-based operand
determination) and in recovery (ROB walk vs. single ROB-entry read).  This
package mirrors that: one timing engine — per-core structures in
:mod:`.core`, stage components and the stepping clock in
:mod:`.pipeline` / :mod:`.scheduler`, counters in :mod:`.stats` — pluggable
front-end models (:mod:`.frontend_models`), and shared branch predictors,
caches, and load-store queue.
"""

from repro.uarch.config import CoreConfig
from repro.uarch.core import OoOCore, SimStats
from repro.uarch.frontend_models import RenameFrontEnd, StraightFrontEnd
from repro.uarch.ilp import dataflow_limit, window_limited_ipc, IlpReport
from repro.uarch.pipeline import (
    CommitStage,
    CompletionStage,
    DispatchStage,
    FetchStage,
    IssueStage,
    PipelineStage,
    PipelineState,
    TimingEngine,
)
from repro.uarch.scheduler import EventScheduler
from repro.uarch.stats import StatsRegistry, default_registry

__all__ = [
    "CoreConfig",
    "OoOCore",
    "SimStats",
    "StatsRegistry",
    "default_registry",
    "RenameFrontEnd",
    "StraightFrontEnd",
    "dataflow_limit",
    "window_limited_ipc",
    "IlpReport",
    "EventScheduler",
    "PipelineState",
    "PipelineStage",
    "TimingEngine",
    "FetchStage",
    "DispatchStage",
    "IssueStage",
    "CommitStage",
    "CompletionStage",
]
