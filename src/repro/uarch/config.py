"""Core timing-model configuration (the knobs of Table I)."""


class CacheConfig:
    """Geometry + latency for one cache level."""

    def __init__(self, size_kib, ways, line_bytes, hit_latency):
        self.size_kib = size_kib
        self.ways = ways
        self.line_bytes = line_bytes
        self.hit_latency = hit_latency

    def build(self, name):
        from repro.uarch.caches import CacheLevel

        return CacheLevel(
            self.size_kib * 1024, self.ways, self.line_bytes, self.hit_latency, name
        )


class CoreConfig:
    """Every parameter of one simulated core (one column of Table I)."""

    def __init__(
        self,
        name,
        is_straight,
        fetch_width,
        issue_width,
        commit_width,
        frontend_depth,
        rename_stage_depth,
        rob_entries,
        iq_entries,
        phys_regs,
        lsq_loads,
        lsq_stores,
        units,
        predictor="gshare",
        btb_entries=4096,
        ras_depth=16,
        l1i=CacheConfig(32, 4, 64, 4),
        l1d=CacheConfig(32, 4, 64, 4),
        l2=CacheConfig(256, 4, 64, 12),
        l3=None,
        mem_latency=200,
        max_distance=31,
        ideal_recovery=False,
        mdp_replay_penalty=8,
        spadd_per_group=1,
        btb_miss_penalty=2,
        latencies=None,
        prefetch_streams=8,
        prefetch_degree=2,
        guardrails=False,
        watchdog_cycles=50_000,
        deep_check_interval=64,
        predictor_check_interval=4096,
        frontend=None,
    ):
        self.name = name
        self.is_straight = is_straight
        #: Explicit front-end model name (see
        #: :data:`repro.uarch.frontend_models.FRONTEND_MODELS`); ``None``
        #: keeps the classic two-model selection via ``is_straight``.
        self.frontend = frontend
        self.fetch_width = fetch_width
        self.issue_width = issue_width
        self.commit_width = commit_width
        #: cycles from fetch to dispatch (Table I "Front-end latency").
        self.frontend_depth = frontend_depth
        #: stages between fetch and the rename stage (SS recovery overlap).
        self.rename_stage_depth = rename_stage_depth
        self.rob_entries = rob_entries
        self.iq_entries = iq_entries
        self.phys_regs = phys_regs
        self.lsq_loads = lsq_loads
        self.lsq_stores = lsq_stores
        self.units = dict(units)  # e.g. {'alu': 4, 'mul': 2, 'div': 1, 'bc': 4, 'mem': 4}
        self.predictor = predictor
        self.btb_entries = btb_entries
        self.ras_depth = ras_depth
        self.l1i = l1i
        self.l1d = l1d
        self.l2 = l2
        self.l3 = l3
        self.mem_latency = mem_latency
        self.max_distance = max_distance
        self.ideal_recovery = ideal_recovery
        self.mdp_replay_penalty = mdp_replay_penalty
        self.spadd_per_group = spadd_per_group
        self.btb_miss_penalty = btb_miss_penalty
        self.latencies = dict(latencies or {"alu": 1, "mul": 3, "div": 12,
                                            "branch": 1, "jump": 1, "store": 1,
                                            "sys": 1, "nop": 1})
        self.prefetch_streams = prefetch_streams
        self.prefetch_degree = prefetch_degree
        #: Opt-in invariant checking + lockstep (see repro.guardrails); the
        #: default keeps the zero-overhead fast path.
        self.guardrails = guardrails
        #: Forward-progress watchdog: cycles without a commit before the run
        #: dies with a DeadlockError (only when guardrails are enabled).
        self.watchdog_cycles = watchdog_cycles
        #: Cycle stride of the expensive consistency scans (ROB slot
        #: positions, free-list conservation).
        self.deep_check_interval = deep_check_interval
        #: Cycle stride of the predictor-storage range sweep.
        self.predictor_check_interval = predictor_check_interval

    def cache_key(self):
        """Full timing-relevant identity of this configuration.

        Two configs with equal keys produce identical timing results, so the
        harness memoizes runs on this (never on ``name``, which is a display
        alias that experiments freely reuse across different parameters).
        """

        def cache(level):
            if level is None:
                return None
            return (level.size_kib, level.ways, level.line_bytes,
                    level.hit_latency)

        key = (
            self.is_straight,
            self.fetch_width,
            self.issue_width,
            self.commit_width,
            self.frontend_depth,
            self.rename_stage_depth,
            self.rob_entries,
            self.iq_entries,
            self.phys_regs,
            self.lsq_loads,
            self.lsq_stores,
            tuple(sorted(self.units.items())),
            self.predictor,
            self.btb_entries,
            self.ras_depth,
            cache(self.l1i),
            cache(self.l1d),
            cache(self.l2),
            cache(self.l3),
            self.mem_latency,
            self.max_distance,
            self.ideal_recovery,
            self.mdp_replay_penalty,
            self.spadd_per_group,
            self.btb_miss_penalty,
            tuple(sorted(self.latencies.items())),
            self.prefetch_streams,
            self.prefetch_degree,
        )
        # Appended only when set, so every pre-existing config keeps its
        # exact historical cache key (persistent result caches stay warm).
        if self.frontend is not None:
            key += (self.frontend,)
        return key

    @property
    def frontend_model(self):
        """The front-end model name this config simulates."""
        if self.frontend is not None:
            return self.frontend
        return "straight" if self.is_straight else "rename"

    def copy(self, **overrides):
        """A modified copy (used for Fig. 13's no-penalty and Fig. 14's TAGE)."""
        import copy as _copy

        clone = _copy.deepcopy(self)
        for key, value in overrides.items():
            if not hasattr(clone, key):
                raise AttributeError(f"unknown CoreConfig field {key!r}")
            setattr(clone, key, value)
        return clone

    def build_hierarchy(self):
        from repro.uarch.caches import MemoryHierarchy, StreamPrefetcher

        return MemoryHierarchy(
            self.l1i.build(f"{self.name}.l1i"),
            self.l1d.build(f"{self.name}.l1d"),
            self.l2.build(f"{self.name}.l2"),
            self.l3.build(f"{self.name}.l3") if self.l3 else None,
            mem_latency=self.mem_latency,
            prefetcher=StreamPrefetcher(self.prefetch_streams, self.prefetch_degree),
        )

    def __repr__(self):
        return f"CoreConfig({self.name})"
