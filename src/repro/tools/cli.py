"""The ``straight`` command-line interface.

Subcommands::

    straight compile  prog.c --target straight        # print assembly
    straight disasm   prog.c --target riscv           # linked image listing
    straight run      prog.c --target straight-raw    # functional run
    straight simulate prog.c --core STRAIGHT-4way     # timing run (JSON)
    straight trace    --workload dhrystone --core SS-2way --kanata d.kanata
    straight profile  --workload coremark --core STRAIGHT-2way --top 10
    straight verify   prog.c --target both --lint     # static verification
    straight verify   --all-shipped                   # CI workload gate
    straight experiments fig11 fig16                  # regenerate figures
    straight guardrails --workload dhrystone          # lockstep smoke run
    straight guardrails --faults 100 --seed 7         # fault campaign
    straight bench --smoke --json bench.json          # simulator benchmarks
    straight isa list                                 # registered ISAs
    straight isa density --json                       # bits/instruction report

Targets come from the ISA registry (:mod:`repro.isa`): ``riscv`` (the SS
baseline), ``straight`` (RE+), ``straight-raw``, ``bb`` — plus any
third-party registration.  Cores: the Table I names (``SS-2way``,
``STRAIGHT-2way``, ``SS-4way``, ``STRAIGHT-4way``) and the BB pair
(``BB-2way``, ``BB-4way``).
"""

import argparse
import json
import sys

from repro import isa as isa_registry
from repro.frontend import compile_source
from repro.core.api import Binary, simulate, run_functional
from repro.core.configs import ALL_CORES

#: CLI target names, enumerated from the registry (registration order).
TARGETS = tuple(isa_registry.target_map())

#: Registered ISA names (for ``--isa`` flags and ``straight isa list``).
ISA_NAMES = isa_registry.names()


def _compile_target(source, target, max_distance=1023):
    descriptor, opts = isa_registry.resolve_target(target)
    module = compile_source(source)
    compilation = descriptor.compile_module(
        module, max_distance=max_distance, **opts
    )
    return Binary(descriptor.name, compilation.link(), compilation)


def _target_of(args):
    """The effective target: ``--isa NAME`` selects that ISA's default."""
    if getattr(args, "isa", None):
        return next(iter(isa_registry.get(args.isa).targets))
    return args.target


def _read_source(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def cmd_compile(args):
    binary = _compile_target(_read_source(args.file), _target_of(args),
                             args.max_distance)
    print(binary.compilation.asm_text())
    return 0


def cmd_disasm(args):
    binary = _compile_target(_read_source(args.file), _target_of(args),
                             args.max_distance)
    print(binary.program.disassemble())
    return 0


def cmd_run(args):
    binary = _compile_target(_read_source(args.file), _target_of(args),
                             args.max_distance)
    if args.sampled:
        from repro.harness.sampling import SamplingParams, simulate_sampled

        factory = ALL_CORES.get(args.core)
        if factory is None:
            print(f"unknown core {args.core!r}; choose from "
                  f"{sorted(ALL_CORES)}", file=sys.stderr)
            return 1
        config = factory()
        expected = isa_registry.for_config(config).name
        if binary.isa != expected:
            print(f"core {args.core} simulates {expected!r} binaries, but "
                  f"--target produced a {binary.isa!r} binary",
                  file=sys.stderr)
            return 1
        params = SamplingParams(
            period=args.sampling_period, window=args.sampling_window,
            warmup=args.sampling_warmup, cooldown=args.sampling_cooldown,
            seed=args.seed,
        )
        result = simulate_sampled(binary, config, params,
                                  max_steps=args.max_steps, warm_caches=True)
        payload = result.stats.as_dict()
        payload["output"] = result.output
        payload["core"] = args.core
        print(json.dumps(payload, indent=2))
        return 0
    result = run_functional(binary, max_steps=args.max_steps,
                            compiled=args.compiled)
    for word in result.output:
        print(word)
    print(f"# {result.run_result.steps} instructions retired", file=sys.stderr)
    return 0


def cmd_simulate(args):
    factory = ALL_CORES.get(args.core)
    if factory is None:
        print(f"unknown core {args.core!r}; choose from {sorted(ALL_CORES)}",
              file=sys.stderr)
        return 1
    config = factory()
    descriptor = isa_registry.for_config(config)
    # ``--raw`` picks the ISA's secondary target (STRAIGHT's no-RE+ binary);
    # ISAs with a single target ignore it.
    targets = list(descriptor.targets)
    target = targets[1] if args.raw and len(targets) > 1 else targets[0]
    max_distance = (config.max_distance
                    if descriptor.register_model == "distance" else 1023)
    binary = _compile_target(_read_source(args.file), target, max_distance)
    result = simulate(binary, config, warm_caches=not args.cold,
                      guardrails=args.guardrails)
    payload = result.stats.as_dict()
    payload["output"] = result.output
    payload["core"] = args.core
    payload["target"] = target
    if result.guardrail_report is not None:
        payload["guardrails"] = result.guardrail_report
    print(json.dumps(payload, indent=2))
    return 0


def cmd_guardrails(args):
    """Guarded smoke run (lockstep + checkers) or a fault-injection campaign."""
    from repro.common.errors import RunTimeoutError
    from repro.guardrails import run_campaign
    from repro.harness.runner import timed_run, deadline

    factory = ALL_CORES.get(args.core)
    if factory is None:
        print(f"unknown core {args.core!r}; choose from {sorted(ALL_CORES)}",
              file=sys.stderr)
        return 1
    config = factory(guardrails=True)
    try:
        if args.faults:
            with deadline(args.timeout, "fault-injection campaign"):
                report = run_campaign(config=config, n_faults=args.faults,
                                      seed=args.seed)
            print(json.dumps(report.as_dict(), indent=2))
            print(report.text(), file=sys.stderr)
            if report.escaped_silent:
                print("FAIL: silent fault escapes detected", file=sys.stderr)
                return 1
            return 0
        descriptor = isa_registry.for_config(config)
        binary_label = descriptor.label_for_config(config)
        from repro.guardrails import static_precheck
        from repro.workloads.common import build_workload

        built = build_workload(args.workload, iterations=args.iterations,
                               max_distance=config.max_distance)
        static_report = static_precheck(built.all()[binary_label])
        if static_report is not None:
            print(f"static verify: {static_report.summary()}",
                  file=sys.stderr)
        run = timed_run(args.workload, binary_label, config,
                        iterations=args.iterations, timeout_s=args.timeout,
                        guardrails=True)
    except RunTimeoutError as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return 1
    payload = {
        "workload": args.workload,
        "core": args.core,
        "binary": binary_label,
        "cycles": run.cycles,
        "ipc": round(run.ipc, 4),
        "guardrails": run.guardrail_report,
    }
    print(json.dumps(payload, indent=2))
    return 0


def _verify_jobs_all_shipped(max_distances, isas=None):
    """(name, isa, program) triplets covering every shipped artifact of the
    statically-verifiable ISAs (STRAIGHT's distance proof, bb's block
    structure; ISAs without a verifier contribute nothing)."""
    import os

    from repro.workloads.common import get_workload
    from repro.guardrails import DEFAULT_CAMPAIGN_SOURCE

    names = tuple(isas) if isas else ISA_NAMES
    sources = [
        ("dhrystone", get_workload("dhrystone").source()),
        ("coremark", get_workload("coremark").source()),
        ("fault-campaign", DEFAULT_CAMPAIGN_SOURCE),
    ]
    for isa_name in names:
        descriptor = isa_registry.get(isa_name)
        if not descriptor.has_static_check:
            continue
        # The distance-bound sweep only means something on distance ISAs.
        distances = (max_distances
                     if descriptor.register_model == "distance" else (1023,))
        for name, source in sources:
            for target in descriptor.targets:
                for max_distance in distances:
                    binary = _compile_target(source, target, max_distance)
                    yield (f"{name}/{target}/md={max_distance}",
                           descriptor.name, binary.program)

    if "straight" not in names:
        return
    # The hand-written assembly example, when run from a repo checkout.
    example = os.path.normpath(
        os.path.join(
            os.path.dirname(__file__), "..", "..", "..",
            "examples", "hand_written_asm.py",
        )
    )
    if os.path.exists(example):
        import importlib.util

        from repro.straight import link_program, parse_assembly, startup_stub

        spec = importlib.util.spec_from_file_location("hand_written_asm",
                                                      example)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for snippet in ("FIG1", "LOOP_FIXED"):
            program = link_program(
                [startup_stub(), parse_assembly(getattr(module, snippet))]
            )
            yield f"examples/hand_written_asm/{snippet}", "straight", program


#: Default mutation-campaign detection gates per register model: the
#: STRAIGHT campaign's historical bar, a slightly lower one for the newer
#: gpr/structural campaigns (CI pins stricter values explicitly).
_DETECTION_GATES = {"distance": 0.95}
_DETECTION_GATE_DEFAULT = 0.90


def cmd_verify(args):
    """Static verification via each ISA's registered verifier."""
    from repro.analysis import cached_mutation_campaign

    if args.all_shipped:
        jobs = list(_verify_jobs_all_shipped(
            max_distances=(1023, 31),
            isas=(args.isa,) if args.isa else None,
        ))
        if not jobs:
            print(f"verify: ISA {args.isa!r} has no static verifier",
                  file=sys.stderr)
            return 2
    else:
        if args.file is None:
            if not args.mutants:
                print("verify: pass a source file, --all-shipped, or "
                      "--mutants", file=sys.stderr)
                return 2
            from repro.guardrails import DEFAULT_CAMPAIGN_SOURCE

            name = "fault-campaign"
            source = DEFAULT_CAMPAIGN_SOURCE
        else:
            name = args.file
            source = _read_source(args.file)
        if args.isa:
            targets = tuple(isa_registry.get(args.isa).targets)
        elif args.target == "both":
            targets = ("straight", "straight-raw")
        else:
            targets = (args.target,)
        jobs = []
        for target in targets:
            descriptor, _ = isa_registry.resolve_target(target)
            if not descriptor.has_static_check:
                print(f"verify: ISA {descriptor.name!r} has no static "
                      "verifier", file=sys.stderr)
                return 2
            binary = _compile_target(source, target, args.max_distance)
            jobs.append((f"{name}/{target}/md={args.max_distance}",
                         descriptor.name, binary.program))

    runs = []
    failed = False
    for name, isa_name, program in jobs:
        report = isa_registry.get(isa_name).static_check(program,
                                                         lint=args.lint)
        entry = {"name": name, "isa": isa_name, "counts": report.counts(),
                 "stats": report.stats}
        if args.json:
            entry["diagnostics"] = report.as_dict()["diagnostics"]
        runs.append((entry, report))
        failed = failed or report.has_errors()

    campaign = None
    if args.mutants:
        if args.all_shipped or len(jobs) != 1:
            print("verify: --mutants needs a single file/target",
                  file=sys.stderr)
            return 2
        isa_name = jobs[0][1]
        descriptor = isa_registry.get(isa_name)
        if descriptor.analysis is None:
            print(f"verify: ISA {isa_name!r} has no mutation campaign",
                  file=sys.stderr)
            return 2
        campaign = cached_mutation_campaign(
            isa_name, jobs[0][2], mutants=args.mutants, seed=args.seed,
            max_distance=args.max_distance,
        )
        gate = args.min_detection
        if gate is None:
            gate = _DETECTION_GATES.get(
                descriptor.register_model, _DETECTION_GATE_DEFAULT
            )
        failed = failed or campaign.detection_rate < gate

    if args.json:
        payload = {"runs": [entry for entry, _ in runs],
                   "ok": not failed}
        if campaign is not None:
            payload["mutation_campaign"] = campaign.as_dict()
        print(json.dumps(payload, indent=2))
    else:
        for entry, report in runs:
            print(f"{entry['name']}: {report.summary()}")
            show = report.sorted() if args.verbose else report.errors()
            for diag in show:
                print(f"  {diag.render()}")
        if campaign is not None:
            print(campaign.text())
        print("FAIL" if failed else "OK")
    return 1 if failed else 0


def cmd_analyze(args):
    """Full static-analysis stack on one compiled binary."""
    from repro.analysis import analyze_program

    if args.target:
        descriptor, _ = isa_registry.resolve_target(args.target)
        target = args.target
    else:
        descriptor = isa_registry.get(args.isa)
        target = next(iter(descriptor.targets))
    if descriptor.analysis is None:
        print(f"analyze: ISA {descriptor.name!r} has no analysis support",
              file=sys.stderr)
        return 2

    if args.workload:
        from repro.workloads.common import get_workload

        name = args.workload
        source = get_workload(args.workload).source()
    elif args.file:
        name = args.file
        source = _read_source(args.file)
    else:
        print("analyze: pass a source file or --workload", file=sys.stderr)
        return 2

    binary = _compile_target(source, target, args.max_distance)
    bundle = analyze_program(
        binary.program, descriptor.name, name=f"{name}/{target}",
        lint=not args.no_lint,
    )
    if args.json:
        print(json.dumps(bundle.as_dict(), indent=2))
    else:
        print(bundle.text())
        print("OK" if bundle.ok else "FAIL")
    return 0 if bundle.ok else 1


def _resolve_sim_binary(args, config):
    """The binary a trace/profile run targets, from --workload or a file.

    The core picks the ISA via the registry; ``--target`` selects among
    that ISA's own variant targets (e.g. ``straight-raw`` on STRAIGHT
    cores) and is ignored when it names another ISA's target.
    """
    descriptor = isa_registry.for_config(config)
    target = next(iter(descriptor.targets))
    if getattr(args, "target", None) in descriptor.targets:
        target = args.target
    opts = descriptor.targets[target]
    label = next(
        (lab for lab, lab_opts in descriptor.binary_labels.items()
         if lab_opts == opts),
        descriptor.label_for_config(config),
    )
    max_distance = (config.max_distance
                    if descriptor.register_model == "distance" else 1023)
    if args.workload is not None:
        from repro.workloads import build_workload

        built = build_workload(args.workload, getattr(args, "iterations", None),
                               max_distance)
        return built.all()[label], label
    if args.file is None:
        raise SystemExit("trace/profile: pass a source file or --workload")
    return _compile_target(_read_source(args.file), target, max_distance), label


def _sim_config(core_name):
    factory = ALL_CORES.get(core_name)
    if factory is None:
        raise SystemExit(
            f"unknown core {core_name!r}; choose from {sorted(ALL_CORES)}")
    return factory()


def cmd_trace(args):
    if args.core is not None:
        return _trace_pipeline(args)
    return _trace_functional(args)


def _trace_pipeline(args):
    """Pipeline-level trace: Kanata visualizer log + stall attribution."""
    from repro.obs import KanataWriter, ObserverBus, StallAttributionAccountant

    config = _sim_config(args.core)
    binary, label = _resolve_sim_binary(args, config)
    writer = KanataWriter(path=args.kanata)
    sinks = [writer]
    accountant = None
    if args.attribution:
        accountant = StallAttributionAccountant()
        sinks.append(accountant)
    result = simulate(binary, config, warm_caches=not args.cold,
                      guardrails=args.guardrails,
                      observer=ObserverBus(sinks))
    payload = {
        "core": args.core,
        "binary": label,
        "cycles": result.cycles,
        "ipc": round(result.ipc, 4),
        "instructions": result.stats.instructions,
        "kanata_log": args.kanata,
        "instructions_logged": len(writer.canonical_records()),
        "instructions_dropped": writer.dropped,
    }
    if accountant is not None:
        payload["attribution"] = accountant.report()
    if result.guardrail_report is not None:
        payload["guardrails"] = result.guardrail_report
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"{label} on {args.core}: {payload['cycles']} cycles, "
              f"ipc {payload['ipc']}")
        print(f"kanata log: {args.kanata} "
              f"({payload['instructions_logged']} instructions)")
        if accountant is not None:
            print(accountant.text())
    return 0


def _trace_functional(args):
    if args.workload is not None:
        from repro.workloads.common import get_workload

        source = get_workload(args.workload).source(
            getattr(args, "iterations", None))
    else:
        if args.file is None:
            raise SystemExit("trace: pass a source file or --workload")
        source = _read_source(args.file)
    binary = _compile_target(source, args.target, args.max_distance)
    result = run_functional(binary, max_steps=args.max_steps, collect_trace=True)
    trace = result.interpreter.trace
    limit = args.limit if args.limit is not None else len(trace)
    for entry in trace[:limit]:
        sources = ",".join(str(s) for s in entry.srcs)
        fields = [
            f"{entry.pc:#08x}",
            f"{entry.mnemonic:6s}",
            f"dest={entry.dest}",
            f"srcs=[{sources}]",
        ]
        if entry.mem_addr is not None:
            fields.append(f"mem={entry.mem_addr:#x}")
        if entry.is_control:
            fields.append("taken" if entry.taken else "not-taken")
        print("  ".join(fields))
    if limit < len(trace):
        print(f"... ({len(trace) - limit} more)", file=sys.stderr)
    return 0


def cmd_profile(args):
    """Hot-region profile + stall attribution for one timing run."""
    from repro.obs import (
        HotRegionProfiler,
        ObserverBus,
        StallAttributionAccountant,
    )

    config = _sim_config(args.core)
    binary, label = _resolve_sim_binary(args, config)
    profiler = HotRegionProfiler(program=binary.program)
    accountant = StallAttributionAccountant()
    result = simulate(binary, config, warm_caches=not args.cold,
                      guardrails=args.guardrails,
                      observer=ObserverBus([profiler, accountant]))
    if args.json:
        payload = {
            "core": args.core,
            "binary": label,
            "cycles": result.cycles,
            "ipc": round(result.ipc, 4),
            "attribution": accountant.report(),
            "profile": profiler.report(top=args.top),
        }
        if result.guardrail_report is not None:
            payload["guardrails"] = result.guardrail_report
        print(json.dumps(payload, indent=2))
    else:
        print(f"{label} on {args.core}: {result.cycles} cycles, "
              f"ipc {result.ipc:.4f}")
        print()
        print(accountant.text())
        print()
        print(profiler.text(top=args.top))
    return 0


def cmd_bench(args):
    """Simulator smoke benchmark: predecode, observability, sweep/cache."""
    from repro.harness.bench import (
        BENCH_WORKLOADS,
        bench_fastpath,
        bench_smoke,
    )

    if args.serve:
        return _bench_serve(args)
    if not args.smoke:
        print("nothing to do: pass --smoke or --serve", file=sys.stderr)
        return 1
    for name in args.workload or ():
        if name not in BENCH_WORKLOADS:
            print(f"unknown bench workload {name!r}; choose from "
                  f"{sorted(BENCH_WORKLOADS)}", file=sys.stderr)
            return 1
    report = bench_smoke(config_name=args.core, repeats=args.repeats,
                         workloads=args.workload or None,
                         sweep_jobs=args.sweep_jobs)
    if args.fastpath:
        report["fastpath"] = bench_fastpath(
            smoke=args.fastpath != "full", seed=args.seed
        )
    text = json.dumps(report, indent=2)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
    sweep_report = _bench_sweep_summary(report)
    with open(args.sweep_json, "w") as handle:
        json.dump(sweep_report, handle, indent=2)
        handle.write("\n")
    if args.fastpath and args.fastpath_json:
        with open(args.fastpath_json, "w") as handle:
            json.dump(report["fastpath"], handle, indent=2)
            handle.write("\n")
    print(text)
    if args.max_obs_overhead is not None:
        overhead = report["observability"]["overhead_disabled_pct"]
        if overhead > args.max_obs_overhead:
            print(f"observability-disabled overhead {overhead:+.2f}% exceeds "
                  f"the {args.max_obs_overhead:.2f}% budget", file=sys.stderr)
            return 1
        print(f"observability-disabled overhead {overhead:+.2f}% within "
              f"the {args.max_obs_overhead:.2f}% budget", file=sys.stderr)
    if args.fastpath:
        fp = report["fastpath"]
        failed = False
        if (args.min_fastpath_speedup is not None
                and fp["max_speedup"] < args.min_fastpath_speedup):
            print(f"fastpath speedup {fp['max_speedup']:.2f}x below the "
                  f"{args.min_fastpath_speedup:.2f}x gate", file=sys.stderr)
            failed = True
        if (args.max_sampling_error is not None
                and fp["max_abs_ipc_err_pct"] > args.max_sampling_error):
            print(f"sampled IPC error {fp['max_abs_ipc_err_pct']:.2f}% "
                  f"exceeds the {args.max_sampling_error:.2f}% gate",
                  file=sys.stderr)
            failed = True
        if failed:
            return 1
        print(f"fastpath: {fp['max_speedup']:.2f}x end-to-end, worst "
              f"sampled IPC error {fp['max_abs_ipc_err_pct']:.2f}%",
              file=sys.stderr)
    return 0


def _bench_serve(args):
    """The ``BENCH_serve.json`` scorecard: loadgen against an in-process
    server, gated like the other bench artifacts."""
    import tempfile

    from repro.serve.loadgen import bench_serve, gate

    with tempfile.TemporaryDirectory(prefix="serve-bench-") as cache_dir:
        scorecard = bench_serve(profile=args.serve_profile,
                                pool_jobs=args.sweep_jobs,
                                cache_dir=cache_dir)
    text = json.dumps(scorecard, indent=2, sort_keys=True)
    with open(args.serve_json, "w") as handle:
        handle.write(text + "\n")
    print(text)
    failures = gate(scorecard, min_dedup_rate=args.min_serve_dedup_rate,
                    max_p99_ms=args.max_serve_p99_ms)
    for failure in failures:
        print(f"serve bench gate: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"serve bench: {scorecard['requests_total']} requests, "
          f"p99 {scorecard['latency_ms']['p99']}ms, "
          f"{scorecard['errors_5xx']} 5xx, repeated-phase saved rate "
          f"{scorecard['dedup']['repeated_saved_rate']:.2%}",
          file=sys.stderr)
    return 0


def _bench_sweep_summary(report):
    """The ``BENCH_sweep.json`` artifact: one flat sweep/cache scorecard."""
    passes = report["sweep"]["passes"]
    return {
        "generated_by": "straight bench --smoke",
        "sweep_jobs": report["sweep"]["jobs"],
        "grid": report["sweep"]["grid"],
        "wall_s": {p["pass"]: p["wall_s"] for p in passes},
        "cycles_simulated": {p["pass"]: p["cycles_simulated"] for p in passes},
        "cache": {p["pass"]: p["cache"] for p in passes},
        "results_from_cache": {
            p["pass"]: p["results_from_cache"] for p in passes
        },
        "warm_hit_rate": passes[-1]["result_hit_rate"],
        "warm_speedup": report["sweep"]["warm_speedup"],
        "predecode_speedup": report["predecode"]["speedup"],
    }


def cmd_sweep(args):
    """Fan the experiment grid out over a process pool, persistently cached."""
    import os

    from repro.harness import cache as cache_mod
    from repro.harness.experiments import grid_tasks
    from repro.harness.runner import clear_cache
    from repro.harness.supervisor import (
        RetryPolicy,
        SweepInterrupted,
        supervised_sweep,
    )
    from repro.harness.sweep import run_sweep

    cache_mod.configure(args.cache_dir, enabled=not args.no_cache)
    if args.no_cache:
        # --no-cache is a contract: nothing persisted may serve this run,
        # and nothing stale may survive it.
        clear_cache(disk=True)
    if args.max_crash_dumps is not None:
        from repro.guardrails.crashdump import configure_rotation

        configure_rotation(args.max_crash_dumps)
    try:
        tasks = grid_tasks(args.names or None)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 1

    def progress(done, total, task_id, status, seconds):
        if not args.quiet:
            print(f"[{done}/{total}] {status:>5}  {task_id}  "
                  f"({seconds:.2f}s)", file=sys.stderr)

    supervised = bool(args.supervised or args.resume or args.checkpoint)
    if supervised:
        checkpoint = args.checkpoint or os.path.join(
            cache_mod.cache_root(), "sweep-checkpoint.jsonl"
        )
        quarantine = args.diagnostics or os.path.join(
            cache_mod.cache_root(), "quarantine", "sweep"
        )
        policy = RetryPolicy(max_attempts=args.retries,
                             retry_budget=args.retry_budget)
        try:
            report = supervised_sweep(
                tasks, jobs=args.jobs, progress=progress,
                checkpoint=checkpoint, resume=args.resume, policy=policy,
                quarantine_dir=quarantine,
            )
        except SweepInterrupted as exc:
            print(f"sweep interrupted: {exc}; checkpoint journal kept at "
                  f"{checkpoint} — rerun with --resume to continue",
                  file=sys.stderr)
            return 3
        if args.manifest:
            with open(args.manifest, "wb") as handle:
                handle.write(report.manifest_bytes())
        failed = report.manifest["failed"]
    else:
        report = run_sweep(tasks, jobs=args.jobs, progress=progress,
                           diagnostics_dir=args.diagnostics)
        failed = report.manifest["failed"]

    payload = report.as_dict()
    payload["result_hit_rate"] = round(report.result_hit_rate(), 4)
    if not args.full_results:
        payload.pop("results")
    text = json.dumps(payload, indent=2)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    if not report.ok:
        verb = "quarantined" if supervised else "failures"
        print(f"sweep completed with {verb}: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    if args.min_hit_rate is not None and \
            report.result_hit_rate() < args.min_hit_rate:
        print(f"result cache hit rate {report.result_hit_rate():.2%} below "
              f"required {args.min_hit_rate:.2%}", file=sys.stderr)
        return 1
    return 0


def cmd_serve(args):
    """Run the asyncio simulation-as-a-service job server (blocking)."""
    from repro.harness import cache as cache_mod
    from repro.serve.server import run_server

    cache_mod.configure(args.cache_dir, enabled=not args.no_cache)
    quota_rate = args.quota_rate if args.quota_rate > 0 else None
    run_server(host=args.host, port=args.port, pool_jobs=args.jobs,
               quota_rate=quota_rate, quota_burst=args.quota_burst,
               announce=lambda line: print(line, file=sys.stderr, flush=True))
    return 0


def cmd_cache(args):
    """Persistent-cache maintenance: integrity scan/repair, stats, clear."""
    from repro.harness import cache as cache_mod

    root = args.cache_dir or cache_mod.default_cache_dir()
    if args.cache_command == "fsck":
        report = cache_mod.fsck(root, repair=args.repair)
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            for name, layer in sorted(report["layers"].items()):
                print(f"{name}: {layer['scanned']} scanned, "
                      f"{layer['valid']} valid, {len(layer['stale'])} stale, "
                      f"{len(layer['corrupt'])} corrupt, "
                      f"{len(layer['orphan_tmp'])} orphan tmp")
                for path in layer["corrupt"]:
                    print(f"  corrupt: {path}")
                if args.repair:
                    print(f"  quarantined {len(layer['quarantined'])}, "
                          f"deleted {len(layer['deleted'])}")
            print(f"quarantine holds {len(report['quarantine'])} entries")
            print("OK" if report["ok"] else
                  "FAIL: corrupt entries on the live path "
                  "(rerun with --repair to quarantine them)")
        return 0 if report["ok"] else 1
    if args.cache_command == "clear":
        cache_mod.configure(root, enabled=cache_mod.is_enabled())
        cache_mod.clear_persistent()
        print(f"cleared persistent cache under {root}")
        return 0
    print("cache: pass a subcommand (fsck, clear)", file=sys.stderr)
    return 2


def cmd_chaos(args):
    """Seeded chaos campaign against the supervised sweep layer."""
    from repro.harness.chaos import QUICK_SCENARIOS, run_chaos_campaign

    scenarios = args.scenarios or None
    if args.quick and not scenarios:
        scenarios = list(QUICK_SCENARIOS)

    def progress(name, ok, wall_s):
        if not args.quiet:
            print(f"  {'ok  ' if ok else 'FAIL'} {name} ({wall_s:.2f}s)",
                  file=sys.stderr)

    try:
        report = run_chaos_campaign(
            seed=args.seed, scenarios=scenarios, jobs=args.jobs,
            workdir=args.workdir, keep_workdir=args.workdir is not None,
            progress=progress,
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2)
            handle.write("\n")
    print(report.text())
    return 0 if report.ok else 1


def cmd_isa(args):
    """ISA registry introspection: list descriptors, encoding density."""
    if args.isa_command == "list":
        rows = [
            {
                "name": d.name,
                "display": d.display_name,
                "registers": d.register_model,
                "frontend": d.frontend,
                "targets": ",".join(d.targets),
                "binaries": ",".join(d.binary_labels),
                "static_verifier": "yes" if d.has_static_check else "no",
                "opcodes": len(d.opcodes),
            }
            for d in isa_registry.descriptors()
        ]
        if args.json:
            print(json.dumps({"isas": rows}, indent=2))
        else:
            from repro.harness.reporting import format_table

            print(format_table(rows, title="Registered ISAs"))
        return 0
    if args.isa_command == "density":
        from repro.isa.density import DEFAULT_WORKLOADS, density_report

        report = density_report(
            workloads=tuple(args.workloads) if args.workloads
            else DEFAULT_WORKLOADS,
        )
        if args.json:
            print(json.dumps({"rows": report["rows"]}, indent=2))
        else:
            print(report["text"])
        return 0
    print("isa: pass a subcommand (list, density)", file=sys.stderr)
    return 2


def cmd_experiments(args):
    from repro.harness import ALL_EXPERIMENTS

    names = args.names or sorted(ALL_EXPERIMENTS)
    for name in names:
        runner = ALL_EXPERIMENTS.get(name)
        if runner is None:
            print(f"unknown experiment {name!r}; choose from "
                  f"{sorted(ALL_EXPERIMENTS)}", file=sys.stderr)
            return 1
        result = runner()
        print(result["text"])
        print()
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="straight",
        description="STRAIGHT (MICRO 2018) reproduction toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", help="mini-C source file ('-' for stdin)")
        p.add_argument("--target", choices=TARGETS, default="straight")
        p.add_argument("--isa", choices=ISA_NAMES, default=None,
                       help="compile for this registered ISA's default "
                            "target (overrides --target)")
        p.add_argument("--max-distance", type=int, default=1023)

    p_compile = sub.add_parser("compile", help="emit assembly")
    add_common(p_compile)
    p_compile.set_defaults(func=cmd_compile)

    p_disasm = sub.add_parser("disasm", help="emit the linked image listing")
    add_common(p_disasm)
    p_disasm.set_defaults(func=cmd_disasm)

    p_run = sub.add_parser("run", help="run on the functional simulator")
    add_common(p_run)
    p_run.add_argument("--max-steps", type=int, default=50_000_000)
    fast_flags = p_run.add_mutually_exclusive_group()
    fast_flags.add_argument("--compiled", dest="compiled",
                            action="store_const", const=True, default=None,
                            help="compile every block at its first entry")
    fast_flags.add_argument("--no-compiled", dest="compiled",
                            action="store_const", const=False,
                            help="force the baseline step loop (default: "
                                 "compile blocks once hot)")
    p_run.add_argument("--sampled", action="store_true",
                       help="sampled timing run (SMARTS-style): fast-forward "
                            "on the compiled interpreter between "
                            "cycle-accurate windows; prints stats JSON")
    p_run.add_argument("--core", default="SS-2way",
                       help="Table I core for --sampled")
    p_run.add_argument("--sampling-period", type=int, default=8000,
                       help="instructions per sampling stratum")
    p_run.add_argument("--sampling-window", type=int, default=2000,
                       help="measured instructions per window")
    p_run.add_argument("--sampling-warmup", type=int, default=600,
                       help="detailed warmup instructions per window")
    p_run.add_argument("--sampling-cooldown", type=int, default=300,
                       help="detailed cooldown instructions per window")
    p_run.add_argument("--seed", type=int, default=0,
                       help="window-placement seed for --sampled")
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser(
        "trace",
        help="dump the dynamic instruction trace, or (with --core) write a "
             "Kanata pipeline log from a timing run",
    )
    p_trace.add_argument("file", nargs="?", default=None,
                         help="mini-C source file ('-' for stdin)")
    p_trace.add_argument("--target", choices=TARGETS, default="straight")
    p_trace.add_argument("--max-distance", type=int, default=1023)
    p_trace.add_argument("--workload", default=None,
                         help="registry workload instead of a source file")
    p_trace.add_argument("--iterations", type=int, default=None,
                         help="workload scale override")
    p_trace.add_argument("--max-steps", type=int, default=50_000_000)
    p_trace.add_argument("--limit", type=int, default=None,
                         help="print at most N entries (functional mode)")
    p_trace.add_argument("--core", default=None,
                         help="Table I core name; switches to pipeline-trace "
                              "mode")
    p_trace.add_argument("--kanata", metavar="PATH", default="trace.kanata",
                         help="Kanata log output path (pipeline mode; "
                              "default: trace.kanata)")
    p_trace.add_argument("--attribution", action="store_true",
                         help="also attach the stall-attribution accountant")
    p_trace.add_argument("--cold", action="store_true",
                         help="skip cache warmup (pipeline mode)")
    p_trace.add_argument("--guardrails", action="store_true",
                         help="run under invariant checkers + lockstep")
    p_trace.add_argument("--json", action="store_true",
                         help="machine-readable summary on stdout "
                              "(pipeline mode)")
    p_trace.set_defaults(func=cmd_trace)

    p_profile = sub.add_parser(
        "profile",
        help="hot-region profile + top-down stall attribution (timing run)",
    )
    p_profile.add_argument("file", nargs="?", default=None,
                           help="mini-C source file ('-' for stdin)")
    p_profile.add_argument("--target", choices=TARGETS, default="straight")
    p_profile.add_argument("--workload", default=None,
                           help="registry workload instead of a source file")
    p_profile.add_argument("--iterations", type=int, default=None,
                           help="workload scale override")
    p_profile.add_argument("--core", default="STRAIGHT-2way",
                           help="Table I core name")
    p_profile.add_argument("--top", type=int, default=10,
                           help="hot-PC rows to report")
    p_profile.add_argument("--cold", action="store_true",
                           help="skip cache warmup")
    p_profile.add_argument("--guardrails", action="store_true",
                           help="run under invariant checkers + lockstep")
    p_profile.add_argument("--json", action="store_true",
                           help="machine-readable report on stdout")
    p_profile.set_defaults(func=cmd_profile)

    p_verify = sub.add_parser(
        "verify",
        help="statically verify STRAIGHT binaries (distance discipline, "
             "calling convention, lints)",
    )
    p_verify.add_argument("file", nargs="?", default=None,
                          help="mini-C source file ('-' for stdin)")
    p_verify.add_argument("--target", choices=TARGETS + ("both",),
                          default="straight")
    p_verify.add_argument("--isa", choices=ISA_NAMES, default=None,
                          help="verify this registered ISA's targets "
                               "(overrides --target)")
    p_verify.add_argument("--max-distance", type=int, default=1023)
    p_verify.add_argument("--all-shipped", action="store_true",
                          help="verify every shipped workload/example of the "
                               "statically-verifiable ISAs (STRAIGHT at "
                               "max_distance 1023 and 31)")
    p_verify.add_argument("--lint", action="store_true",
                          help="also run the advisory lint passes")
    p_verify.add_argument("--json", action="store_true",
                          help="machine-readable report on stdout")
    p_verify.add_argument("--verbose", action="store_true",
                          help="print every diagnostic, not just errors")
    p_verify.add_argument("--mutants", type=int, default=0,
                          help="also run the ISA's seeded mutation campaign "
                               "of N corrupted copies (single target only)")
    p_verify.add_argument("--seed", type=int, default=20260805,
                          help="mutation campaign RNG seed")
    p_verify.add_argument("--min-detection", type=float, default=None,
                          help="fail below this campaign detection rate "
                               "(default: 0.95 STRAIGHT, 0.90 otherwise)")
    p_verify.set_defaults(func=cmd_verify)

    p_analyze = sub.add_parser(
        "analyze",
        help="full static-analysis stack: verifier + lints + static "
             "ILP/IPC bound",
    )
    p_analyze.add_argument("file", nargs="?", default=None,
                           help="mini-C source file ('-' for stdin)")
    p_analyze.add_argument("--workload", choices=("dhrystone", "coremark"),
                           default=None)
    p_analyze.add_argument("--target", choices=TARGETS, default=None,
                           help="single compilation target (default: the "
                                "ISA's first target)")
    p_analyze.add_argument("--isa", choices=ISA_NAMES, default="straight")
    p_analyze.add_argument("--max-distance", type=int, default=1023)
    p_analyze.add_argument("--no-lint", action="store_true",
                           help="skip the advisory lint tier")
    p_analyze.add_argument("--json", action="store_true",
                           help="machine-readable report on stdout")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="cycle-level timing run (JSON)")
    p_sim.add_argument("file", help="mini-C source file ('-' for stdin)")
    p_sim.add_argument("--core", default="STRAIGHT-4way",
                       help="Table I core name")
    p_sim.add_argument("--raw", action="store_true",
                       help="use the RAW (no RE+) STRAIGHT binary")
    p_sim.add_argument("--cold", action="store_true",
                       help="skip cache warmup")
    p_sim.add_argument("--guardrails", action="store_true",
                       help="run under invariant checkers + lockstep")
    p_sim.set_defaults(func=cmd_simulate)

    p_guard = sub.add_parser(
        "guardrails",
        help="guarded smoke run (lockstep + checkers) or fault campaign",
    )
    p_guard.add_argument("--workload", default="dhrystone",
                         help="registry workload for the smoke run")
    p_guard.add_argument("--core", default="STRAIGHT-2way",
                         help="Table I core name")
    p_guard.add_argument("--iterations", type=int, default=None,
                         help="workload scale override")
    p_guard.add_argument("--faults", type=int, default=0,
                         help="run a fault-injection campaign of N faults")
    p_guard.add_argument("--seed", type=int, default=20260805,
                         help="campaign RNG seed")
    p_guard.add_argument("--timeout", type=float, default=None,
                         help="wall-clock budget in seconds")
    p_guard.set_defaults(func=cmd_guardrails)

    p_bench = sub.add_parser(
        "bench",
        help="simulator benchmarks (predecode, observability, sweep/cache)",
    )
    p_bench.add_argument("--smoke", action="store_true",
                         help="run the small bench workload set")
    p_bench.add_argument("--core", default="SS-2way",
                         help="Table I core name")
    p_bench.add_argument("--repeats", type=int, default=3,
                         help="best-of-N wall-clock timing")
    p_bench.add_argument("--workload", action="append",
                         help="limit to this bench workload (repeatable)")
    p_bench.add_argument("--json", metavar="PATH",
                         help="also write the report to PATH")
    p_bench.add_argument("--sweep-json", metavar="PATH",
                         default="BENCH_sweep.json",
                         help="where to write the sweep/cache scorecard "
                              "(default: BENCH_sweep.json)")
    p_bench.add_argument("--sweep-jobs", type=int, default=None,
                         help="process-pool width for the sweep section")
    p_bench.add_argument("--max-obs-overhead", type=float, default=None,
                         metavar="PCT",
                         help="fail if the tracing-disabled observability "
                              "overhead exceeds PCT percent")
    p_bench.add_argument("--fastpath", nargs="?", const="smoke",
                         choices=("smoke", "full"), default=None,
                         help="add the compiled+sampled fastpath scorecard "
                              "(smoke subset by default; 'full' runs the "
                              "whole golden grid)")
    p_bench.add_argument("--fastpath-json", metavar="PATH", default=None,
                         help="also write the fastpath scorecard to PATH "
                              "(the BENCH_fastpath.json artifact)")
    p_bench.add_argument("--seed", type=int, default=0,
                         help="sampling seed for the fastpath scorecard")
    p_bench.add_argument("--min-fastpath-speedup", type=float, default=None,
                         metavar="X",
                         help="fail if the fastpath end-to-end speedup "
                              "falls below X")
    p_bench.add_argument("--serve", action="store_true",
                         help="bench the serve tier: spin an in-process "
                              "server, drive the loadgen, write the "
                              "BENCH_serve.json scorecard")
    p_bench.add_argument("--serve-json", metavar="PATH",
                         default="BENCH_serve.json",
                         help="serve scorecard path (default "
                              "BENCH_serve.json)")
    p_bench.add_argument("--serve-profile", choices=("quick", "full"),
                         default="quick",
                         help="loadgen profile for --serve (default quick)")
    p_bench.add_argument("--min-serve-dedup-rate", type=float, default=None,
                         help="gate: floor on the repeated-phase "
                              "dedup/cache-served rate (--serve)")
    p_bench.add_argument("--max-serve-p99-ms", type=float, default=None,
                         help="gate: ceiling on overall p99 request "
                              "latency in ms (--serve)")
    p_bench.add_argument("--max-sampling-error", type=float, default=None,
                         metavar="PCT",
                         help="fail if the worst sampled-vs-full IPC error "
                              "exceeds PCT percent")
    p_bench.set_defaults(func=cmd_bench)

    p_sweep = sub.add_parser(
        "sweep",
        help="run the experiment grid through the parallel sweep engine",
    )
    p_sweep.add_argument("names", nargs="*",
                         help="experiment ids whose grids to run "
                              "(default: every registered grid)")
    p_sweep.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: CPU count)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="disable the persistent cache AND wipe any "
                              "previously persisted entries")
    p_sweep.add_argument("--cache-dir", default=None,
                         help="persistent cache root (default: "
                              "$STRAIGHT_CACHE_DIR or ~/.cache/straight-repro)")
    p_sweep.add_argument("--json", metavar="PATH",
                         help="write the report to PATH instead of stdout")
    p_sweep.add_argument("--full-results", action="store_true",
                         help="include every task payload in the report")
    p_sweep.add_argument("--diagnostics", metavar="DIR",
                         help="write crash dumps + manifest here on failure")
    p_sweep.add_argument("--min-hit-rate", type=float, default=None,
                         help="fail unless this fraction of results came "
                              "from the persistent cache (CI warm check)")
    p_sweep.add_argument("--quiet", action="store_true",
                         help="suppress per-task progress on stderr")
    p_sweep.add_argument("--supervised", action="store_true",
                         help="run under the fault-tolerant supervisor "
                              "(retry/backoff, quarantine, checkpointing)")
    p_sweep.add_argument("--resume", action="store_true",
                         help="replay the checkpoint journal and continue an "
                              "interrupted sweep (implies --supervised)")
    p_sweep.add_argument("--checkpoint", metavar="PATH", default=None,
                         help="checkpoint journal path (implies --supervised; "
                              "default: <cache-root>/sweep-checkpoint.jsonl)")
    p_sweep.add_argument("--retries", type=int, default=3,
                         help="max attempts per task for transient failures "
                              "(supervised mode; default 3)")
    p_sweep.add_argument("--retry-budget", type=int, default=32,
                         help="total extra attempts across the sweep "
                              "(supervised mode; default 32)")
    p_sweep.add_argument("--manifest", metavar="PATH", default=None,
                         help="write the canonical (resume-stable) manifest "
                              "to PATH (supervised mode)")
    p_sweep.add_argument("--max-crash-dumps", type=int, default=None,
                         help="cap crash dumps per diagnostics directory "
                              "(oldest evicted; default 200)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_serve = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service HTTP job server",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8712,
                         help="bind port (default 8712; 0 = ephemeral)")
    p_serve.add_argument("--jobs", type=int, default=None,
                         help="sweep-pool worker processes "
                              "(default: CPU count)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="disable the persistent result/artifact cache")
    p_serve.add_argument("--cache-dir", default=None,
                         help="persistent cache root (default: "
                              "$STRAIGHT_CACHE_DIR or ~/.cache/straight-repro)")
    p_serve.add_argument("--quota-rate", type=float, default=50.0,
                         help="per-client sustained requests/second "
                              "(default 50; 0 disables quotas)")
    p_serve.add_argument("--quota-burst", type=float, default=200.0,
                         help="per-client token-bucket burst (default 200)")
    p_serve.set_defaults(func=cmd_serve)

    p_cache = sub.add_parser(
        "cache",
        help="persistent-cache maintenance (integrity fsck, clear)",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_fsck = cache_sub.add_parser(
        "fsck",
        help="scan every cache entry end-to-end; report (and with --repair "
             "quarantine) corrupt entries",
    )
    p_fsck.add_argument("--cache-dir", default=None,
                        help="cache root (default: $STRAIGHT_CACHE_DIR or "
                             "~/.cache/straight-repro)")
    p_fsck.add_argument("--repair", action="store_true",
                        help="quarantine corrupt entries and delete stale "
                             "ones / orphaned temp files")
    p_fsck.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")
    p_fsck.set_defaults(func=cmd_cache)
    p_cclear = cache_sub.add_parser("clear", help="wipe both cache layers")
    p_cclear.add_argument("--cache-dir", default=None,
                          help="cache root (default: $STRAIGHT_CACHE_DIR or "
                               "~/.cache/straight-repro)")
    p_cclear.set_defaults(func=cmd_cache)

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded chaos campaign: inject worker kills, deadline expiries, "
             "cache corruption and mid-sweep interrupts; assert recovery",
    )
    p_chaos.add_argument("--seed", type=int, default=20260808,
                         help="campaign RNG seed")
    p_chaos.add_argument("--scenarios", action="append", metavar="NAME",
                         help="run only this scenario (repeatable)")
    p_chaos.add_argument("--quick", action="store_true",
                         help="run the CI smoke subset (worker kill + cache "
                              "corruption + interrupt/resume)")
    p_chaos.add_argument("--jobs", type=int, default=2,
                         help="pool width for pool-based scenarios")
    p_chaos.add_argument("--workdir", metavar="DIR", default=None,
                         help="keep journals/quarantine evidence here "
                              "(default: temp dir, removed afterwards)")
    p_chaos.add_argument("--json", metavar="PATH", default=None,
                         help="also write the report to PATH")
    p_chaos.add_argument("--quiet", action="store_true",
                         help="suppress per-scenario progress on stderr")
    p_chaos.set_defaults(func=cmd_chaos)

    p_isa = sub.add_parser(
        "isa",
        help="ISA registry: list descriptors, encoding-density report",
    )
    isa_sub = p_isa.add_subparsers(dest="isa_command", required=True)
    p_ilist = isa_sub.add_parser("list", help="registered ISA descriptors")
    p_ilist.add_argument("--json", action="store_true",
                         help="machine-readable listing on stdout")
    p_ilist.set_defaults(func=cmd_isa)
    p_idensity = isa_sub.add_parser(
        "density",
        help="bits/instruction encoding density per registered ISA "
             "(descriptor-table driven)",
    )
    p_idensity.add_argument("--workloads", nargs="*", default=None,
                            help="registry workloads to measure "
                                 "(default: dhrystone coremark)")
    p_idensity.add_argument("--json", action="store_true",
                            help="machine-readable report on stdout")
    p_idensity.set_defaults(func=cmd_isa)

    p_exp = sub.add_parser("experiments", help="regenerate paper figures")
    p_exp.add_argument("names", nargs="*", help="experiment ids (default all)")
    p_exp.set_defaults(func=cmd_experiments)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
