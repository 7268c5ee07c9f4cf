"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import common  # noqa: E402
import spans  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

PROGRAM = """
int main() {
    int acc = 0;
    for (int i = 0; i < 20; ++i) { acc = acc + i * 3; }
    __out(acc);
    return 0;
}
"""


def test_metric_names_units_and_limits():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for table in (common.END_TO_END, common.PER_LAYER):
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit
    assert len(common.END_TO_END) <= 16
    assert len(common.PER_LAYER) <= 128
    assert not set(common.END_TO_END) & set(common.PER_LAYER)
    assert common.END_TO_END["setup_s"] == "s"
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        common.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        common.PER_LAYER


def _span(span_id, start, end, parent=None, agg_ns=0):
    span = Span(span_id, f"s{span_id}", start, parent, 0)
    span.end = end
    span.agg_ns = agg_ns
    return span


def test_self_time_on_a_synthetic_tree():
    # 0 [0,100] holds 5 ns of aggregated frames; its children 1 [10,40] and
    # 2 [35,60] overlap and 3 [90,120] sticks out of it; 4 [20,30] sits in
    # 1 and 5 [25,28] in 4.
    tree = [_span(0, 0, 100, agg_ns=5), _span(1, 10, 40, 0),
            _span(2, 35, 60, 0), _span(3, 90, 120, 0), _span(4, 20, 30, 1),
            _span(5, 25, 28, 4)]
    assert self_times(tree) == {0: 100 - 60 - 5, 1: 30 - 10, 2: 25, 3: 30,
                                4: 10 - 3, 5: 3}


def test_tracer_self_times_add_up_to_the_root(monkeypatch):
    ticks = iter(range(0, 10_000, 10))
    monkeypatch.setattr(spans, "_clock", lambda: next(ticks))
    tracer = Tracer()
    tick = tracer.aggregate(lambda: None, "uarch.fetch")
    with tracer.span("root"):
        with tracer.span("uarch.engine"):
            tick()
            tick()
        with tracer.span("leaf"):
            pass
    tick()  # outside the engine: not counted
    finished = tracer.finished()
    root = next(span for span in finished if span.name == "root")
    calls, ns, child_ns = tracer.aggregates["uarch.fetch"]
    assert calls == 2
    assert sum(self_times(finished).values()) + ns - child_ns == root.duration


def test_traced_and_untraced_runs_give_identical_simstats():
    import layers
    import repro.core.api as api
    from repro.core.configs import straight_2way
    from repro.harness.cache import ResultCache

    original = api.simulate
    binary = api.build(PROGRAM).straight_re
    plain = api.simulate(binary, straight_2way(), warm_caches=True)
    tracer = Tracer()
    with layers.installed(tracer):
        traced = api.simulate(binary, straight_2way(), warm_caches=True)
    assert traced.stats.as_dict() == plain.stats.as_dict()
    assert traced.output == plain.output == [570]
    names = {span.name for span in tracer.finished()}
    assert {"simulate", "functional.trace", "uarch.warm",
            "uarch.engine"} <= names
    assert tracer.aggregates["uarch.fetch"][0] > 0
    assert api.simulate is original
    assert "get" not in vars(ResultCache)


def test_seed_changes_inputs_not_the_metric_set(tmp_path, monkeypatch):
    import serve_mix
    import sims

    assert sims.iterations_for("full_grid", 1) != \
        sims.iterations_for("full_grid", 2)
    assert ([r.body for r in serve_mix.plan(1, 2.0)[0]]
            != [r.body for r in serve_mix.plan(2, 2.0)[0]])
    # One program at a tiny scale on the 2-way cores keeps the runs short.
    monkeypatch.setattr(sims, "PROGRAMS", ("dhrystone",))
    monkeypatch.setattr(sims, "WIDTHS", {"full_grid": ("2way",)})
    monkeypatch.setattr(sims, "SETUP_REPEATS", 1)
    monkeypatch.setattr(sims, "iterations_for",
                        lambda workload, seed: {"dhrystone": 1 + seed})
    metrics = {}
    for seed in (1, 2):
        for traced in (False, True):
            tally, values = sims.run("full_grid", seed, 0, traced,
                                     str(tmp_path))
            line = common.result_line(tally, values, traced)
            assert line["correct"] and line["failed"] == 0
            metrics[seed, traced] = set(line["metrics"])
    assert metrics[1, False] == metrics[2, False] == set(common.END_TO_END)
    assert metrics[1, True] == metrics[2, True] == set(common.PER_LAYER)


def test_serve_mix_short_run(tmp_path, monkeypatch):
    import serve_mix

    monkeypatch.setattr(serve_mix, "SETUP_REPEATS", 1)
    tally, values = serve_mix.run("serve_mix", 3, 1.0, False, str(tmp_path))
    line = common.result_line(tally, values, False)
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == round(1.0 * serve_mix.RATE_PER_S)
    assert all(metric["value"] > 0 for metric in line["metrics"].values())
