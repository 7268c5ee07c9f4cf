"""Cache integrity tests: checksums, quarantine, fsck, concurrent writers.

The acceptance bar (ISSUE 6): ``fsck`` detects 100% of seeded corrupt
entries and never flags — let alone evicts — a valid one; that invariant is
property-tested over random payloads and random corruptions.
"""

import json
import multiprocessing
import os
import pickle
import random
import tempfile
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness import cache as cache_mod
from repro.harness.cache import (
    ARTIFACT_MAGIC,
    SCHEMA_VERSION,
    ArtifactCache,
    ResultCache,
    fsck,
    payload_checksum,
    quarantine_paths,
)
from repro.harness.chaos import corrupt_file

PAYLOAD = {"kind": "timing", "cycles": 12345, "ipc": 1.5,
           "out": [1, 2, 3], "stats": {"l1d.hits": 99}}


def seeded_layer(root, layer_cls, count=3):
    layer = layer_cls(root)
    keys = [{"probe": layer_cls.__name__, "n": index}
            for index in range(count)]
    for index, key in enumerate(keys):
        layer.put(key, dict(PAYLOAD, cycles=1000 + index))
    return layer, keys


class TestRoundTrip:
    @pytest.mark.parametrize("layer_cls", [ResultCache, ArtifactCache])
    def test_put_get_round_trip(self, tmp_path, layer_cls):
        layer, keys = seeded_layer(str(tmp_path), layer_cls)
        for index, key in enumerate(keys):
            value = layer.get(key)
            assert value == dict(PAYLOAD, cycles=1000 + index)
        assert layer.stats.hits == len(keys)
        assert layer.stats.quarantined == 0

    def test_result_entry_carries_checksum(self, tmp_path):
        layer, keys = seeded_layer(str(tmp_path), ResultCache, count=1)
        envelope = json.load(open(layer.entry_paths()[0]))
        assert envelope["schema"] == SCHEMA_VERSION
        assert envelope["sha256"] == payload_checksum(
            {"schema": envelope["schema"], "value": envelope["value"]}
        )

    def test_artifact_entry_carries_header(self, tmp_path):
        layer, keys = seeded_layer(str(tmp_path), ArtifactCache, count=1)
        raw = open(layer.entry_paths()[0], "rb").read()
        assert raw.startswith(ARTIFACT_MAGIC)


class TestCorruptionHandling:
    @pytest.mark.parametrize("layer_cls", [ResultCache, ArtifactCache])
    @pytest.mark.parametrize("mode", ["bitflip", "truncate", "garbage"])
    def test_corrupt_entry_quarantined_not_served(self, tmp_path, layer_cls,
                                                  mode):
        layer, keys = seeded_layer(str(tmp_path), layer_cls, count=1)
        path = layer.entry_paths()[0]
        corrupt_file(path, random.Random(11), mode=mode)
        if layer.classify(path) == "valid":
            pytest.skip("corruption landed on a don't-care byte")
        assert layer.get(keys[0]) is None
        assert layer.stats.quarantined == 1
        assert not os.path.exists(path)  # moved off the live path...
        qfiles = quarantine_paths(str(tmp_path))
        assert [os.path.basename(p) for p in qfiles] == [
            os.path.basename(path)
        ]  # ...into quarantine, evidence preserved

    def test_quarantine_name_collision_gets_suffix(self, tmp_path):
        layer, keys = seeded_layer(str(tmp_path), ResultCache, count=1)
        for _ in range(2):
            path = layer.entry_paths()[0]
            with open(path, "w") as handle:
                handle.write("not json at all")
            assert layer.get(keys[0]) is None
            layer.put(keys[0], PAYLOAD)  # refill the slot
        names = [os.path.basename(p) for p in quarantine_paths(str(tmp_path))]
        assert len(names) == 2 and len(set(names)) == 2

    def test_schema_field_bitflip_is_corrupt_not_stale(self, tmp_path):
        # The checksum covers the schema field: tampering with it must land
        # in quarantine, not silently self-evict as "stale".
        layer, keys = seeded_layer(str(tmp_path), ResultCache, count=1)
        path = layer.entry_paths()[0]
        envelope = json.load(open(path))
        envelope["schema"] = SCHEMA_VERSION + 1
        with open(path, "w") as handle:
            json.dump(envelope, handle, separators=(",", ":"))
        assert layer.classify(path) == "corrupt"

    def test_legacy_result_entry_self_evicts(self, tmp_path):
        # Pre-PR6 layout: no sha256 field.  Stale, not corrupt: evicted.
        layer, keys = seeded_layer(str(tmp_path), ResultCache, count=1)
        path = layer.entry_paths()[0]
        with open(path, "w") as handle:
            json.dump({"schema": SCHEMA_VERSION, "value": PAYLOAD}, handle)
        assert layer.classify(path) == "stale"
        assert layer.get(keys[0]) is None
        assert not os.path.exists(path)
        assert layer.stats.quarantined == 0
        assert quarantine_paths(str(tmp_path)) == []

    def test_legacy_artifact_pickle_self_evicts(self, tmp_path):
        layer, keys = seeded_layer(str(tmp_path), ArtifactCache, count=1)
        path = layer.entry_paths()[0]
        with open(path, "wb") as handle:
            pickle.dump({"schema": SCHEMA_VERSION, "value": PAYLOAD}, handle)
        assert layer.classify(path) == "stale"
        assert layer.get(keys[0]) is None
        assert layer.stats.quarantined == 0


class TestFsck:
    def seed_mixed(self, root):
        """valid entries + 1 corrupt per layer + 1 stale + 1 orphan tmp."""
        rlayer, rkeys = seeded_layer(root, ResultCache, count=3)
        alayer, akeys = seeded_layer(root, ArtifactCache, count=3)
        corrupt = []
        for layer in (rlayer, alayer):
            victim = layer.entry_paths()[0]
            corrupt_file(victim, random.Random(5), mode="garbage")
            corrupt.append(victim)
        stale = rlayer.entry_paths()[1]
        with open(stale, "w") as handle:
            json.dump({"schema": 1, "value": {}}, handle)
        orphan = os.path.join(os.path.dirname(stale), "x.json.tmp.99.1")
        with open(orphan, "w") as handle:
            handle.write("half-writ")
        return corrupt, stale, orphan

    def test_detects_all_seeded_corruption(self, tmp_path):
        root = str(tmp_path)
        corrupt, stale, orphan = self.seed_mixed(root)
        report = fsck(root, repair=False)
        assert not report["ok"]
        assert report["corrupt_total"] == 2
        found = sorted(p for layer in report["layers"].values()
                       for p in layer["corrupt"])
        assert found == sorted(corrupt)
        assert report["layers"]["results"]["stale"] == [stale]
        assert report["layers"]["results"]["orphan_tmp"] == [orphan]
        # Scan-only: nothing moved or deleted.
        assert all(os.path.exists(p) for p in corrupt + [stale, orphan])

    def test_repair_quarantines_and_cleans(self, tmp_path):
        root = str(tmp_path)
        corrupt, stale, orphan = self.seed_mixed(root)
        report = fsck(root, repair=True)
        assert report["ok"]
        assert not any(os.path.exists(p) for p in corrupt + [stale, orphan])
        assert len(report["quarantine"]) == 2  # both corrupt entries kept
        # The repaired tree scans clean and the valid entries survived.
        clean = fsck(root, repair=False)
        assert clean["ok"] and clean["corrupt_total"] == 0
        assert clean["layers"]["results"]["valid"] == 1
        assert clean["layers"]["artifacts"]["valid"] == 2

    def test_empty_root_is_ok(self, tmp_path):
        report = fsck(str(tmp_path / "nothing-here"))
        assert report["ok"] and report["corrupt_total"] == 0


class TestFsckProperty:
    """ISSUE 6 acceptance: detects 100% of corrupt entries, never flags a
    valid one — over random payloads and random corruptions."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        payloads=st.lists(
            st.dictionaries(
                st.text(min_size=1, max_size=8),
                st.one_of(st.integers(), st.floats(allow_nan=False),
                          st.text(max_size=16),
                          st.lists(st.integers(), max_size=4)),
                max_size=5,
            ),
            min_size=1, max_size=6,
        ),
        data=st.data(),
    )
    def test_corrupt_detected_valid_untouched(self, payloads, data):
        with tempfile.TemporaryDirectory() as root:
            layer = ResultCache(root)
            for index, payload in enumerate(payloads):
                layer.put({"n": index}, payload)
            entries = layer.entry_paths()
            count = data.draw(st.integers(min_value=0,
                                          max_value=len(entries)))
            seed = data.draw(st.integers(min_value=0, max_value=2**31))
            rng = random.Random(seed)
            victims = sorted(rng.sample(entries, count))
            for victim in victims:
                corrupt_file(victim, rng)
            # A corruption can be semantically neutral — e.g. a bit flip
            # changing the case of a hex digit inside a JSON \uXXXX escape
            # parses to the identical payload, and the checksum over the
            # canonical value rightly still verifies.  The exact property
            # is over *values*: every flagged entry is a victim, and every
            # unflagged victim still serves its original payload bit-exact.
            report = fsck(root)
            flagged = sorted(report["layers"]["results"]["corrupt"]
                             + report["layers"]["results"]["stale"])
            assert set(flagged) <= set(victims)
            payload_by_path = {
                layer._path({"n": index}): payload
                for index, payload in enumerate(payloads)
            }
            neutral = sorted(set(victims) - set(flagged))
            for path in neutral:
                envelope = json.load(open(path))
                assert envelope["value"] == payload_by_path[path]
            assert report["layers"]["results"]["valid"] == (
                len(entries) - len(flagged)
            )
            # Repair never touches a value-intact entry.
            fsck(root, repair=True)
            survivors = layer.entry_paths()
            assert sorted(survivors) == sorted(
                set(entries) - set(flagged)
            )
            for index, payload in enumerate(payloads):
                expected = None if layer._path({"n": index}) not in survivors \
                    else payload
                got = layer.get({"n": index})
                if expected is not None:
                    assert got == expected


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------


def _hammer_put(root, worker_id, rounds, queue):
    """Spawn target: racing writers on the same content-addressed slots."""
    try:
        layer = ResultCache(root)
        for index in range(rounds):
            layer.put({"slot": index % 4},
                      {"worker": worker_id, "round": index, "n": index % 4})
        queue.put(("ok", worker_id))
    except Exception as exc:  # pragma: no cover - failure path
        queue.put(("err", f"{type(exc).__name__}: {exc}"))


class TestConcurrentWriters:
    def test_two_process_put_race_is_silent(self, tmp_path):
        root = str(tmp_path)
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        workers = [ctx.Process(target=_hammer_put,
                               args=(root, wid, 25, queue))
                   for wid in range(2)]
        for proc in workers:
            proc.start()
        outcomes = [queue.get(timeout=60) for _ in workers]
        for proc in workers:
            proc.join(timeout=60)
        assert all(kind == "ok" for kind, _ in outcomes), outcomes
        # Whoever won each slot, every entry is whole and verifiable.
        layer = ResultCache(root)
        assert len(layer.entry_paths()) == 4
        report = fsck(root)
        assert report["ok"] and report["corrupt_total"] == 0
        assert layer.orphan_tmp_paths() == []
        for slot in range(4):
            value = layer.get({"slot": slot})
            assert value is not None and value["n"] == slot

    def test_lost_rename_race_is_silent(self, tmp_path, monkeypatch):
        layer = ResultCache(str(tmp_path))

        def losing_replace(src, dst):
            raise OSError("simulated rename race loss")

        monkeypatch.setattr(cache_mod.os, "replace", losing_replace)
        layer.put({"k": 1}, PAYLOAD)  # must not raise
        monkeypatch.undo()
        assert layer.stats.stores == 0
        assert layer.orphan_tmp_paths() == []  # tmp file cleaned up
        assert layer.get({"k": 1}) is None  # loser's write never landed

    def test_full_disk_is_silent(self, tmp_path, monkeypatch):
        layer = ArtifactCache(str(tmp_path))

        def full_disk(path, envelope):
            open(path, "wb").close()
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(layer, "_write", full_disk)
        layer.put({"k": 1}, PAYLOAD)  # must not raise
        assert layer.stats.stores == 0
        assert layer.orphan_tmp_paths() == []

    def test_unstorable_value_raises(self, tmp_path):
        """A value that cannot be pickled is a bug, not a cache miss."""
        layer = ArtifactCache(str(tmp_path))
        with pytest.raises(TypeError, match="pickle"):
            layer.put({"k": 1}, {"lock": threading.Lock()})
        assert layer.stats.stores == 0
        assert layer.orphan_tmp_paths() == []
        assert layer.get({"k": 1}) is None

    def test_tmp_names_unique_within_process(self, tmp_path):
        layer = ResultCache(str(tmp_path))
        before = cache_mod._DiskCache._tmp_counter
        layer.put({"a": 1}, PAYLOAD)
        layer.put({"a": 2}, PAYLOAD)
        assert cache_mod._DiskCache._tmp_counter == before + 2
