"""Persistent content-addressed caches for the sweep engine.

Two layers, both rooted in one cache directory (``STRAIGHT_CACHE_DIR`` or
``~/.cache/straight-repro``):

* :class:`ResultCache` — JSON entries holding the complete ``SimStats``
  surface (every registry counter, cache hit/miss tables, predictor
  accuracy) plus the architectural output channel of one timing run.
  Entries are keyed by the SHA-256 of a canonical JSON rendering of
  ``(schema version, binary digest, CoreConfig.cache_key(), run
  parameters)``, so *any* timing-relevant knob forces a distinct entry and
  two configs that merely share a display name can never alias.
* :class:`ArtifactCache` — pickled compiled-binary artifacts (linked
  programs / cross-validated workload builds), keyed by the SHA-256 of
  ``(schema version, source digest, backend options)``.  RAW and RE+
  compilations of the same source land on different keys (the options
  differ), while every figure that needs the same (source, options) pair —
  and every later run — shares one compilation.

Entries embed their schema version; a version bump makes old entries
*evict themselves* on first touch (the stale file is deleted and the lookup
reported as a miss), so no separate migration step exists.

Every entry also carries an **end-to-end payload checksum** (SHA-256),
verified on every read.  A corrupt, truncated or bit-flipped entry is never
served and never crashes the caller: it is *quarantined* — moved into
``<root>/quarantine/<layer>/`` with its original name preserved — and the
lookup reports a miss, so the sweep recomputes and overwrites the slot.
Quarantine keeps the evidence (the supervisor's chaos campaign and ``straight
cache fsck`` both inspect it) instead of silently destroying it.  ``fsck``
scans both layers offline, classifies every entry (valid / stale / corrupt /
orphaned temp file) and, with ``repair=True``, quarantines the corrupt ones
and deletes the stale ones; a valid entry is never touched.

The module also owns the process-global cache configuration.  The
persistent layer is **opt-in**: library code runs memory-only until an
entry point (the ``straight sweep`` CLI, ``examples/reproduce_paper.py``,
the bench harness, a worker process) calls :func:`configure`.  Setting
``STRAIGHT_CACHE_DIR`` in the environment opts in implicitly, which is how
pool workers inherit the parent's cache.
"""

import hashlib
import json
import os
import pickle
import threading

#: Guards the process-global configuration singleton (``_state``) and lazy
#: layer construction.  The serve tier calls :func:`configure`/
#: :func:`result_cache` from event-loop tasks and worker-adjacent threads
#: concurrently; without the lock two racing callers could each build a
#: layer (splitting the stats surface) or observe a half-applied
#: :func:`configure`.
_config_lock = threading.RLock()

#: Bump when the serialized result entry layout changes (new stats surface,
#: different payload shape).  Old entries auto-evict.
#: 2: attribution buckets joined the SimStats surface and timing payloads
#: may carry an ``attribution`` report (PR 5).
#: 3: entries carry an end-to-end payload checksum (PR 6); pre-checksum
#: entries read as stale and self-evict.
SCHEMA_VERSION = 3

#: Bump when compiler/simulator behaviour changes in a way that must
#: invalidate *all* persisted results and artifacts (new backend pass, timing
#: model fix).  Folded into every key.
TOOLCHAIN_TAG = "straight-repro-4"


def default_cache_dir():
    env = os.environ.get("STRAIGHT_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "straight-repro")


def canonical_key(obj):
    """SHA-256 hex digest of a canonical JSON rendering of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_jsonify)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _jsonify(obj):
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"unhashable cache key component: {obj!r}")


def source_digest(text):
    """Content digest of one compiler input."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def payload_checksum(value):
    """End-to-end integrity digest of one JSON-safe cache payload."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=_jsonify)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CorruptEntryError(Exception):
    """A cache entry failed its integrity check (truncated, bit-flipped,
    unparsable).  Never escapes a lookup: the entry is quarantined and the
    lookup misses."""


class StaleEntryError(Exception):
    """A cache entry predates the current on-disk layout (no checksum /
    legacy pickle format).  Self-evicts as a miss, exactly like a schema
    version mismatch."""


def binary_digest(binary):
    """SHA-256 of a linked binary's full machine-visible identity.

    Hashes the encoded text segment, the data image and the load/entry
    geometry — everything the simulators consume — and memoizes the digest
    on the program object (it also survives pickling through the artifact
    cache, so cache-served builds never re-encode).
    """
    program = binary.program
    digest = getattr(program, "_repro_digest", None)
    if digest is None:
        hasher = hashlib.sha256()
        hasher.update(binary.isa.encode("utf-8"))
        for word in program.text_words:
            hasher.update(word.to_bytes(4, "little", signed=False))
        for word in program.data_words:
            hasher.update((word & 0xFFFFFFFF).to_bytes(4, "little"))
        hasher.update(
            json.dumps(
                [
                    program.data_base,
                    program.text_base,
                    program.entry_pc,
                    getattr(program, "max_distance", None),
                ]
            ).encode("utf-8")
        )
        digest = hasher.hexdigest()
        program._repro_digest = digest
    return digest


class _CacheStats:
    """Hit/miss counters for one layer.

    Mutations go through ``_DiskCache._bump`` under the owning layer's lock — plain
    ``+= 1`` from concurrent server threads loses updates, and the serve
    scorecard's dedup/hit-rate accounting is built on these counters.
    """

    __slots__ = ("hits", "misses", "stores", "evictions", "quarantined")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.quarantined = 0

    def as_dict(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
        }

    def merge(self, other):
        self.hits += other["hits"]
        self.misses += other["misses"]
        self.stores += other["stores"]
        self.evictions += other["evictions"]
        self.quarantined += other.get("quarantined", 0)


class _DiskCache:
    """Shared machinery: sharded content-addressed files under one root.

    Instances are thread-safe: lookups/stores from multiple event-loop
    tasks or worker threads interleave freely (file-level atomicity comes
    from ``os.replace``; counter integrity from the per-instance lock).
    """

    subdir = "entries"
    suffix = ".json"
    _tmp_counter = 0
    _tmp_lock = threading.Lock()

    def __init__(self, root):
        self.cache_root = root
        self.root = os.path.join(root, self.subdir)
        self.stats = _CacheStats()
        self._lock = threading.Lock()

    def _bump(self, field, amount=1):
        with self._lock:
            setattr(self.stats, field, getattr(self.stats, field) + amount)

    def _path(self, key_obj):
        digest = canonical_key(key_obj)
        return os.path.join(self.root, digest[:2], digest + self.suffix)

    def _evict(self, path):
        self._bump("evictions")
        try:
            os.remove(path)
        except OSError:
            pass

    def quarantine_root(self):
        return os.path.join(self.cache_root, "quarantine", self.subdir)

    def _quarantine(self, path):
        """Move a corrupt entry aside; never re-served, never destroyed."""
        self._bump("quarantined")
        dest_dir = self.quarantine_root()
        dest = os.path.join(dest_dir, os.path.basename(path))
        try:
            os.makedirs(dest_dir, exist_ok=True)
            serial = 0
            while os.path.exists(dest):
                serial += 1
                dest = os.path.join(
                    dest_dir, f"{os.path.basename(path)}.{serial}"
                )
            os.replace(path, dest)
            return dest
        except OSError:
            # Quarantine dir unusable (permissions, cross-device): the entry
            # must still never be re-served, so fall back to deletion.
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def get(self, key_obj):
        path = self._path(key_obj)
        try:
            envelope = self._read(path)
        except FileNotFoundError:
            self._bump("misses")
            return None
        except StaleEntryError:
            # Pre-integrity layout: self-evict, like a schema bump.
            self._evict(path)
            self._bump("misses")
            return None
        except Exception:
            # Corrupt / truncated / bit-flipped entry: quarantine as a miss.
            self._quarantine(path)
            self._bump("misses")
            return None
        if envelope.get("schema") != SCHEMA_VERSION:
            self._evict(path)
            self._bump("misses")
            return None
        self._bump("hits")
        return envelope["value"]

    def put(self, key_obj, value):
        path = self._path(key_obj)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with _DiskCache._tmp_lock:
            _DiskCache._tmp_counter += 1
            serial = _DiskCache._tmp_counter
        tmp = path + f".tmp.{os.getpid()}.{serial}"
        try:
            self._write(tmp, {"schema": SCHEMA_VERSION, "value": value})
            os.replace(tmp, path)  # atomic: concurrent workers can't tear it
        except BaseException as exc:
            try:
                os.remove(tmp)
            except OSError:
                pass
            if isinstance(exc, OSError):
                # A full disk, or a concurrent writer won the rename race.
                # Content-addressed entries are interchangeable: the store
                # is a silent miss, the sweep never sees an error.
                return
            raise  # a value that cannot be stored is the caller's bug
        self._bump("stores")

    def entry_paths(self):
        """Every entry file under this layer (sorted; excludes temp files)."""
        found = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(self.suffix):
                    found.append(os.path.join(dirpath, name))
        return sorted(found)

    def orphan_tmp_paths(self):
        """Leftover ``*.tmp.*`` files from writers that died mid-put."""
        found = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if ".tmp." in name:
                    found.append(os.path.join(dirpath, name))
        return sorted(found)

    def classify(self, path):
        """Integrity verdict for one entry file: valid / stale / corrupt."""
        try:
            envelope = self._read(path)
        except FileNotFoundError:
            return "missing"
        except StaleEntryError:
            return "stale"
        except Exception:
            return "corrupt"
        if envelope.get("schema") != SCHEMA_VERSION:
            return "stale"
        return "valid"

    def clear(self):
        import shutil

        shutil.rmtree(self.root, ignore_errors=True)


class ResultCache(_DiskCache):
    """JSON-serialized timing/functional results.

    On-disk envelope: ``{"schema": N, "sha256": <payload digest>, "value":
    payload}``.  The digest covers the canonical JSON rendering of the
    payload, so any torn write, truncation or bit flip that still parses as
    JSON is caught exactly like one that does not.
    """

    subdir = "results"
    suffix = ".json"

    def _read(self, path):
        try:
            with open(path) as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            raise
        except Exception as exc:
            raise CorruptEntryError(f"unparsable result entry {path}") from exc
        if not isinstance(envelope, dict):
            raise CorruptEntryError(f"malformed result entry {path}")
        digest = envelope.get("sha256")
        if digest is None:
            raise StaleEntryError(f"pre-checksum result entry {path}")
        body = {"schema": envelope.get("schema"),
                "value": envelope.get("value")}
        if digest != payload_checksum(body):
            raise CorruptEntryError(f"checksum mismatch in {path}")
        return envelope

    def _write(self, path, envelope):
        envelope = dict(envelope)
        envelope["sha256"] = payload_checksum(
            {"schema": envelope["schema"], "value": envelope["value"]}
        )
        with open(path, "w") as handle:
            json.dump(envelope, handle, separators=(",", ":"))


#: Header magic of checksummed artifact entries: ``MAGIC<hex digest>\n``
#: followed by the pickled envelope the digest covers.
ARTIFACT_MAGIC = b"straight-artifact-v1 "


class ArtifactCache(_DiskCache):
    """Pickled compiled-binary artifacts (linked programs, workload builds).

    On-disk layout: one header line ``straight-artifact-v1 <sha256>`` then
    the pickle bytes of ``{"schema": N, "value": payload}``; the digest
    covers the pickle bytes, so truncated or bit-flipped artifacts are
    detected *before* unpickling (a corrupt pickle stream can otherwise
    raise nearly anything).
    """

    subdir = "artifacts"
    suffix = ".pkl"

    def _read(self, path):
        with open(path, "rb") as handle:
            header = handle.readline()
            body = handle.read()
        if not header.startswith(ARTIFACT_MAGIC):
            if header[:1] == b"\x80":
                # Legacy headerless pickle from the pre-integrity layout.
                raise StaleEntryError(f"pre-checksum artifact entry {path}")
            raise CorruptEntryError(f"malformed artifact header in {path}")
        digest = header[len(ARTIFACT_MAGIC):].strip().decode("ascii", "replace")
        if digest != hashlib.sha256(body).hexdigest():
            raise CorruptEntryError(f"checksum mismatch in {path}")
        try:
            return pickle.loads(body)
        except Exception as exc:
            raise CorruptEntryError(f"unpicklable artifact entry {path}") from exc

    def _write(self, path, envelope):
        body = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        header = (ARTIFACT_MAGIC
                  + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n")
        with open(path, "wb") as handle:
            handle.write(header)
            handle.write(body)


class CacheConfigState:
    """Process-global persistent-cache switchboard."""

    def __init__(self):
        self.enabled = bool(os.environ.get("STRAIGHT_CACHE_DIR"))
        self.root = default_cache_dir()
        self._results = None
        self._artifacts = None

    def results(self):
        if not self.enabled:
            return None
        if self._results is None:
            with _config_lock:
                if self._results is None:
                    self._results = ResultCache(self.root)
        return self._results

    def artifacts(self):
        if not self.enabled:
            return None
        if self._artifacts is None:
            with _config_lock:
                if self._artifacts is None:
                    self._artifacts = ArtifactCache(self.root)
        return self._artifacts


_state = CacheConfigState()


def configure(cache_dir=None, enabled=True):
    """Enable (or disable) the persistent layer for this process.

    Safe to call concurrently from event-loop tasks and worker threads:
    the root swap and layer invalidation happen atomically under the
    module lock, so a racing :func:`result_cache` lookup sees either the
    old configuration or the new one, never a half-moved root.
    """
    with _config_lock:
        if cache_dir is not None and cache_dir != _state.root:
            _state.root = cache_dir
            _state._results = None
            _state._artifacts = None
        _state.enabled = enabled
        return _state


def swap_state(state=None):
    """Swap in a cache configuration; returns the previous one.

    ``state=None`` installs a fresh default state.  Scoped users (the bench
    harness, tests) save the return value and swap it back when done, so a
    temporary cache dir never leaks into the rest of the process.
    """
    global _state
    with _config_lock:
        previous = _state
        _state = state if state is not None else CacheConfigState()
        return previous


def reset_cache_stats():
    """Zero the hit/miss counters of the active layers (not the contents)."""
    with _config_lock:
        for layer in (_state._results, _state._artifacts):
            if layer is not None:
                layer.stats = _CacheStats()


def is_enabled():
    return _state.enabled


def cache_root():
    return _state.root


def result_cache():
    """The active :class:`ResultCache`, or ``None`` when memory-only."""
    return _state.results()


def artifact_cache():
    """The active :class:`ArtifactCache`, or ``None`` when memory-only."""
    return _state.artifacts()


def clear_persistent():
    """Delete every persisted result and artifact under the active root."""
    with _config_lock:
        ResultCache(_state.root).clear()
        ArtifactCache(_state.root).clear()
        _state._results = None
        _state._artifacts = None


def quarantine_paths(cache_dir=None):
    """Every quarantined entry under the active (or given) cache root."""
    root = os.path.join(cache_dir or _state.root, "quarantine")
    found = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            found.append(os.path.join(dirpath, name))
    return sorted(found)


def fsck(cache_dir=None, repair=False):
    """Scan both persistent layers end-to-end; optionally repair.

    Every entry is classified by the same reader the hot path uses:

    * ``valid`` — parses, checksum verifies, current schema; never touched.
    * ``stale`` — pre-checksum layout or old schema; would self-evict on
      first touch anyway.  ``repair=True`` deletes it now.
    * ``corrupt`` — truncated, bit-flipped or unparsable.  ``repair=True``
      moves it into ``<root>/quarantine/<layer>/``.
    * ``orphan_tmp`` — temp file from a writer that died mid-``put``.
      ``repair=True`` deletes it.

    Returns a JSON-safe report; ``report["ok"]`` is true when no corrupt
    entry remains on the live path (always true after a repair pass).
    """
    root = cache_dir or _state.root
    report = {"root": root, "repair": bool(repair), "layers": {}}
    corrupt_total = 0
    for layer in (ResultCache(root), ArtifactCache(root)):
        entry = {
            "scanned": 0,
            "valid": 0,
            "stale": [],
            "corrupt": [],
            "orphan_tmp": layer.orphan_tmp_paths(),
            "quarantined": [],
            "deleted": [],
        }
        for path in layer.entry_paths():
            entry["scanned"] += 1
            verdict = layer.classify(path)
            if verdict == "valid":
                entry["valid"] += 1
            elif verdict == "stale":
                entry["stale"].append(path)
            elif verdict == "corrupt":
                entry["corrupt"].append(path)
        if repair:
            for path in entry["corrupt"]:
                dest = layer._quarantine(path)
                entry["quarantined"].append(dest if dest else path)
            for path in entry["stale"] + entry["orphan_tmp"]:
                try:
                    os.remove(path)
                    entry["deleted"].append(path)
                except OSError:
                    pass
        corrupt_total += len(entry["corrupt"])
        report["layers"][layer.subdir] = entry
    report["corrupt_total"] = corrupt_total
    report["quarantine"] = quarantine_paths(root)
    report["ok"] = bool(repair) or corrupt_total == 0
    return report


def cache_report():
    """Hit/miss/store counters for both layers (zeros when disabled)."""
    report = {}
    for name, layer in (("results", _state._results),
                        ("artifacts", _state._artifacts)):
        report[name] = layer.stats.as_dict() if layer is not None else (
            _CacheStats().as_dict()
        )
    report["enabled"] = _state.enabled
    report["root"] = _state.root
    return report
