"""Content-addressed result store (JSONL on disk).

The store maps :func:`~repro.orchestrator.hashing.spec_key` keys to golden
fingerprints.  The on-disk form is append-only JSONL — one self-contained
record per line::

    {"key": "<sha256 of spec>", "scenario": "<name>", "spec": {...},
     "fingerprint": {...}, "digest": "<sha256 of fingerprint>"}

Append-only keeps writes atomic-enough for the orchestrator's single-writer
model (workers return results to the parent process, which is the only
writer); on load the *last* record for a key wins.  Every record is verified
on load: a line that is not valid JSON, misses a field, whose ``key`` does
not match the recomputed hash of its embedded spec, or whose ``digest`` does
not match the recomputed hash of its fingerprint (bit rot, a hand-edited
file, a record keyed under other code) is discarded and counted in
:attr:`ResultStore.discarded` — the sweep then simply re-simulates that
scenario instead of crashing or serving a wrong result.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, Optional, Union

from ..core.config import CACHE_DIR_ENV, cache_dir_override
from ..scenarios.fingerprint import canonical_json
from ..scenarios.spec import ScenarioSpec
from .hashing import spec_key

__all__ = ["CACHE_DIR_ENV", "STORE_FILENAME", "ResultStore", "default_store_path",
           "repro_root"]

#: The store's filename inside its directory (one name everywhere, so every
#: mechanism pointing at the same directory shares one cache).
STORE_FILENAME = "results.jsonl"


def repro_root() -> Path:
    """The repository root (the directory containing the ``src`` tree).

    The single root-resolution rule for every on-disk artifact the tooling
    writes relative to the tree — the ``.repro-cache/`` result store,
    ``tests/golden/traces/`` and ``.repro-traces/``.
    """
    # src/repro/orchestrator/store.py -> orchestrator -> repro -> src -> root
    return Path(__file__).resolve().parent.parent.parent.parent


def default_store_path() -> Path:
    """Where the shared result store lives.

    ``REPRO_CACHE_DIR`` overrides the directory; the default is a
    ``.repro-cache/`` directory under :func:`repro_root`, so sweeps started
    from any working directory share one cache.
    """
    override = cache_dir_override()
    if override:
        return Path(override) / STORE_FILENAME
    return repro_root() / ".repro-cache" / STORE_FILENAME


def _fingerprint_digest(fingerprint: Dict[str, object]) -> str:
    """Integrity hash of a stored fingerprint (covers the result payload)."""
    return hashlib.sha256(canonical_json(fingerprint).encode("utf-8")).hexdigest()


class ResultStore:
    """Durable scenario-key -> fingerprint map backed by one JSONL file."""

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else default_store_path()
        self._entries: Optional[Dict[str, Dict[str, object]]] = None
        #: Records dropped during the last load (corrupt / stale / mismatched).
        self.discarded = 0

    # -- loading ------------------------------------------------------------
    def _validated(self, record: object) -> Optional[Dict[str, object]]:
        """The record if it is internally consistent, else None."""
        if not isinstance(record, dict):
            return None
        spec_dict = record.get("spec")
        fingerprint = record.get("fingerprint")
        key = record.get("key")
        if not isinstance(spec_dict, dict) or not isinstance(fingerprint, dict):
            return None
        try:
            spec = ScenarioSpec.from_dict(spec_dict)
        except Exception:
            # The spec no longer parses (removed method, renamed field, ...):
            # the cached result describes a scenario this code cannot even
            # express, so it cannot be a hit for anything.
            return None
        if spec_key(spec) != key:
            return None
        try:
            if _fingerprint_digest(fingerprint) != record.get("digest"):
                return None
        except (TypeError, ValueError):
            # A fingerprint canonical_json cannot serialize is not one this
            # code produced.
            return None
        return record

    def _load(self) -> Dict[str, Dict[str, object]]:
        if self._entries is not None:
            return self._entries
        entries: Dict[str, Dict[str, object]] = {}
        self.discarded = 0
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except OSError:
            lines = []
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                self.discarded += 1
                continue
            validated = self._validated(record)
            if validated is None:
                self.discarded += 1
                continue
            entries[validated["key"]] = validated
        self._entries = entries
        return entries

    # -- read API -----------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored fingerprint for ``key`` (None on miss).

        Returns a deep copy: fingerprints hold nested mutables (restart maps,
        failure lists), and a caller-side mutation must not leak into the
        in-memory cache later reads are served from.
        """
        record = self._load().get(key)
        if record is None:
            return None
        return copy.deepcopy(record["fingerprint"])

    def get_spec(self, key: str) -> Optional[ScenarioSpec]:
        """The spec a stored result was computed for (None on miss)."""
        record = self._load().get(key)
        if record is None:
            return None
        return ScenarioSpec.from_dict(record["spec"])

    def get_record(self, key: str) -> Optional[Dict[str, object]]:
        """The whole stored record for ``key`` (None on miss; deep copy).

        Beyond the fingerprint this exposes the optional sidecars a sweep
        attached — e.g. the ``"engine"`` logical/physical event counters the
        report surfaces.  Records written before a sidecar existed simply
        lack the field.
        """
        record = self._load().get(key)
        if record is None:
            return None
        return copy.deepcopy(record)

    def __len__(self) -> int:
        return len(self._load())

    def __contains__(self, key: str) -> bool:
        return key in self._load()

    def keys(self) -> Iterable[str]:
        """Every key currently resolvable in the store."""
        return list(self._load())

    # -- write API ----------------------------------------------------------
    def put(self, spec: ScenarioSpec, fingerprint: Dict[str, object],
            engine: Optional[Dict[str, object]] = None) -> str:
        """Record a fingerprint under the spec's content key; returns the key.

        ``engine`` optionally attaches the run's engine-event counters
        (scheduled / logical / physical) as a sidecar; it rides next
        to the fingerprint without participating in the integrity digest, so
        old records without it stay valid and loadable.
        """
        key = spec_key(spec)
        record = {
            "key": key,
            "scenario": spec.name,
            "spec": spec.to_dict(),
            "fingerprint": fingerprint,
            "digest": _fingerprint_digest(fingerprint),
        }
        if engine:
            record["engine"] = engine
        line = json.dumps(record, sort_keys=True)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        # Cache the serialized round-trip, not the caller's dict: the caller
        # keeps no alias into the store's in-memory state.
        self._load()[key] = json.loads(line)
        return key

    def __repr__(self) -> str:
        return f"ResultStore({str(self.path)!r}, entries={len(self)})"
