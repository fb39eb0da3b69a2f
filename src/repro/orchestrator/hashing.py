"""Content addressing for scenario results.

A scenario's *key* is the SHA-256 of its canonical JSON form, salted with
:func:`code_digest`.  Because :meth:`ScenarioSpec.to_dict` is lossless and
:func:`~repro.scenarios.fingerprint.canonical_json` is byte-stable (sorted
keys, fixed indentation), two structurally equal specs always hash to the
same key and *any* field change — method, seed, a single failure-trace event,
even the description — produces a different key and therefore a cache miss.

The spec alone does not decide a result: the code that simulates it does
too.  So the salt is a digest of every ``.py`` file in the ``repro``
package, and any source edit moves every key.  A cached result can then only
be served to the code that produced it; records keyed under other code fail
to re-verify and are discarded on load.  (Golden-trace regeneration never
consults the store at all.)
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path
from typing import TYPE_CHECKING

from ..scenarios.fingerprint import canonical_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.spec import ScenarioSpec

__all__ = ["code_digest", "spec_key"]


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """SHA-256 over the sorted relative paths and bytes of every ``.py`` file
    in the ``repro`` package; computed once per process.

    Every file counts, not a hand-kept list of behaviour-bearing modules: a
    list would be one more thing to keep in sync, and hashing the whole
    package takes milliseconds.
    """
    package = Path(__file__).resolve().parent.parent
    sources = sorted((path.relative_to(package).as_posix(), path)
                     for path in package.rglob("*.py"))
    hasher = hashlib.sha256()
    for relative, path in sources:
        data = path.read_bytes()
        hasher.update(f"{relative}\0{len(data)}\0".encode("utf-8"))
        hasher.update(data)
    return hasher.hexdigest()


def spec_key(spec: "ScenarioSpec") -> str:
    """The content-addressed store key of a scenario spec (hex SHA-256)."""
    hasher = hashlib.sha256()
    hasher.update(f"repro-result-store:{code_digest()}:".encode("ascii"))
    hasher.update(canonical_json(spec.to_dict()).encode("utf-8"))
    return hasher.hexdigest()
