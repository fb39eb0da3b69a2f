"""Re-partitioning and conservation auditing across elastic membership changes.

The elastic subsystem's correctness claim is the paper's data-integrity
guarantee extended to membership churn: *no sample is lost and none is
double-trained when workers join or leave mid-epoch*, and *every parameter
shard has exactly one owning server* when the PS tier itself grows or
shrinks.  The Stateful DDS already re-shards data mechanically — a retiring
worker's in-flight shard tail is released back to the queue, a joining worker
simply starts pulling shards — so for the data side the proof obligation is
an accounting one, and this module states it:

* :func:`audit_allocator` snapshots the DDS's
  :meth:`~repro.core.sharding.StatefulDDS.shard_accounting` ledger and raises
  :class:`ShardConservationError` the moment the buckets stop summing to the
  workload.
* :func:`verify_exactly_once` checks the per-sample coverage counters after a
  completed run: every sample confirmed at least once, and *exactly* once
  when nothing (backup-worker drops, failovers) legitimately re-queued work.

The *parameter* side is new with elastic server membership:

* :class:`ServerShardMap` assigns a fixed universe of logical parameter
  shards to the current server membership with rendezvous (highest-random-
  weight) hashing, so a join or leave only moves the minimal set of shards —
  the ones the newcomer wins or the leaver owned — and the assignment is a
  pure function of the membership (identical across processes and replays).
  With ``replicas > 0`` the rendezvous total order per shard additionally
  yields a *replica chain*: the primary plus N warm standbys that already
  hold the shard, so a departing or killed primary is replaced by a cheap
  *promotion* instead of a full migration.
* :class:`MigrationCostModel` charges the handoff a membership change causes
  (the moved fraction of the parameter volume over the wire plus a
  coordination constant), and the much cheaper promotion of a warm standby.
* :func:`verify_shard_coverage` is the parameter-shard analogue of
  :func:`verify_exactly_once`: every shard owned by exactly one *active*
  server, no shard orphaned, no shard double-owned, and every replica chain
  well-formed (no duplicates, no standby shadowing its own primary).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..core.sharding import DataAllocator, StatefulDDS

__all__ = [
    "ShardConservationError",
    "ShardLedger",
    "ServerShardMap",
    "ReshardEvent",
    "MigrationCostModel",
    "audit_allocator",
    "verify_exactly_once",
    "verify_shard_coverage",
]


class ShardConservationError(AssertionError):
    """The DDS's sample buckets no longer sum to the workload."""


@dataclass(frozen=True)
class ShardLedger:
    """A validated snapshot of the DDS's sample buckets."""

    total_samples: int
    confirmed: int
    in_flight: int
    undispatched: int
    unpopulated: int

    def to_dict(self) -> Dict[str, int]:
        """Plain-dict form for reports."""
        return {
            "total_samples": self.total_samples,
            "confirmed": self.confirmed,
            "in_flight": self.in_flight,
            "undispatched": self.undispatched,
            "unpopulated": self.unpopulated,
        }


@dataclass(frozen=True)
class ReshardEvent:
    """One re-partitioning of the parameter shard map.

    ``kind`` is ``"join"`` (the trigger server entered the membership and
    won ``moved_shards`` shards from the incumbents), ``"leave"`` (the
    trigger server departed and its ``moved_shards`` shards were spread over
    the survivors) or ``"promotion"`` (the trigger server went down with its
    shards warm on standbys, which took over without any data movement).
    ``cost_s`` is what the migration cost model charged for the handoff;
    ``promoted_shards`` counts how many of the moved shards changed primary
    via a warm-standby promotion rather than a byte-moving migration.
    """

    time_s: float
    kind: str  # "join" | "leave" | "promotion"
    trigger: str
    moved_shards: int
    total_shards: int
    cost_s: float
    promoted_shards: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("join", "leave", "promotion"):
            raise ValueError(f"unknown reshard kind {self.kind!r}")
        if self.promoted_shards < 0:
            raise ValueError("promoted_shards must be non-negative")

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-safe, fingerprint-embeddable).

        ``promoted_shards`` appears only when a promotion actually happened,
        so pre-replication consumers see the exact same dict shape.
        """
        data: Dict[str, object] = {
            "time_s": self.time_s,
            "kind": self.kind,
            "trigger": self.trigger,
            "moved_shards": self.moved_shards,
            "total_shards": self.total_shards,
            "cost_s": self.cost_s,
        }
        if self.promoted_shards:
            data["promoted_shards"] = self.promoted_shards
        return data


@dataclass(frozen=True)
class MigrationCostModel:
    """Wall-clock cost of handing parameter shards between servers.

    A membership change moves ``moved / total`` of the parameter volume
    (``param_bytes``) over the wire at ``per_byte_cost_s`` plus a fixed
    rendezvous/coordination constant.  A change that moves nothing (e.g. the
    last member leaving an audit-only map) costs nothing.

    A warm-standby *promotion* moves no bytes at all — the standby already
    holds the shard — so it costs only the (much smaller) coordination
    constant ``promotion_cost_s``, however many shards are promoted.
    """

    param_bytes: float
    per_byte_cost_s: float = 1e-9
    base_cost_s: float = 0.5
    promotion_cost_s: float = 0.05

    def __post_init__(self) -> None:
        if self.param_bytes < 0:
            raise ValueError("param_bytes must be non-negative")
        if self.per_byte_cost_s < 0:
            raise ValueError("per_byte_cost_s must be non-negative")
        if self.base_cost_s < 0:
            raise ValueError("base_cost_s must be non-negative")
        if self.promotion_cost_s < 0:
            raise ValueError("promotion_cost_s must be non-negative")

    def handoff_time(self, moved_shards: int, total_shards: int,
                     weight_fraction: Optional[float] = None) -> float:
        """Seconds the handoff of ``moved_shards`` of ``total_shards`` takes.

        With non-uniform shard weights the byte volume moved is proportional
        to the moved *weight*, not the moved count: pass the moved shards'
        share of the total weight as ``weight_fraction`` and it replaces the
        count-based ``moved / total`` fraction.
        """
        if moved_shards <= 0 or total_shards <= 0:
            return 0.0
        if weight_fraction is None:
            fraction = min(1.0, moved_shards / total_shards)
        else:
            fraction = min(1.0, max(0.0, weight_fraction))
        return self.base_cost_s + self.param_bytes * fraction * self.per_byte_cost_s

    def promotion_time(self, promoted_shards: int) -> float:
        """Seconds promoting warm standbys for ``promoted_shards`` takes."""
        if promoted_shards <= 0:
            return 0.0
        return self.promotion_cost_s


class ServerShardMap:
    """Rendezvous-hashed assignment of parameter shards to servers.

    The model's parameters are cut into ``num_shards`` logical shards; each
    shard is owned by the member with the highest stable hash score for it
    (highest random weight).  The scheme's point is *minimal disruption*:
    adding a member moves exactly the shards the newcomer wins, removing one
    moves exactly the shards it owned — every other (shard, owner) pair is
    untouched.  Scores come from SHA-256, so the assignment is a pure
    function of the membership: byte-identical across processes, replays and
    the serial/parallel sweep paths.

    With ``replicas > 0`` the same total order per shard is kept to depth
    ``replicas + 1``: position 0 is the primary, positions 1.. are warm
    standbys that already hold the shard's parameters.  A membership change
    still only touches the chains the changed member enters or occupies, and
    replica 0 of every shard is exactly what the pre-replication map would
    assign — the single-owner behaviour is the ``replicas=0`` special case.
    (:meth:`promote_standbys` is the one deliberate departure from score
    order: a kill rotates the down primary to the tail of its chains so the
    warm standby serves while the pod recovers.)

    Non-uniform ``shard_weights`` (shard id -> relative weight; unlisted
    shards weigh 1.0) model hot keys — skewed embedding-table traffic — and
    feed the weighted migration costs and per-member heat the policies use.
    """

    def __init__(self, members: Iterable[str] = (), num_shards: int = 64,
                 replicas: int = 0,
                 shard_weights: Optional[Mapping[int, float]] = None) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if replicas < 0:
            raise ValueError("replicas must be non-negative")
        self.num_shards = int(num_shards)
        self.replicas = int(replicas)
        self._weights: Optional[List[float]] = None
        if shard_weights:
            weights = [1.0] * self.num_shards
            for shard, weight in shard_weights.items():
                shard = int(shard)
                if not 0 <= shard < self.num_shards:
                    raise ValueError(
                        f"weighted shard {shard} is outside [0, {self.num_shards})")
                if float(weight) <= 0:
                    raise ValueError("shard weights must be positive")
                weights[shard] = float(weight)
            self._weights = weights
        self._members: List[str] = []
        self._chains: Dict[int, List[str]] = {
            shard: [] for shard in range(self.num_shards)}
        #: Bumped by every call that may change a chain, so a reader can
        #: cache what it derives from them.
        self.mutations = 0
        for member in members:
            self.add_member(member)

    @staticmethod
    def _score(member: str, shard: int) -> int:
        digest = hashlib.sha256(f"{member}|{shard}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def _wins(self, member: str, shard: int, incumbent: Optional[str]) -> bool:
        """The single rendezvous win predicate (shared by preview and commit).

        ``member`` outranks ``incumbent`` for ``shard`` iff its (score, name)
        pair is greater; a vacant slot is always won.  Previewing a join and
        committing it must agree shard for shard, so this is the only place
        the predicate is written down.
        """
        if incumbent is None:
            return True
        score = self._score
        return ((score(member, shard), member)
                > (score(incumbent, shard), incumbent))

    def _entry_rank(self, member: str, shard: int) -> int:
        """Rank at which ``member`` would enter ``shard``'s replica chain.

        The first chain position whose incumbent ``member`` outranks, else
        the append position; a result beyond ``replicas`` means the member
        does not enter the chain at all.
        """
        chain = self._chains[shard]
        for rank, incumbent in enumerate(chain):
            if self._wins(member, shard, incumbent):
                return rank
        return len(chain)

    @property
    def members(self) -> List[str]:
        """Current members, in join order."""
        return list(self._members)

    @property
    def has_weights(self) -> bool:
        """Whether non-uniform shard weights are configured."""
        return self._weights is not None

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    def _chain(self, shard: int) -> List[str]:
        try:
            return self._chains[shard]
        except KeyError:
            raise KeyError(f"shard {shard} is outside [0, {self.num_shards})") from None

    def owner_of(self, shard: int) -> Optional[str]:
        """The member owning ``shard`` (None only on an empty map)."""
        chain = self._chain(shard)
        return chain[0] if chain else None

    def chain_of(self, shard: int) -> List[str]:
        """The full replica chain of ``shard``: primary first, then standbys."""
        return list(self._chain(shard))

    def standbys_of(self, shard: int) -> List[str]:
        """The warm standbys of ``shard``, best-ranked first (may be empty)."""
        return list(self._chain(shard)[1:])

    def assignment(self) -> Dict[str, List[int]]:
        """Member -> sorted owned shard ids (members without shards included)."""
        owned: Dict[str, List[int]] = {member: [] for member in self._members}
        for shard in range(self.num_shards):
            chain = self._chains[shard]
            if chain:
                owned[chain[0]].append(shard)
        return owned

    def shard_counts(self) -> Dict[str, int]:
        """Member -> number of owned shards."""
        return {member: len(shards) for member, shards in self.assignment().items()}

    def weight_of(self, shard: int) -> float:
        """Relative weight of ``shard`` (1.0 everywhere under uniform weights)."""
        if not 0 <= shard < self.num_shards:
            raise KeyError(f"shard {shard} is outside [0, {self.num_shards})")
        return self._weights[shard] if self._weights is not None else 1.0

    def total_weight(self) -> float:
        """Sum of all shard weights (``num_shards`` under uniform weights)."""
        if self._weights is None:
            return float(self.num_shards)
        return sum(self._weights)

    def weight_fraction(self, shards: Iterable[int]) -> float:
        """The given shards' share of the total shard weight."""
        total = self.total_weight()
        if total <= 0:
            return 0.0
        return sum(self.weight_of(shard) for shard in shards) / total

    def member_heat(self) -> Dict[str, float]:
        """Member -> owned weight relative to the uniform share (1.0 == even).

        A member primary for hot shards reads above 1.0; the policies use
        this to scale raw queue depths and handling times into *heat* — a
        backlog on a server owning half the traffic weight means something
        very different from the same backlog on a cold one.
        """
        count = len(self._members)
        if count == 0:
            return {}
        total = self.total_weight()
        if total <= 0:
            return {member: 1.0 for member in self._members}
        share = total / count
        heat = {member: 0.0 for member in self._members}
        for shard in range(self.num_shards):
            chain = self._chains[shard]
            if chain:
                heat[chain[0]] += self.weight_of(shard)
        return {member: owned / share for member, owned in heat.items()}

    def weights_summary(self) -> Optional[Dict[str, object]]:
        """Compact JSON-safe summary of the hot-shard weighting (None if uniform)."""
        if self._weights is None:
            return None
        hot = [shard for shard, weight in enumerate(self._weights) if weight != 1.0]
        return {
            "hot_shards": len(hot),
            "hot_weight_fraction": round(self.weight_fraction(hot), 9),
            "max_weight": max(self._weights),
        }

    def preview_add(self, member: str) -> int:
        """How many shards ``member`` would receive if it joined now (no mutation).

        Counts every chain the newcomer would enter — as primary *or* warm
        standby, since a standby must receive the shard's bytes too.  Lets a
        caller price the handoff *before* committing the membership change —
        a join that is abandoned mid-handoff (the job completed) must leave
        the map untouched, or the coverage audit would see shards owned by a
        server that never joined.
        """
        if member in self._members:
            raise ValueError(f"member {member!r} is already in the shard map")
        capacity = self.replicas + 1
        count = 0
        for shard in range(self.num_shards):
            if self._entry_rank(member, shard) < capacity:
                count += 1
        return count

    def add_member(self, member: str) -> List[int]:
        """Join ``member``; returns the shard ids it received (sorted).

        Rendezvous hashing guarantees the returned shards are the *only*
        chains that change: the newcomer is spliced in at its score rank
        (evicting the chain overflow), every other chain keeps its exact
        previous entries.
        """
        if member in self._members:
            raise ValueError(f"member {member!r} is already in the shard map")
        capacity = self.replicas + 1
        self.mutations += 1
        moved: List[int] = []
        for shard in range(self.num_shards):
            rank = self._entry_rank(member, shard)
            if rank >= capacity:
                continue
            chain = self._chains[shard]
            chain.insert(rank, member)
            del chain[capacity:]
            moved.append(shard)
        self._members.append(member)
        return moved

    def remove_member(self, member: str) -> List[int]:
        """Retire ``member``; returns the shard ids whose *primary* changed.

        Every chain the leaver occupied closes ranks (its best standby is
        promoted to primary where it led) and refills its tail with the
        highest-scoring member not already in the chain.  Chains the leaver
        was not part of are untouched.  With no survivors the map empties
        (audit-only state); the returned list is then the member's former
        shards, now unowned.
        """
        if member not in self._members:
            raise ValueError(f"member {member!r} is not in the shard map")
        self._members.remove(member)
        self.mutations += 1
        capacity = min(self.replicas + 1, len(self._members))
        score = self._score
        moved: List[int] = []
        for shard in range(self.num_shards):
            chain = self._chains[shard]
            if member not in chain:
                continue
            if chain[0] == member:
                moved.append(shard)
            chain.remove(member)
            while len(chain) < capacity:
                pool = [candidate for candidate in self._members
                        if candidate not in chain]
                if not pool:
                    break
                chain.append(max(
                    pool,
                    key=lambda candidate: (score(candidate, shard), candidate)))
        return moved

    def promote_standbys(self, member: str) -> List[int]:
        """Rotate ``member`` to the tail of every chain it leads; returns them.

        The kill/restart promotion: the down primary's best warm standby
        takes over serving each of its shards, while the member itself —
        still holding the (now stale-able) bytes, and due back after its
        relaunch — drops to the end of the chain as a standby.  Chains with
        no standby are left alone: there is nobody to promote, so those
        shards ride the ordinary recovery stall.  Deterministic, so replays
        and the serial/parallel sweep paths agree.
        """
        if member not in self._members:
            raise ValueError(f"member {member!r} is not in the shard map")
        self.mutations += 1
        promoted: List[int] = []
        for shard in range(self.num_shards):
            chain = self._chains[shard]
            if len(chain) > 1 and chain[0] == member:
                chain.append(chain.pop(0))
                promoted.append(shard)
        return promoted

    def digest(self) -> str:
        """Stable short digest of the full assignment (fingerprint material).

        Hashes each shard's whole replica chain; with ``replicas=0`` the
        chain is just the owner, reproducing the pre-replication digest
        byte for byte.
        """
        hasher = hashlib.sha256()
        for shard in range(self.num_shards):
            chain = ",".join(self._chains[shard])
            hasher.update(f"{shard}={chain};".encode("utf-8"))
        return hasher.hexdigest()[:16]


def verify_shard_coverage(shard_map: ServerShardMap,
                          active_servers: Iterable[str]) -> Dict[str, int]:
    """Check the parameter-shard analogue of exactly-once: full, unique coverage.

    Every shard must be owned, every owner must be a member of the map *and*
    an active server — a shard owned by a departed or never-joined server is
    as lost as an orphaned one.  Every replica chain must be well-formed:
    no duplicate entries (a standby shadowing its own primary would count
    the same copy twice) and no standby outside the current membership.
    Standbys need *not* be in ``active_servers`` — a primary mid-relaunch
    legitimately sits at the tail of its old chains — but the serving
    position must be active.  Returns summary counts; raises
    :class:`ShardConservationError` on any violation.
    """
    active = set(active_servers)
    orphaned: List[int] = []
    misowned: List[Tuple[int, str]] = []
    malformed: List[Tuple[int, List[str]]] = []
    for shard in range(shard_map.num_shards):
        chain = shard_map.chain_of(shard)
        owner = chain[0] if chain else None
        if owner is None:
            orphaned.append(shard)
        elif owner not in active or owner not in shard_map:
            misowned.append((shard, owner))
        if chain and (len(set(chain)) != len(chain)
                      or any(standby not in shard_map for standby in chain[1:])):
            malformed.append((shard, chain))
    if orphaned:
        raise ShardConservationError(
            f"{len(orphaned)} parameter shard(s) have no owning server: "
            f"{orphaned[:8]}")
    if misowned:
        raise ShardConservationError(
            f"{len(misowned)} parameter shard(s) are owned by inactive servers: "
            f"{misowned[:8]}")
    if malformed:
        raise ShardConservationError(
            f"{len(malformed)} parameter shard(s) have malformed replica "
            f"chains (duplicates or non-member standbys): {malformed[:8]}")
    counts = shard_map.shard_counts()
    return {
        "shards": shard_map.num_shards,
        "servers": len(counts),
        "min_per_server": min(counts.values()) if counts else 0,
        "max_per_server": max(counts.values()) if counts else 0,
    }


def audit_allocator(allocator: DataAllocator, where: str = "") -> Optional[ShardLedger]:
    """Validate the allocator's conservation invariant; returns the ledger.

    Returns ``None`` for allocators without shard accounting (the static
    partition keeps per-worker cursors instead of a global queue).  Raises
    :class:`ShardConservationError` when the buckets do not sum back to the
    workload — the error message carries the full ledger plus ``where`` so a
    failing elastic transition is directly attributable.
    """
    if not isinstance(allocator, StatefulDDS):
        return None
    accounting = allocator.shard_accounting()
    if not accounting["conserved"]:
        raise ShardConservationError(
            f"shard accounting out of balance ({where or 'unspecified point'}): "
            f"{accounting}")
    return ShardLedger(
        total_samples=accounting["total_samples"],
        confirmed=accounting["confirmed"],
        in_flight=accounting["in_flight"],
        undispatched=accounting["undispatched"],
        unpopulated=accounting["unpopulated"],
    )


def verify_exactly_once(allocator: StatefulDDS,
                        allow_requeues: bool = False) -> Dict[str, int]:
    """Check per-sample coverage after a completed run.

    Every sample must be confirmed at least once (nothing lost).  With
    ``allow_requeues=False`` — a clean elastic run: graceful scale-in drains
    and requeues *unconfirmed* work only, so nothing is ever trained twice —
    every sample must be confirmed *exactly* once.  Returns summary counts.
    Requires the allocator to have been built with ``track_coverage=True``.
    """
    coverage = allocator.coverage()
    if coverage is None:
        raise ValueError("coverage tracking is disabled on this allocator "
                         "(build it with track_coverage=True)")
    missed = int(np.count_nonzero(coverage == 0))
    duplicated = int(np.count_nonzero(coverage > 1))
    if missed:
        raise ShardConservationError(
            f"{missed} sample(s) were never confirmed (data loss)")
    if duplicated and not allow_requeues:
        raise ShardConservationError(
            f"{duplicated} sample(s) were confirmed more than once "
            "(double training) in a run that should be exactly-once")
    return {
        "samples": int(coverage.size),
        "missed": missed,
        "duplicated": duplicated,
        "max_coverage": int(coverage.max()) if coverage.size else 0,
    }
