"""Unit tests for shards, the Stateful DDS and the static partition allocator."""

import pytest

from repro.core.shard import SampleRange, Shard, ShardState
from repro.core.sharding import StatefulDDS, StaticPartition
from repro.core.shuffler import ShardShuffler


# ------------------------------------------------------------------------------- shards
def test_shard_lifecycle_todo_doing_done():
    shard = Shard(shard_id=0, offset=0, length=100)
    assert shard.state is ShardState.TODO
    shard.assign("w0")
    assert shard.state is ShardState.DOING
    assert shard.owner == "w0"
    shard.confirm(60)
    assert shard.state is ShardState.DOING
    shard.confirm(40)
    assert shard.state is ShardState.DONE
    assert shard.owner is None


def test_shard_cannot_assign_twice():
    shard = Shard(shard_id=0, offset=0, length=10)
    shard.assign("w0")
    with pytest.raises(ValueError):
        shard.assign("w1")


def test_shard_confirm_beyond_length_rejected():
    shard = Shard(shard_id=0, offset=0, length=10)
    shard.assign("w0")
    with pytest.raises(ValueError):
        shard.confirm(11)


def test_shard_release_returns_unfinished_tail():
    shard = Shard(shard_id=0, offset=100, length=50)
    shard.assign("w0")
    shard.confirm(20)
    remaining = shard.release()
    assert remaining == 30
    assert shard.state is ShardState.TODO
    assert shard.offset == 120
    assert shard.length == 30


def test_sample_range_validation():
    with pytest.raises(ValueError):
        SampleRange(offset=-1, length=10)
    with pytest.raises(ValueError):
        SampleRange(offset=0, length=0)
    assert SampleRange(offset=5, length=10).end == 15


# ------------------------------------------------------------------------------ shuffler
def test_shuffler_is_deterministic():
    shuffler = ShardShuffler(seed=3)
    assert shuffler.shard_order(10, epoch=0) == shuffler.shard_order(10, epoch=0)
    assert shuffler.shard_order(10, epoch=0) != list(range(10))


def test_shuffler_differs_between_epochs():
    shuffler = ShardShuffler(seed=3)
    assert shuffler.shard_order(20, epoch=0) != shuffler.shard_order(20, epoch=1)


def test_shuffler_sample_indices_cover_range():
    shuffler = ShardShuffler(seed=0)
    indices = shuffler.sample_indices(SampleRange(offset=10, length=20, epoch=0))
    assert sorted(indices.tolist()) == list(range(10, 30))


def test_shuffler_can_be_disabled():
    shuffler = ShardShuffler(seed=0, shuffle_shards=False, shuffle_within_shard=False)
    assert shuffler.shard_order(5, 0) == [0, 1, 2, 3, 4]
    indices = shuffler.sample_indices(SampleRange(offset=0, length=5, epoch=0))
    assert indices.tolist() == [0, 1, 2, 3, 4]


# ------------------------------------------------------------------------------- DDS
def _dds(num_samples=1000, batch=100, shard_samples=200, epochs=1, **kwargs):
    return StatefulDDS(
        num_samples=num_samples,
        global_batch_size=batch,
        epochs=epochs,
        samples_per_shard=shard_samples,
        op_cost_s=0.01,
        **kwargs,
    )


def test_dds_shard_count_matches_formula():
    dds = StatefulDDS(num_samples=1000, global_batch_size=10, batches_per_shard=10)
    assert dds.shards_per_epoch == 10
    assert dds.total_shards == 10


def test_dds_dispenses_sub_ranges_from_current_shard():
    dds = _dds()
    first = dds.next_range("w0", 50)
    second = dds.next_range("w0", 50)
    assert first.offset + first.length == second.offset
    assert first.shard_id == second.shard_id


def test_dds_exhausts_after_all_ranges_confirmed():
    dds = _dds(num_samples=400, shard_samples=200)
    while not dds.exhausted:
        rng = dds.next_range("w0", 100)
        assert rng is not None
        dds.mark_done("w0", rng)
    assert dds.done_shards == dds.total_shards
    assert dds.consumed_counts()["w0"] == 400


def test_dds_fast_worker_consumes_more():
    dds = _dds(num_samples=1000, shard_samples=100)
    # w0 does four requests for every one of w1.
    while not dds.exhausted:
        advanced = False
        for _ in range(4):
            rng = dds.next_range("fast", 100)
            if rng is not None:
                dds.mark_done("fast", rng)
                advanced = True
        rng = dds.next_range("slow", 100)
        if rng is not None:
            dds.mark_done("slow", rng)
            advanced = True
        if not advanced:
            break
    consumed = dds.consumed_counts()
    assert consumed["fast"] > consumed["slow"]


def test_dds_failover_requeues_unfinished_work():
    dds = _dds(num_samples=400, shard_samples=200)
    rng = dds.next_range("w0", 100)
    dds.mark_done("w0", rng)
    pending = dds.next_range("w0", 100)
    assert pending is not None
    requeued = dds.on_worker_failover("w0")
    assert requeued == 100
    # Another worker can finish the job; every shard still reaches DONE.
    while not dds.exhausted:
        rng = dds.next_range("w1", 100)
        assert rng is not None
        dds.mark_done("w1", rng)
    assert dds.done_shards == dds.total_shards


def test_dds_return_range_reissues_same_samples():
    dds = _dds(num_samples=200, shard_samples=200)
    rng = dds.next_range("w0", 50)
    dds.return_range("w0", rng)
    again = dds.next_range("w0", 50)
    assert again.offset == rng.offset
    assert again.length == rng.length


def test_dds_coverage_tracks_at_least_once():
    dds = _dds(num_samples=300, shard_samples=100, track_coverage=True)
    while not dds.exhausted:
        rng = dds.next_range("w0", 60)
        dds.mark_done("w0", rng)
    coverage = dds.coverage()
    assert coverage.min() >= 1


def test_dds_multiple_epochs():
    dds = _dds(num_samples=200, shard_samples=100, epochs=2)
    seen = 0
    while not dds.exhausted:
        rng = dds.next_range("w0", 100)
        assert rng is not None
        seen += rng.length
        dds.mark_done("w0", rng)
    assert seen == 400
    assert dds.total_shards == 4
    assert dds.done_shards == 4


def test_dds_overhead_charged_per_shard_event():
    dds = _dds(num_samples=400, shard_samples=200)
    rng = dds.next_range("w0", 100)
    assert dds.last_op_cost_s == pytest.approx(0.01)  # new shard fetched
    dds.mark_done("w0", rng)
    rng2 = dds.next_range("w0", 100)
    assert dds.last_op_cost_s == 0.0  # still the same shard
    dds.mark_done("w0", rng2)  # completes the shard -> one report charge
    assert dds.total_overhead_s == pytest.approx(0.02)


def test_dds_state_counts():
    dds = _dds(num_samples=400, shard_samples=200)
    dds.next_range("w0", 100)
    counts = dds.state_counts()
    assert counts["doing"] == 1
    assert counts["todo"] == 1
    assert counts["done"] == 0


def test_dds_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        StatefulDDS(num_samples=0, global_batch_size=10)
    with pytest.raises(ValueError):
        StatefulDDS(num_samples=10, global_batch_size=0)
    with pytest.raises(ValueError):
        _dds(num_samples=10, shard_samples=-5)


def test_dds_next_range_requires_positive_request():
    dds = _dds()
    with pytest.raises(ValueError):
        dds.next_range("w0", 0)


# ------------------------------------------------------------------------ static partition
def test_static_partition_even_split():
    partition = StaticPartition(num_samples=100, workers=["a", "b", "c"])
    sizes = [partition.partition_of(w)[1] - partition.partition_of(w)[0] for w in ("a", "b", "c")]
    assert sum(sizes) == 100
    assert max(sizes) - min(sizes) <= 1


def test_static_partition_worker_only_sees_its_slice():
    partition = StaticPartition(num_samples=100, workers=["a", "b"])
    start, end = partition.partition_of("a")
    rng = partition.next_range("a", 1000)
    assert rng.offset == start
    assert rng.end <= end


def test_static_partition_exhaustion_requires_all_workers():
    partition = StaticPartition(num_samples=100, workers=["a", "b"])
    while True:
        rng = partition.next_range("a", 30)
        if rng is None:
            break
        partition.mark_done("a", rng)
    assert not partition.exhausted  # b has not consumed anything yet
    while True:
        rng = partition.next_range("b", 30)
        if rng is None:
            break
        partition.mark_done("b", rng)
    assert partition.exhausted


def test_static_partition_unknown_worker_rejected():
    partition = StaticPartition(num_samples=10, workers=["a"])
    with pytest.raises(KeyError):
        partition.next_range("ghost", 5)


def test_static_partition_failover_rewinds_to_confirmed():
    partition = StaticPartition(num_samples=100, workers=["a"])
    first = partition.next_range("a", 30)
    partition.mark_done("a", first)
    partition.next_range("a", 30)  # dispatched but never confirmed
    rewound = partition.on_worker_failover("a")
    assert rewound == 30
    again = partition.next_range("a", 30)
    assert again.offset == first.end
