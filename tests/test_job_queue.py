"""Unit tests for the job-queue core behind local and remote shard dispatch.

:class:`repro.service.queue.JobQueue` owns the whole lease state machine —
attempts, expiry, retry triage, first-result-wins, cache and telemetry —
so these tests drive it directly, with a fake clock instead of sleeps.
"""

import pytest

from repro.exceptions import FaultModelError, WorkerCrashError
from repro.service.checkpoint import content_key
from repro.service.queue import JobQueue
from repro.service.remote.cache import ResultCache
from repro.service.remote.protocol import TELEMETRY_EVENTS, JobRecord
from repro.service.retry import RetryPolicy
from repro.service.worker import describe_error


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def job(n: int = 0) -> JobRecord:
    body = {"kind": "study_shard", "n": n}
    return JobRecord(key=content_key(body), kind="study_shard", body=body)


@pytest.fixture()
def clock():
    return FakeClock()


def make_queue(clock, **kwargs):
    kwargs.setdefault("retry", RetryPolicy(max_attempts=3, base_delay=0.5))
    kwargs.setdefault("lease_timeout", 1.0)
    return JobQueue(clock=clock, **kwargs)


def events(queue):
    return [record.event for record in queue.telemetry.since(0)]


def test_expired_lease_is_retried_at_the_policy_delay(clock):
    queue = make_queue(clock)
    record = job()
    queue.enqueue(record)
    lease, leased = queue.lease("w0")
    assert leased == record and lease.attempt == 1 and lease.expires_in == 1.0

    clock.advance(1.0)  # the deadline itself is still inside the lease
    assert queue.holds(record.key, lease.lease_id)
    clock.advance(0.01)
    assert not queue.holds(record.key, lease.lease_id)
    [retried] = [r for r in queue.telemetry.since(0) if r.event == "retried"]
    assert retried.error_type == "ShardTimeoutError" and retried.worker == "w0"
    assert queue.job(record.key) == {
        "key": record.key,
        "status": "pending",
        "attempts": 1,
        "worker": None,
    }

    delay = queue.retry.delay_before(2, record.key)
    assert delay > 0
    assert queue.until_ready() == pytest.approx(delay)
    clock.advance(delay - 1e-6)
    assert queue.lease("w1") is None
    clock.advance(1e-6)
    lease2, _ = queue.lease("w1")
    assert lease2.attempt == 2 and lease2.lease_id != lease.lease_id


def test_until_expiry_tracks_the_next_heartbeat_deadline(clock):
    queue = make_queue(clock)
    assert queue.until_expiry() is None
    for n in range(2):
        queue.enqueue(job(n))
    first, _ = queue.lease("w0")
    clock.advance(0.25)
    queue.lease("w1")
    assert queue.until_expiry() == pytest.approx(0.75)
    clock.advance(0.5)
    assert queue.heartbeat(first.key, first.lease_id)
    assert queue.until_expiry() == pytest.approx(0.5)  # now w1's lease is next

    endless = make_queue(clock, lease_timeout=None)
    endless.enqueue(job())
    endless.lease("w0")
    assert endless.until_expiry() is None


def test_deterministic_error_fails_fast_on_attempt_one(clock):
    queue = make_queue(clock)
    record = job()
    queue.enqueue(record)
    lease, _ = queue.lease("w0")
    error = describe_error(FaultModelError("bad"))
    answer = queue.fail(record.key, lease.lease_id, error)
    assert answer == {"ok": True, "retried": False}
    assert queue.job(record.key)["status"] == "failed"
    assert queue.job(record.key)["attempts"] == 1
    assert queue.error(record.key)["type"] == "FaultModelError"
    assert "retried" not in events(queue)
    assert queue.lease("w0") is None


def test_transient_errors_retry_until_attempts_run_out(clock):
    queue = make_queue(clock, retry=RetryPolicy(max_attempts=2, base_delay=0.0))
    record = job()
    queue.enqueue(record)
    crash = describe_error(WorkerCrashError("killed", exitcode=-9))
    lease, _ = queue.lease("w0")
    assert queue.fail(record.key, lease.lease_id, crash)["retried"]
    lease, _ = queue.lease("w0")
    assert not queue.fail(record.key, lease.lease_id, crash)["retried"]
    assert queue.job(record.key)["status"] == "failed"
    assert events(queue).count("retried") == 1


def test_stale_lease_late_result_wins(clock):
    queue = make_queue(clock, retry=RetryPolicy(max_attempts=3, base_delay=0.0))
    record = job()
    queue.enqueue(record)
    stale, _ = queue.lease("slow")
    clock.advance(2.0)  # expires the slow worker's lease
    live, _ = queue.lease("fast")
    assert live.attempt == 2

    answer = queue.complete(record.key, stale.lease_id, {"value": 1}, worker="slow")
    assert answer == {"ok": True, "stale_lease": True}
    assert queue.result(record.key) == {"value": 1}
    assert not queue.holds(record.key, live.lease_id)  # revoked by the win
    assert queue.complete(record.key, live.lease_id, {"value": 2}) == {
        "ok": True,
        "duplicate": True,
    }
    assert queue.result(record.key) == {"value": 1}
    # A failure quoting a lease the job no longer has is a duplicate.
    assert queue.fail(record.key, live.lease_id, {"type": "X"}) == {
        "ok": True,
        "duplicate": True,
    }
    [completed] = [r for r in queue.telemetry.since(0) if r.event == "completed"]
    assert completed.worker == "slow" and completed.attempt == 2


def test_heartbeat_quoting_a_revoked_lease_does_not_extend_the_live_one(clock):
    queue = make_queue(clock, retry=RetryPolicy(max_attempts=3, base_delay=0.0))
    record = job()
    queue.enqueue(record)
    revoked, _ = queue.lease("w0")
    clock.advance(1.5)
    live, _ = queue.lease("w1")  # the re-lease: live until now + 1.0

    clock.advance(0.9)
    assert not queue.heartbeat(record.key, revoked.lease_id)
    clock.advance(0.2)  # past the live lease's original deadline
    assert not queue.holds(record.key, live.lease_id)
    retried = [r for r in queue.telemetry.since(0) if r.event == "retried"]
    assert [r.attempt for r in retried] == [1, 2]


def test_heartbeat_on_the_live_lease_extends_it(clock):
    queue = make_queue(clock)
    record = job()
    queue.enqueue(record)
    lease, _ = queue.lease("w0")
    for _ in range(5):
        clock.advance(0.9)
        assert queue.heartbeat(record.key, lease.lease_id)
    assert queue.holds(record.key, lease.lease_id)


def test_duplicate_enqueue_reports_the_known_status(clock):
    queue = make_queue(clock)
    record = job()
    assert queue.enqueue(record) == {"status": "enqueued", "key": record.key}
    assert queue.enqueue(record) == {"status": "pending", "key": record.key}
    lease, _ = queue.lease("w0")
    assert queue.enqueue(record)["status"] == "leased"
    queue.complete(record.key, lease.lease_id, {"value": 1})
    assert queue.enqueue(record)["status"] == "completed"
    assert events(queue) == ["enqueued", "leased", "completed"]
    assert queue.counts() == {"completed": 1}


def test_cache_hit_on_enqueue_from_memory_and_journal(clock, tmp_path):
    record = job()
    path = tmp_path / "cache.jsonl"
    with ResultCache(path) as cache:
        first = make_queue(clock, cache=cache)
        first.enqueue(record)
        lease, _ = first.lease("w0")
        first.complete(record.key, lease.lease_id, {"value": 1})

        again = make_queue(clock, cache=cache)
        answer = again.enqueue(record)
        assert answer["status"] == "cached"
        assert answer["cache_hit"]["source"] == "memory"
        assert again.lease("w0") is None
        assert events(again) == ["cache-hit"]

    restarted = make_queue(clock, cache=path)
    answer = restarted.enqueue(record)
    assert answer["cache_hit"] == {
        "__type__": "remote-cache-hit",
        "version": 1,
        "key": record.key,
        "kind": "study_shard",
        "source": "journal",
    }
    assert restarted.result(record.key) == {"value": 1}
    assert restarted.job(record.key)["status"] == "completed"
    restarted.cache.close()


def test_status_counts_each_cache_decided_admission_once(clock, tmp_path):
    record, fresh = job(1), job(2)
    path = tmp_path / "cache.jsonl"
    first = make_queue(clock, cache=path)
    first.enqueue(record)
    lease, _ = first.lease("w0")
    first.complete(record.key, lease.lease_id, {"value": 1})
    assert first.status()["cache"] == {"entries": 1, "hits": 0, "misses": 1}
    first.cache.close()

    # A second queue over the same journal serves the completed key.
    second = make_queue(clock, cache=path)
    assert second.enqueue(record)["status"] == "cached"
    assert second.enqueue(record)["status"] == "completed"  # known: not counted
    assert second.status()["cache"] == {"entries": 1, "hits": 1, "misses": 0}
    assert second.enqueue(fresh)["status"] == "enqueued"
    assert second.status()["cache"] == {"entries": 1, "hits": 1, "misses": 1}
    second.cache.close()


def test_telemetry_seq_is_dense_across_every_event_kind(clock):
    done, failed, cached = job(1), job(2), job(3)
    cache = ResultCache()
    cache.put(cached.key, {"value": 3})
    queue = make_queue(
        clock, cache=cache, retry=RetryPolicy(max_attempts=3, base_delay=0.0)
    )
    queue.enqueue(done)
    queue.enqueue(failed)
    queue.enqueue(cached)  # cache-hit
    queue.lease("w0")
    clock.advance(2.0)  # expiry: retried
    lease, _ = queue.lease("w0")
    queue.complete(done.key, lease.lease_id, {"value": 1})
    lease, _ = queue.lease("w1")
    queue.fail(failed.key, lease.lease_id, describe_error(FaultModelError("bad")))
    queue.enqueue(done)  # a duplicate appends nothing

    records = queue.telemetry.since(0)
    assert [record.seq for record in records] == list(range(1, len(records) + 1))
    assert [record.event for record in records] == [
        "enqueued",
        "enqueued",
        "cache-hit",
        "leased",
        "retried",
        "leased",
        "completed",
        "leased",
        "failed",
    ]
    assert set(TELEMETRY_EVENTS) == {record.event for record in records}
    assert queue.telemetry.last_seq == len(records)


def test_unknown_keys_are_reported_not_invented(clock):
    queue = make_queue(clock)
    assert queue.complete("nope", None, {}) is None
    assert queue.fail("nope", None, {}) is None
    assert not queue.heartbeat("nope", None)
    assert queue.job("nope") == {"key": "nope", "status": None}
    assert queue.result("nope") is None and queue.error("nope") is None


def test_leases_never_expire_without_a_lease_timeout(clock):
    queue = make_queue(clock, lease_timeout=None)
    record = job()
    queue.enqueue(record)
    lease, _ = queue.lease("w0")
    clock.advance(1e9)
    assert queue.holds(record.key, lease.lease_id)

