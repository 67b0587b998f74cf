"""Crash-safety tests for the sharded study service.

The acceptance bar is *bit-for-bit determinism under failure*: a sharded
run must merge to exactly the single-process :class:`repro.api.Study`
result, and it must keep doing so when workers are SIGKILLed, when they
hang past the heartbeat timeout, and when the orchestrator itself is
SIGKILLed mid-sweep and resumed from its checkpoint journal.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.algorithms import MidpointAlgorithm
from repro.api import CertifySpec, ScenarioSpec, Study
from repro.config import EngineConfig
from repro.core.adversary import GreedyDiameterAdversary
from repro.exceptions import (
    ConfigError,
    ExecutionError,
    FaultModelError,
    ReproError,
    ServiceError,
    ShardTimeoutError,
    WorkerCrashError,
)
from repro.execution.batch import merge_ensemble_executions
from repro.faults import FaultSpec
from repro.models.patterns import RandomPattern
from repro.models.standard import deaf_model
from repro.service import (
    CheckpointJournal,
    PartialStudyResult,
    RetryPolicy,
    content_key,
    orchestrator,
    run_certification_sweep_service,
    run_study_service,
)
from repro.service.retry import is_transient_failure
from tests.valency_records import record_bytes


@pytest.fixture()
def ensemble_kwargs():
    model = deaf_model(n=5)
    pattern = RandomPattern(list(model), seed=3)
    values = np.random.default_rng(0).uniform(0, 1, (8, 5, 1))
    return dict(
        algorithm=MidpointAlgorithm(),
        initial_values=values,
        rounds=8,
        pattern=pattern,
    )


@pytest.fixture()
def certified_kwargs(ensemble_kwargs):
    return dict(
        ensemble_kwargs, model=deaf_model(n=5), certify=CertifySpec(suffix_rounds=6)
    )


def assert_same_result(merged, direct):
    assert np.array_equal(
        merged.execution.recorded_outputs, direct.execution.recorded_outputs
    )
    assert merged.provenance == direct.provenance
    assert merged.execution.fault_plan == direct.execution.fault_plan
    assert record_bytes(merged.valency) == record_bytes(direct.valency)
    assert len(merged.certificates) == len(direct.certificates)
    for a, b in zip(merged.certificates, direct.certificates):
        assert a.rate_interval == b.rate_interval
        assert a.valency_trace == b.valency_trace


# --------------------------------------------------------------------- #
# Bit-for-bit shard merging
# --------------------------------------------------------------------- #


def test_sharded_faulted_certified_study_matches_direct(ensemble_kwargs):
    model = deaf_model(n=5)
    kwargs = dict(
        ensemble_kwargs,
        model=model,
        certify=CertifySpec(suffix_rounds=12),
        faults=FaultSpec(drop=0.2, seed=7, enforce_model=False),
    )
    direct = Study(**kwargs).run()
    records = []
    merged = run_study_service(
        **kwargs, workers=2, shard_size=2, on_shard=records.append
    )
    assert_same_result(merged, direct)
    assert sorted(r.shard for r in records) == [0, 1, 2, 3]
    assert all(r.source == "worker" and r.attempts == 1 for r in records)


def test_identical_shards_deduplicate(ensemble_kwargs):
    # Every scenario is the same row, so every shard body hashes equal:
    # exactly one worker job runs, the rest replay its journaled result.
    values = np.tile(
        np.random.default_rng(1).uniform(0, 1, (1, 5, 1)), (4, 1, 1)
    )
    kwargs = dict(ensemble_kwargs, initial_values=values)
    direct = Study(**kwargs).run()
    records = []
    merged = run_study_service(
        **kwargs, workers=2, shard_size=1, on_shard=records.append
    )
    assert np.array_equal(
        merged.execution.recorded_outputs, direct.execution.recorded_outputs
    )
    assert len({r.key for r in records}) == 1
    assert sum(1 for r in records if r.source == "worker") == 1


# --------------------------------------------------------------------- #
# Worker crash / hang recovery
# --------------------------------------------------------------------- #


def test_sigkilled_worker_is_retried_transparently(ensemble_kwargs, tmp_path):
    direct = Study(**ensemble_kwargs).run()
    marker = str(tmp_path / "kill-shard-1")
    open(marker, "w").close()
    records = []
    merged = run_study_service(
        **ensemble_kwargs,
        workers=2,
        shard_size=2,
        _fault_markers={1: {"kill_marker": marker}},
        on_shard=records.append,
    )
    assert np.array_equal(
        merged.execution.recorded_outputs, direct.execution.recorded_outputs
    )
    attempts = {r.shard: r.attempts for r in records}
    assert attempts[1] == 2, attempts
    assert all(attempts[s] == 1 for s in (0, 2, 3)), attempts
    assert not os.path.exists(marker)


def test_hung_worker_trips_heartbeat_timeout_and_retries(
    ensemble_kwargs, tmp_path
):
    direct = Study(**ensemble_kwargs).run()
    marker = str(tmp_path / "hang-shard-0")
    open(marker, "w").close()
    merged = run_study_service(
        **ensemble_kwargs,
        workers=2,
        shard_size=4,
        heartbeat_interval=0.1,
        heartbeat_timeout=1.0,
        _fault_markers={0: {"hang_marker": marker}},
    )
    assert np.array_equal(
        merged.execution.recorded_outputs, direct.execution.recorded_outputs
    )


def test_exhausted_retries_surface_worker_crash(ensemble_kwargs, tmp_path):
    # Markers are consumed on first use, so re-arm the kill on every attempt
    # is impossible; instead allow zero retries and check the strict raise.
    marker = str(tmp_path / "kill-always")
    open(marker, "w").close()
    with pytest.raises(WorkerCrashError):
        run_study_service(
            **ensemble_kwargs,
            workers=2,
            shard_size=4,
            retry=RetryPolicy(max_attempts=1),
            _fault_markers={0: {"kill_marker": marker}},
        )
    partial = run_study_service(
        **ensemble_kwargs,
        workers=2,
        shard_size=4,
        strict=False,
        retry=RetryPolicy(max_attempts=1),
        _fault_markers={1: {"kill_marker": _armed(tmp_path / "kill-2")}},
    )
    assert isinstance(partial, PartialStudyResult)
    assert not partial.complete
    assert partial.result is None
    [failure] = partial.failures
    assert failure.shard == 1
    assert failure.error_type == "WorkerCrashError"
    assert isinstance(failure.error, WorkerCrashError)


def _armed(path):
    open(path, "w").close()
    return str(path)


# --------------------------------------------------------------------- #
# Checkpoint journal: replay, dedup, resume after orchestrator SIGKILL
# --------------------------------------------------------------------- #


def test_journal_replay_serves_every_shard(ensemble_kwargs, tmp_path):
    direct = Study(**ensemble_kwargs).run()
    journal_path = tmp_path / "journal.jsonl"
    run_study_service(
        **ensemble_kwargs, workers=2, shard_size=2, journal=journal_path
    )
    with CheckpointJournal(journal_path) as journal:
        assert len(journal) == 4
    records = []
    merged = run_study_service(
        **ensemble_kwargs,
        workers=2,
        shard_size=2,
        journal=journal_path,
        on_shard=records.append,
    )
    assert all(r.source == "journal" for r in records)
    assert np.array_equal(
        merged.execution.recorded_outputs, direct.execution.recorded_outputs
    )


def test_journaled_v1_results_are_never_decoded(ensemble_kwargs, tmp_path, monkeypatch):
    # Before ensemble payloads moved to v2, shard bodies carried no result
    # version, so a journal written then holds v1 results under the keys of
    # the same bodies minus "result_version".  Journals written before the
    # StudyResult payload moved to v2 hold v1 results under the
    # "result_version": 2 keys.  None of those keys may be hit.
    from repro.service import orchestrator

    kwargs = dict(
        ensemble_kwargs, model=deaf_model(n=5), certify=CertifySpec(suffix_rounds=6)
    )
    bodies = []
    make_jobs = orchestrator._make_jobs

    def capture(entries):
        bodies.extend(body for _kind, body, _start, _stop in entries)
        return make_jobs(entries)

    monkeypatch.setattr(orchestrator, "_make_jobs", capture)
    direct = Study(**kwargs).run()
    run_study_service(**kwargs, workers=2, shard_size=2)
    assert bodies and all(body["result_version"] == 3 for body in bodies)
    stale = direct.to_dict()
    stale["execution"]["version"] = 1
    stale_result = dict(direct.to_dict(), version=1)
    journal_path = tmp_path / "journal.jsonl"
    with CheckpointJournal(journal_path) as journal:
        for body in bodies:
            parent_body = {k: v for k, v in body.items() if k != "result_version"}
            journal.put(content_key(parent_body), stale, kind="study_shard")
            journal.put(
                content_key(dict(body, result_version=2)), stale_result, kind="study_shard"
            )
    records = []
    merged = run_study_service(
        **kwargs,
        workers=2,
        shard_size=2,
        journal=journal_path,
        on_shard=records.append,
    )
    assert len(records) == 4
    assert all(record.source != "journal" for record in records)
    assert_same_result(merged, direct)


def test_resume_after_orchestrator_sigkill(ensemble_kwargs, tmp_path):
    journal_path = str(tmp_path / "journal.jsonl")
    child_code = textwrap.dedent(
        f"""
        import numpy as np
        from repro.algorithms import MidpointAlgorithm
        from repro.models.standard import deaf_model
        from repro.models.patterns import RandomPattern
        from repro.service import orchestrator, run_study_service

        model = deaf_model(n=5)
        pattern = RandomPattern(list(model), seed=3)
        values = np.random.default_rng(0).uniform(0, 1, (8, 5, 1))
        def report(record):
            print("SHARD", record.shard, *orchestrator._POOL.pids(), flush=True)
        run_study_service(
            algorithm=MidpointAlgorithm(), initial_values=values, rounds=8,
            pattern=pattern, workers=1, shard_size=2,
            journal={journal_path!r}, on_shard=report,
        )
        print("DONE", flush=True)
        """
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", child_code],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    seen = 0
    slot_pids = set()
    for line in proc.stdout:
        if line.startswith("SHARD"):
            seen += 1
            slot_pids.update(int(pid) for pid in line.split()[2:])
            if seen == 2:
                os.kill(proc.pid, signal.SIGKILL)
                break
    proc.wait()
    proc.stdout.close()
    assert proc.returncode == -signal.SIGKILL
    assert seen == 2
    # The killed coordinator's slots see their pipe close and exit.
    assert slot_pids
    assert not _still_running(slot_pids)

    direct = Study(**ensemble_kwargs).run()
    records = []
    merged = run_study_service(
        **ensemble_kwargs,
        workers=2,
        shard_size=2,
        journal=journal_path,
        on_shard=records.append,
    )
    sources = {r.shard: r.source for r in records}
    assert sum(1 for s in sources.values() if s == "journal") >= 2, sources
    assert any(s == "worker" for s in sources.values()), sources
    assert np.array_equal(
        merged.execution.recorded_outputs, direct.execution.recorded_outputs
    )


# --------------------------------------------------------------------- #
# The persistent worker pool
# --------------------------------------------------------------------- #


def _running(pid):
    """Whether ``pid`` is a live process (a zombie awaiting its reaper is not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _still_running(pids, deadline=30.0):
    """The pids of ``pids`` still running after up to ``deadline`` seconds."""
    end = time.monotonic() + deadline
    while True:
        alive = {pid for pid in pids if _running(pid)}
        if not alive or time.monotonic() > end:
            return alive
        time.sleep(0.05)


def _no_slot_start(*args, **kwargs):
    raise AssertionError("a worker slot was started")


def test_second_study_reuses_the_pool_slots(certified_kwargs, monkeypatch):
    direct = Study(**certified_kwargs).run()
    first = run_study_service(**certified_kwargs, workers=2, shard_size=2)
    pids = orchestrator._POOL.pids()
    assert len(pids) == 2
    monkeypatch.setattr(orchestrator._SlotPool, "_start", _no_slot_start)
    second = run_study_service(**certified_kwargs, workers=2, shard_size=2)
    assert orchestrator._POOL.pids() == pids
    assert_same_result(first, direct)
    assert_same_result(second, direct)


@pytest.mark.parametrize("marker", ["kill_marker", "hang_marker"])
def test_broken_slot_is_replaced(certified_kwargs, tmp_path, marker):
    direct = Study(**certified_kwargs).run()
    run_study_service(**certified_kwargs, workers=2, shard_size=2)
    before = set(orchestrator._POOL.pids())
    records = []
    merged = run_study_service(
        **certified_kwargs,
        workers=2,
        shard_size=2,
        heartbeat_interval=0.1,
        heartbeat_timeout=1.0,
        _fault_markers={1: {marker: _armed(tmp_path / marker)}},
        on_shard=records.append,
    )
    assert_same_result(merged, direct)
    assert {r.shard: r.attempts for r in records} == {0: 1, 1: 2, 2: 1, 3: 1}
    [broken] = before - set(orchestrator._POOL.pids())
    assert not _running(broken)
    # The next study runs on the surviving slot and one fresh slot.
    assert_same_result(
        run_study_service(**certified_kwargs, workers=2, shard_size=2), direct
    )
    after = set(orchestrator._POOL.pids())
    assert len(after) == 2 and len(after - before) == 1


def test_concurrent_studies_share_the_pool(certified_kwargs):
    values = certified_kwargs["initial_values"]
    studies = [
        dict(certified_kwargs, initial_values=values[start : start + 2])
        for start in range(0, len(values), 2)
    ]
    # Warm one slot per thread first, so the threads mostly reuse slots
    # instead of forking a multi-threaded process.
    run_study_service(**certified_kwargs, workers=len(studies), shard_size=2)
    outcomes = {}

    def run(index):
        try:
            outcomes[index] = run_study_service(**studies[index], workers=1)
        except BaseException as error:  # surfaced by the assertions below
            outcomes[index] = error

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(studies))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for index, kwargs in enumerate(studies):
        assert_same_result(outcomes[index], Study(**kwargs).run())


def test_ambient_config_does_not_leak_into_later_studies(certified_kwargs):
    # Fresh slots forked inside the config block, then reused outside it.
    orchestrator._POOL.close()
    with EngineConfig(threads=2):
        inside = run_study_service(**certified_kwargs, workers=2, shard_size=2)
        inside_direct = Study(**certified_kwargs).run()
    pids = orchestrator._POOL.pids()
    outside = run_study_service(**certified_kwargs, workers=2, shard_size=2)
    assert orchestrator._POOL.pids() == pids
    assert inside.provenance.config.threads == 2
    assert_same_result(inside, inside_direct)
    assert outside.provenance.config.threads is None
    assert_same_result(outside, Study(**certified_kwargs).run())


def test_exiting_coordinator_stops_its_slots():
    child_code = textwrap.dedent(
        """
        import numpy as np
        from repro.algorithms import MidpointAlgorithm
        from repro.models.standard import deaf_model
        from repro.models.patterns import RandomPattern
        from repro.service import orchestrator, run_study_service

        model = deaf_model(n=5)
        run_study_service(
            algorithm=MidpointAlgorithm(),
            initial_values=np.random.default_rng(0).uniform(0, 1, (8, 5, 1)),
            rounds=8, pattern=RandomPattern(list(model), seed=3),
            workers=2, shard_size=2,
        )
        print(*orchestrator._POOL.pids())
        """
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    # A slot that outlived the child would hold its stdout open, and this
    # call would time out.
    completed = subprocess.run(
        [sys.executable, "-c", child_code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    pids = {int(pid) for pid in completed.stdout.split()}
    assert len(pids) == 2
    assert not _still_running(pids)


# --------------------------------------------------------------------- #
# Failure semantics: deterministic errors fail fast
# --------------------------------------------------------------------- #


def test_deterministic_failure_fails_fast(ensemble_kwargs):
    # drop=0.9 with enforce_model=True (f=0) is a guaranteed model
    # violation: a FaultModelError on attempt 1, never retried.
    kwargs = dict(ensemble_kwargs, faults=FaultSpec(drop=0.9, seed=7))
    with pytest.raises(FaultModelError) as info:
        run_study_service(**kwargs, workers=2, shard_size=4)
    assert info.value.scenario is not None
    assert info.value.agent is not None

    partial = run_study_service(**kwargs, workers=2, shard_size=4, strict=False)
    assert isinstance(partial, PartialStudyResult)
    assert not partial.complete
    assert all(f.attempts == 1 for f in partial.failures)
    assert all(f.error_type == "FaultModelError" for f in partial.failures)
    assert all(isinstance(f.error, FaultModelError) for f in partial.failures)


def test_adversary_spec_is_rejected(ensemble_kwargs):
    spec = ScenarioSpec(
        initial_values=ensemble_kwargs["initial_values"],
        rounds=8,
        adversary=GreedyDiameterAdversary(deaf_model(n=5)),
    )
    with pytest.raises(ConfigError, match="adversar"):
        run_study_service(MidpointAlgorithm(), scenario=spec, workers=2)


# --------------------------------------------------------------------- #
# Sweep service
# --------------------------------------------------------------------- #


def test_sweep_service_matches_direct_sweep():
    from repro.analysis.experiments import run_certification_sweep

    direct = run_certification_sweep(sizes=(4,), rounds=10, suffix_rounds=12)
    records = []
    service = run_certification_sweep_service(
        sizes=(4,), rounds=10, suffix_rounds=12, workers=2,
        on_shard=records.append,
    )
    assert direct == service
    assert len(records) == len(direct)
    json.dumps(service)  # rows must be JSON-native


# --------------------------------------------------------------------- #
# Retry policy units
# --------------------------------------------------------------------- #


def test_retry_policy_triage():
    policy = RetryPolicy(max_attempts=3)
    transient = WorkerCrashError("worker died", exitcode=-9)
    deterministic = FaultModelError("bad model")
    assert policy.should_retry(transient, 1)
    assert policy.should_retry(transient, 2)
    assert not policy.should_retry(transient, 3)  # budget exhausted
    assert not policy.should_retry(deterministic, 1)
    assert is_transient_failure(ShardTimeoutError("hung", elapsed=1.0))
    assert is_transient_failure(RuntimeError("unknown errors assumed flaky"))
    assert not is_transient_failure(ReproError("deterministic by default"))


def test_retry_policy_backoff_is_deterministic_and_bounded():
    policy = RetryPolicy(
        max_attempts=5, base_delay=0.1, backoff=2.0, max_delay=0.5, jitter=0.25
    )
    assert policy.delay_before(1, key="abc") == 0.0
    delays = [policy.delay_before(a, key="abc") for a in range(2, 6)]
    assert delays == [policy.delay_before(a, key="abc") for a in range(2, 6)]
    assert delays == sorted(delays)
    assert all(d <= 0.5 * 1.25 + 1e-12 for d in delays)
    # different keys jitter differently
    assert policy.delay_before(3, key="abc") != policy.delay_before(3, key="xyz")


def test_retry_policy_validation():
    with pytest.raises(ConfigError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ConfigError):
        RetryPolicy(base_delay=-1.0)
    with pytest.raises(ConfigError):
        RetryPolicy(jitter=-0.1)


# --------------------------------------------------------------------- #
# Checkpoint journal units
# --------------------------------------------------------------------- #


def test_journal_persists_and_dedups(tmp_path):
    path = tmp_path / "journal.jsonl"
    key = content_key({"payload": 1})
    with CheckpointJournal(path) as journal:
        journal.put(key, {"value": 1})
        journal.put(key, {"value": 2})  # last writer wins
        assert journal.get(key) == {"value": 2}
        assert len(journal) == 1
    with CheckpointJournal(path) as journal:
        assert key in journal
        assert journal.get(key) == {"value": 2}


def test_journal_tolerates_torn_final_line(tmp_path):
    path = tmp_path / "journal.jsonl"
    with CheckpointJournal(path) as journal:
        journal.put("a" * 64, {"value": 1})
        journal.put("b" * 64, {"value": 2})
    text = path.read_text()
    path.write_text(text[: len(text) - 9])  # tear the final record
    with CheckpointJournal(path) as journal:
        assert "a" * 64 in journal
        assert "b" * 64 not in journal


def test_journal_rejects_mid_file_corruption(tmp_path):
    path = tmp_path / "journal.jsonl"
    with CheckpointJournal(path) as journal:
        journal.put("a" * 64, {"value": 1})
        journal.put("b" * 64, {"value": 2})
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:-5]  # corrupt a non-final record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ServiceError):
        CheckpointJournal(path)


def test_journal_rejects_foreign_files(tmp_path):
    path = tmp_path / "not-a-journal.jsonl"
    path.write_text('{"some": "other file"}\n')
    with pytest.raises(ServiceError):
        CheckpointJournal(path)
    versioned = tmp_path / "future.jsonl"
    versioned.write_text('{"journal": "repro-service-journal", "version": 99}\n')
    with pytest.raises(ServiceError):
        CheckpointJournal(versioned)


def test_content_key_is_order_insensitive():
    assert content_key({"a": 1, "b": [2, 3]}) == content_key({"b": [2, 3], "a": 1})
    assert content_key({"a": 1}) != content_key({"a": 2})


# --------------------------------------------------------------------- #
# Shard merge validation
# --------------------------------------------------------------------- #


def test_merge_rejects_empty_and_mismatched_shards(ensemble_kwargs):
    with pytest.raises(ExecutionError):
        merge_ensemble_executions([])
    full = Study(**ensemble_kwargs).run().execution
    short = Study(**dict(ensemble_kwargs, rounds=4)).run().execution
    with pytest.raises(ExecutionError):
        merge_ensemble_executions([full, short])


def test_merge_roundtrips_sliced_ensemble(ensemble_kwargs):
    full = Study(**ensemble_kwargs).run().execution
    values = ensemble_kwargs["initial_values"]
    halves = [
        Study(**dict(ensemble_kwargs, initial_values=values[:4])).run().execution,
        Study(**dict(ensemble_kwargs, initial_values=values[4:])).run().execution,
    ]
    merged = merge_ensemble_executions(halves)
    assert np.array_equal(merged.recorded_outputs, full.recorded_outputs)
