"""Tests for the remote worker service: queue server, workers, cache.

The acceptance bar matches the local service layer: the remote route's
merged result must be **bit-for-bit identical** to the single-process
:class:`repro.api.Study` run — including when a worker is SIGKILLed
mid-shard (its lease expires and the shard is re-leased to a survivor),
when the coordinator itself is SIGKILLed and restarted from its journal,
and when a second study is served entirely from the shared result cache
without re-executing a shard.
"""

import contextlib
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
from repro.api import CertifySpec, Study
from repro.exceptions import ConfigError, RemoteServiceError
from repro.models.patterns import RandomPattern
from repro.models.standard import deaf_model
from repro.service import RetryPolicy, run_study_service
from repro.service.checkpoint import content_key
from repro.service.remote import (
    JobQueueServer,
    JobRecord,
    RemoteConfig,
    ResultCache,
)
from repro.service.remote.protocol import as_remote_config, http_json
from repro.service.remote.worker import run_worker
from repro.service.status import tail
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


@contextlib.contextmanager
def _workers(url, count=2):
    """Run ``count`` worker threads; on exit, stop them and join them.

    Use it inside the server's ``with`` block: a worker still polling when
    the server shuts down dies on a reset connection.
    """
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=run_worker,
            args=(url,),
            kwargs=dict(worker_id=f"w{index}", poll_interval=0.05, stop_event=stop),
            daemon=True,
        )
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    try:
        yield
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in threads), "a worker did not stop"


def _remote(url, **overrides):
    return RemoteConfig(
        url=url, poll_interval=0.5, job_timeout=overrides.pop("job_timeout", 120.0)
    )


def assert_same_result(merged, direct):
    assert np.array_equal(
        merged.execution.recorded_outputs, direct.execution.recorded_outputs
    )
    assert merged.provenance == direct.provenance
    assert merged.execution.fault_plan == direct.execution.fault_plan
    assert (merged.valency is None) == (direct.valency is None)
    if direct.valency is not None:
        assert record_bytes(merged.valency) == record_bytes(direct.valency)


# --------------------------------------------------------------------- #
# Bit-for-bit and telemetry basics
# --------------------------------------------------------------------- #


def test_remote_route_matches_direct_study(ensemble_kwargs):
    direct = Study(**ensemble_kwargs).run()
    with JobQueueServer(lease_timeout=30.0) as server:
        records = []
        with _workers(server.url, count=2):
            merged = run_study_service(
                **ensemble_kwargs,
                shard_size=2,
                remote=_remote(server.url),
                on_shard=records.append,
            )
        assert_same_result(merged, direct)
        assert sorted(record.shard for record in records) == [0, 1, 2, 3]
        assert all(record.source == "worker" for record in records)
        events = [record.event for record in server.telemetry.since(0)]
        assert events.count("enqueued") == 4
        assert events.count("leased") == 4
        assert events.count("completed") == 4


def test_second_study_served_from_cache(ensemble_kwargs, tmp_path):
    # Certified, so the valency record travels through workers and the cache.
    ensemble_kwargs = dict(
        ensemble_kwargs, model=deaf_model(n=5), certify=CertifySpec(suffix_rounds=6)
    )
    direct = Study(**ensemble_kwargs).run()
    cache_journal = tmp_path / "cache.jsonl"
    with JobQueueServer(cache=cache_journal, lease_timeout=30.0) as server:
        with _workers(server.url, count=2):
            first = run_study_service(
                **ensemble_kwargs, shard_size=2, remote=_remote(server.url)
            )
        assert_same_result(first, direct)

    # A *restarted* server over the same cache journal, with NO workers at
    # all: the second study must be served entirely from the cache.
    with JobQueueServer(cache=cache_journal, lease_timeout=30.0) as server:
        records = []
        second = run_study_service(
            **ensemble_kwargs,
            shard_size=2,
            remote=_remote(server.url, job_timeout=30.0),
            on_shard=records.append,
        )
        assert_same_result(second, direct)
        assert all(record.source == "cache" for record in records)
        assert all(record.attempts == 0 for record in records)
        events = [record.event for record in server.telemetry.since(0)]
        assert events.count("cache-hit") == 4
        assert "leased" not in events


def test_remote_accepts_bare_url_string(ensemble_kwargs):
    direct = Study(**ensemble_kwargs).run()
    with JobQueueServer() as server, _workers(server.url, count=1):
        merged = run_study_service(**ensemble_kwargs, shard_size=4, remote=server.url)
    assert_same_result(merged, direct)
    with pytest.raises(ConfigError):
        as_remote_config(42)


# --------------------------------------------------------------------- #
# Failure semantics: expired leases, killed workers, bad jobs
# --------------------------------------------------------------------- #


def test_expired_lease_is_re_leased_to_surviving_worker(ensemble_kwargs):
    direct = Study(**ensemble_kwargs).run()
    with JobQueueServer(lease_timeout=1.0) as server:
        merged_box = {}

        def _coordinate():
            merged_box["result"] = run_study_service(
                **ensemble_kwargs, shard_size=2, remote=_remote(server.url)
            )

        coordinator = threading.Thread(target=_coordinate, daemon=True)
        coordinator.start()
        # A zombie worker leases one job and never heartbeats.
        deadline = time.monotonic() + 10.0
        answer = {"lease": None}
        while answer.get("lease") is None:
            assert time.monotonic() < deadline, "no job became leasable"
            answer = http_json(f"{server.url}/lease", {"worker": "zombie"})
            time.sleep(0.05)
        zombie_key = answer["lease"]["key"]
        # Only now do live workers join; the zombie's lease must expire and
        # its shard be re-leased to one of them.
        with _workers(server.url, count=2):
            coordinator.join(timeout=60.0)
        assert not coordinator.is_alive()
        assert_same_result(merged_box["result"], direct)
        events = server.telemetry.since(0)
        retried = [record for record in events if record.event == "retried"]
        assert any(
            record.key == zombie_key
            and record.error_type == "ShardTimeoutError"
            and record.worker == "zombie"
            for record in retried
        ), [record.to_dict() for record in events]
        completed = {
            record.key: record for record in events if record.event == "completed"
        }
        assert completed[zombie_key].attempt >= 2
        assert completed[zombie_key].worker != "zombie"


def test_sigkilled_worker_process_does_not_lose_the_study(ensemble_kwargs, tmp_path):
    direct = Study(**ensemble_kwargs).run()
    marker = tmp_path / "kill-me"
    marker.write_text("armed")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    with JobQueueServer(lease_timeout=1.0) as server:
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service.worker",
                "--url",
                server.url,
                "--worker-id",
                "suicidal",
                "--poll",
                "0.05",
                "--kill-marker",
                str(marker),
            ],
            env=env,
        )
        merged_box = {}

        def _coordinate():
            merged_box["result"] = run_study_service(
                **ensemble_kwargs, shard_size=2, remote=_remote(server.url)
            )

        coordinator = threading.Thread(target=_coordinate, daemon=True)
        coordinator.start()
        # The subprocess SIGKILLs itself on its first lease (consuming the
        # marker); only then do surviving workers join.
        proc.wait(timeout=60.0)
        assert proc.returncode == -signal.SIGKILL
        assert not marker.exists()
        with _workers(server.url, count=2):
            coordinator.join(timeout=60.0)
        assert not coordinator.is_alive()
        assert_same_result(merged_box["result"], direct)
        events = server.telemetry.since(0)
        assert any(
            record.event == "retried" and record.worker == "suicidal"
            for record in events
        ), [record.to_dict() for record in events]


def test_unknown_job_kind_fails_fast_without_retry():
    body = {"kind": "nonsense", "payload": 1}
    record = JobRecord(key=content_key(body), kind="nonsense", body=body)
    with JobQueueServer(retry=RetryPolicy(max_attempts=3)) as server:
        answer = http_json(f"{server.url}/enqueue", record.to_dict())
        assert answer["status"] == "enqueued"
        run_worker(server.url, worker_id="w0", stop_when_idle=True)
        status = http_json(f"{server.url}/job?key={record.key}")
        # RemoteServiceError is a deterministic ReproError: one attempt only.
        assert status["status"] == "failed"
        assert status["attempts"] == 1
        error = http_json(f"{server.url}/error?key={record.key}")["error"]
        assert error["type"] == "RemoteServiceError"
        events = [event.event for event in server.telemetry.since(0)]
        assert "retried" not in events


def test_enqueue_rejects_mismatched_content_key():
    record = JobRecord(key="0" * 64, kind="study_shard", body={"kind": "x"})
    with JobQueueServer() as server:
        with pytest.raises(RemoteServiceError) as info:
            http_json(f"{server.url}/enqueue", record.to_dict())
        assert info.value.status == 400


# --------------------------------------------------------------------- #
# Coordinator crash/restart
# --------------------------------------------------------------------- #


def test_coordinator_sigkill_resumes_against_live_server(ensemble_kwargs, tmp_path):
    journal_path = str(tmp_path / "journal.jsonl")
    with JobQueueServer(lease_timeout=30.0) as server:
        with _workers(server.url, count=2):
            child_code = textwrap.dedent(
                f"""
                import numpy as np
                from repro.algorithms import MidpointAlgorithm
                from repro.models.standard import deaf_model
                from repro.models.patterns import RandomPattern
                from repro.service import RemoteConfig, run_study_service

                model = deaf_model(n=5)
                pattern = RandomPattern(list(model), seed=3)
                values = np.random.default_rng(0).uniform(0, 1, (8, 5, 1))
                def report(record):
                    print("SHARD", record.shard, flush=True)
                run_study_service(
                    algorithm=MidpointAlgorithm(), initial_values=values,
                    rounds=8, pattern=pattern, shard_size=2,
                    journal={journal_path!r},
                    remote=RemoteConfig(url={server.url!r}, poll_interval=0.5),
                    on_shard=report,
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
            for line in proc.stdout:
                if line.startswith("SHARD"):
                    seen += 1
                    if seen == 2:
                        os.kill(proc.pid, signal.SIGKILL)
                        break
            proc.wait()
            proc.stdout.close()
            assert proc.returncode == -signal.SIGKILL
            assert seen == 2

            direct = Study(**ensemble_kwargs).run()
            records = []
            merged = run_study_service(
                **ensemble_kwargs,
                shard_size=2,
                journal=journal_path,
                remote=_remote(server.url),
                on_shard=records.append,
            )
        assert_same_result(merged, direct)
        sources = {record.shard: record.source for record in records}
        # At least the two shards journaled before the SIGKILL replay
        # locally; the rest are served by the server (cache or worker).
        assert sum(1 for s in sources.values() if s == "journal") >= 2, sources
        assert set(sources.values()) <= {"journal", "cache", "worker"}


# --------------------------------------------------------------------- #
# Telemetry stream and status tail
# --------------------------------------------------------------------- #


def test_status_tail_replays_and_formats(ensemble_kwargs):
    with JobQueueServer() as server:
        with _workers(server.url, count=2):
            run_study_service(**ensemble_kwargs, shard_size=2, remote=_remote(server.url))
        total = server.telemetry.last_seq
        lines = []
        written = tail(server.url, after=0, limit=total, write=lines.append)
        assert written == total == len(lines)
        assert all("job=" in line for line in lines)
        assert any("enqueued" in line for line in lines)
        assert any("completed" in line for line in lines)
        raw = []
        tail(server.url, after=total - 1, limit=1, raw=True, write=raw.append)
        assert len(raw) == 1 and '"remote-telemetry"' in raw[0]


def test_sse_stream_resumes_after_sequence(ensemble_kwargs):
    with JobQueueServer() as server:
        server.telemetry.append("enqueued", "k1")
        server.telemetry.append("leased", "k1", worker="w0", attempt=1)
        lines = []
        tail(server.url, after=1, limit=1, write=lines.append)
        assert len(lines) == 1
        assert "leased" in lines[0] and "worker=w0" in lines[0]


# --------------------------------------------------------------------- #
# Result cache unit behavior
# --------------------------------------------------------------------- #


def test_result_cache_layers_and_counters(tmp_path):
    journal = tmp_path / "cache.jsonl"
    with ResultCache(journal) as cache:
        assert cache.lookup("missing") == (None, None)
        cache.put("k1", {"x": 1})
        assert cache.lookup("k1") == ({"x": 1}, "memory")
        assert (cache.hits, cache.misses) == (0, 0)  # lookups never count
        cache.count(hit=False)
        cache.count(hit=True)
        cache.count(hit=True)
        assert (cache.hits, cache.misses) == (2, 1)

    # A fresh cache over the same journal serves the entry durably, first
    # from the journal layer, then promoted to memory.
    with ResultCache(journal) as cache:
        assert cache.lookup("k1") == ({"x": 1}, "journal")
        assert cache.lookup("k1") == ({"x": 1}, "memory")
        assert "k1" in cache
        assert len(cache) == 1


def test_memory_only_cache_has_no_journal(tmp_path):
    cache = ResultCache()
    cache.put("k", {"v": 2})
    assert cache.lookup("k") == ({"v": 2}, "memory")
    assert len(cache) == 1
    cache.close()


def _fresh_interpreter(code):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return completed.stdout.split()


def test_import_repro_does_not_load_the_remote_route():
    loaded = _fresh_interpreter(
        """
        import sys
        import repro
        for name in sys.modules:
            if name in ("http.server", "http.client") or name.startswith("repro.service.remote"):
                print(name)
        """
    )
    assert loaded == []


def test_remote_names_resolve_on_first_use():
    resolved = _fresh_interpreter(
        """
        import repro, repro.service, repro.service.remote
        from repro import JobQueueServer, RemoteConfig, ResultCache
        from repro.service import run_worker
        for module in (repro, repro.service, repro.service.remote):
            for name in module.__all__:
                getattr(module, name)
        print(JobQueueServer.__module__, RemoteConfig.__module__)
        print(ResultCache.__module__, run_worker.__module__)
        """
    )
    assert resolved == [
        "repro.service.remote.server",
        "repro.service.remote.protocol",
        "repro.service.remote.cache",
        "repro.service.remote.worker",
    ]
    with pytest.raises(AttributeError):
        import repro

        repro.NoSuchName  # noqa: B018
