"""Chaos acceptance: under a mixed load with injected kills and hangs,
every accepted job ends in exactly one of {bit-identical result, typed
deadline error, typed retries-exhausted error}; the daemon never
exits; a hot restart loses zero accepted jobs and re-admits each
exactly once."""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.client import connect
from repro.serve import jobs
from repro.serve.admission import JOURNAL_NAME
from repro.serve.protocol import JobRejected, ServeError
from repro.serve.server import PipelineServer, ServeConfig

from .conftest import hang_fault, kill_fault, make_spec

REPRO_ROOT = str(Path(repro.__file__).resolve().parent.parent)


def _daemon_env():
    env = dict(os.environ)
    parts = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    if REPRO_ROOT not in parts:
        env["PYTHONPATH"] = os.pathsep.join([REPRO_ROOT] + parts)
    return env


def _wait_for_socket(path, budget=90.0):
    deadline = time.monotonic() + budget
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return
        time.sleep(0.2)
    raise AssertionError(f"daemon socket {path} never appeared")


def _request_with_retries(sock_path, op, budget=120.0, **fields):
    """One op against a daemon that may be mid-crash/restart."""
    deadline = time.monotonic() + budget
    last = None
    while time.monotonic() < deadline:
        try:
            with connect(sock_path, timeout=60) as client:
                return client.request(op, **fields)
        except JobRejected:
            raise  # typed rejection: retrying unchanged cannot help
        except (ServeError, OSError) as exc:
            last = exc
            time.sleep(0.5)
    raise AssertionError(f"op {op!r} never succeeded: {last}")


class TestChaosSoak:
    def test_soak_every_job_terminal_and_typed(self, tmp_path):
        specs, doomed, late = [], [], []
        for k in range(10):                     # clean, batchable
            specs.append(make_spec(f"clean6-{k}", m=6, seed=k))
        for k in range(5):                      # second signature
            specs.append(make_spec(f"clean7-{k}", m=7, seed=k))
        for k in range(3):                      # lose first attempt
            specs.append(make_spec(f"kill-{k}", m=6, seed=20 + k,
                                   faults=kill_fault(0)))
        specs.append(make_spec("hang-0", m=6, seed=30,
                               faults=hang_fault(0)))
        for k in range(2):                      # lose every attempt
            s = make_spec(f"doomed-{k}", m=6, seed=40 + k)
            s.faults = {"schema": 2, "shard_faults": [
                {"shard": a, "cycle": 0, "kind": "kill"}
                for a in range(6)
            ]}
            specs.append(s)
            doomed.append(s.id)
        s = make_spec("late-0", m=6, seed=50, deadline=1.0,
                      faults=hang_fault(0))
        specs.append(s)
        late.append(s.id)

        reference = {
            s.id: jobs.execute_serial(s)
            for s in specs if s.id.startswith("clean")
        }

        config = ServeConfig(
            socket=str(tmp_path / "serve.sock"),
            directory=str(tmp_path / "state"),
            workers=2, capacity=64, default_deadline=60.0,
            max_retries=2, hang_deadline=2.0,
            max_batch=8, batch_wait=0.05,
        )

        async def body():
            server = PipelineServer(config)

            async def record(job_id):
                _, data = await server._await_record(job_id, 120.0)
                return json.loads(data)

            await server.start()
            try:
                for spec in specs:
                    server.admit(spec.to_dict())
                records = {s.id: await record(s.id) for s in specs}
                # the daemon survived everything: still accepting
                extra = make_spec("after-the-storm", m=6, seed=60)
                server.admit(extra.to_dict())
                records[extra.id] = await record(extra.id)
                return records, server.stats.to_dict()
            finally:
                await server.stop()

        records, stats = asyncio.run(body())

        for job_id, record in records.items():
            if job_id in doomed:
                assert record["ok"] is False, job_id
                assert record["error"]["code"] == "retries_exhausted"
                assert record["attempts"] == 3
            elif job_id in late:
                assert record["ok"] is False, job_id
                assert record["error"]["code"] == "deadline"
            else:
                assert record["ok"] is True, (job_id, record)
                if job_id in reference:
                    assert record["result"]["streams"] == \
                        reference[job_id]["streams"], job_id
        assert stats["accepted"] == len(specs) + 1
        failed = (stats["failed_deadline"] + stats["failed_retries"]
                  + stats["failed_execution"])
        assert stats["completed"] + failed == len(specs) + 1
        assert stats["failed_retries"] == len(doomed)
        assert stats["failed_deadline"] == len(late)
        assert stats["batched"] >= 2     # batching actually engaged
        assert stats["worker_respawns"] >= 3


class TestHotRestart:
    def test_supervised_crash_readmits_exactly_once(self, tmp_path):
        sock = str(tmp_path / "serve.sock")
        state_dir = tmp_path / "state"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", sock, "--dir", str(state_dir),
             "--workers", "2", "--hang-deadline", "5",
             "--supervised", "--max-restarts", "4",
             "--crash-after-accepts", "3"],
            env=_daemon_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            _wait_for_socket(sock)
            job_ids = []
            for k in range(5):
                spec = make_spec(f"hr-{k}", m=6, seed=k)
                try:
                    _request_with_retries(sock, "submit",
                                          job=spec.to_dict())
                except JobRejected as exc:
                    # the crash can land between journaling the accept
                    # and acking it; the retried submit then sees a
                    # duplicate -- which is the exactly-once guarantee
                    # doing its job, not a lost submission
                    if "already" not in str(exc):
                        raise
                job_ids.append(spec.id)
            records = {
                jid: _request_with_retries(sock, "wait", id=jid)
                for jid in job_ids
            }
            stats = _request_with_retries(sock, "stats")
            _request_with_retries(sock, "shutdown", budget=30.0)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        assert all(r["ok"] for r in records.values())
        # the crash hit after accept #3: those jobs came back from the
        # journal, none were lost, none ran twice
        assert stats["readmitted"] >= 1
        accepts, dones = {}, {}
        journal = state_dir / JOURNAL_NAME
        for line in journal.read_text().splitlines():
            entry = json.loads(line)
            if entry["event"] == "accept":
                jid = entry["request"]["job"]["id"]
                accepts[jid] = accepts.get(jid, 0) + 1
            else:
                dones[entry["id"]] = dones.get(entry["id"], 0) + 1
        assert accepts == {jid: 1 for jid in job_ids}
        assert dones == {jid: 1 for jid in job_ids}


class TestLiveSnapshot:
    def test_sigusr1_snapshots_without_dropping_service(self, tmp_path):
        sock = str(tmp_path / "serve.sock")
        state_dir = tmp_path / "state"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", sock, "--dir", str(state_dir),
             "--workers", "1", "--hang-deadline", "5"],
            env=_daemon_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            _wait_for_socket(sock)
            first = make_spec("snap-0", m=6, seed=0)
            record = _request_with_retries(
                sock, "submit_wait", job=first.to_dict()
            )
            assert record["ok"]
            proc.send_signal(signal.SIGUSR1)
            state_path = state_dir / "serve-state.json"
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if state_path.exists():
                    break
                time.sleep(0.2)
            state = json.loads(state_path.read_text())
            assert state["schema"] == 1
            assert state["accepts"] == 1
            # service continued across the snapshot
            second = make_spec("snap-1", m=6, seed=1)
            record = _request_with_retries(
                sock, "submit_wait", job=second.to_dict()
            )
            assert record["ok"]
            _request_with_retries(sock, "shutdown", budget=30.0)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestGracefulStop:
    def test_shutdown_with_a_live_connection_prints_no_traceback(
            self, tmp_path):
        # a connection still open at shutdown used to be cancelled in
        # readline, and Python 3.11 logged its CancelledError
        sock = str(tmp_path / "serve.sock")
        spec = make_spec("x")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", sock, "--workers", "1"],
            env=_daemon_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            _wait_for_socket(sock)
            with connect(sock, timeout=60) as idle, \
                    connect(sock, timeout=60) as client:
                idle.healthz()
                record = client.submit_and_wait(
                    spec.source, params=spec.params, inputs=spec.inputs
                )
                assert record["ok"]
                client.shutdown()
                _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0
        assert b"Traceback" not in err, err.decode()
        assert b"CancelledError" not in err, err.decode()
