"""In-process daemon behavior: batching with bit-identity, poison-batch
disbanding, typed deadline / retries-exhausted / overload outcomes,
observability ops.

Each test drives a real :class:`PipelineServer` (real worker
subprocesses) inside ``asyncio.run``; ops go through ``_dispatch_op``
exactly as a socket connection would deliver them.
"""

import asyncio
import json
import os
import signal

import pytest

from repro.serve import jobs
from repro.serve.protocol import JobRejected, ServerOverloaded, encode_line
from repro.serve.server import PipelineServer, ServeConfig
from repro.workers import Worker

from .conftest import (
    DIV_SOURCE,
    hang_fault,
    kill_fault,
    make_spec,
    slow_fault,
)


def _config(tmp_path, **overrides):
    kw = dict(
        socket=str(tmp_path / "serve.sock"),
        directory=str(tmp_path / "state"),
        workers=2,
        capacity=64,
        default_deadline=30.0,
        max_retries=2,
        hang_deadline=3.0,
        min_batch=2,
        max_batch=8,
        batch_wait=0.05,
    )
    kw.update(overrides)
    return ServeConfig(**kw)


async def _with_server(config, body):
    server = PipelineServer(config)
    await server.start()
    try:
        return await body(server)
    finally:
        await server.stop()


def _submit(server, spec):
    return server.admit(spec.to_dict())


async def _record(server, job_id, timeout=90.0):
    return await server._await_record(job_id, timeout)


class TestBatching:
    def test_batched_results_bit_identical_to_serial(self, tmp_path):
        specs = [make_spec(f"j{k}", m=6, seed=k) for k in range(4)]
        reference = {s.id: jobs.execute_serial(s) for s in specs}

        async def body(server):
            for spec in specs:
                _submit(server, spec)
            return [await _record(server, s.id) for s in specs]

        records = asyncio.run(_with_server(_config(tmp_path), body))
        assert all(r["ok"] for r in records)
        assert all(r["batched"] for r in records)
        for spec, record in zip(specs, records):
            assert record["result"]["streams"] == \
                reference[spec.id]["streams"]
            assert record["result"]["batch"] == 4
            assert record["attempts"] == 1

    def test_incompatible_signatures_do_not_batch(self, tmp_path):
        # different m -> different signature -> no shared loop
        a, b = make_spec("a", m=6), make_spec("b", m=7)

        async def body(server):
            _submit(server, a)
            _submit(server, b)
            return [await _record(server, s.id) for s in (a, b)]

        records = asyncio.run(_with_server(_config(tmp_path), body))
        assert all(r["ok"] for r in records)
        assert not any(r["batched"] for r in records)

    def test_min_batch_one_runs_a_lone_job_alone(self, tmp_path):
        # the planner's "batch" of one is a dispatch of one, not a
        # batch the worker refuses
        spec = make_spec("lone", m=6)

        async def body(server):
            _submit(server, spec)
            return await _record(server, spec.id), server.stats.batches

        record, batches = asyncio.run(
            _with_server(_config(tmp_path, min_batch=1), body)
        )
        assert record["ok"] and record["batched"] is False
        assert record["result"] == jobs.execute_serial(spec)
        assert batches == 0


class TestFaultIsolation:
    def test_poison_batch_disbands_and_members_recover(self, tmp_path):
        specs = [make_spec(f"j{k}", m=6, seed=k) for k in range(3)]
        specs[1].faults = kill_fault(0)  # kills the batch's worker
        reference = {s.id: jobs.execute_serial(s) for s in specs}

        async def body(server):
            for spec in specs:
                _submit(server, spec)
            records = [await _record(server, s.id) for s in specs]
            return records, server.pool.respawns, server.stats.to_dict()

        records, respawns, stats = asyncio.run(
            _with_server(_config(tmp_path), body)
        )
        assert all(r["ok"] for r in records)
        # the batch attempt was lost; every member retried alone
        assert all(r["attempts"] == 2 for r in records)
        assert not any(r["batched"] for r in records)
        assert respawns >= 1
        assert stats["batches"] == 1
        assert stats["retries"] == 3   # one per member, for the batch
        for spec, record in zip(specs, records):
            assert record["result"]["streams"] == \
                reference[spec.id]["streams"]

    def test_a_failing_member_does_not_fail_its_batch(self, tmp_path):
        specs = [make_spec(f"j{k}", source=DIV_SOURCE, seed=k)
                 for k in range(4)]
        specs[2].inputs["B"][2] = 0.0   # a zero divisor in one member
        reference = {s.id: jobs.execute_serial(s)
                     for s in specs if s.id != "j2"}

        async def body(server):
            for spec in specs:
                _submit(server, spec)
            return ([await _record(server, s.id) for s in specs],
                    server.stats.batches)

        records, batches = asyncio.run(
            _with_server(_config(tmp_path, workers=1), body)
        )
        assert batches >= 1
        poison = records[2]
        assert poison["ok"] is False and poison["attempts"] == 1
        assert poison["error"]["code"] == "execution_error"
        assert poison["error"]["error_type"] == "SimulationError"
        assert "division by zero" in poison["error"]["message"]
        for record in records[:2] + records[3:]:
            assert record["ok"] and record["attempts"] == 1
            assert record["result"]["streams"] == \
                reference[record["id"]]["streams"]

    def test_failed_rewarm_is_retried_not_handed_to_a_job(
            self, tmp_path, monkeypatch):
        # the first replacement worker dies before answering its
        # warm-up ping; the pool must start another rather than hand
        # the dead one to the next attempt and charge that job for it
        real_exec = Worker.exec
        spawned = []

        def exec_dying_once(module, env=None):
            worker = real_exec(module, env)
            spawned.append(worker)
            if len(spawned) == 2:
                os.kill(worker.pid, signal.SIGKILL)
            return worker

        monkeypatch.setattr(Worker, "exec", exec_dying_once)
        first = make_spec("first", m=6)
        first.faults = kill_fault(0)
        second = make_spec("second", m=6, seed=1)

        async def body(server):
            _submit(server, first)
            one = await _record(server, first.id)
            _submit(server, second)
            two = await _record(server, second.id)
            return one, two, server.pool.respawns

        one, two, respawns = asyncio.run(
            _with_server(_config(tmp_path, workers=1), body)
        )
        assert one["ok"] and one["attempts"] == 2   # only its own kill
        assert two["ok"] and two["attempts"] == 1
        assert respawns == 2                        # kill + failed warm-up
        assert len(spawned) == 3

    def test_retries_exhausted_is_typed_never_silent(self, tmp_path):
        spec = make_spec("doomed", m=6)
        spec.faults = {"schema": 2, "shard_faults": [
            {"shard": k, "cycle": 0, "kind": "kill"} for k in range(5)
        ]}

        async def body(server):
            _submit(server, spec)
            record = await _record(server, spec.id)
            return record, server.stats.quarantined_jobs

        record, quarantined = asyncio.run(
            _with_server(_config(tmp_path, max_retries=2), body)
        )
        assert record["ok"] is False
        assert record["error"]["code"] == "retries_exhausted"
        assert record["attempts"] == 3  # 1 try + 2 retries
        assert record["error"]["reason"]
        assert quarantined == 1

    def test_hung_job_hits_deadline_typed(self, tmp_path):
        spec = make_spec("stuck", m=6, deadline=1.0,
                         faults=hang_fault(0))

        async def body(server):
            _submit(server, spec)
            return await _record(server, spec.id)

        record = asyncio.run(_with_server(_config(tmp_path), body))
        assert record["ok"] is False
        assert record["error"]["code"] == "deadline"
        assert record["error"]["stage"] in ("running", "retrying")
        assert record["error"]["elapsed"] >= 1.0


class TestShutdown:
    def test_stop_ends_a_dispatcher_cancelled_as_it_wakes(self, tmp_path):
        # a long batch_wait keeps the dispatcher's tick out of the way
        config = _config(tmp_path, workers=1, batch_wait=10.0)

        async def body():
            server = PipelineServer(config)
            await server.start()
            await asyncio.sleep(0.05)   # the dispatcher waits on _wake
            loop = asyncio.get_running_loop()
            # a swallowed cancel would leave stop() waiting: repeat it
            loop.call_later(5.0, server._dispatcher.cancel)
            started = loop.time()
            server._wake.set()
            # the dispatcher is due to resume when stop() cancels it
            for _ in range(2):
                await asyncio.sleep(0)
            await server.stop()
            return loop.time() - started

        assert asyncio.run(body()) < 5.0


class TestBackpressure:
    def test_overload_sheds_typed_with_retry_after(self, tmp_path):
        config = _config(tmp_path, capacity=2, workers=1,
                         min_batch=99)  # serial only

        async def body(server):
            _submit(server, make_spec("slow", m=6,
                                      faults=slow_fault(1.0)))
            await asyncio.sleep(0.3)  # let it dispatch (inflight=1)
            _submit(server, make_spec("queued", m=6))
            with pytest.raises(ServerOverloaded) as info:
                _submit(server, make_spec("shed", m=6))
            # the shed job was never admitted: no record, no journal
            with pytest.raises(JobRejected, match="unknown job id"):
                await _record(server, "shed", timeout=0.1)
            records = [await _record(server, jid)
                       for jid in ("slow", "queued")]
            return info.value, records, server.stats.to_dict()

        err, records, stats = asyncio.run(_with_server(config, body))
        assert err.retryable
        assert err.retry_after > 0
        assert err.extras["capacity"] == 2
        assert all(r["ok"] for r in records)  # accepted jobs unharmed
        assert stats["shed"] == 1
        assert stats["accepted"] == 2


class TestObservability:
    def test_ops_and_multitenant_stats(self, tmp_path):
        a = make_spec("a", m=6, tenant="acme")
        b = make_spec("b", m=6, tenant="zeta", faults=kill_fault(0))

        async def body(server):
            sub = await server._dispatch_op(
                "submit", {"op": "submit", "job": a.to_dict()}
            )
            assert sub["ok"] and sub["result"]["id"] == "a"
            _submit(server, b)
            await _record(server, "a")
            await _record(server, "b")
            health = await server._dispatch_op(
                "healthz", {"op": "healthz"}
            )
            stats = await server._dispatch_op("stats", {"op": "stats"})
            wait_again = await server._dispatch_op(
                "wait", {"op": "wait", "id": "a"}
            )
            with pytest.raises(JobRejected, match="already completed"):
                _submit(server, make_spec("a", m=6, tenant="acme"))
            return health, stats, wait_again

        health, stats, wait_again = asyncio.run(
            _with_server(_config(tmp_path), body)
        )
        h = health["result"]
        assert h["status"] == "ok" and h["accepting"]
        assert h["workers"]["size"] == 2
        s = stats["result"]
        assert set(s["tenants"]) >= {"acme", "zeta"}
        assert s["tenants"]["acme"]["completed"] == 1
        assert s["tenants"]["zeta"]["retries"] >= 1
        assert s["latency_p99"] is not None
        # a finished job's record is replayable, not re-executed
        assert wait_again["ok"] and wait_again["result"]["id"] == "a"

    def test_unknown_op_rejected(self, tmp_path):
        async def body(server):
            reply = await server._handle_request(
                b'{"op": "frobnicate"}\n'
            )
            return reply

        reply = asyncio.run(_with_server(_config(tmp_path), body))
        assert reply["ok"] is False
        assert reply["result"]["error"]["code"] == "rejected"

    def test_malformed_fault_plan_keeps_the_connection(self, tmp_path):
        # such a plan used to escape as a raw TypeError that closed the
        # connection: the client read EOF and its next request failed
        async def body(server):
            reader, writer = await asyncio.open_unix_connection(
                server.config.socket
            )
            replies = []
            for faults in ({"drop_result": "x"}, [1]):
                job = {"id": "a", "source": "x", "faults": faults}
                writer.write(encode_line({"op": "submit", "job": job}))
                replies.append(json.loads(await reader.readline()))
            writer.write(encode_line({"op": "healthz"}))
            replies.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            return replies

        *rejected, health = asyncio.run(
            _with_server(_config(tmp_path), body)
        )
        for reply in rejected:
            assert reply["ok"] is False
            assert reply["result"]["error"]["code"] == "rejected"
            assert "bad fault plan" in reply["result"]["error"]["message"] \
                or "faults must be" in reply["result"]["error"]["message"]
        assert health["ok"] and health["result"]["status"] == "ok"
