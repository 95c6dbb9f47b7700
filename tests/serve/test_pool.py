"""Worker pool fault isolation: kill and hang cost one worker (not the
pool), respawn restores capacity, warmup keeps cold starts from being
mistaken for hangs."""

import asyncio

import pytest

from repro.serve.pool import WorkerFailure, WorkerPool
from repro.serve.protocol import MAX_LINE_BYTES, encode_line
from repro.workers import Worker

from .conftest import make_spec


def _job_payload(spec, inject=None):
    return {"op": "job", "job": spec.to_dict(), "inject": inject}


def _run(coro):
    return asyncio.run(coro)


async def _with_pool(workers, body):
    pool = WorkerPool(workers=workers, call_deadline=30.0)
    await pool.start()
    try:
        return await body(pool)
    finally:
        await pool.stop()


class TestPool:
    def test_ping_and_job_round_trip(self):
        async def body(pool):
            assert (await pool.execute({"op": "ping"}, 30.0))["ok"]
            reply = await pool.execute(
                _job_payload(make_spec("a", m=4)), 30.0
            )
            assert reply["ok"]
            assert "X" in reply["result"]["streams"]
        _run(_with_pool(1, body))

    def test_kill_is_crash_and_pool_recovers(self):
        async def body(pool):
            with pytest.raises(WorkerFailure) as info:
                await pool.execute(
                    _job_payload(make_spec("a", m=4),
                                 inject={"kind": "kill"}),
                    30.0,
                )
            assert info.value.kind == "crash"
            assert pool.respawns == 1
            # next call blocks until the respawned worker re-warms,
            # then succeeds: capacity came back
            reply = await pool.execute(
                _job_payload(make_spec("b", m=4)), 60.0
            )
            assert reply["ok"]
        _run(_with_pool(1, body))

    def test_hang_detected_by_deadline(self):
        async def body(pool):
            with pytest.raises(WorkerFailure) as info:
                await pool.execute(
                    _job_payload(make_spec("a", m=4),
                                 inject={"kind": "hang"}),
                    0.8,
                )
            assert info.value.kind == "hang"
            assert pool.respawns == 1
        _run(_with_pool(1, body))

    def test_failure_isolated_to_one_worker(self):
        async def body(pool):
            with pytest.raises(WorkerFailure):
                await pool.execute(
                    _job_payload(make_spec("a", m=4),
                                 inject={"kind": "kill"}),
                    30.0,
                )
            # the second worker is untouched and serves immediately
            reply = await pool.execute(
                _job_payload(make_spec("b", m=4)), 30.0
            )
            assert reply["ok"]
            assert pool.alive >= 1
        _run(_with_pool(2, body))

    def test_call_deadline_caps_job_timeout(self):
        async def body(pool):
            pool.call_deadline = 0.7
            with pytest.raises(WorkerFailure) as info:
                # the job offers a huge budget; the pool's own hang
                # ceiling still applies
                await pool.execute(
                    _job_payload(make_spec("a", m=4),
                                 inject={"kind": "hang"}),
                    1e9,
                )
            assert info.value.kind == "hang"
            assert "0.70s" in info.value.detail
        _run(_with_pool(1, body))


class TestPoolCapacity:
    def test_reply_over_8_mib_arrives_whole(self):
        # the rejection quotes the op name with repr, which doubles
        # every backslash: a 6 MiB request line earns a 12 MiB reply
        op = "\\" * (3 << 20)
        assert len(encode_line({"op": op})) < MAX_LINE_BYTES

        async def body(pool):
            reply = await pool.execute({"op": op}, 30.0)
            assert len(encode_line(reply)) > MAX_LINE_BYTES
            assert reply["ok"] is False
            assert reply["error"]["message"] == f"unknown op {op!r}"
            assert pool.respawns == 0
            assert pool.alive == pool.size
            assert (await pool.execute({"op": "ping"}, 30.0))["ok"]
        _run(_with_pool(1, body))

    def test_any_error_awaiting_a_reply_replaces_the_worker(
            self, monkeypatch):
        real_call = Worker.call
        failures = []

        def call_failing_once(worker, request, deadline):
            if not failures:
                failures.append(worker.pid)
                raise ValueError("reply could not be read")
            return real_call(worker, request, deadline)

        async def body(pool):
            monkeypatch.setattr(Worker, "call", call_failing_once)
            with pytest.raises(WorkerFailure) as info:
                await pool.execute({"op": "ping"}, 30.0)
            assert info.value.kind == "crash"
            assert "ValueError" in info.value.detail
            assert pool.respawns == 1
            # the slot comes back with a new worker, never the old one
            reply = await pool.execute({"op": "ping"}, 60.0)
            assert reply["ok"] and reply["pid"] != failures[0]
            assert pool.alive == pool.size
        _run(_with_pool(1, body))
