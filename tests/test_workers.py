"""The process layer (:mod:`repro.workers`) driven through the real
child loops of both start modes: a serve worker started by exec and a
shard worker started by fork."""

import os
import signal
import time

import pytest

from repro import workers
from repro.machine import ShardMachine
from repro.machine.shard_worker import LocalShard
from repro.workers import Worker, WorkerFailure, child_env
from repro.workloads import parallel_chain_graph

MODES = ["exec", "fork"]

#: per start mode: a request, and a second request with a distinct reply
REQUESTS = {
    "exec": ({"op": "ping"}, {"op": "nope"}),
    "fork": (("start",), ("finish",)),
}


def _is_first_reply(mode, reply):
    if mode == "exec":
        return reply["ok"] is True and reply["pid"] > 0
    tag, frontier = reply
    return tag == "ok" and len(frontier) == 3


def _is_second_reply(mode, reply):
    if mode == "exec":
        return reply["ok"] is False and "nope" in reply["error"]["message"]
    tag, state = reply
    return tag == "ok" and isinstance(state, dict)


def _shard_handler():
    graph = parallel_chain_graph(2, 3, 4)
    shard = LocalShard(0, graph)
    shard.machine = ShardMachine(
        graph, shard_index=0, n_shards=1, owner=dict.fromkeys(graph.cells, 0)
    )
    return shard


def _stopped(pid, timeout=5.0):
    """Wait until ``pid`` is really in the stopped state: ``SIGSTOP``
    only makes the signal pending, and a child that has not run since
    could still answer a request or take a later ``SIGTERM`` first."""
    give_up = time.monotonic() + timeout
    while time.monotonic() < give_up:
        with open(f"/proc/{pid}/stat") as stat:
            # the state field follows the parenthesised command name
            if stat.read().rsplit(")", 1)[1].split()[0] == "T":
                return True
        time.sleep(0.005)
    return False


def _gone(worker, timeout=10.0):
    give_up = time.monotonic() + timeout
    while worker.alive and time.monotonic() < give_up:
        time.sleep(0.01)
    return not worker.alive


@pytest.fixture
def start():
    """Start a worker in a given mode; everything started is closed at
    teardown, stopped children included."""
    made = []

    def _start(mode, key=None):
        if mode == "exec":
            worker = Worker.exec("repro.serve.worker", child_env())
            made.append(worker)
            # interpreter start-up is not part of any test's deadline
            worker.call({"op": "ping"}, workers.WARMUP_DEADLINE)
        else:
            worker = Worker.fork(_shard_handler(), key=key)
            made.append(worker)
        return worker

    yield _start
    for worker in made:
        try:
            os.kill(worker.pid, signal.SIGCONT)
        except ProcessLookupError:
            pass
        worker.close()
    workers.shutdown_worker_pool()


@pytest.mark.parametrize("mode", MODES)
class TestRequestReply:
    def test_round_trip(self, start, mode):
        worker = start(mode)
        first, second = REQUESTS[mode]
        assert _is_first_reply(mode, worker.call(first, 10.0))
        assert _is_second_reply(mode, worker.call(second, 10.0))

    def test_reply_queued_before_the_child_exits_is_delivered(
            self, start, mode):
        worker = start(mode)
        worker.post(REQUESTS[mode][0])
        assert worker.conn.poll(10.0)           # the reply is queued ...
        os.kill(worker.pid, signal.SIGKILL)
        assert _gone(worker)                    # ... and its sender dead
        assert _is_first_reply(mode, worker.wait(5.0))

    def test_reply_with_a_stale_seq_is_dropped(self, start, mode):
        worker = start(mode)
        first, second = REQUESTS[mode]
        worker.post(first)      # abandoned: its reply arrives first
        worker.post(second)
        assert _is_second_reply(mode, worker.wait(10.0))

    def test_sigkill_is_a_crash_with_the_exit_code(self, start, mode):
        worker = start(mode)
        os.kill(worker.pid, signal.SIGKILL)
        worker.post(REQUESTS[mode][0])
        with pytest.raises(WorkerFailure) as info:
            worker.wait(10.0)
        assert info.value.kind == "crash"
        assert info.value.exitcode == -signal.SIGKILL
        assert f"pid {worker.pid}" in info.value.detail

    def test_sigstop_is_a_hang_naming_pid_and_deadline(self, start, mode):
        worker = start(mode)
        os.kill(worker.pid, signal.SIGSTOP)
        assert _stopped(worker.pid)
        worker.post(REQUESTS[mode][0])
        began = time.monotonic()
        with pytest.raises(WorkerFailure) as info:
            worker.wait(0.3)
        assert time.monotonic() - began >= 0.3
        assert info.value.kind == "hang"
        assert info.value.exitcode is None
        assert f"pid {worker.pid}" in info.value.detail
        assert "0.30s" in info.value.detail
        assert worker.alive

    def test_close_escalates_to_sigkill(self, start, mode, monkeypatch):
        monkeypatch.setattr(workers, "_JOIN_TIMEOUT", 0.2)
        worker = start(mode)
        # a stopped child leaves SIGTERM pending; only SIGKILL ends it
        os.kill(worker.pid, signal.SIGSTOP)
        assert _stopped(worker.pid)
        worker.close()
        assert worker.exitcode == -signal.SIGKILL


class TestWarmPool:
    def test_reuse_by_key(self, start):
        worker = start("fork", key="a")
        workers.park(worker)
        assert workers.pooled_worker_count() == 1
        assert workers.unpark("b") is None
        assert workers.unpark("a") is worker
        assert workers.pooled_worker_count() == 0
        # the conversation continues where it left off
        assert _is_first_reply("fork", worker.call(("start",), 10.0))

    def test_a_keyless_worker_is_closed_not_parked(self, start):
        worker = start("fork")
        workers.park(worker)
        assert workers.pooled_worker_count() == 0
        assert not worker.alive

    def test_a_parked_worker_that_died_is_skipped(self, start):
        older, newer = start("fork", key="a"), start("fork", key="a")
        workers.park(older)
        workers.park(newer)
        os.kill(newer.pid, signal.SIGKILL)
        assert _gone(newer)
        assert workers.unpark("a") is older
        assert workers.pooled_worker_count() == 0

    def test_idle_workers_are_reaped(self, start, monkeypatch):
        worker = start("fork", key="a")
        workers.park(worker)
        monkeypatch.setattr(workers, "POOL_IDLE_TIMEOUT", 0.0)
        time.sleep(0.01)
        assert workers.unpark("b") is None
        assert workers.pooled_worker_count() == 0
        assert not worker.alive

    def test_the_oldest_is_evicted_beyond_the_cap(self, start, monkeypatch):
        monkeypatch.setattr(workers, "POOL_CAP", 2)
        first, second, third = (start("fork", key=k) for k in "abc")
        for worker in (first, second, third):
            workers.park(worker)
        assert workers.pooled_worker_count() == 2
        assert not first.alive
        assert workers.unpark("b") is second
        assert workers.unpark("c") is third
