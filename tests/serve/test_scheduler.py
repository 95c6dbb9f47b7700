"""The batch planner's linger rule, driven by a fake clock shared with
the admission queue."""

import pytest

from repro.serve import jobs
from repro.serve.admission import AdmissionQueue
from repro.serve.scheduler import BatchPlanner

from .conftest import make_spec


def _planner_and_queue():
    now = [1000.0]

    def clock():
        return now[0]

    planner = BatchPlanner(min_batch=2, max_batch=8, batch_wait=0.02,
                           clock=clock)
    queue = AdmissionQueue(capacity=8, clock=clock)
    return now, planner, queue


class TestLinger:
    def test_lone_job_lingers_while_every_worker_is_busy(self):
        now, planner, queue = _planner_and_queue()
        queue.offer(make_spec("a"))
        assert planner.plan(queue, idle=False) == []
        # a companion arrives within batch_wait: one batch of two
        now[0] += 0.01
        queue.offer(make_spec("b", seed=1))
        (dispatch,) = planner.plan(queue, idle=False)
        assert dispatch.batched and dispatch.ids == ["a", "b"]

    def test_lone_job_goes_after_batch_wait(self):
        now, planner, queue = _planner_and_queue()
        queue.offer(make_spec("a"))
        assert planner.plan(queue, idle=False) == []
        now[0] += 0.021
        (dispatch,) = planner.plan(queue, idle=False)
        assert not dispatch.batched and dispatch.ids == ["a"]

    def test_lone_job_lingers_while_busy_asks_for_a_pass_at_its_limit(
            self):
        now, planner, queue = _planner_and_queue()
        queue.offer(make_spec("a"))
        assert planner.plan(queue, idle=False) == []
        assert planner.wake_at == pytest.approx(now[0] + 0.02)

    def test_beside_an_idle_worker_linger_at_most_a_serial_run(self):
        now, planner, queue = _planner_and_queue()
        spec = make_spec("a")
        planner.costs.observe(jobs.signature(spec), 0.005)
        queue.offer(spec)
        assert planner.plan(queue, idle=True) == []
        assert planner.wake_at == pytest.approx(now[0] + 0.005)
        now[0] += 0.006
        (dispatch,) = planner.plan(queue, idle=True)
        assert not dispatch.batched and dispatch.ids == ["a"]
        assert queue.depth == 0
        assert planner.wake_at == float("inf")
