"""The batch planner's linger rule, driven by a fake clock shared with
the admission queue."""

from types import SimpleNamespace

import pytest

from repro.serve.admission import AdmissionQueue
from repro.serve.scheduler import BatchPlanner, Dispatch

from .conftest import make_spec

#: the signature every ``make_spec`` job at its default size shares
SIG = make_spec("sig").signature()


def _planner_and_queue(capacity=8):
    now = [1000.0]

    def clock():
        return now[0]

    planner = BatchPlanner(max_batch=8, batch_wait=0.02, clock=clock)
    queue = AdmissionQueue(capacity=capacity, clock=clock)
    return now, planner, queue


def _observe(planner, seconds):
    planner.observe(Dispatch([SimpleNamespace(sig=SIG)]), seconds)


class TestLinger:
    def test_lone_job_lingers_while_every_worker_is_busy(self):
        now, planner, queue = _planner_and_queue()
        queue.offer(make_spec("a"))
        assert planner.plan(queue, idle=False) == []
        # a companion arrives within batch_wait: the pair keeps
        # lingering while it may grow, then leaves as one batch when
        # its first member has waited batch_wait
        now[0] += 0.01
        queue.offer(make_spec("b", seed=1))
        assert planner.plan(queue, idle=False) == []
        assert planner.wake_at == pytest.approx(1000.02)
        now[0] = planner.wake_at
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
        _observe(planner, 0.005)
        queue.offer(make_spec("a"))
        assert planner.plan(queue, idle=True) == []
        assert planner.wake_at == pytest.approx(now[0] + 0.005)
        now[0] += 0.006
        (dispatch,) = planner.plan(queue, idle=True)
        assert not dispatch.batched and dispatch.ids == ["a"]
        assert queue.depth == 0
        assert planner.wake_at == float("inf")

    def test_a_group_leaves_whole_at_batch_wait(self):
        # every member of a group lingers with its first: three jobs
        # queued at once all leave in the pass at +20 ms (short of a
        # min_batch of 4, they used to leave one by one, at +21, +43
        # and +65 ms)
        now, planner, queue = _planner_and_queue()
        for k in range(3):
            queue.offer(make_spec(f"j{k}", seed=k))
        assert planner.plan(queue, idle=False) == []
        now[0] += 0.0199
        assert planner.plan(queue, idle=False) == []
        now[0] = 1000.02
        dispatches = planner.plan(queue, idle=False)
        assert [d.ids for d in dispatches] == [["j0", "j1", "j2"]]
        assert queue.depth == 0

    def test_a_group_a_batch_would_make_late_leaves_as_singles(self):
        # one 50 ms dispatch would blow b's 40 ms deadline: the group
        # does not linger, and leaves as dispatches of one, tightest
        # deadline first
        now, planner, queue = _planner_and_queue()
        _observe(planner, 0.05)
        queue.offer(make_spec("a"))
        queue.offer(make_spec("b", seed=1, deadline=0.04))
        dispatches = planner.plan(queue, idle=True)
        assert [d.ids for d in dispatches] == [["b"], ["a"]]
        assert queue.depth == 0


class TestLanesFill:
    """Jobs offered 1 ms apart beside an idle worker whose dispatches
    were observed to take 3 ms."""

    @staticmethod
    def _burst(n):
        now, planner, queue = _planner_and_queue(capacity=16)
        _observe(planner, 0.003)
        start, left = now[0], []
        for k in range(n):
            queue.offer(make_spec(f"j{k}", seed=k))
            left += [(now[0] - start, d)
                     for d in planner.plan(queue, idle=True)]
            now[0] += 0.001
        last = now[0] - 0.001 - start
        while queue.depth:
            now[0] = planner.wake_at
            left += [(now[0] - start, d)
                     for d in planner.plan(queue, idle=True)]
        return last, left

    def test_sixteen_jobs_make_two_batches_of_eight(self):
        _, left = self._burst(16)
        assert [d.ids for _, d in left] == [
            [f"j{k}" for k in range(8)], [f"j{k}" for k in range(8, 16)]
        ]
        # each leaves the moment it fills
        assert [at for at, _ in left] == pytest.approx([0.007, 0.015])

    def test_twelve_jobs_leave_as_eight_then_four_after_one_estimate(
            self):
        last, left = self._burst(12)
        assert [d.ids for _, d in left] == [
            [f"j{k}" for k in range(8)], [f"j{k}" for k in range(8, 12)]
        ]
        # the four go one dispatch estimate after the last arrival, not
        # batch_wait after their first member (+8 ms + 20 ms)
        assert left[1][0] == pytest.approx(last + 0.003)
