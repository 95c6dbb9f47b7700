"""Bounded admission and the exactly-once journal.

All unit-level: a fake clock and inflight counter drive the queue;
journal replay is exercised against real files including torn tails
and damaged middles.
"""

import json

import pytest

from repro.serve import jobs
from repro.serve.admission import (
    JOURNAL_NAME,
    AdmissionQueue,
    JobJournal,
)
from repro.serve.protocol import JobRejected, ServerOverloaded
from repro.serve.scheduler import BatchPlanner

from .conftest import make_spec


def _queue(tmp_path, capacity=3, inflight=lambda: 0, journal=True,
           **kw):
    j = JobJournal(tmp_path / JOURNAL_NAME) if journal else None
    return AdmissionQueue(capacity=capacity, journal=j,
                          inflight=inflight, **kw)


class TestBoundedAdmission:
    def test_accept_then_shed_with_retry_after(self, tmp_path):
        q = _queue(tmp_path, capacity=2)
        q.offer(make_spec("a"))
        q.offer(make_spec("b"))
        with pytest.raises(ServerOverloaded) as info:
            q.offer(make_spec("c"))
        err = info.value
        assert err.retryable
        assert err.retry_after > 0
        assert err.extras["queue_depth"] == 2
        assert err.extras["capacity"] == 2
        # shed jobs are never journaled
        pending, _, _ = JobJournal.replay(tmp_path / JOURNAL_NAME)
        assert [s.id for s in pending] == ["a", "b"]

    def test_bound_covers_inflight_work(self, tmp_path):
        # the dispatcher drains the queue eagerly, so the bound must
        # count dispatched-but-unfinished jobs too
        q = _queue(tmp_path, capacity=3, inflight=lambda: 2)
        q.offer(make_spec("a"))
        with pytest.raises(ServerOverloaded):
            q.offer(make_spec("b"))

    def test_retry_after_scales_with_backlog(self, tmp_path):
        q = _queue(tmp_path, capacity=100,
                   estimate_job_seconds=lambda: 0.5)
        q.workers = 2
        for i in range(10):
            q.offer(make_spec(f"j{i}"))
        assert q.retry_after() == pytest.approx(10 * 0.5 / 2)

    def test_duplicate_pending_id_rejected(self, tmp_path):
        q = _queue(tmp_path)
        q.offer(make_spec("a"))
        with pytest.raises(JobRejected, match="already accepted"):
            q.offer(make_spec("a"))

    def test_completed_id_rejected_with_pointer_to_wait(self, tmp_path):
        q = _queue(tmp_path)
        state = q.offer(make_spec("a"))
        q.take_matching(lambda s: True, limit=1)
        q.finish(state, {"id": "a", "ok": True})
        with pytest.raises(JobRejected, match="already completed"):
            q.offer(make_spec("a"))

    def test_take_matching_preserves_fifo_of_rest(self, tmp_path):
        q = _queue(tmp_path, capacity=10)
        for i in range(5):
            q.offer(make_spec(f"j{i}", tenant="even" if i % 2 == 0
                              else "odd"))
        taken = q.take_matching(
            lambda s: s.spec.tenant == "odd", limit=10
        )
        assert [s.spec.id for s in taken] == ["j1", "j3"]
        assert q.pending_ids() == ["j0", "j2", "j4"]

    def test_deadline_defaults_and_overrides(self, tmp_path):
        now = [100.0]
        q = _queue(tmp_path, clock=lambda: now[0],
                   default_deadline=30.0)
        a = q.offer(make_spec("a"))
        b = q.offer(make_spec("b", deadline=2.0))
        assert a.deadline == pytest.approx(130.0)
        assert b.deadline == pytest.approx(102.0)
        now[0] = 101.5
        assert b.remaining(now[0]) == pytest.approx(0.5)

    def test_completed_map_is_bounded(self, tmp_path):
        q = _queue(tmp_path, capacity=2, journal=False)
        for i in range(20):
            state = q.offer(make_spec(f"j{i}"))
            q.take_matching(lambda s: True, limit=1)
            q.finish(state, {"id": f"j{i}", "ok": True})
        assert len(q.completed) <= 4 * q.capacity


class TestJobFacts:
    def test_signature_is_hashed_once_per_job_at_admission(
            self, monkeypatch):
        real = jobs.signature
        calls = []

        def counting(spec):
            calls.append(spec.id)
            return real(spec)

        monkeypatch.setattr(jobs, "signature", counting)
        now = [1000.0]
        planner = BatchPlanner(min_batch=2, max_batch=8, batch_wait=1.0,
                               clock=lambda: now[0])
        queue = AdmissionQueue(capacity=8, clock=lambda: now[0])
        # four signatures: each job lingers alone, four passes long
        for m in (4, 5, 6, 7):
            queue.offer(make_spec(f"m{m}", m=m))
        for _ in range(4):
            assert planner.plan(queue) == []
            now[0] += 0.3
        dispatches = planner.plan(queue)
        assert [d.ids for d in dispatches] == [["m4"], ["m5"], ["m6"],
                                               ["m7"]]
        planner.observe(dispatches[0], 0.01)
        assert calls == ["m4", "m5", "m6", "m7"]


class TestJournalReplay:
    def test_round_trip_pending_and_completed(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        j = JobJournal(path)
        j.accept(make_spec("a"))
        j.accept(make_spec("b"))
        j.accept(make_spec("c"))
        j.done("b", {"id": "b", "ok": True, "result": {"x": 1}})
        j.close()
        pending, completed, skipped = JobJournal.replay(path)
        assert [s.id for s in pending] == ["a", "c"]
        assert completed["b"]["result"] == {"x": 1}
        assert skipped == 0

    def test_missing_journal_is_empty(self, tmp_path):
        pending, completed, skipped = JobJournal.replay(
            tmp_path / "nope.jsonl"
        )
        assert (pending, dict(completed), skipped) == ([], {}, 0)

    def test_torn_tail_is_dropped_silently(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        j = JobJournal(path)
        j.accept(make_spec("a"))
        j.close()
        whole = json.dumps(
            {"event": "accept", "job": make_spec("b").to_dict()}
        )
        with open(path, "ab") as fh:
            fh.write(whole[: len(whole) // 2].encode())  # crash mid-append
        pending, _, _ = JobJournal.replay(path)
        assert [s.id for s in pending] == ["a"]

    def test_untorn_final_line_without_newline_still_counts(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        line = json.dumps(
            {"event": "accept", "job": make_spec("a").to_dict()}
        )
        path.write_bytes(line.encode())  # no trailing newline
        pending, _, _ = JobJournal.replay(path)
        assert [s.id for s in pending] == ["a"]

    @pytest.mark.parametrize("newline", [b"\n", b""],
                             ids=["newline", "no-newline"])
    @pytest.mark.parametrize("entry", [{"event": "frobnicate"}, [1]],
                             ids=["unknown-event", "not-an-object"])
    def test_final_line_of_no_known_event_is_skipped(self, tmp_path,
                                                     entry, newline):
        # with or without its newline, the last line parses like any
        # other: a valid line naming no known event counts as skipped
        path = tmp_path / JOURNAL_NAME
        j = JobJournal(path)
        j.accept(make_spec("a"))
        j.close()
        with open(path, "ab") as fh:
            fh.write(json.dumps(entry).encode() + newline)
        pending, _, skipped = JobJournal.replay(path)
        assert [s.id for s in pending] == ["a"]
        assert skipped == 1

    def test_damaged_middle_line_skipped_not_fatal(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        j = JobJournal(path)
        j.accept(make_spec("a"))
        j.close()
        with open(path, "ab") as fh:
            fh.write(b"\x00garbage{{{\n")
        j = JobJournal(path)
        j.accept(make_spec("c"))
        j.close()
        pending, _, skipped = JobJournal.replay(path)
        assert [s.id for s in pending] == ["a", "c"]
        assert skipped == 1

    def test_readmitted_offer_does_not_rejournal(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        j = JobJournal(path)
        j.accept(make_spec("a"))
        j.close()
        pending, completed, _ = JobJournal.replay(path)
        q = AdmissionQueue(capacity=4, journal=JobJournal(path))
        q.completed.update(completed)
        for spec in pending:
            q.offer(spec, readmitted=True)
        q.journal.close()
        # exactly one accept line for "a" even after a replay cycle
        accepts = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if json.loads(line)["event"] == "accept"
        ]
        assert [a["job"]["id"] for a in accepts] == ["a"]

    def test_finish_journals_done_exactly_once(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        q = AdmissionQueue(capacity=4, journal=JobJournal(path))
        state = q.offer(make_spec("a"))
        q.take_matching(lambda s: True, limit=1)
        q.finish(state, {"id": "a", "ok": True})
        q.journal.close()
        pending, completed, _ = JobJournal.replay(path)
        assert pending == []
        assert list(completed) == ["a"]
