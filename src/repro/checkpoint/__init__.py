"""Crash-consistent checkpointing, resume, replay and supervision.

The layers (see DESIGN.md sections 8, 9 and 13):

* :mod:`repro.checkpoint.snapshot` -- the versioned, checksummed,
  atomically-written on-disk snapshot format (v4: self-describing
  JSON metadata over a restricted-unpickler payload; v5: incremental
  deltas chained on a v4 base, verified link by link before any
  payload is touched; v1-v3 files are refused by version number);
* :mod:`repro.checkpoint.directory` -- every decision about a
  checkpoint directory, single-machine or sharded: ``manifest.json``
  I/O, which kind the next snapshot is, which chains retention drops,
  which files and sets are resumable (``repro snapshot fsck``), the
  resume point and quarantine;
* :mod:`repro.checkpoint.manager` -- one machine's periodic, live and
  failure snapshots and the record manifest;
  :mod:`repro.checkpoint.coordinator` -- a sharded run's commits of
  coordinated snapshot sets;
* :mod:`repro.checkpoint.replay` -- event-trace digests, and bit-exact
  re-execution of recorded runs that names the first divergent
  checkpoint window of the digest ledger (:func:`replay_bundle`);
* :mod:`repro.checkpoint.supervisor` -- an always-on crash-recovery
  loop (resume on crash with exponential backoff + jitter, restart
  budget, poisoned-snapshot quarantine and step-back).

Quick use::

    import repro
    from repro.checkpoint import CheckpointConfig

    cfg = CheckpointConfig("ckpts/", interval=10_000, record=True)
    repro.run(graph, inputs, checkpoint=cfg)         # dies mid-run...
    result = repro.resume("ckpts/")                  # ...bit-identical finish
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "..errors": "ChainBrokenError ManifestError SnapshotError "
                "SupervisorError",
    "..workers": "BackoffPolicy",
    ".coordinator": "CoordinatedCheckpointManager",
    ".directory": "ResumePoint fsck_directory is_sharded_dir "
                  "latest_snapshot quarantine read_manifest resume_point "
                  "shard_snapshot_name",
    ".manager": "CheckpointConfig CheckpointManager",
    ".replay": "DivergenceReport EventTrace ReplayReport outputs_digest "
               "replay_bundle",
    ".snapshot": "DELTA_VERSION FORMAT_VERSION chain_status load_machine "
                 "read_metadata read_snapshot save_snapshot "
                 "snapshot_cycle verify_chain write_chain_snapshot",
    ".supervisor": "EXIT_SNAPSHOT_UNLOADABLE AttemptRecord Supervisor "
                   "SupervisorConfig SupervisorReport",
})
