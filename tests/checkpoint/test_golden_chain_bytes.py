"""Golden pins for the bytes a delta chain writes.

A change to how the chain writer finds dirty sections (or to how the
coordinator drives the shards through a barrier) must not move a
single snapshot byte: ``benchmarks/e2e/expected.json`` pins the byte
counts, and a resumed run must read exactly what an older build wrote.

* Coordinated sharded sets are byte-deterministic, so every member file
  of every set is pinned by its SHA-256 -- in process and over worker
  processes (the two must agree), for ``parallel_chain_graph`` and for
  fig7 at K = 2 and 4.
* A single machine's chain is byte-deterministic too, but its ``core``
  section records the checkpoint directory as it was given.  Each
  delta pins its sorted changed-section keys, one digest over every
  other section's bytes, and the digest of ``core`` for a run into the
  relative directory ``snaps``.

The sharded member files do not record their directory.
"""

import hashlib
from pathlib import Path

import pytest

from repro.checkpoint import CheckpointConfig
from repro.checkpoint.snapshot import _restricted_loads, _split_envelope
from repro.machine import (
    Machine,
    MachineConfig,
    ShardConfig,
    ShardedRunner,
)
from repro.workloads import figure_workload, parallel_chain_graph

#: SHA-256 of every member file, base and delta sets alike (recorded
#: before the chain writer compared bytes instead of digests, and
#: re-recorded for format v4 / v5, every payload digest unchanged)
CHAINS_SHA256 = {
    "ckpt-000000000003.shard0.snap":
        "325b54dcc87e6cc0969c12112a9c9eb3ad63a5b14bd4c2569a743f3196365347",
    "ckpt-000000000003.shard1.snap":
        "ccd1e8e20ec8418b7ceed167ea8e124b72b5d1e93cac77f8170c92bdcbd18e67",
    "ckpt-000000000006.shard0.snap":
        "6a182fe14d34818407690e76e1d00915fefac52d26ab43d5d1d8228fcfcaa53f",
    "ckpt-000000000006.shard1.snap":
        "5e9c2761a35ec1bbf6234ed87c28c4b1264243422dc4593542a3e0ed643b9a2a",
    "ckpt-000000000009.shard0.snap":
        "fff12861f781d2c41d97280d4b810ac75b737c221d8957120d338e2aaf7964e7",
    "ckpt-000000000009.shard1.snap":
        "60d973566fd5f015358e217f53c888e8b6e071819d836c52af84c6d0a2e9a171",
    "ckpt-000000000012.shard0.snap":
        "413a4923ebf66c2cee8c7481e8befbe43ffbbaf65f54193fbf8adeecdad8e717",
    "ckpt-000000000012.shard1.snap":
        "fe59d253efe0304ab3bc3a8ca552ba864124c4fa99e52fd3c7b89bc664384b51",
}

FIG7_K2_SHA256 = {
    "ckpt-000000000010.shard0.snap":
        "4e82cb791486f145fd081767d012e6d5ae92da8977f69b8a46e67da781657808",
    "ckpt-000000000010.shard1.snap":
        "5cea44abc7a1268b602db71e9f5728b20b2f3207e6f6d8b14dc3178ffaac3aa6",
    "ckpt-000000000020.shard0.snap":
        "aecb7b339eec8662b7d09606774b8295b13667ba5e4c0b0705917e09303bcfaf",
    "ckpt-000000000020.shard1.snap":
        "6137361fee61c8ed7563695f7e6292751eddbe25739652d9fcd19c34fe3dd7e4",
    "ckpt-000000000030.shard0.snap":
        "8f78fd9656b2b9d78d7b9452f5bbed8cbcc817d958bded04dcac6be0b18f2ae4",
    "ckpt-000000000030.shard1.snap":
        "851487534cbc400a7e963b57ec59dacbd984da83e109b224f1b2ab3d1834e447",
    "ckpt-000000000040.shard0.snap":
        "e201335aa632410a6c5fd0d83a2fe291beb26e5b791e0d01c807addb9b660af6",
    "ckpt-000000000040.shard1.snap":
        "e3f7660c9d00b3341792205900827a607e1f110fff9ada4b8ec05395781bb454",
    "ckpt-000000000050.shard0.snap":
        "01d5a20c733ebd8ac845600a6307f5b294e831fd17ec08ca290c12369fc86ba8",
    "ckpt-000000000050.shard1.snap":
        "7b39ea9d778806771dd7d6ad792aa4c1b477324462517a0a3fe460817f1f75a7",
}

FIG7_K4_SHA256 = {
    "ckpt-000000000010.shard0.snap":
        "fea14282237635b24f3f6b1afb4b886092eecb256e495f74b7e58daeb56fc731",
    "ckpt-000000000010.shard1.snap":
        "31dbad388d5dd47c3d21a878a82791f875b50ba05fd7e67e4c4ed35413b8f668",
    "ckpt-000000000010.shard2.snap":
        "b9d6d0697eff0aaf921a5e993aead31adb0fb6051a279a2647166d70cfb1265a",
    "ckpt-000000000010.shard3.snap":
        "a37c286c4d23e8e11ed228617964a3108e55f0768a84576ffeab57080471d7a3",
    "ckpt-000000000020.shard0.snap":
        "272d4d3c72c3bfb98feac63705f8ec44d22dea6c35044c5c3467db38c0bf6dca",
    "ckpt-000000000020.shard1.snap":
        "821b3a3a58e3cc6744870708a44d773ae205d1037bf62b950e4acc339c109725",
    "ckpt-000000000020.shard2.snap":
        "66735c6f0291103d31583908750d98b6b19d948f03a3bb0605f843be7744ff32",
    "ckpt-000000000020.shard3.snap":
        "6711f1b90da7298e6e77aaa44755b34ecd35fc7505154efad47efd9c97314af9",
    "ckpt-000000000030.shard0.snap":
        "ba3035b2addde2473cf3319e72b111f0c2ba6ccde0318792432f0dc5e6e09415",
    "ckpt-000000000030.shard1.snap":
        "761885cbb9e13c0c763be3f0254e56cf9ebc5443d1e7749382161c11866dd7f9",
    "ckpt-000000000030.shard2.snap":
        "e9c04d70f3b80b94b97a92ec24420d609fa751ec557d033e4acf0dc64def5100",
    "ckpt-000000000030.shard3.snap":
        "9b5dc7ce6829b4699ce008e501d14ba540ed8a2812058494245998f97f8f6dbd",
    "ckpt-000000000040.shard0.snap":
        "cc00559daf029ec2d7a5fea2f32c1130bd82c8f6d07f1c4c32910f271a2faf40",
    "ckpt-000000000040.shard1.snap":
        "9113610e7e158ec5507167eb547f6588e438ce43dfd72edc6136735a41d22432",
    "ckpt-000000000040.shard2.snap":
        "8f87b7244a488a58c77828bdb0b98c407398ae41a48446e63dd4afbd83398fdd",
    "ckpt-000000000040.shard3.snap":
        "1183d604c2b56efbff794f5a6c97bb978c25e6f49d4f91792a60b34558609dce",
    "ckpt-000000000050.shard0.snap":
        "dbfa60a7d89f1d65e2bfaa7ff86af7890c69c03a1a65b44e939b356b10e82640",
    "ckpt-000000000050.shard1.snap":
        "0ffe32b0af1fb571870c068caee6fdd74e4b16b988244da2b44b576c82499c8f",
    "ckpt-000000000050.shard2.snap":
        "6213c9762304ff867a4368eef7c2b305723c3ae893de37ae706e3dad376e9a74",
    "ckpt-000000000050.shard3.snap":
        "04fde5f3f6de08e2301bc8a372662a1651e55a7747f8a08670578b542ec47606",
}

#: per delta file: its sorted changed-section keys, and the SHA-256 over
#: ``key \0 sha256(blob)`` of every changed section but ``core``
CHAINS_SINGLE_DELTAS = {
    "ckpt-000000000006.delta.snap": (
        "cell:0 cell:1 cell:10 cell:11 cell:12 cell:13 cell:2 cell:3 "
        "cell:4 cell:5 cell:8 cell:9 core pe:0",
        "eab46ce6e6372d14c68f937a1e917713389aa71c28531c627c52f09682e9499e",
    ),
    "ckpt-000000000009.delta.snap": (
        "cell:0 cell:1 cell:10 cell:11 cell:12 cell:13 cell:14 cell:15 "
        "cell:2 cell:3 cell:4 cell:5 cell:6 cell:7 cell:8 cell:9 core "
        "pe:0 sink:15 sink:7",
        "73ca2827d9a6deb17c5d4b0193e1943f1f6e0762220b9f7a86cabb89f3a90286",
    ),
    "ckpt-000000000012.delta.snap": (
        "cell:11 cell:12 cell:13 cell:14 cell:15 cell:3 cell:4 cell:5 "
        "cell:6 cell:7 core pe:0 sink:15 sink:7",
        "08472ba7abac679d209955b264267aeb2a3dd0b916923e697b88596b7a7a2b41",
    ),
}

FIG7_SINGLE_DELTAS = {
    "ckpt-000000000050.delta.snap": (
        "cell:0 cell:1 cell:2 cell:3 cell:4 cell:5 cell:6 cell:7 core "
        "fu:0 fu:1 fu:2 pe:0 pe:1 pe:2 pe:3 sink:7",
        "3ddcdda9627a9913d940df22e927a5c11f95fd6efaab461af0f124d24a20946e",
    ),
    "ckpt-000000000075.delta.snap": (
        "cell:0 cell:1 cell:2 cell:3 cell:4 cell:5 cell:6 cell:7 core "
        "fu:0 fu:1 fu:3 pe:0 pe:1 pe:2 pe:3 sink:7",
        "a22634a1658b508c1e287812e25cd10c8e47f07d0fba679e95e2e43b580eb864",
    ),
    "ckpt-000000000100.delta.snap": (
        "cell:0 cell:1 cell:2 cell:3 cell:4 cell:5 cell:6 cell:7 core "
        "fu:0 fu:2 fu:3 pe:0 pe:1 pe:2 pe:3 sink:7",
        "780f8125d2ab46fd198faa3576106d2741982adb76a57e289b2b2e784874c7d6",
    ),
    "ckpt-000000000150.delta.snap": (
        "cell:0 cell:1 cell:2 cell:3 cell:4 cell:5 cell:6 cell:7 core "
        "fu:0 fu:1 fu:2 pe:0 pe:1 pe:2 pe:3 sink:7",
        "2281d7bdf7e30becbeaeaca96b3c9bb9dac47282efc0cce59a6625d2ae20a437",
    ),
    "ckpt-000000000175.delta.snap": (
        "cell:0 cell:1 cell:2 cell:3 cell:4 cell:5 cell:6 cell:7 core "
        "fu:0 fu:1 fu:2 fu:3 pe:0 pe:1 pe:2 pe:3 sink:7",
        "c0c96b0380c94364901113c976310040a8fe839daec191d8e36840e9d217f3f4",
    ),
    "ckpt-000000000200.delta.snap": (
        "cell:0 cell:1 cell:2 cell:3 cell:4 cell:5 cell:6 cell:7 core "
        "fu:0 fu:3 pe:0 pe:1 pe:2 pe:3 sink:7",
        "e8a3ce8bfca917b4ce8429ed8b6308825850015577fa9dcc3a74ee5a805457a6",
    ),
}

#: SHA-256 of each delta's ``core`` section, written into ``snaps``
#: (the core pickles the run's checkpoint manager: re-recorded when a
#: ``retain=0`` manager stopped listing its periodic file names, the
#: only change)
CHAINS_SINGLE_CORES = {
    "ckpt-000000000006.delta.snap":
        "76380cee519e2c386786536f13e77277e7b29067cabcc16d332f891978c3024d",
    "ckpt-000000000009.delta.snap":
        "5ebad2c4b4f484fd2c57d0ef0cbdfd5559e629606dcc1fa9ad8f57ce9863e706",
    "ckpt-000000000012.delta.snap":
        "ad434a18ef7de87e5da3c70f319db1b40c48fcdb7362e265845c0395e2541e94",
}

FIG7_SINGLE_CORES = {
    "ckpt-000000000050.delta.snap":
        "edbd3bc32aade2499426409ca29fa495b23eb05ea45cf3a092a7d29d383b9639",
    "ckpt-000000000075.delta.snap":
        "a4a01dc72772e22879463b0838b3d28db2ecaa1348e8f8628f7cdd56bb672348",
    "ckpt-000000000100.delta.snap":
        "582a48ec15ad995a42b9ce33c68ccf478f1cf2a4c42b093534996b9fd068961e",
    "ckpt-000000000150.delta.snap":
        "79bebc29e204e933ab4a7fc5790ff3a6c9a0428e1c67cf459518ab32760ab4f2",
    "ckpt-000000000175.delta.snap":
        "d31dee2fef63f59e5fbe53270b19449e97869f8e40f1bb013a63fb03ec619108",
    "ckpt-000000000200.delta.snap":
        "e8b3bfc8c94d3099fffd8afe4b5966884b7f95d255ac6acd492e96f2d922421e",
}


def _fig7(m):
    wl = figure_workload("fig7")
    cp = wl.compile(m=m)
    return cp.graph, cp.prepare_inputs(wl.make_inputs(cp))


def _sharded_files(directory, graph, streams, *, shards, processes,
                   interval):
    cfg = CheckpointConfig(
        directory, interval=interval, retain=0, delta_every=3
    )
    ShardedRunner(
        graph, streams,
        shard_config=ShardConfig(shards=shards, processes=processes),
        config=MachineConfig.unit_time(), checkpoint=cfg,
    ).run()
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).glob("*.snap"))
    }


def _single_deltas(machine):
    """Per delta file: (keys, digest) as pinned, and the ``core`` digest."""
    machine.run()
    out, cores = {}, {}
    directory = machine.ckpt.config.directory
    for path in sorted(Path(directory).glob("*.delta.snap")):
        _version, _meta, payload = _split_envelope(path, path.read_bytes())
        sections = _restricted_loads(payload, str(path))["sections"]
        keys = sorted(sections)
        digest = hashlib.sha256()
        for key in keys:
            if key != "core":
                digest.update(key.encode() + b"\0")
                digest.update(hashlib.sha256(sections[key]).digest())
        out[path.name] = (" ".join(keys), digest.hexdigest())
        cores[path.name] = hashlib.sha256(sections["core"]).hexdigest()
    return out, cores


@pytest.mark.parametrize("processes", [False, True])
def test_chain_graph_sets(tmp_path, processes):
    files = _sharded_files(
        tmp_path, parallel_chain_graph(6, 5, 4), {},
        shards=2, processes=processes, interval=3,
    )
    assert files == CHAINS_SHA256


@pytest.mark.parametrize("shards, pinned", [
    (2, FIG7_K2_SHA256),
    (4, FIG7_K4_SHA256),
])
def test_fig7_sets(tmp_path, shards, pinned):
    graph, streams = _fig7(16)
    files = _sharded_files(
        tmp_path, graph, streams, shards=shards, processes=True,
        interval=10,
    )
    assert files == pinned


def test_single_machine_chain_graph_deltas(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    machine = Machine(
        parallel_chain_graph(2, 6, 3), MachineConfig.unit_time(),
        checkpoint=CheckpointConfig(
            "snaps", interval=3, retain=0, delta_every=4
        ),
    )
    assert _single_deltas(machine) == (CHAINS_SINGLE_DELTAS,
                                       CHAINS_SINGLE_CORES)


def test_single_machine_fig7_deltas(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    graph, streams = _fig7(12)
    machine = Machine(
        graph, inputs=streams,
        checkpoint=CheckpointConfig(
            "snaps", interval=25, retain=0, delta_every=4
        ),
    )
    assert _single_deltas(machine) == (FIG7_SINGLE_DELTAS,
                                       FIG7_SINGLE_CORES)


def test_core_does_not_grow_with_the_delta_count(tmp_path, monkeypatch):
    """At ``retain=0`` nothing prunes, so the manager keeps no list of
    periodic names; one that did re-shipped the whole list in every
    delta's ``core`` (~31 bytes more per snapshot, quadratic bytes).
    What is left moves only with the machine state and the widths of
    pickled counters."""
    monkeypatch.chdir(tmp_path)
    machine = Machine(
        parallel_chain_graph(1, 4, 240), MachineConfig.unit_time(),
        checkpoint=CheckpointConfig(
            "snaps", interval=4, retain=0, delta_every=64
        ),
    )
    machine.run()
    sizes = []
    for path in sorted(Path("snaps").glob("*.delta.snap")):
        _version, _meta, payload = _split_envelope(path, path.read_bytes())
        sections = _restricted_loads(payload, str(path))["sections"]
        sizes.append(len(sections["core"]))
    assert len(sizes) >= 50
    assert max(sizes) - min(sizes) < 200
