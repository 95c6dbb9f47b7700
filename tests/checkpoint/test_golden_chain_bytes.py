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
#: before the chain writer compared bytes instead of digests)
CHAINS_SHA256 = {
    "ckpt-000000000003.shard0.snap":
        "7b8ea6b7d7efa4a92da1d7ac838f036f254a6693ab5db2474a859afc157545fb",
    "ckpt-000000000003.shard1.snap":
        "7ec0370b090de66cf176187b37204daee65f74b9d2848ffcf5985d66d644be1e",
    "ckpt-000000000006.shard0.snap":
        "39b38fa0ffe04039562d0fe59acc4f86be25103711098414756d316b5f2f5d7a",
    "ckpt-000000000006.shard1.snap":
        "b65af2fc53156d717ccbb99adbe34517ccd2024cad2a844bc9824f51e248fc9f",
    "ckpt-000000000009.shard0.snap":
        "e27c8ca8830b84a1bc8400cebfcdfed0d227dc635e210402030e1e50d9d885e4",
    "ckpt-000000000009.shard1.snap":
        "d7a4d6be19c873611bac58c8db6ffac09c5e31af16bea5c202a9f8e315935fa5",
    "ckpt-000000000012.shard0.snap":
        "4f82fb9d414cd7e616bb39de227cddb01ec1e43a6c5a0b56d715ffe9977d1674",
    "ckpt-000000000012.shard1.snap":
        "268c65209bc9bc0000f783b35977fc3f8a15c44209f99d528d390437217ab649",
}

FIG7_K2_SHA256 = {
    "ckpt-000000000010.shard0.snap":
        "e6afeff2a6c20f21fe8bba123060c9315d8a6a125d633020222714d0757f2aaf",
    "ckpt-000000000010.shard1.snap":
        "ca7d867b81199a78bb7f8aeecea514aa2e1f634ef207e80b6cd6186e7f96dfe1",
    "ckpt-000000000020.shard0.snap":
        "d451c97ccf507e49f0bf3d515eadcada17d224e4717bfd61f5b5c36ce901f2cb",
    "ckpt-000000000020.shard1.snap":
        "ec7a426e4c78119c7158bd8c5cecb47c0d44d872529e74fceacf30c66b512cb8",
    "ckpt-000000000030.shard0.snap":
        "95d3edf3a656fbf419a8d4c2903af26aec9af35f183ffa83d0da93338bc3f590",
    "ckpt-000000000030.shard1.snap":
        "f8c70994525cd145b9331cfda7115ee0567f65684fe715e4d024d01f749b9204",
    "ckpt-000000000040.shard0.snap":
        "10a5d979bbd75595a78f24b9253a2e7c4b9e5f4bf2cc9d6c129a1d60c9fff76e",
    "ckpt-000000000040.shard1.snap":
        "c5c692fa6c77efba208768ad49b3d312fcd3f4ad33a5e49f35f9971e42c5a8ab",
    "ckpt-000000000050.shard0.snap":
        "d70198d70a278bbb8787d181923661352de71ae102d9a7712a9f5f6ac1c6d9b3",
    "ckpt-000000000050.shard1.snap":
        "2cfeba947a4d63486b2c5500ea0db404fa6ddcb4e9405c5c714850647994481b",
}

FIG7_K4_SHA256 = {
    "ckpt-000000000010.shard0.snap":
        "641d2917e4582ad0d4a7c47d2884b7a52b2809c70c789e0651d0645b98eb5f3a",
    "ckpt-000000000010.shard1.snap":
        "671f57342b37b042833446ba715ed91845e1d2e2e81c360613a2ea6c156d214b",
    "ckpt-000000000010.shard2.snap":
        "04ebcbe34c1738064a037b8bfc59b41fe9a8574d06c9c53a6859810456ae870e",
    "ckpt-000000000010.shard3.snap":
        "f1e3928238dfcf28678a611010f5a0e9baafd9bc9a69aacde8c11805024a7e6f",
    "ckpt-000000000020.shard0.snap":
        "9f86c23d23e643f68637d42a3d9fed150feb4c277c88212bfb16e5b7e98c41db",
    "ckpt-000000000020.shard1.snap":
        "01ab70077c54f4516f0462bf4ef944c45c068f7bdec5841a49ac56896bb16de6",
    "ckpt-000000000020.shard2.snap":
        "3ab080b6ffc8042a9fa8ce048f40ee75605037c68ea5e9e4f7c029333b60c69b",
    "ckpt-000000000020.shard3.snap":
        "3f6a5f0390bbc9ed5419ddb135a12458df1aaad4253fcfd2c2d4f9b779e09935",
    "ckpt-000000000030.shard0.snap":
        "520af1e06ed79ee35b0befa0831feba0d4a63b4b986f70642a611e6ad4955830",
    "ckpt-000000000030.shard1.snap":
        "8134a9584021b1550309cfe565387d78c69a072190589df2334267cf1055a453",
    "ckpt-000000000030.shard2.snap":
        "be195f1cc13d06a522cdf21798e90ebafc5a5e86eb4453349414da7e58195e63",
    "ckpt-000000000030.shard3.snap":
        "51f25f181e62883ce3d8781c638e66de30acdacefb9af786b8e653aa3b97b92e",
    "ckpt-000000000040.shard0.snap":
        "c03e202bbd42392fa6dcd7f9d6755c53dd3cad664db10c02eaf6cc3036a76193",
    "ckpt-000000000040.shard1.snap":
        "60582a0c89424408be9861782be25763819fbe924091a04d316e90cdbca4c725",
    "ckpt-000000000040.shard2.snap":
        "fdfa70d2014d560ba9e3c70eeca0567116f0e3e4c06a7754ca7892367f2e06bb",
    "ckpt-000000000040.shard3.snap":
        "a8bc8b6b36de35db863edbcd52a34ee1d4fdee42fad9e6be22cbe823de1a70f8",
    "ckpt-000000000050.shard0.snap":
        "40b62753903b3c6ce19f3204eb6872bdfe5b9f2e5107803fb34f97343bf1007d",
    "ckpt-000000000050.shard1.snap":
        "7a16d298dd37a9765bd47bc5185b29b1f1d8f410a0618f1ccb0004787d4764f0",
    "ckpt-000000000050.shard2.snap":
        "ee0163ac9adcf3bd7797b8acf13440bf79e04eb3721544072be8f8ae190a6ba3",
    "ckpt-000000000050.shard3.snap":
        "59c87ce738201bbc8053e806c010125c8461ef0999c5150732e3da8d27027372",
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
CHAINS_SINGLE_CORES = {
    "ckpt-000000000006.delta.snap":
        "cc3ea7a164db66bd568a93ba6345b86a649eb416dcec9eecb07a94eec557b526",
    "ckpt-000000000009.delta.snap":
        "ebe474e97d525a4585210fdc085c2b1d8dfd105028cce0f5d903001bd1d4ce6c",
    "ckpt-000000000012.delta.snap":
        "c902e031677837f3efe7a8db8da8d78746debcb4ec48741d968d9ba81fbc54c6",
}

FIG7_SINGLE_CORES = {
    "ckpt-000000000050.delta.snap":
        "86a96133b32a5a7a21f17c135a55187e43773cec8fc4eb0da42aa9a388ea694e",
    "ckpt-000000000075.delta.snap":
        "22e37748f5bdea0cb6ff0adcb234c87fb7cc32d6b1027b05561c359af120e25f",
    "ckpt-000000000100.delta.snap":
        "7bf5e34ca617865b8d0d9bdb4e07d1265a21826929233542878c8e265c825e64",
    "ckpt-000000000150.delta.snap":
        "df2da8fba81840d77229fe7f1ae5a235ef93a7b34fe2255eb51f389b8afd9ff9",
    "ckpt-000000000175.delta.snap":
        "766f7a3005de55e762c8efb473784d92a45fac55afea793466326f37d84468a8",
    "ckpt-000000000200.delta.snap":
        "9a043d55fc44ee8022e9eef3dbf4d5667c9e170cb514d1af8ce30aaaa8285034",
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
