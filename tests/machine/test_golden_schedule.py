"""A golden event schedule: the executed ``(time, kind, args)`` sequence
of the event machine, pinned by its chained digest.

The rest of tier-1 compares runs with each other inside one commit, so
a change that reorders equal-cycle events *consistently* passes it.
The order is an interface all the same -- ``seq`` numbers sit in the
heap that snapshots pickle, the sharded runner parses event kinds and
arguments for its lockstep horizons, the compiled backend sorts and
abstracts the heap, replay chains the events into digests -- so these
rows were recorded once (at the commit before the machine core linked
its firing plans at load) and must hold on every later one.  The
faulty rows were re-recorded once, when packet fates moved to per-arc
streams; no clean row moved.

One fixed seed, m = 40, five figures x {default, unit-time} config x
{clean, fault plan with recovery, same plan unprotected}.  The
unprotected rows and the unit-time recovery rows (one function unit,
out for a window) end in a typed error, pinned too: the digest covers
every event up to the failure.
"""

import pytest

from repro.errors import ReproError
from repro.faults import FaultPlan, UnitFault
from repro.machine import Machine, MachineConfig
from repro.workloads import FIGURES

PLAN = FaultPlan(
    seed=11,
    drop_result=0.04,
    dup_result=0.04,
    corrupt_result=0.03,
    drop_ack=0.04,
    dup_ack=0.04,
    unit_faults=(
        UnitFault("fu", 0, start=40, end=160),
        UnitFault("pe", 0, start=0, end=None, kind="slow", factor=2.0),
    ),
)

CONFIGS = {"default": MachineConfig, "unit_time": MachineConfig.unit_time}

# (figure, config, mode, events, chained sha-256, cycles or error type)
GOLDEN = [
    ('fig2', 'default', 'clean', 840, '0ba5d8e7d9f16ca0425aa6b0187967f1df9d38749a0deef205cd3e0dcb214bfa', 376),
    ('fig2', 'default', 'recovery', 1280, '0d89c98b99cb5440e2b6b44a22163f043cf13b3b105bb2437da2ab80bc3549fe', 1393),
    ('fig2', 'default', 'unprotected', 19, '6e6f2822fcb1405d5354c2ef8aa188f1c109b9bcaa7fa44d06a1161029052e47', 'DeadlockError'),
    ('fig2', 'unit_time', 'clean', 840, '7739e0cbda36e00bf2d75230d150053c75ee2232eb6262b6831907c49f8dbb0d', 83),
    ('fig2', 'unit_time', 'recovery', 62, 'a1f43a42e3d009c56af7fcf6de862ae0b4aa031290baa7bfb1219320c83cb9ec', 'SimulationError'),
    ('fig2', 'unit_time', 'unprotected', 19, '252c149e92c1dde1e2e91bf7aaab0e22fc91a0a15a47c4fc5c0ddbfe922be3e2', 'DeadlockError'),
    ('fig4', 'default', 'clean', 1880, 'b4836c766e63d5c570724bac41f85fa27b2102ec28dc0d8ecd3f0719e605004b', 394),
    ('fig4', 'default', 'recovery', 2939, '23bcdbdef7d98f62a8e7bf8060ec6f3f0b86811430cfcde88c2b707d1c8eff94', 1903),
    ('fig4', 'default', 'unprotected', 19, '48df8ea7183b167b569e6161ab216da3e89296ab71f4aa2ee311ab99a125333c', 'DeadlockError'),
    ('fig4', 'unit_time', 'clean', 1880, '6292438c2e45a77f36a1ec2e44f318603b2673294c9470c6fa776ee5fbdaab8c', 87),
    ('fig4', 'unit_time', 'recovery', 163, '73fbbb90d810bc22f4d2dbabc52366c2fdc66342ec01231f71803f130beb472b', 'SimulationError'),
    ('fig4', 'unit_time', 'unprotected', 19, '37576364fdf34da7eba85fe20e12616ec255e477629ed7d31b194614976d4e81', 'DeadlockError'),
    ('fig5', 'default', 'clean', 1720, '0f8f91fde221034007ca88e77b988b99c51032c4429e8ef6cb5d3ae14bb84027', 339),
    ('fig5', 'default', 'recovery', 2715, 'fcb59f7fc9bf789396ebbea0954c52b9d1240c86513aee48674f9ff90f191693', 2034),
    ('fig5', 'default', 'unprotected', 26, '98f4469fe362e3eb362dfb6030ae85fe5069acb312264c4c41f305ca4a0e4b07', 'DeadlockError'),
    ('fig5', 'unit_time', 'clean', 1720, '913bcec5136ec5f3bd9f1545657f900ab39c14c449a1c8024584cbdccc3b1575', 85),
    ('fig5', 'unit_time', 'recovery', 135, 'd48e87009e82bf84c57a7c293ec5aca34742658d23424cc4fbad20617dd45c22', 'SimulationError'),
    ('fig5', 'unit_time', 'unprotected', 26, '5b5289f2effc3f164cb710fdb4d69b65d3769bfbef9dc63626241c979ddfa98c', 'DeadlockError'),
    ('fig6', 'default', 'clean', 2846, 'e31d0c81aea7c9b4b196fc2f9e9ccc793f649b55ea8080526c2a15c279833b49', 420),
    ('fig6', 'default', 'recovery', 4473, '447094fc938d1aa08c0eefbdb8797926bcd634e56459e8917566fbdaec45df4a', 2144),
    ('fig6', 'default', 'unprotected', 69, 'cca2c0b774ea299f1ce336c2641fc77025246b9fc90a3fc8704d455e4114e70f', 'DeadlockError'),
    ('fig6', 'unit_time', 'clean', 2846, '3dac37ba798f6c09b378376010cedd1561d60ddfca484da5322a24b6d10ed9c8', 96),
    ('fig6', 'unit_time', 'recovery', 212, '68de1236a6bcd0bb7930ef19a56ff4b3c1750dd559232a9bb26a1de63a1c4dd3', 'SimulationError'),
    ('fig6', 'unit_time', 'unprotected', 69, 'daba96c0a378230cb007d200434a0777e17560ab47176a1656d171f7762dc961', 'DeadlockError'),
    ('fig7', 'default', 'clean', 971, 'a1ea37ba4cf2f6219278ae36c58a944bcb8cc5ca2de22b9d3dc0037bfadcf9a6', 649),
    ('fig7', 'default', 'recovery', 1444, 'da45fdbf358dae33ce078c7255c578cbe74200f85831b43335a48e9be739e129', 1617),
    ('fig7', 'default', 'unprotected', 26, '7141675c06986396b5304328d7d5cd7022a3a8bce0c39cdd1ae6b6df8ee70811', 'DeadlockError'),
    ('fig7', 'unit_time', 'clean', 971, 'a73d19eb568b460661df0cecb810f22a414003a5831b24ac47b9ea759b81cf4e', 123),
    ('fig7', 'unit_time', 'recovery', 76, '23e13974a5a593c064f5397db6a062c30a230d4da5102abe26544a43c5982006', 'SimulationError'),
    ('fig7', 'unit_time', 'unprotected', 26, '5cef880cd9090bfe29008e2b0c8fccf0ac0c7707d6edad7cb3be82ced2ae8310', 'DeadlockError'),
]


@pytest.mark.parametrize(
    "figure,config,mode,events,digest,end", GOLDEN,
    ids=[f"{row[0]}-{row[1]}-{row[2]}" for row in GOLDEN],
)
def test_event_schedule_is_pinned(figure, config, mode, events, digest, end):
    cp = FIGURES[figure].compile(m=40)
    inputs = FIGURES[figure].make_inputs(cp, seed=5)
    faults = {}
    if mode != "clean":
        faults = {"fault_plan": PLAN, "recovery": mode == "recovery"}
    machine = Machine(
        cp.graph, config=CONFIGS[config](), inputs=inputs, trace=True,
        **faults,
    )
    try:
        got = machine.run().cycles
    except ReproError as exc:
        got = type(exc).__name__
    assert (machine.trace.count, machine.trace.hexdigest(), got) == (
        events, digest, end,
    )


def test_the_rows_cover_the_failure_paths():
    ends = [row[-1] for row in GOLDEN]
    assert len(GOLDEN) == 30
    assert ends.count("DeadlockError") == 10
    assert ends.count("SimulationError") == 5
