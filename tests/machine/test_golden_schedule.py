"""A golden event schedule: the executed ``(time, kind, args)`` sequence
of the event machine, pinned by its chained digest.

The rest of tier-1 compares runs with each other inside one commit, so
a change that reorders equal-cycle events *consistently* passes it.
The order is an interface all the same -- ``seq`` numbers sit in the
heap that snapshots pickle, the sharded runner parses event kinds and
arguments for its lockstep horizons, the compiled backend sorts and
abstracts the heap, replay chains the events into digests -- so these
rows were recorded once (at the commit before the machine core linked
its firing plans at load) and must hold on every later one.

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
    ('fig2', 'default', 'recovery', 1276, '8fc971c9784a8d046d02a2c463cede9ec54e60614f3ff04765c101153e4bf214', 1484),
    ('fig2', 'default', 'unprotected', 82, '73a8ba6010e8d00b268aa919a0b7aa1eefd421fe47434392504139e82e15862a', 'DeadlockError'),
    ('fig2', 'unit_time', 'clean', 840, '7739e0cbda36e00bf2d75230d150053c75ee2232eb6262b6831907c49f8dbb0d', 83),
    ('fig2', 'unit_time', 'recovery', 61, '586e4a89267b871aae35f04fe9041cbe0d2d49061bea6b442a47c251cbc6025e', 'SimulationError'),
    ('fig2', 'unit_time', 'unprotected', 47, 'bcc6645cab8b46ed8d3092316ea65a26e0375322f3a322368df0aa25f24cf257', 'DeadlockError'),
    ('fig4', 'default', 'clean', 1880, 'b4836c766e63d5c570724bac41f85fa27b2102ec28dc0d8ecd3f0719e605004b', 394),
    ('fig4', 'default', 'recovery', 3009, 'c2d760875a16a2bda26befa600fc99769f8bbcb4850d6b849616357e6f4d72fd', 2094),
    ('fig4', 'default', 'unprotected', 40, '5d8a09777c0ff82ed212d0cf239df8f1c71544fde19d5e7d127ff566b53f5072', 'DeadlockError'),
    ('fig4', 'unit_time', 'clean', 1880, '6292438c2e45a77f36a1ec2e44f318603b2673294c9470c6fa776ee5fbdaab8c', 87),
    ('fig4', 'unit_time', 'recovery', 164, '0b36ce568998480404e8b71d6f1706b61bfc0591ed604e899a13f12271c9ac5a', 'SimulationError'),
    ('fig4', 'unit_time', 'unprotected', 30, 'ee3fd4a8f8164f8a28bc374f6873b06f131c99c843827a40d7a4fb540adc5a3c', 'DeadlockError'),
    ('fig5', 'default', 'clean', 1720, '0f8f91fde221034007ca88e77b988b99c51032c4429e8ef6cb5d3ae14bb84027', 339),
    ('fig5', 'default', 'recovery', 2704, '03882b5b1d87673044cd5718e9887b591394c4a12926e907cae88d7ada901a6a', 1768),
    ('fig5', 'default', 'unprotected', 34, '222d661efa15c1daea3ff71390fe73b959500fcd8f4a427ff0b14ecfa9ef84f7', 'DeadlockError'),
    ('fig5', 'unit_time', 'clean', 1720, '913bcec5136ec5f3bd9f1545657f900ab39c14c449a1c8024584cbdccc3b1575', 85),
    ('fig5', 'unit_time', 'recovery', 142, '24db41929ca34d7c91dbb068e04d224f61d9b864449eea7d8927caa9c1b80a9d', 'SimulationError'),
    ('fig5', 'unit_time', 'unprotected', 34, 'c206b2d378fa997bf902ac73f8ff566ab51cd6cddaacb80d6036f0ed8ed60a09', 'DeadlockError'),
    ('fig6', 'default', 'clean', 2846, 'e31d0c81aea7c9b4b196fc2f9e9ccc793f649b55ea8080526c2a15c279833b49', 420),
    ('fig6', 'default', 'recovery', 4487, '870c2f41051c54dcc1a88e532ec8e334a15b25255038f6bb0455e75060ddd77c', 2034),
    ('fig6', 'default', 'unprotected', 93, '7ddb54813ea78b228d538f887c37e25b68b5e152cf13c9ddf4d3536b572aaa7a', 'DeadlockError'),
    ('fig6', 'unit_time', 'clean', 2846, '3dac37ba798f6c09b378376010cedd1561d60ddfca484da5322a24b6d10ed9c8', 96),
    ('fig6', 'unit_time', 'recovery', 381, '01d46c9e9a5454a38f41198a98aff1e7387d11c6e050909f349586cb926dd27f', 'SimulationError'),
    ('fig6', 'unit_time', 'unprotected', 156, '6c35f866b2722f79bc11811100fa0f96fd9391a06e582eb1caecbd18df0b09b9', 'DeadlockError'),
    ('fig7', 'default', 'clean', 971, 'a1ea37ba4cf2f6219278ae36c58a944bcb8cc5ca2de22b9d3dc0037bfadcf9a6', 649),
    ('fig7', 'default', 'recovery', 1456, '395418392415055faad8dec05fae3281c2247d7324394d89aeb7d57142a0665b', 1886),
    ('fig7', 'default', 'unprotected', 31, 'cd638dbe4337066ba54b58255242b23cc111b51548afdedf8357c347902fb751', 'DeadlockError'),
    ('fig7', 'unit_time', 'clean', 971, 'a73d19eb568b460661df0cecb810f22a414003a5831b24ac47b9ea759b81cf4e', 123),
    ('fig7', 'unit_time', 'recovery', 137, 'a908f0c729767e0c093c6d6de202e2aff2954a60c381d7633f6642b57f98d4cc', 'SimulationError'),
    ('fig7', 'unit_time', 'unprotected', 31, 'bb0bb1cc94695a2a644d7629176ac57a9f838c64f49165d45499c0ac7a9a90a6', 'DeadlockError'),
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
