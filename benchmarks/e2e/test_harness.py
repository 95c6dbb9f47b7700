"""Self-tests of the benchmark harness.  Not part of tier-1:

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time

import pytest

import _env

_env.require_program()

import run  # noqa: E402  (needs the program on sys.path)
from _env import quantile  # noqa: E402
from _trace import Tracer  # noqa: E402
from child import Loop, compare_modeled  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_quantile_on_known_samples():
    samples = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert quantile(samples, 0.0) == 1.0
    assert quantile(samples, 0.5) == 3.0
    assert quantile(samples, 1.0) == 5.0
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.10) == pytest.approx(1.3)
    assert quantile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        quantile([], 0.5)


def test_span_self_time_is_duration_minus_children():
    tracer = Tracer(enabled=True)
    tracer.spans = [
        ["a", 0.0, 10.0, None, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 6.0, 0, 1],
    ]
    assert tracer.self_ms() == {"a": 6000.0, "b": 3000.0, "c": 1000.0}
    assert tracer.totals_ms()["b"] == 4000.0
    assert tracer.totals_ms(op=1) == {"b": 1000.0}


def test_spans_nest_and_a_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=True)
    tracer.op = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (outer, inner) = tracer.spans
    assert (outer[0], outer[3], outer[4]) == ("outer", None, 7)
    assert (inner[0], inner[3]) == ("inner", 0)
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]
    quiet = Tracer()
    with quiet.span("x"):
        pass
    assert quiet.spans == []


def test_names_are_well_formed_and_agree_with_the_spec():
    spec = run.SPEC
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert run.EXACT <= {m["name"] for m in spec["per_layer"]}
    assert spec["paths"] == ["benchmarks/e2e"]


def test_times_at_reference_speed():
    ref = _env.CALIB_REF_MS
    # median per CPU, averaged over the CPUs the part ran on
    assert _env.slowdown([ref, 9 * ref, 2 * ref]) == pytest.approx(2.0)
    assert _env.slowdown([ref], [3 * ref]) == pytest.approx(2.0)
    assert _env.slowdown([ref, 2 * ref, 3 * ref, 4 * ref, 5 * ref],
                         q=0.25) == pytest.approx(2.0)
    op = {"parts": [
        {"ms": 100.0, "cpu_ms": 50.0, "around": [[2 * ref, 2 * ref]]},
        {"ms": 30.0, "cpu_ms": 60.0, "around": [[ref], [ref]]},
    ]}
    assert run.at_reference(op, "ms") == pytest.approx(80.0)
    assert run.at_reference(op, "cpu_ms") == pytest.approx(85.0)
    assert run.low_quantile([op, op]) == pytest.approx(80.0)


def test_ops_per_round_are_fixed_and_scale_with_seconds():
    full = float(run.SPEC["run_seconds"])
    for name, ops in run.OPS_PER_ROUND.items():
        assert run.ops_per_round(name, full) == ops
        assert run.ops_per_round(name, full / 1000) == 1
    assert set(run.OPS_PER_ROUND) == set(WORKLOADS)


def test_only_pinned_modeled_keys_are_compared():
    expected = {"fig": {"cycles": 10}}
    assert compare_modeled({"fig": {"cycles": 10, "ii": 3.5}}, expected) == []
    (problem,) = compare_modeled({"fig": {"cycles": 11}}, expected)
    assert "fig.cycles" in problem
    assert compare_modeled({}, expected)


def smoke(name: str, data: dict) -> Loop:
    """Set-up, two verified ops, teardown, inside the current
    directory; the data goes through JSON as it does for a child."""
    data = json.loads(json.dumps(data))
    expected = json.loads(
        (_env.HERE / "expected.json").read_text(encoding="utf-8"))[name]
    tracer = Tracer()
    workload = WORKLOADS[name](data, tracer)
    loop = Loop(workload, tracer, expected)
    try:
        workload.setup()
        elements = [loop.one()["elements"] for _ in range(2)]
    finally:
        workload.teardown()
    loop.elements = elements
    return loop


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_two_op_smoke_verifies_outputs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    loop = smoke(name, WORKLOADS[name].generate(seed=5))
    assert loop.failed == 0, loop.problems
    assert loop.ops == 2 and all(n > 0 for n in loop.elements)


def test_a_wrong_value_is_a_failed_op(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = WORKLOADS["figs_event"].generate(seed=5)
    data["fig7"]["expected"]["X"][3] += 1e-9
    loop = smoke("figs_event", data)
    assert loop.failed == 2
    assert "fig7" in loop.problems[0]


def test_an_overdue_child_is_killed_with_its_group_and_fails_the_round():
    data = run.generate(["figs_compiled"], 5)
    started = time.monotonic()
    got = run.spawn("measure", "figs_compiled", 5, 10_000, data,
                    deadline=started)
    data.unlink()
    assert time.monotonic() - started < 30
    assert got["failed"] == 1 and got["leaked"] >= 1
    assert "deadline" in got["problems"][0]


def cli(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(_env.HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, workload, key", [
    ("0", "figs_compiled", "end_to_end"),
    ("1", "serve_burst", "per_layer"),
])
def test_a_run_prints_exactly_the_metrics_of_the_spec(trace, workload, key):
    out = cli("--workload", workload, "--seed", "2", "--seconds", "2",
              "--trace", trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in run.SPEC[key]}
    assert {n: m["unit"] for n, m in out["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float))
               for m in out["metrics"].values())
