"""Tests for the for-iter mapping schemes (Section 7, Theorem 3).

These pin the paper's central quantitative claim: Todd's scheme runs
Example 2 at rate 1/3 while the companion scheme restores the maximum
rate 1/2.
"""

import random

import pytest

import repro
from repro.compiler import (
    ArraySpec,
    balance_graph,
    compile_foriter,
    compile_foriter_companion,
    compile_foriter_interleaved,
    compile_foriter_todd,
    compile_program,
    deinterleave,
    interleave,
)
from repro.errors import CompileError, RecurrenceError
from repro.graph import validate
from repro.val import parse_program, run_program
from repro.workloads.programs import SOURCES


def example2_node():
    return parse_program(SOURCES["example2"]).blocks[0].expr


def example2_specs(m):
    return {"A": ArraySpec("A", 1, m), "B": ArraySpec("B", 1, m)}


def example2_reference(A, B, m):
    return run_program(
        parse_program(SOURCES["example2"]),
        inputs={"A": (1, A), "B": (1, B)},
        params={"m": m},
    )["X"].to_list()


def random_ab(m, seed=0):
    rng = random.Random(seed)
    return (
        [rng.uniform(-1.2, 1.2) for _ in range(m)],
        [rng.uniform(-2, 2) for _ in range(m)],
    )


def compiled(scheme, m, **opts):
    art = compile_foriter(
        "X", example2_node(), example2_specs(m), {"m": m}, scheme=scheme, **opts
    )
    validate(art.graph)
    balance_graph(art.graph)
    validate(art.graph)
    return art


class TestToddScheme:
    def test_semantics(self):
        m = 9
        A, B = random_ab(m, 1)
        art = compiled("todd", m)
        res = repro.run(art.graph, {"A": A, "B": B}, backend="sync")
        assert res.outputs["X"] == pytest.approx(example2_reference(A, B, m))

    def test_loop_is_three_stages(self):
        art = compiled("todd", 8)
        loop = art.graph.meta["loop"]
        assert loop["length"] == 3
        assert loop["tokens"] == 1
        assert float(loop["rate_bound"]) == pytest.approx(1 / 3)

    def test_rate_is_one_third(self):
        """The paper: 'the initiation rate of the pipeline can not be
        higher than 1/3' (Section 7, Figure 7)."""
        m = 150
        art = compiled("todd", m)
        res = repro.run(
            art.graph, {"A": [1.0] * m, "B": [0.5] * m}, backend="sync",
        )
        assert res.initiation_interval("X") == pytest.approx(3.0, abs=0.05)


class TestCompanionScheme:
    def test_semantics(self):
        m = 9
        A, B = random_ab(m, 2)
        art = compiled("companion", m)
        res = repro.run(art.graph, {"A": A, "B": B}, backend="sync")
        assert res.outputs["X"] == pytest.approx(example2_reference(A, B, m))

    def test_loop_is_four_stages_two_tokens(self):
        """Figure 8: MUL, ADD, MERGE plus the inserted ID -- an even
        loop with two circulating values."""
        art = compiled("companion", 8)
        loop = art.graph.meta["loop"]
        assert loop["length"] == 4
        assert loop["tokens"] == 2
        assert float(loop["rate_bound"]) == pytest.approx(1 / 2)

    def test_rate_is_maximum(self):
        m = 150
        art = compiled("companion", m)
        res = repro.run(
            art.graph, {"A": [1.0] * m, "B": [0.5] * m}, backend="sync",
        )
        assert res.initiation_interval("X") == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("distance", [2, 3, 4, 8])
    def test_gtree_distances(self, distance):
        """Theorem 3's remark: any distance works via the associative
        G tree; the loop stays even (2s) with s circulating values."""
        m = 20
        A, B = random_ab(m, distance)
        art = compiled("companion", m, distance=distance)
        loop = art.graph.meta["loop"]
        assert loop["length"] == 2 * distance
        assert loop["tokens"] == distance
        res = repro.run(art.graph, {"A": A, "B": B}, backend="sync")
        assert res.outputs["X"] == pytest.approx(example2_reference(A, B, m))

    def test_distance_one_rejected(self):
        with pytest.raises(CompileError, match=">= 2"):
            compile_foriter_companion(
                "X", example2_node(), example2_specs(8), {"m": 8}, distance=1
            )

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_degenerate_short_loops_unroll(self, m):
        A, B = random_ab(m, m)
        art = compiled("companion", m, distance=4)
        res = repro.run(art.graph, {"A": A, "B": B}, backend="sync")
        assert res.outputs["X"] == pytest.approx(example2_reference(A, B, m))

    def test_prefix_sum(self):
        m = 12
        node = parse_program(SOURCES["prefix_sum"]).blocks[0].expr
        art = compile_foriter_companion(
            "S", node, {"A": ArraySpec("A", 1, m)}, {"m": m}
        )
        balance_graph(art.graph)
        A = [float(k) for k in range(1, m + 1)]
        res = repro.run(art.graph, {"A": A}, backend="sync")
        expect = [0.0]
        for a in A:
            expect.append(expect[-1] + a)
        assert res.outputs["S"] == pytest.approx(expect)


class TestSchemeComparison:
    """The headline reproduction: who wins and by how much."""

    def test_companion_beats_todd_by_factor_1_5(self):
        m = 200
        steps = {}
        for scheme in ("todd", "companion"):
            art = compiled(scheme, m)
            sim_res = repro.run(
                art.graph, {"A": [1.0] * m, "B": [0.5] * m}, backend="sync",
            )
            steps[scheme] = sim_res.stats.steps
        # rate 1/2 vs 1/3: wall-clock ratio approaches 3/2
        assert steps["todd"] / steps["companion"] == pytest.approx(1.5, abs=0.1)

    def test_bound_matches_measurement(self):
        """The loop rate bound a compiled program carries is the II the
        linked, balanced program measures on the machine."""
        for scheme, expected in (("companion", 2), ("todd", 3)):
            cp = compile_program(
                SOURCES["example2"], params={"m": 120},
                foriter_scheme=scheme,
            )
            bound = cp.artifacts["X"].graph.meta["loop"]["rate_bound"]
            assert 1 / bound == expected
            res = cp.run(
                {k: [1.0] * v.length for k, v in cp.input_specs.items()}
            )
            assert res.initiation_interval("X") == pytest.approx(
                expected, abs=0.05
            )

    def test_same_results_all_schemes(self):
        m = 11
        A, B = random_ab(m, 5)
        expect = example2_reference(A, B, m)
        for scheme in ("todd", "companion"):
            art = compiled(scheme, m)
            res = repro.run(art.graph, {"A": A, "B": B}, backend="sync")
            assert res.outputs["X"] == pytest.approx(expect), scheme

    def test_auto_uses_companion_for_simple(self):
        art = compiled("auto", 10)
        assert art.graph.meta["loop"]["length"] == 4  # companion shape

    def test_auto_falls_back_to_todd(self):
        src = """
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 1.] do
    if i < m then
      iter T := T[i: T[i-1] * T[i-1]]; i := i + 1 enditer
    else T[i: T[i-1] * T[i-1]]
    endif
  endfor
"""
        node = parse_program(src).blocks[0].expr
        m = 6
        with pytest.raises(RecurrenceError):
            compile_foriter_companion("X", node, {}, {"m": m})
        art = compile_foriter("X", node, {}, {"m": m}, scheme="auto")
        balance_graph(art.graph)
        res = repro.run(art.graph, {}, backend="sync")
        # x_i = x_{i-1}^2 with x_0 = 1: all ones
        assert res.outputs["X"] == [1.0] * (m + 1)


class TestInterleavedScheme:
    def test_batch_semantics(self):
        m, b = 10, 4
        As, Bs = [], []
        for j in range(b):
            A, B = random_ab(m, 10 + j)
            As.append(A)
            Bs.append(B)
        art = compile_foriter_interleaved(
            "X", example2_node(), example2_specs(m), {"m": m}, batch=b
        )
        validate(art.graph)
        balance_graph(art.graph)
        res = repro.run(
            art.graph, {"A": interleave(As), "B": interleave(Bs)},
            backend="sync",
        )
        outs = deinterleave(res.outputs["X"], b)
        for j in range(b):
            assert outs[j] == pytest.approx(
                example2_reference(As[j], Bs[j], m)
            ), f"instance {j}"

    def test_full_rate_without_companion(self):
        """Section 9: max rate by a FIFO delay of the batch length."""
        m, b = 60, 4
        art = compile_foriter_interleaved(
            "X", example2_node(), example2_specs(m), {"m": m}, batch=b
        )
        balance_graph(art.graph)
        res = repro.run(
            art.graph, {"A": [1.0] * (m * b), "B": [0.5] * (m * b)},
            backend="sync",
        )
        assert res.initiation_interval("X") == pytest.approx(2.0, abs=0.05)
        loop = art.graph.meta["loop"]
        assert loop["length"] == 2 * b and loop["tokens"] == b

    def test_batch_one_rejected(self):
        with pytest.raises(CompileError, match="batch"):
            compile_foriter_interleaved(
                "X", example2_node(), example2_specs(6), {"m": 6}, batch=1
            )

    def test_offset_access_rejected(self):
        src = """
X : array[real] :=
  for i : integer := 2; T : array[real] := [1: 0.] do
    if i < m then
      iter T := T[i: T[i-1] + A[i-1]]; i := i + 1 enditer
    else T[i: T[i-1] + A[i-1]]
    endif
  endfor
"""
        node = parse_program(src).blocks[0].expr
        with pytest.raises(CompileError, match="offset-0"):
            compile_foriter_interleaved(
                "X", node, {"A": ArraySpec("A", 1, 8)}, {"m": 8}, batch=2
            )

    def test_interleave_roundtrip(self):
        streams = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        flat = interleave(streams)
        assert flat == [1, 4, 7, 2, 5, 8, 3, 6, 9]
        assert deinterleave(flat, 3) == streams

    def test_interleave_validates(self):
        with pytest.raises(CompileError):
            interleave([[1], [2, 3]])
        with pytest.raises(CompileError):
            deinterleave([1, 2, 3], 2)
