"""Unit tests for the compiler's context/selection machinery."""

import pytest

from repro.compiler.context import (
    ROOT,
    Context,
    Filter,
    Seq,
    Split,
    Uniform,
    as_uniform,
    is_compile_time,
)
from repro.errors import CompileError


def static_filter(pattern, polarity=True):
    return Filter(Split.from_pattern(pattern), polarity)


class TestSplit:
    def test_ids_unique(self):
        a = Split.from_pattern([True])
        b = Split.from_pattern([True])
        assert a.sid != b.sid

    def test_static_flag(self):
        assert Split.from_pattern([True]).is_static
        assert not Split.from_control(7).is_static


class TestContext:
    def test_root_selection(self):
        assert ROOT.selection([1, 2, 3]) == [1, 2, 3]
        assert ROOT.is_static

    def test_filter_selection(self):
        ctx = ROOT.extend(static_filter([True, False, True, True]))
        assert ctx.selection([0, 1, 2, 3]) == [0, 2, 3]

    def test_polarity(self):
        split = Split.from_pattern([True, False, True])
        t = ROOT.extend(Filter(split, True))
        f = ROOT.extend(Filter(split, False))
        assert t.selection([5, 6, 7]) == [5, 7]
        assert f.selection([5, 6, 7]) == [6]

    def test_nested_selection(self):
        outer = static_filter([True, True, False, True])
        # inner pattern is over the outer selection (3 elements)
        inner = static_filter([False, True, True])
        ctx = ROOT.extend(outer).extend(inner)
        assert ctx.selection([0, 1, 2, 3]) == [1, 3]

    def test_mismatched_pattern_length(self):
        ctx = ROOT.extend(static_filter([True, False]))
        with pytest.raises(CompileError, match="pattern length"):
            ctx.selection([1, 2, 3])

    def test_runtime_selection_rejected(self):
        ctx = ROOT.extend(Filter(Split.from_control(3), True))
        with pytest.raises(CompileError, match="runtime"):
            ctx.selection([1, 2])
        assert not ctx.is_static

    def test_static_prefix(self):
        s1 = static_filter([True, False])
        s2 = Filter(Split.from_control(9), True)
        s3 = static_filter([True])
        ctx = ROOT.extend(s1).extend(s2).extend(s3)
        assert ctx.static_prefix().filters == (s1,)

    def test_prefix_relation(self):
        f = static_filter([True])
        a = ROOT.extend(f)
        assert ROOT.is_prefix_of(a)
        assert a.is_prefix_of(a)
        assert not a.is_prefix_of(ROOT)

    def test_hash_and_eq(self):
        f = static_filter([True])
        assert ROOT.extend(f) == ROOT.extend(f)
        assert hash(ROOT.extend(f)) == hash(ROOT.extend(f))
        assert ROOT.extend(f) != ROOT


class TestValues:
    def test_uniform_detection(self):
        assert as_uniform(Uniform(5)) == 5
        assert as_uniform(Seq((3, 3, 3))) == 3
        assert as_uniform(Seq((3, 4))) is None
        assert is_compile_time(Uniform(1))
        assert is_compile_time(Seq((1,)))
