"""Compilation contexts, streams and selection filters.

The pipelined mapping of Section 5 turns every value of a primitive
expression into a *stream*: one token per iteration of the index
variable.  Conditionals split the iteration set; array windows select
positions of an input stream.  This module provides the bookkeeping:

* :class:`Value` -- a compiled subexpression: either a compile-time
  sequence (:class:`Uniform` / :class:`Seq`) or a runtime stream wired
  to a producing cell (:class:`Wire`);
* :class:`Split` / :class:`Filter` -- one conditional's selection,
  either a compile-time boolean pattern (when the condition depends
  only on the index variable, as in Example 1's boundary test) or a
  runtime control stream (Figure 5's ``if C[i]``);
* :class:`Context` -- the stack of filters a subexpression is compiled
  under, with ``selection()`` giving the concrete index values when all
  filters are compile-time.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Any, Optional, Union

from ..errors import CompileError

_split_counter = itertools.count()


@dataclass(frozen=True)
class Split:
    """One conditional's iteration split.

    Exactly one of ``pattern`` (compile-time booleans over the enclosing
    selection) and ``control_cell`` (a cell producing the boolean stream
    at run time) is set.  ``sid`` identifies the split for gate sharing:
    the two arms of one conditional gate a given stream through the
    *same* identity cell, using T/F destination tags.
    """

    sid: int
    pattern: Optional[tuple[bool, ...]] = None
    control_cell: Optional[int] = None

    @staticmethod
    def from_pattern(pattern: list[bool]) -> "Split":
        return Split(next(_split_counter), pattern=tuple(pattern))

    @staticmethod
    def from_control(cell: int) -> "Split":
        return Split(next(_split_counter), control_cell=cell)

    @property
    def is_static(self) -> bool:
        return self.pattern is not None


@dataclass(frozen=True)
class Filter:
    """One arm of a split: the iterations where the split's condition
    equals ``polarity``."""

    split: Split
    polarity: bool

    @property
    def key(self) -> tuple[int, bool]:
        return (self.split.sid, self.polarity)


def pick(values, pattern: tuple[bool, ...], polarity: bool) -> list:
    """The ``values`` whose pattern entry equals ``polarity`` (patterns
    hold bools, so that is their truth value)."""
    if not polarity:
        pattern = map(operator.not_, pattern)
    return list(itertools.compress(values, pattern))


class Context:
    """An ordered stack of filters over the block's iteration range."""

    __slots__ = ("filters",)

    def __init__(self, filters: tuple[Filter, ...] = ()) -> None:
        self.filters = filters

    def extend(self, filt: Filter) -> "Context":
        return Context(self.filters + (filt,))

    @property
    def is_static(self) -> bool:
        """All filters are compile-time patterns."""
        return all(f.split.is_static for f in self.filters)

    def static_prefix(self) -> "Context":
        """The longest all-static prefix of this context."""
        out = []
        for f in self.filters:
            if not f.split.is_static:
                break
            out.append(f)
        return Context(tuple(out))

    def selection(self, base: list[int]) -> list[int]:
        """Index values selected by this (all-static) context, given the
        block's base index list."""
        sel = base
        for f in self.filters:
            if not f.split.is_static:
                raise CompileError(
                    "selection() on a context with runtime filters"
                )
            pattern = f.split.pattern
            assert pattern is not None
            if len(pattern) != len(sel):
                raise CompileError(
                    f"pattern length {len(pattern)} != selection {len(sel)}"
                )
            sel = pick(sel, pattern, f.polarity)
        return sel

    def key(self) -> tuple[tuple[int, bool], ...]:
        return tuple(f.key for f in self.filters)

    def is_prefix_of(self, other: "Context") -> bool:
        return other.filters[: len(self.filters)] == self.filters

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Context) and self.filters == other.filters

    def __hash__(self) -> int:
        return hash(self.filters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Context({self.key()})"


ROOT = Context()


# ---------------------------------------------------------------------------
# compiled values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Uniform:
    """A compile-time constant: the same scalar on every iteration.

    Valid in any context (selection does not change it); becomes an
    instruction constant operand when consumed.
    """

    value: Any


@dataclass(frozen=True)
class Seq:
    """A compile-time *sequence*: one known value per selected iteration.

    Only exists under all-static contexts (where the selected iteration
    set is known).  Materializes as a pattern SOURCE cell.
    """

    values: tuple[Any, ...]


#: Compile-time values; runtime stream endpoints (``Wire``) live in
#: :mod:`repro.compiler.expr`, which owns the graph-facing side.
Value = Union[Uniform, Seq]


def is_compile_time(v: Value) -> bool:
    return isinstance(v, (Uniform, Seq))


def as_uniform(v: Value) -> Optional[Any]:
    """The constant when ``v`` is uniform (a Seq of equal values counts)."""
    if isinstance(v, Uniform):
        return v.value
    if isinstance(v, Seq) and v.values and all(
        map(operator.eq, v.values, itertools.repeat(v.values[0]))
    ):
        return v.values[0]
    return None
