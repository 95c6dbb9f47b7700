"""Golden pins for what the compiler emits.

The compiler's speed work (reusing the input-range probe's compile,
building selections and patterns at C speed) must not move a single
byte of its output.  Each case pins the SHA-256 of the pickled
``CompiledProgram.graph`` and the inferred ``input_specs`` -- names,
order and ranges -- for one figure at one size.  The values were
recorded before any of that work landed.

Re-record only after a deliberate change to the emitted graph:
``PYTHONPATH=src python -m tests.compiler.test_golden_graphs``.
"""

import hashlib
import pickle

import pytest

from repro.compiler import compile_program
from repro.workloads import EXAMPLE2_SOURCE, figure_workload
from tests.compiler.test_mobius import THOMAS_SRC
from tests.compiler.test_semiring import ENVELOPE_SRC

#: (figure, m) -> (graph SHA-256, [(input name, lo, hi), ...])
GOLDEN = {
    ("fig2", 12): (
        "2cec9a9e00cc8707ab175d0df3eae88176f548d9bd6196e6c2d45b81b4123902",
        [("a", 0, 11), ("b", 0, 11)],
    ),
    ("fig2", 600): (
        "0d46a3b11283f0baccb71db279f9d511ccc88d875b88c856c62f65f2e43998e7",
        [("a", 0, 599), ("b", 0, 599)],
    ),
    ("fig4", 12): (
        "b061c02fa45dcb0fa9bdf7cdca33549ea25743ee76328eceecd3843f7d98bd2f",
        [("C", 0, 13)],
    ),
    ("fig4", 600): (
        "960b1ed5d06393e4ebc1a7647f4e54a8710c4c0b4529f5d2bd4bc0b6eb636f16",
        [("C", 0, 601)],
    ),
    ("fig5", 12): (
        "77fa5c178f8dc0200aff26e6b2b852f8fc471196f40cc95f1a93c2fb9bd18896",
        [("C", 0, 11), ("A", 0, 11), ("B", 0, 11)],
    ),
    ("fig5", 600): (
        "f98020d7f207819a759ee4413f7bb9baa9da8b1b81fb149d91ee79cb2ac6848e",
        [("C", 0, 599), ("A", 0, 599), ("B", 0, 599)],
    ),
    ("fig6", 12): (
        "5c8f294624c2230f2879c0d82e29c0b66b9b564fe37e29e897ea7a34f1d8fa58",
        [("C", 0, 13), ("B", 0, 13)],
    ),
    ("fig6", 600): (
        "c0d07f67e0e65175592836d1f2515abbc85c8d4ae017bc95421253bae4581517",
        [("C", 0, 601), ("B", 0, 601)],
    ),
    ("fig7", 12): (
        "2ab75a501f1969447f1892c5b5a8829d177fef1da6cd6f3638d80552c1331fa3",
        [("A", 1, 12), ("B", 1, 12)],
    ),
    ("fig7", 600): (
        "2acaea19f6f31dcaaeec7532437e21fd5cfbd97ae334a09d145f53cff2e94345",
        [("A", 1, 600), ("B", 1, 600)],
    ),
}


#: for-iter programs compiled at m = 12 under a for-iter scheme and a
#: companion distance: the companion loop of every algebra
FORITER_SOURCES = {
    "example2": EXAMPLE2_SOURCE,
    "envelope": ENVELOPE_SRC,  # max-plus
    "thomas": THOMAS_SRC,  # Moebius
}

#: (program, scheme, distance) -> (graph SHA-256, [(input, lo, hi), ...])
GOLDEN_FORITER = {
    ("envelope", "companion", 2): (
        "f9eb62d7b7e9c71d3ee5504208da1a6c050a703398ca97fdbcaa6485c55c46ee",
        [("D", 1, 12), ("A", 1, 12)],
    ),
    ("example2", "auto", 2): (
        "09c4a497a0d53b32d2c27044ef0cb6648f2d1e8ee3d93580b7ef552338f25536",
        [("A", 1, 12), ("B", 1, 12)],
    ),
    ("example2", "companion", 3): (
        "02ec3ed8e1951600a204e1a5014df0f6b30fc5c02dcaf1838dcbc0a3ac872823",
        [("A", 1, 12), ("B", 1, 12)],
    ),
    ("example2", "companion", 5): (
        "b91636d13665b8831026b5261adedb1926b3669b70bfaa33e3f217c7acd15adc",
        [("A", 1, 12), ("B", 1, 12)],
    ),
    ("thomas", "companion", 2): (
        "6e640fbb5ae7ab893a845bafe697f128073a2af62f1e6d77b9c7394d3b2bbef3",
        [("C", 1, 12), ("B", 1, 12), ("A", 1, 12)],
    ),
}


def _digest(cp) -> tuple[str, list[tuple[str, int, int]]]:
    digest = hashlib.sha256(pickle.dumps(cp.graph, protocol=4)).hexdigest()
    specs = [(name, s.lo, s.hi) for name, s in cp.input_specs.items()]
    return digest, specs


def fingerprint(fig: str, m: int) -> tuple[str, list[tuple[str, int, int]]]:
    return _digest(figure_workload(fig).compile(m=m))


def foriter_fingerprint(
    program: str, scheme: str, distance: int
) -> tuple[str, list[tuple[str, int, int]]]:
    return _digest(compile_program(
        FORITER_SOURCES[program], params={"m": 12},
        foriter_scheme=scheme, distance=distance,
    ))


@pytest.mark.parametrize(
    "fig,m", sorted(GOLDEN), ids=[f"{f}-m{m}" for f, m in sorted(GOLDEN)]
)
def test_compiled_graph_bytes_are_pinned(fig, m):
    digest, specs = fingerprint(fig, m)
    want_digest, want_specs = GOLDEN[(fig, m)]
    assert specs == want_specs
    assert digest == want_digest


@pytest.mark.parametrize(
    "program,scheme,distance", sorted(GOLDEN_FORITER),
    ids=[f"{p}-{s}-s{d}" for p, s, d in sorted(GOLDEN_FORITER)],
)
def test_compiled_foriter_bytes_are_pinned(program, scheme, distance):
    digest, specs = foriter_fingerprint(program, scheme, distance)
    want_digest, want_specs = GOLDEN_FORITER[(program, scheme, distance)]
    assert specs == want_specs
    assert digest == want_digest


def test_a_second_compile_emits_the_same_bytes():
    # the split counter and the block caches are process-global or
    # per-compile state; neither may leak into the emitted graph
    assert fingerprint("fig6", 12) == fingerprint("fig6", 12)


def test_companion_foriter_compiles_are_byte_identical():
    # Example 2 compiles under the companion scheme, whose constant
    # first value gets a source of its own; its name must not depend on
    # where that value lives in memory (all three stay alive, so no
    # compile can reuse another's addresses)
    programs = [
        compile_program(EXAMPLE2_SOURCE, params={"m": 8}) for _ in range(3)
    ]
    assert len({pickle.dumps(cp.graph, protocol=4) for cp in programs}) == 1


if __name__ == "__main__":  # pragma: no cover - re-record helper
    print("GOLDEN = {")
    for fig, m in sorted(GOLDEN):
        digest, specs = fingerprint(fig, m)
        print(f'    ("{fig}", {m}): (\n        "{digest}",\n'
              f"        {specs!r},\n    ),")
    print("}\nGOLDEN_FORITER = {")
    for program, scheme, distance in sorted(GOLDEN_FORITER):
        digest, specs = foriter_fingerprint(program, scheme, distance)
        print(f'    ("{program}", "{scheme}", {distance}): (\n'
              f'        "{digest}",\n        {specs!r},\n    ),')
    print("}")
