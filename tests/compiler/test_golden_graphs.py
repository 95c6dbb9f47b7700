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

from repro.workloads import figure_workload

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


def fingerprint(fig: str, m: int) -> tuple[str, list[tuple[str, int, int]]]:
    cp = figure_workload(fig).compile(m=m)
    digest = hashlib.sha256(pickle.dumps(cp.graph, protocol=4)).hexdigest()
    specs = [(name, s.lo, s.hi) for name, s in cp.input_specs.items()]
    return digest, specs


@pytest.mark.parametrize(
    "fig,m", sorted(GOLDEN), ids=[f"{f}-m{m}" for f, m in sorted(GOLDEN)]
)
def test_compiled_graph_bytes_are_pinned(fig, m):
    digest, specs = fingerprint(fig, m)
    want_digest, want_specs = GOLDEN[(fig, m)]
    assert specs == want_specs
    assert digest == want_digest


def test_a_second_compile_emits_the_same_bytes():
    # the split counter and the block caches are process-global or
    # per-compile state; neither may leak into the emitted graph
    assert fingerprint("fig6", 12) == fingerprint("fig6", 12)


if __name__ == "__main__":  # pragma: no cover - re-record helper
    for fig, m in sorted(GOLDEN):
        digest, specs = fingerprint(fig, m)
        print(f'    ("{fig}", {m}): (\n        "{digest}",\n'
              f"        {specs!r},\n    ),")
