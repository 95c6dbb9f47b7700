"""EXPERIMENTS.md is generated from benchmarks/results/paper_claims.json.

``python benchmarks/paper_claims.py`` reruns every paper-figure script
and rewrites both files; this test pins them to each other, so a hand
edit of either one (or a claims file with a failed claim) is red.
"""

import importlib.util
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _common():
    path = ROOT / "benchmarks" / "_common.py"
    spec = importlib.util.spec_from_file_location("bench_common", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_experiments_md_is_rendered_from_the_claims_file():
    common = _common()
    rows = common.load_claims()
    assert rows, "benchmarks/results/paper_claims.json is missing"
    assert common.CLAIMS.read_text(encoding="utf-8") == common.dump_claims(rows)
    assert common.EXPERIMENTS.read_text(encoding="utf-8") == (
        common.render_experiments(rows)
    )
    repeated = [exp for exp, n in Counter(r["exp"] for r in rows).items()
                if n > 1]
    assert not repeated, repeated
    failed = [r["exp"] for r in rows if r["ok"] is not True]
    assert not failed, failed
