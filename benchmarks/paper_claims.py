"""Regenerate benchmarks/results/paper_claims.json and EXPERIMENTS.md.

    python benchmarks/paper_claims.py

Runs every ``benchmarks/bench_*.py`` script from a fresh claims file,
then renders EXPERIMENTS.md from it.  Exits non-zero when a script
fails, i.e. when one of the paper's claims does not hold.
"""

import sys

import pytest

from _common import CLAIMS, EXPERIMENTS, ROOT, load_claims, render_experiments


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    CLAIMS.unlink(missing_ok=True)
    scripts = sorted(str(p) for p in (ROOT / "benchmarks").glob("bench_*.py"))
    code = pytest.main(["-q", "-p", "no:cacheprovider", *scripts])
    EXPERIMENTS.write_text(render_experiments(load_claims()), encoding="utf-8")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
