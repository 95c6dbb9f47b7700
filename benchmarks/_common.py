"""Shared helpers for the paper-claims suite.

Each ``bench_*.py`` script regenerates one or more of the paper's
figures/claims: it runs the compiled machine code on the unit-delay
simulator (or the machine-level model), measures the *modeled*
quantities the paper reports (initiation intervals, loop shapes,
buffer counts, cycles, traffic fractions), and hands one row per claim
to :func:`record_claim`.  Every row lands in
``benchmarks/results/paper_claims.json``, from which
:func:`render_experiments` generates EXPERIMENTS.md.  Regenerate both
with ``python benchmarks/paper_claims.py``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parent.parent
CLAIMS = ROOT / "benchmarks" / "results" / "paper_claims.json"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"


def _tidy(value: Any) -> Any:
    if isinstance(value, float):
        return round(value, 3)
    if isinstance(value, (list, tuple)):
        return [_tidy(v) for v in value]
    return value


def load_claims() -> list[dict[str, Any]]:
    if not CLAIMS.exists():
        return []
    return json.loads(CLAIMS.read_text(encoding="utf-8"))


def dump_claims(rows: list[dict[str, Any]]) -> str:
    """The one on-disk form of the claims file: rows sorted by id."""
    ordered = sorted(rows, key=lambda row: row["exp"])
    return json.dumps(ordered, indent=1, ensure_ascii=False) + "\n"


def record_claim(exp: str, claim: str, paper: str,
                 measured: dict[str, Any], ok: bool) -> None:
    """Write (or replace) the row ``exp`` of the claims file, then fail
    the calling test unless the paper's claim held.

    ``paper`` is the paper's value, quoted literally; every entry of
    ``measured`` must come from the run (floats are kept to three
    decimals so reruns are byte-identical).
    """
    row = {
        "exp": exp,
        "claim": claim,
        "paper": paper,
        "measured": {key: _tidy(val) for key, val in measured.items()},
        "ok": bool(ok),
    }
    rows = [r for r in load_claims() if r["exp"] != exp] + [row]
    CLAIMS.parent.mkdir(exist_ok=True)
    CLAIMS.write_text(dump_claims(rows), encoding="utf-8")
    assert ok, f"{exp}: claim does not hold: {row['measured']}"


_HEAD = """\
# EXPERIMENTS — paper vs. measured

<!-- generated from benchmarks/results/paper_claims.json by
     `python benchmarks/paper_claims.py`; do not edit by hand -->

Every figure and quantitative claim in the paper and the measured outcome.
The paper contains no tables; its "evaluation" is the set of machine-code
figures plus rate claims, so each row reproduces one figure/claim. Each
row is written by the `record_claim("<exp>", ...)` call in one
`benchmarks/bench_*.py` script, which fails unless the claim holds.
Regenerate the claims file and this page with:

```
python benchmarks/paper_claims.py
```

"II" = initiation interval in instruction times per array element on the
unit-delay simulator; the machine maximum is II = 2 (rate 1/2), the
paper's "fully (maximally) pipelined". Every value is modeled, not
wall-clock, and deterministic (discrete simulation, seeded workloads).
Wall-clock numbers live in the end-to-end harness (`benchmarks/e2e/`,
`BENCHMARK.json`, the committed `BENCH_*.json` runs).

| Exp | Paper artifact & claim | Paper value | Measured |
|---|---|---|---|
"""

_TAIL = """
## Correctness baseline

Every compiled program (all schemes, all balancing methods, and a fixed list
of programs drawn from the workload generators) is checked element-for-element
against the reference Val interpreter (`repro.val.run_program`); see
`tests/integration/test_oracle.py`. The companion transformation reassociates
floating-point arithmetic, so its results agree with the sequential recurrence
to ~1e-15 relative, not bit exact — noted in the quickstart example.

## Reading the shape

The reproduction is exact where the paper is analytic: 1/2 vs 1/3 rates,
even-loop necessity, loop-length = initiation-interval for Todd's scheme,
the 1.5× crossover, and the ≤1/8 AM-traffic bound all come out at the
paper's numbers because the simulator implements the acknowledge discipline
the paper reasons about. Absolute machine cycles (the `fidelity` and
`faults` rows) depend on our latency guesses for 1980s FUs/routing and are
not paper numbers.
"""


def axis(values) -> str:
    """``[1, 2, 4]`` -> ``"1/2/4"``: how a list reads in a claim row."""
    return "/".join(str(v) for v in values)


def _cell(value: Any) -> str:
    return axis(value) if isinstance(value, list) else str(value)


def render_experiments(rows: list[dict[str, Any]]) -> str:
    """EXPERIMENTS.md, generated from the claims rows."""
    lines = []
    for row in sorted(rows, key=lambda r: r["exp"]):
        measured = "; ".join(
            f"{key} **{_cell(val)}**" for key, val in row["measured"].items()
        )
        lines.append(
            f"| {row['exp']} | {row['claim']} | {row['paper']} | {measured} |"
        )
    return _HEAD + "\n".join(lines) + "\n" + _TAIL


def steady_ii(times: list[int], skip_frac: float = 0.25) -> float:
    """Steady-state initiation interval from sink arrival steps,
    discarding ramp-up and drain windows."""
    if len(times) < 8:
        raise ValueError("need more arrivals for a steady-state estimate")
    skip = max(1, int(len(times) * skip_frac))
    window = times[skip:-skip] if len(times) > 2 * skip + 2 else times[skip:]
    return (window[-1] - window[0]) / (len(window) - 1)


def constant_inputs(cp, value: float = 1.0) -> dict[str, list[float]]:
    return {name: [value] * spec.length for name, spec in cp.input_specs.items()}
