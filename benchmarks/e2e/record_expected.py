"""Rewrite expected.json from what the program does now.  Only for a
change that is meant to move a modeled statistic, and it must say so.

    python3 benchmarks/e2e/record_expected.py

Modeled statistics that come out equal on two seeds are pinned; the
seed-dependent ones (fig5's data-dependent control) are left out.
"""

from __future__ import annotations

import json
import os
import tempfile

import _env

_env.require_program()

from _trace import Tracer  # noqa: E402  (needs the program on sys.path)
from workloads import WORKLOADS  # noqa: E402


def modeled(name: str, seed: int) -> dict:
    workload = WORKLOADS[name](WORKLOADS[name].generate(seed), Tracer())
    try:
        workload.setup()
        return workload.check(workload.run_op()).modeled
    finally:
        workload.teardown()


def main() -> None:
    pinned = {}
    (_env.OUT / "tmp").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=_env.OUT / "tmp") as scratch:
        os.chdir(scratch)
        for name in WORKLOADS:
            a, b = modeled(name, 0), modeled(name, 1)
            pinned[name] = {
                part: {k: v for k, v in stats.items()
                       if b[part].get(k) == v}
                for part, stats in a.items()
            }
        os.chdir(_env.HERE)
    path = _env.HERE / "expected.json"
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
