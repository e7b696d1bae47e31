"""Every BENCH_*.json at the repository root is a complete benchmark record.

A record compares a parent and a changed tree on the perfbench workloads:
end-to-end medians and quartiles per side, the traced operation counts
that produced them, the machine and the src/ line count.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")
MACHINE_FACTS = ("nproc", "python", "numpy", "fft_backend")
TRACED_COUNTS = ("stepper.steps", "dynamics.rhs_calls", "table_builds")


def test_a_bench_record_exists():
    assert RECORDS, "no BENCH_*.json at the repository root"


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_is_complete(path):
    rec = json.loads(path.read_text())
    assert isinstance(rec.get("label"), str) and rec["label"]
    assert isinstance(rec.get("method"), str) and rec["method"]
    for fact in MACHINE_FACTS:
        assert fact in rec["machine"], fact
    for side in SIDES:
        lines = rec["src_lines"][side]
        assert isinstance(lines, int) and lines > 0
    workloads = rec["workloads"]
    assert workloads
    for name, wl in workloads.items():
        for side in SIDES:
            stats = wl["wall_s"][side]
            assert all(_finite(stats[q]) for q in ("q1", "median", "q3")), (name, side)
            assert stats["q1"] <= stats["median"] <= stats["q3"], (name, side)
            counts = wl["traced"][side]
            for counter in TRACED_COUNTS:
                assert isinstance(counts[counter], int) and counts[counter] >= 0, (
                    name, side, counter,
                )
