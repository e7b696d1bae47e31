"""Every BENCH_*.json at the repository root is a complete benchmark record.

A record compares a parent and a changed tree on the perfbench workloads:
end-to-end medians and quartiles per side, the traced operation counts
that produced them, the machine and the src/ line count.  A record whose
per-layer table pairs the two trees in one process gives, per grid size and
layer, each side's median time, the median paired ratio, the change's wins
with their sign test, and the same for an A/A pair, the table's noise floor.
Older records time each tree's layers in separate processes, one row set
per side.
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
PAIRED = ("parent_ms", "change_ms", "ratio", "aa_ratio")


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


def _paired_layers(path) -> dict:
    """The paired per-layer table of a record, {} for one with per-side rows."""
    layers = json.loads(path.read_text()).get("layers", {})
    return {} if "parent" in layers else {n: t for n, t in layers.items() if n != "method"}


PAIRED_RECORDS = [p for p in RECORDS if _paired_layers(p)]


@pytest.mark.parametrize("path", PAIRED_RECORDS, ids=[p.name for p in PAIRED_RECORDS])
def test_paired_layer_table_is_complete(path):
    for n, rows in _paired_layers(path).items():
        assert rows, n
        for layer, row in rows.items():
            assert all(_finite(row[f]) and row[f] > 0 for f in PAIRED), (n, layer)
            for wins, p in (("change_wins", "p_sign"), ("aa_wins", "aa_p_sign")):
                assert isinstance(row[wins], int) and 0 <= row[wins] <= row["pairs"], (n, layer)
                assert _finite(row[p]) and 0 < row[p] <= 1, (n, layer)
