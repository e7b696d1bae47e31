"""Every BENCH_*.json at the repository root is a complete benchmark record.

A record compares a parent and a changed tree on the perfbench workloads:
end-to-end medians and quartiles per side, the traced operation counts
that produced them, the machine and the src/ line count.  A record whose
per-layer table pairs the two trees in one process gives, per grid size and
layer, each side's median time, the median paired ratio, the change's wins
with their sign test, and the same for an A/A pair, the table's noise floor.
A table run in both load orders also gives each order's ratio and A/A ratio,
the A/A range and whether the row resolved.  Older records time each tree's
layers in separate processes, one row set per side.
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


# the paired record whose layer table ran in one load order only
ONE_ORDER_RECORDS = {"BENCH_capillary_step.json"}
TWO_ORDER_RECORDS = [p for p in PAIRED_RECORDS if p.name not in ONE_ORDER_RECORDS]
ORDERS = {"parent_first", "change_first"}


@pytest.mark.parametrize("path", TWO_ORDER_RECORDS, ids=[p.name for p in TWO_ORDER_RECORDS])
def test_layer_rows_say_whether_they_resolved(path):
    for n, rows in _paired_layers(path).items():
        for layer, row in rows.items():
            ratios, aa_ratios = row["ratios"], row["aa_ratios"]
            assert set(ratios) == set(aa_ratios) == ORDERS, (n, layer)
            assert all(_finite(r) and r > 0 for r in (*ratios.values(), *aa_ratios.values()))
            lo, hi = row["aa_range"]
            assert lo <= 1.0 <= hi and all(lo <= a <= hi for a in aa_ratios.values()), (n, layer)
            outside = all(r > hi for r in ratios.values()) or all(r < lo for r in ratios.values())
            assert row["resolved"] is outside, (n, layer)
