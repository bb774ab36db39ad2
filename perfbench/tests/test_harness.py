"""Self-tests of the benchmark harness: python3 -m pytest perfbench/tests -q"""

import itertools
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from run import Record, end_to_end  # noqa: E402


def _first_rounds(workload, seed, count=3):
    return list(itertools.islice(workloads.rounds(workload, seed), count))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_op_list(workload):
    assert _first_rounds(workload, 7) == _first_rounds(workload, 7)
    assert _first_rounds(workload, 7) != _first_rounds(workload, 8)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_round_has_the_same_op_kinds(workload):
    kinds = [sorted((op.kind, op.field) for op in ops) for ops in _first_rounds(workload, 3, 5)]
    assert all(k == kinds[0] for k in kinds)


def test_x_values_are_passed_with_equals_sign():
    # argparse reads "--x -0.5,0.3" as a missing value, so negative parts
    # must travel as "--x=-0.5,0.3"
    for ops in _first_rounds("theta-cold", 11, 5):
        for op in ops:
            for a, b in zip(op.argv, op.argv[1:]):
                assert not (a in ("--x", "--z") and b.startswith("-"))


def test_failed_ops_enter_percentiles_as_inf():
    lat = [0.1, 0.2, 0.3, math.inf, math.inf]
    assert stats.percentile(lat, 50) == 0.3
    assert stats.percentile(lat, 100) == math.inf
    assert stats.percentile(lat, 75) == math.inf
    assert stats.percentile(lat + [math.inf], 50) == math.inf


def _record(ok, latency):
    op = workloads.Op("theta-check", ("theta-check",), 1e-8, 1, "Q")
    verdict = verify.Verdict(ok, "" if ok else "exit 1", 3.0 if ok else None)
    return Record(op, verdict, latency, 40.0, latency)


def test_end_to_end_counts_failures_as_inf():
    # failures are the fastest ops here, yet they push every percentile up
    records = [_record(True, 0.01 * i) for i in range(1, 15)] + [_record(False, 0.001)] * 16
    values = {name: value for name, (value, _) in end_to_end(records, 2.0, 0.5).items()}
    assert values["op_p50_s"] == math.inf          # 16 of 30 failed: the median is a failure
    assert values["op_tail_s"] == math.inf
    assert values["ops_failed_frac"] == pytest.approx(16 / 30)
    assert values["goodput_ops_per_s"] == pytest.approx(7.0)


def test_end_to_end_without_failures():
    records = [_record(True, 0.01 * i) for i in range(1, 31)]
    values = {name: value for name, (value, _) in end_to_end(records, 2.0, 0.5).items()}
    assert values["op_p50_s"] == pytest.approx(0.155)
    assert values["op_tail_s"] == pytest.approx(0.2072)  # p68 of 30: 10 beyond
    assert values["ops_failed_frac"] == 0.0
    assert values["goodput_ops_per_s"] == pytest.approx(15.0)


@pytest.mark.parametrize("workload", ["theta-cold", "zeros-scan"])
def test_scan_windows_stay_below_known_failures(workload):
    # the timed workloads draw only where the package passes: every window
    # ends below the first failing height and holds no close zero pair
    closest = {field: min(b - a for a, b in zip(zs, zs[1:]) if a >= lo and b <= hi + w)
               for field, (lo, hi) in workloads.SCAN_STARTS.items()
               for w in [workloads.SCAN_WIDTH]
               for zs in [verify.load_reference(field)[1]]}
    assert all(gap > 0.03 for gap in closest.values()), closest
    for ops in _first_rounds(workload, 5):
        for op in ops:
            if op.kind == "zeros-scan":
                lo, hi = workloads.SCAN_STARTS[op.field]
                assert lo <= op.window[0] <= hi


def test_defects_round_holds_every_known_defect():
    ops = _first_rounds("defects", 1, 1)[0]
    scans = [op for op in ops if op.kind == "zeros-scan"]
    assert len(scans) == len(workloads.DEFECT_SCANS)
    assert sum(op.kind == "inverse-check" for op in ops) == len(workloads.DEFECT_INVERSE)
    assert sum(op.kind == "phi-check" for op in ops) == len(workloads.DEFECT_PHI)


def _beyond(values, p):
    tail = stats.percentile(values, p)
    return sum(1 for v in values if v > tail)


@pytest.mark.parametrize("n", [1, 5, 10, 11, 12, 20, 34, 100, 425, 1000])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    values = list(range(n))
    p = stats.tail_percentile(n)
    assert stats.samples_beyond(n, p) == _beyond(values, p)
    if n > 10:
        assert _beyond(values, p) >= 10
        assert p == 100 or _beyond(values, p + 1) < 10
    else:
        assert p == 0


def test_tail_percentile_examples():
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(34) == 72
    assert stats.tail_percentile(11) == 9


def test_self_time_on_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),        # child of root
        ("b", 2.0, 3.0, 1),        # child of a
        ("c", 5.0, 9.0, 0),        # child of root
        ("d", 6.0, 7.0, 3),        # child of c
        ("e", 6.5, 8.0, 3),        # child of c, overlaps d
        ("f", 8.5, 9.5, 3),        # child of c, sticks out past c's end
    ]
    assert stats.self_times(spans) == pytest.approx([10 - 3 - 4, 3 - 1, 1, 4 - 2 - 0.5, 1, 1.5, 1])


def test_scan_verdicts_against_reference():
    ref = {"Q": (100.0, [14.134725141734, 21.022039638772, 25.010857580146])}
    op = workloads.Op("zeros-scan", ("zeros-scan",), 1e-6, field="Q", window=(10.0, 24.0))
    out = "gamma\txi_residual\n14.134725141823\t1e-9\n21.022039638700\t1e-9\n"
    good = verify.verify(op, {"code": 0, "stdout": out}, ref)
    assert good.ok and good.margin == pytest.approx(math.log10(1e-6 / 8.9e-11), abs=0.01)
    missing = verify.verify(op, {"code": 0, "stdout": "gamma\txi_residual\n14.134725141823\t0\n"}, ref)
    assert not missing.ok and "missed 1 of 2" in missing.reason
    extra = verify.verify(op, {"code": 0, "stdout": out + "22.5\t0\n"}, ref)
    assert not extra.ok and "not in the reference" in extra.reason
    crashed = verify.verify(op, {"code": 2, "stdout": "", "stderr": "error: boom\n"}, ref)
    assert not crashed.ok and "boom" in crashed.reason


def test_residual_above_tolerance_fails():
    op = workloads.Op("inverse-check", ("inverse-check",), 1e-5, 1, "Q")
    header = "x_re\tx_im\tlhs\trhs\trel_error\tzeros\n"
    ok = verify.verify(op, {"code": 0, "stdout": header + "2\t0\t1\t1\t1e-12\t30\n"}, {})
    assert ok.ok and ok.margin == pytest.approx(7.0)
    bad = verify.verify(op, {"code": 0, "stdout": header + "2\t0\t1\t1\t2e-5\t30\n"}, {})
    assert not bad.ok
    nan = verify.verify(op, {"code": 0, "stdout": header + "2\t0\t1\t1\tnan\t30\n"}, {})
    assert not nan.ok
    garbled = verify.verify(op, {"code": 0, "stdout": header + "2\t0\t1\t1\tx\t30\n"}, {})
    assert not garbled.ok and "unparsable" in garbled.reason
