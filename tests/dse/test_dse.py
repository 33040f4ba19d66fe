"""DSE harness: sweeps, Pareto fronts, reports."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import DeviceConfig
from repro.dse import ParallelSweep, format_table, pareto_front, to_csv
from repro.workloads import get_workload


def test_sweep_runs_grid():
    w = get_workload("spmv")
    points = ParallelSweep().run(
        w,
        {"ports": [1, 4]},
        configure=lambda p: dict(
            config=DeviceConfig(read_ports=p["ports"], write_ports=p["ports"]),
            spm_bytes=1 << 14,
        ),
    )
    assert len(points) == 2
    assert points[0].params == {"ports": 1}
    assert all(p.cycles > 0 and p.power_mw > 0 for p in points)
    # More ports cannot be slower.
    assert points[1].cycles <= points[0].cycles


def test_sweep_records_flat():
    w = get_workload("spmv")
    points = ParallelSweep().run(w, {"ports": [2]},
                                 configure=lambda p: dict(spm_bytes=1 << 14))
    record = points[0].record()
    for key in ("ports", "cycles", "runtime_us", "power_mw", "stall_fraction"):
        assert key in record


# -- Pareto ------------------------------------------------------------------
def test_pareto_simple():
    points = [(1, 10), (2, 5), (3, 6), (4, 1), (2, 20)]
    front = pareto_front(points, objectives=lambda p: p)
    assert set(front) == {(1, 10), (2, 5), (4, 1)}


def test_pareto_single_point():
    assert pareto_front([(1, 1)], objectives=lambda p: p) == [(1, 1)]


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                min_size=1, max_size=40))
def test_pareto_front_is_nondominated(points):
    front = pareto_front(points, objectives=lambda p: p)
    assert front, "front never empty for nonempty input"
    for candidate in front:
        for other in points:
            strictly_better = (
                other[0] <= candidate[0]
                and other[1] <= candidate[1]
                and (other[0] < candidate[0] or other[1] < candidate[1])
            )
            assert not strictly_better


@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                min_size=1, max_size=30))
def test_every_point_dominated_by_front_or_on_it(points):
    front = pareto_front(points, objectives=lambda p: p)
    for point in points:
        assert any(f[0] <= point[0] and f[1] <= point[1] for f in front)


# -- reports -----------------------------------------------------------------
def test_format_table():
    rows = [{"name": "gemm", "cycles": 100, "err": 0.123456}]
    text = format_table(rows, title="T")
    assert "T" in text and "gemm" in text and "0.123" in text


def test_format_table_empty():
    assert "(empty)" in format_table([])


def test_format_table_column_subset():
    rows = [{"a": 1, "b": 2}]
    text = format_table(rows, columns=["b"])
    assert "b" in text and "a" not in text.splitlines()[0]


def test_to_csv():
    rows = [{"x": 1, "y": 2}, {"x": 3, "y": 4}]
    csv = to_csv(rows)
    assert csv.splitlines() == ["x,y", "1,2", "3,4"]
    assert to_csv([]) == ""
