"""Exact star discrepancy against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqmc.bench import iid_pointset
from lqmc.cud_core import (PointSet, builtin_config, generate_cud,
                           overlapping_tuples, star_discrepancy_1d,
                           star_discrepancy_2d)
from lqmc.errors import DomainError, SizeError


def oracle_1d(values, grid=None):
    """max over anchored intervals of |count/N - a|, both count conventions."""
    values = np.asarray(values)
    n = len(values)
    if grid is None:
        grid = np.concatenate([values, [1.0]])
    best = 0.0
    for a in grid:
        closed = (values <= a).sum() / n
        opened = (values < a).sum() / n
        best = max(best, closed - a, a - opened)
    return best


def oracle_2d(points, grid_x=None, grid_y=None):
    """Corner enumeration by direct counting, every corner (a, b) at once:
    the count of x <= a and y <= b is the product of the two indicator
    matrices.  O(N^3) time and O(N^2) memory, fine for N <= 64."""
    pts = np.asarray(points)
    n = len(pts)
    gx = np.concatenate([pts[:, 0], [1.0]]) if grid_x is None else grid_x
    gy = np.concatenate([pts[:, 1], [1.0]]) if grid_y is None else grid_y
    x, y = pts[:, :1], pts[:, 1:]

    def count(below):  # (a, b) -> points with below(x, a) and below(y, b)
        return below(x, gx).T.astype(np.int64) @ below(y, gy).astype(np.int64)

    vol = np.multiply.outer(gx, gy)
    closed, opened = count(np.less_equal) / n, count(np.less) / n
    return max(0.0, float((closed - vol).max()), float((vol - opened).max()))


coords = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, width=64)


class TestStarDiscrepancy1d:
    def test_single_midpoint(self):
        assert star_discrepancy_1d(PointSet(1, np.array([0.5]))) == 0.5

    def test_midpoint_lattice_is_optimal(self):
        pts = PointSet(1, (2 * np.arange(1, 5) - 1) / 8.0)
        assert star_discrepancy_1d(pts) == pytest.approx(1 / 8, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            star_discrepancy_1d(PointSet(1, np.empty((0, 1))))

    def test_full_column_is_nearly_perfect(self):
        # one full m=10 column: perfect stratification caps D* whatever the
        # rotation (one point per dyadic interval, plus the wrap interval)
        from lqmc.drive import build_drive_matrix
        from lqmc.prng import BaselinePrng

        seq = generate_cud(builtin_config(10))
        bound = 1 / 1023 + 1 / 1024
        assert star_discrepancy_1d(PointSet(1, seq.values)) <= bound
        for stream in range(10):
            col = build_drive_matrix(seq, 1, rng=BaselinePrng(77, stream))
            d = star_discrepancy_1d(PointSet(1, col.rows()[:, 0]))
            assert d <= bound

    @settings(max_examples=80, deadline=None)
    @given(st.lists(coords, min_size=1, max_size=64))
    def test_matches_oracle(self, values):
        ps = PointSet(1, np.array(values))
        assert star_discrepancy_1d(ps) == pytest.approx(oracle_1d(values), abs=1e-12)


class TestStarDiscrepancy2d:
    def test_single_center_point(self):
        ps = PointSet(2, np.array([[0.5, 0.5]]))
        assert star_discrepancy_2d(ps) == pytest.approx(0.75, abs=1e-15)
        assert oracle_2d(ps.points) == pytest.approx(0.75, abs=1e-15)

    def test_midpoint_grid_matches_dense_grid_search(self):
        pts = np.array([[x, y] for x in (0.25, 0.75) for y in (0.25, 0.75)])
        ps = PointSet(2, pts)
        dense = np.linspace(0.0, 1.0, 1001)[1:]  # 1e6 candidate rectangles
        approx = oracle_2d(pts, grid_x=dense, grid_y=dense)
        assert star_discrepancy_2d(ps) == pytest.approx(approx, abs=1e-12)

    def test_empty_and_oversize(self):
        with pytest.raises(DomainError):
            star_discrepancy_2d(PointSet(2, np.empty((0, 2))))
        with pytest.raises(SizeError):
            big = np.random.default_rng(0).random(((1 << 14) + 1, 2)) * 0.999
            star_discrepancy_2d(PointSet(2, big))

    def test_duplicate_points(self):
        pts = np.array([[0.3, 0.3]] * 3 + [[0.6, 0.9]])
        ps = PointSet(2, pts)
        assert star_discrepancy_2d(ps) == pytest.approx(oracle_2d(pts), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=48))
    def test_matches_oracle(self, pairs):
        pts = np.array(pairs)
        ps = PointSet(2, pts)
        assert star_discrepancy_2d(ps) == pytest.approx(oracle_2d(pts), abs=1e-12)

    def test_lfsr_pairs_beat_iid_median(self):
        # small-scale version of the acceptance check (m=6, 20 baseline sets)
        pairs = overlapping_tuples(generate_cud(builtin_config(6)), 2)
        d_lfsr = star_discrepancy_2d(pairs)
        iid = [
            star_discrepancy_2d(iid_pointset(len(pairs), 2, seed=9, stream=i))
            for i in range(20)
        ]
        assert d_lfsr < np.median(iid)


class TestPointSet:
    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            PointSet(1, np.array([1.0]))
        with pytest.raises(DomainError):
            PointSet(2, np.array([[0.2, -0.1]]))
        with pytest.raises(DomainError):  # NaN compares false both ways
            PointSet(2, np.array([[0.2, 0.3], [np.nan, 0.5]]))

    def test_rejects_wrong_width(self):
        with pytest.raises(DomainError):
            PointSet(2, np.array([[0.1, 0.2, 0.3]]))

    def test_overlapping_tuples_wrap(self):
        seq = generate_cud(builtin_config(3, offset=1))
        ps = overlapping_tuples(seq, 2)
        assert len(ps) == 7
        assert ps.points[-1, 1] == seq.values[0]
