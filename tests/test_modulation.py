import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beamspace import (
    InvalidArgumentError,
    PskConstellation,
    RatioSet,
    RatioSetMismatchError,
    ratio_label,
)
from helpers import parse_ratio_label


class TestPskConstellation:
    def test_qpsk_points(self):
        con = PskConstellation.qpsk()
        assert con.order == 4
        assert np.allclose(np.abs(con.points), 1.0)
        assert list(con.points) == [1, 1j, -1, -1j]

    def test_points_distinct(self):
        for order in (2, 4, 8, 16):
            points = PskConstellation(order).points
            assert len(set(points.round(12))) == order

    def test_offset_rotates_points(self):
        con = PskConstellation(4, phase_offset=np.pi / 4)
        assert np.allclose(np.abs(con.points), 1.0)
        assert con.points[0] == pytest.approx(np.exp(1j * np.pi / 4))

    def test_order_validation(self):
        with pytest.raises(InvalidArgumentError):
            PskConstellation(1)

    def test_nearest_quantization(self):
        con = PskConstellation.qpsk()
        got = con.nearest([0.9 + 0.1j, -0.2 - 1.4j])
        assert list(got) == [1, -1j]


class TestRatioSet:
    def test_qpsk_ratios_exact(self):
        ratios = RatioSet(4)
        assert ratios.values == (1, 1j, -1, -1j)

    def test_ratio_count_matches_order(self):
        for order in (2, 3, 4, 8, 12):
            values = RatioSet(order).values
            assert len(set(np.round(values, 12))) == order

    def test_offset_multiple_of_step_ratios_equal_constellation(self):
        # offset = one full step: the ratio alphabet coincides with the points
        con = PskConstellation(4, phase_offset=2 * np.pi / 4)
        ratios = set(np.round(RatioSet(4).values, 12))
        points = set(np.round(con.points, 12))
        assert ratios == points

    def test_index_of_with_tolerance(self):
        ratios = RatioSet(4)
        assert ratios.index_of(1j + 1e-12) == 1
        with pytest.raises(RatioSetMismatchError):
            ratios.index_of(np.exp(1j * 0.3))

    def test_plus_minus_one_indices(self):
        ratios = RatioSet(4)
        assert ratios.plus_one_index == 0
        assert ratios.minus_one_index == 2
        with pytest.raises(RatioSetMismatchError):
            _ = RatioSet(3).minus_one_index

    def test_labels_round_trip(self):
        for order in (2, 4, 8):
            for k in range(order):
                assert parse_ratio_label(ratio_label(k, order), order) == k
        assert ratio_label(1, 4) == "+j"
        assert ratio_label(2, 4) == "-1"

    @given(order=st.sampled_from([2, 4, 8, 16]),
           k1=st.integers(0, 15), k2=st.integers(0, 15))
    def test_ratio_closure(self, order, k1, k2):
        # the quotient of any two constellation points is in the alphabet
        con = PskConstellation(order, phase_offset=0.123)
        p = con.points
        ratio = p[k2 % order] / p[k1 % order]
        assert con.ratio_set.index_of(ratio) == (k2 - k1) % order
