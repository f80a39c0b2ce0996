"""Band-pattern mask generation against a literal brute-force oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from mclnn.errors import ValidationError
from mclnn.mask import MaskSpec, generate_linear_indices, generate_mask


def oracle_indices(l, e, bw, ov):
    """Literal double loop over the band offset a and band number g."""
    stride = l + (bw - ov)
    found = set()
    for a in range(bw):
        for g in range(1, math.ceil((l * e) / stride) + 1):
            lx = a + (g - 1) * stride
            if lx < l * e:
                found.add(lx)
    return sorted(found)


def oracle_mask(l, e, bw, ov):
    grid = np.zeros((l, e))
    for lx in oracle_indices(l, e, bw, ov):
        grid[lx % l, lx // l] = 1.0
    return grid


class TestMaskSpec:
    def test_valid_spec_accepted(self):
        spec = MaskSpec(feature_length=6, hidden_width=5, bandwidth=3, overlap=-1)
        assert spec.stride == 6 + (3 - (-1))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(feature_length=0, hidden_width=3, bandwidth=1, overlap=0),
            dict(feature_length=4, hidden_width=0, bandwidth=1, overlap=0),
            dict(feature_length=4, hidden_width=3, bandwidth=0, overlap=-1),
            dict(feature_length=4, hidden_width=3, bandwidth=5, overlap=0),  # bw > l
        ],
    )
    def test_bound_violations_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            MaskSpec(**kwargs)

    def test_overlap_at_or_above_bandwidth_rejected(self):
        # columns cannot share more 1s than a band holds
        with pytest.raises(ValidationError):
            MaskSpec(feature_length=4, hidden_width=3, bandwidth=2, overlap=2)
        with pytest.raises(ValidationError):
            MaskSpec(feature_length=4, hidden_width=3, bandwidth=2, overlap=7)

    def test_every_valid_spec_has_stride_at_least_two(self):
        # overlap < bandwidth and feature_length >= 1 leave no stride below 2 to reject
        for l in range(1, 13):
            for bandwidth in range(1, l + 1):
                for overlap in range(-2 * l, bandwidth):
                    assert MaskSpec(l, 1, bandwidth, overlap).stride >= 2


class TestLinearIndices:
    def test_four_by_three_band_two(self):
        spec = MaskSpec(feature_length=4, hidden_width=3, bandwidth=2, overlap=0)
        assert generate_linear_indices(spec) == [0, 1, 6, 7]

    def test_full_bandwidth_square(self):
        spec = MaskSpec(feature_length=4, hidden_width=4, bandwidth=4, overlap=0)
        assert generate_linear_indices(spec) == [0, 1, 2, 3, 8, 9, 10, 11]

    def test_single_cell(self):
        spec = MaskSpec(feature_length=1, hidden_width=1, bandwidth=1, overlap=0)
        assert generate_linear_indices(spec) == [0]

    def test_sorted_and_unique(self):
        spec = MaskSpec(feature_length=9, hidden_width=7, bandwidth=4, overlap=3)
        indices = generate_linear_indices(spec)
        assert indices == sorted(set(indices))
        assert all(0 <= lx < 9 * 7 for lx in indices)


class TestGenerateMask:
    def test_four_by_three_layout(self):
        mask = generate_mask(MaskSpec(feature_length=4, hidden_width=3, bandwidth=2, overlap=0))
        expected = np.array(
            [
                [1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0],
            ]
        )
        assert_array_equal(mask.entries, expected)

    def test_negative_overlap_wraps_bands_across_columns(self):
        mask = generate_mask(MaskSpec(feature_length=6, hidden_width=5, bandwidth=3, overlap=-1))
        expected_ones = [
            (0, 0), (1, 0), (2, 0),
            (4, 1), (5, 1),
            (0, 2),
            (2, 3), (3, 3), (4, 3),
        ]
        assert mask.one_positions() == sorted(expected_ones)
        assert_array_equal(mask.entries[:, 4], np.zeros(6))

    def test_single_cell_is_all_ones(self):
        mask = generate_mask(MaskSpec(feature_length=1, hidden_width=1, bandwidth=1, overlap=0))
        assert_array_equal(mask.entries, np.array([[1.0]]))

    def test_entries_are_binary_and_counted(self):
        spec = MaskSpec(feature_length=10, hidden_width=8, bandwidth=4, overlap=2)
        mask = generate_mask(spec)
        assert set(np.unique(mask.entries)) <= {0.0, 1.0}
        assert mask.entries.sum() == len(generate_linear_indices(spec))
        assert mask.entries.sum() <= 10 * 8

    def test_entries_read_only(self):
        mask = generate_mask(MaskSpec(feature_length=4, hidden_width=3, bandwidth=2, overlap=0))
        with pytest.raises(ValueError):
            mask.entries[0, 0] = 0.0

    def test_deterministic(self):
        spec = MaskSpec(feature_length=7, hidden_width=9, bandwidth=3, overlap=-2)
        assert_array_equal(generate_mask(spec).entries, generate_mask(spec).entries)

    def test_bands_occupy_consecutive_rows_within_column(self):
        # a band may be cut by the column boundary, but inside one column
        # each band's rows are contiguous
        for ov in (-3, -1, 0, 2):
            spec = MaskSpec(feature_length=9, hidden_width=6, bandwidth=4, overlap=ov)
            entries = generate_mask(spec).entries
            for col in range(6):
                rows = np.flatnonzero(entries[:, col])
                if rows.size == 0:
                    continue
                gaps = np.flatnonzero(np.diff(rows) > 1)
                # at most two runs per column here: the tail of a wrapped
                # band at the top plus a fresh band lower down
                assert gaps.size <= 2

    def test_matches_oracle_on_dense_grid(self):
        for l in range(1, 9):
            for e in range(1, 9):
                for bw in range(1, l + 1):
                    for ov in range(-bw, bw):
                        spec = MaskSpec(feature_length=l, hidden_width=e, bandwidth=bw, overlap=ov)
                        assert_array_equal(
                            generate_mask(spec).entries,
                            oracle_mask(l, e, bw, ov),
                            err_msg=f"l={l} e={e} bw={bw} ov={ov}",
                        )


@settings(derandomize=True, max_examples=150)
@given(data=st.data())
def test_mask_matches_oracle_sampled(data):
    l = data.draw(st.integers(1, 12), label="l")
    e = data.draw(st.integers(1, 12), label="e")
    bw = data.draw(st.integers(1, l), label="bw")
    ov = data.draw(st.integers(-bw, bw - 1), label="ov")
    spec = MaskSpec(feature_length=l, hidden_width=e, bandwidth=bw, overlap=ov)
    assert_array_equal(generate_mask(spec).entries, oracle_mask(l, e, bw, ov))

