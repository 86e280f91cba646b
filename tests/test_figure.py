"""Figure sample counts and SVG path formatting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from janostab.figure import _SCALE, _fixed6_slice, _path, _xy, compute_figure_geometry
from janostab.serialize import fmt6
from janostab.subordination import KNOWN_COUNTEREXAMPLE as K

ARGS = (K.params, K.n, 0.983, K.z0)


class TestSampleCounts:
    @pytest.mark.parametrize("name", ["curve_angles", "boundary_samples"])
    @pytest.mark.parametrize("count", [16.5, 8.5, 16.0])
    def test_rejects_non_integer_counts(self, name, count):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            compute_figure_geometry(*ARGS, **{name: count})


def reference_path(points, color: str, extra: str = "") -> str:
    """The path element formatted one point at a time."""
    coords = " ".join(
        f"{fmt6(_SCALE * complex(w).real)},{fmt6(-_SCALE * complex(w).imag)}" for w in points
    )
    return f'<path d="M {coords} Z" fill="none" stroke="{color}" stroke-width="2" {extra}/>'


# odd multiples of 1/64000 scale to odd multiples of 1/128: exact binary
# values with a 5 in the 7th decimal, so 6-decimal rounding sits on a tie
TIES = [k / 64000 for k in (1, -1, 3, -7, 12345, -99999)]
EDGES = [0.0, -0.0, 1e-12, -1e-12, -4e-10, 2e3, -1e6, 1e6, 123456.7890123]
COORDS = st.one_of(
    st.sampled_from(TIES + EDGES),
    st.floats(-1e6, 1e6, allow_nan=False),
)
# scaled by _SCALE, these lie on either side of the carry 999.999999 ->
# 1000.000000, past the carry 0.999999 -> 1.000000, and at 999999.999999,
# the largest value below 10**6
CARRIES = [v / _SCALE for v in (-999.99999951, 999.99999949, -0.99999951, 999999.9999994)]
# no exact ties, but their products with 10**6 round onto one
NEAR_TIES = [v / _SCALE for v in (999.9999995, -0.9999995)]
# |coordinate| < 2000 scales below 10**6: the range of the digit-word path
FAST_COORDS = st.one_of(
    st.sampled_from(TIES + NEAR_TIES + CARRIES + [0.0, -0.0, 1e-12, -4e-10]),
    st.floats(-2e3, 2e3, allow_nan=False, exclude_min=True, exclude_max=True),
)


def takes_fast_path(points) -> bool:
    return _fixed6_slice(_xy(points), True) is not None


class TestPath:
    def test_ties_signed_zeros_and_large_magnitudes(self):
        values = TIES + EDGES
        points = np.array([complex(x, y) for x in values for y in values])
        assert _path(points, "#000000") == reference_path(points, "#000000")

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=50))
    def test_matches_per_point_formatting(self, pairs):
        points = np.array([complex(x, y) for x, y in pairs])
        extra = 'stroke-dasharray="8,5" '
        assert _path(points, "#4878cf", extra) == reference_path(points, "#4878cf", extra)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.tuples(FAST_COORDS, FAST_COORDS), min_size=1, max_size=50))
    def test_matches_per_point_formatting_in_the_fast_range(self, pairs):
        points = np.array([complex(x, y) for x, y in pairs])
        assert _path(points, "#2f9e44") == reference_path(points, "#2f9e44")

    def test_carries_signed_zeros_and_long_paths_take_the_fast_path(self):
        values = CARRIES + [0.0, -0.0, 1e-12, -4e-10, 1.0, -1.999]
        points = np.array([complex(x, y) for x in values for y in values])
        # a path of several numpy slices, its last one partial
        long = np.exp(1j * np.linspace(0.0, 7.0, 70001)) * 1.3
        for pts in (points, long):
            assert takes_fast_path(pts)
            assert _path(pts, "#000000") == reference_path(pts, "#000000")

    @pytest.mark.parametrize(
        "value",
        [
            TIES[2],  # an exact tie of the 6-decimal rounding
            NEAR_TIES[0],
            2e3,  # 10**6 after scaling
            999999.9999996 / _SCALE,  # rounds up to 10**6
            -1e6,
        ],
    )
    def test_each_fallback_trigger_formats_the_whole_path_by_percent(self, value):
        points = np.array([0.25 + 0.5j, complex(value, 0.125), -0.0 - 1e-3j])
        assert not takes_fast_path(points)
        assert takes_fast_path(points[[0, 2]])
        assert _path(points, "#000000") == reference_path(points, "#000000")
