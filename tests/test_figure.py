"""Figure sample counts and SVG path formatting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from janostab.figure import _SCALE, _path, compute_figure_geometry
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
