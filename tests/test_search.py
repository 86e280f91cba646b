"""Counterexample search and parameter sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import janostab.search as search
from janostab.janowski import JanowskiParams, janowski_series
from janostab.search import _margin_fn, _refine, sweep_parameter_grid
from janostab.series import BranchFailureError
from janostab.subordination import (
    KNOWN_COUNTEREXAMPLE,
    PoleError,
    disk_for,
    ratio_samples,
    stability_ratio,
)

from oracles import sequential_refine

K = KNOWN_COUNTEREXAMPLE


class TestRefinement:
    def test_best_margin_is_monotone_across_rounds(self):
        series = janowski_series(K.params, K.n)
        disk = disk_for("mobius_image", K.params, 0.983)
        margins_at = _margin_fn(series, K.params, disk)
        history = _refine(margins_at, K.z0, 0.983, 0.02, 0.05, iters=12)
        margins = [h[0] for h in history]
        assert all(b >= a for a, b in zip(margins, margins[1:]))
        assert margins[-1] >= margins[0]

    def test_refinement_improves_on_coarse_scan(self):
        series = janowski_series(K.params, K.n)
        disk = disk_for("mobius_image", K.params, 0.983)
        radii = [(j + 1) * 0.983 / 16 for j in range(16)]
        vals, zs, _ = ratio_samples(series, K.params, radii, 32)
        margins = np.abs(vals - disk.center) - disk.radius
        k = int(np.nanargmax(margins))
        margins_at = _margin_fn(series, K.params, disk)
        history = _refine(margins_at, complex(zs[k]), 0.983, 0.983 / 16, 2 * np.pi / 32, 16)
        assert history[-1][0] >= float(margins[k])

    def test_margin_fn_agrees_with_stability_ratio(self):
        series = janowski_series(K.params, K.n)
        disk = disk_for("mobius_image", K.params, 0.983)
        pole = -1.0 / K.params.A
        points = [K.z0, 0.5j, K.z0, pole]
        results = _margin_fn(series, K.params, disk)(points)
        assert len(results) == len(points)
        for z, (margin, ratio) in zip(points[:3], results):
            expect = stability_ratio(K.params, K.n, z)
            assert ratio == expect
            assert margin == disk.margin(expect)
        assert results[3] == (None, None)

    @settings(deadline=None, max_examples=60)
    @given(
        st.floats(-0.95, -0.05),
        st.floats(0.01, 1.0),
        st.floats(0.1, 1.0),
        st.sampled_from((1, 2, 4, 8)),
        st.floats(0.0, 1.0),
        st.floats(-np.pi, np.pi),
        st.sampled_from((16, 64)),
        st.sampled_from((32, 256)),
        st.integers(0, 12),
    )
    def test_batched_descent_matches_sequential(
        self, a, gap, lam, n, f, angle, radii, angles, iters
    ):
        # the history of the batched descent is that of the descent that
        # evaluates one probe at a time
        params = JanowskiParams(a, max(-1.0, a - gap), lam)
        r = 0.983
        series = janowski_series(params, n)
        disk = disk_for("mobius_image", params, r)

        def margin_at(z):
            try:
                ratio = stability_ratio(params, n, z, series)
            except (BranchFailureError, PoleError):
                return None, None
            return disk.margin(ratio), ratio

        z_start = complex(f * r * np.cos(angle), f * r * np.sin(angle))
        args = (z_start, r, r / radii, 2 * np.pi / angles, iters)
        assert _refine(_margin_fn(series, params, disk), *args) == sequential_refine(
            margin_at, *args
        )

    def test_one_evaluation_per_round_plus_one_per_improving_round(self, monkeypatch):
        calls, histories = [], []

        def counting(*args, **kwargs):
            calls.append(1)
            return ratio_samples(*args, **kwargs)

        def recording(*args, **kwargs):
            histories.append(_refine(*args, **kwargs))
            return histories[-1]

        monkeypatch.setattr(search, "ratio_samples", counting)
        monkeypatch.setattr(search, "_refine", recording)
        for n in (1, 2, 4):
            calls.clear()
            histories.clear()
            # the default shape: 64 x 256 coarse samples, 8 refinement rounds
            sweep_parameter_grid((K.params.A,), (K.params.B,), (K.params.lam,), (n,), 0.983)
            (history,) = histories
            improving = sum(b[0] > a[0] for a, b in zip(history, history[1:]))
            assert len(calls) <= 1 + 8 + improving


class TestSweep:
    def test_known_cell_is_positive(self):
        cells = sweep_parameter_grid(
            (-0.679,), (-0.97,), (0.3,), (1,), 0.983, coarse_radii=16, coarse_angles=64
        )
        assert len(cells) == 1
        assert cells[0].margin > 0.10

    def test_cells_are_lexicographic_and_deterministic(self):
        args = dict(
            a_values=(-0.3, -0.6),
            b_values=(-0.9, -0.7),
            lambda_values=(0.4,),
            n_values=(2, 1),
            r=0.9,
            coarse_radii=16,
            coarse_angles=32,
            refine_iters=2,
        )
        cells = sweep_parameter_grid(**args)
        keys = [(c.params.A, c.params.B, c.params.lam, c.n) for c in cells]
        assert keys == sorted(keys)
        assert cells == sweep_parameter_grid(**args)

    def test_drops_pairs_without_gap(self):
        cells = sweep_parameter_grid(
            (-0.5,), (-0.5, -0.9), (0.5,), (1,), 0.9, coarse_radii=16, coarse_angles=32
        )
        assert [(c.params.A, c.params.B) for c in cells] == [(-0.5, -0.9)]

    def test_rejects_values_outside_range(self):
        with pytest.raises(ValueError):
            sweep_parameter_grid((0.2,), (-0.9,), (0.5,), (1,), 0.9)
        with pytest.raises(ValueError):
            sweep_parameter_grid((-0.5,), (0.1,), (0.5,), (1,), 0.9)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(r=1.5),
            dict(n_values=()),
            dict(coarse_radii=4),
            dict(coarse_angles=15),
            dict(refine_iters=-1),
        ],
    )
    def test_validation(self, overrides):
        args = dict(n_values=(1,), r=0.983, coarse_radii=16, coarse_angles=16, refine_iters=0)
        args.update(overrides)
        with pytest.raises(ValueError):
            sweep_parameter_grid((K.params.A,), (K.params.B,), (K.params.lam,), **args)

    def test_tiny_radius_has_no_violations(self):
        cells = sweep_parameter_grid((K.params.A,), (K.params.B,), (K.params.lam,), (1, 2, 4), 0.05)
        assert all(c.margin < 0 for c in cells)

    def test_csv_row_is_recomputable(self):
        cells = sweep_parameter_grid(
            (-0.679,), (-0.97,), (0.3,), (1,), 0.983, coarse_radii=16, coarse_angles=64
        )
        row = cells[0].to_csv_row()
        ratio = complex(row[7], row[8])
        center = complex(row[9], row[10])
        assert abs(row[4] - (abs(ratio - center) - row[11])) < 1e-12
        assert row[12] == "mobius_image"
