"""Counterexample search and parameter sweeps."""

import numpy as np
import pytest

from janostab.janowski import janowski_series
from janostab.search import _margin_fn, _refine, sweep_parameter_grid
from janostab.subordination import KNOWN_COUNTEREXAMPLE, disk_for, ratio_samples, stability_ratio

K = KNOWN_COUNTEREXAMPLE


class TestRefinement:
    def test_best_margin_is_monotone_across_rounds(self):
        series = janowski_series(K.params, K.n)
        disk = disk_for("mobius_image", K.params, 0.983)
        margin_at = _margin_fn(series, K.params, disk)
        history = _refine(margin_at, K.z0, 0.983, 0.02, 0.05, iters=12)
        margins = [h[0] for h in history]
        assert all(b >= a for a, b in zip(margins, margins[1:]))
        assert margins[-1] >= margins[0]

    def test_refinement_improves_on_coarse_scan(self):
        series = janowski_series(K.params, K.n)
        disk = disk_for("mobius_image", K.params, 0.983)
        radii = [(j + 1) * 0.983 / 16 for j in range(16)]
        vals, zs, _ = ratio_samples(series, K.params.lam, K.params.A, K.params.B, radii, 32)
        margins = np.abs(vals - disk.center) - disk.radius
        k = int(np.nanargmax(margins))
        margin_at = _margin_fn(series, K.params, disk)
        history = _refine(margin_at, complex(zs[k]), 0.983, 0.983 / 16, 2 * np.pi / 32, 16)
        assert history[-1][0] >= float(margins[k])

    def test_margin_fn_agrees_with_stability_ratio(self):
        series = janowski_series(K.params, K.n)
        disk = disk_for("mobius_image", K.params, 0.983)
        margin, ratio = _margin_fn(series, K.params, disk)(K.z0)
        expect = stability_ratio(K.params, K.n, K.z0)
        assert ratio == expect
        assert margin == disk.margin(expect)


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
