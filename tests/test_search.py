"""Counterexample search and parameter sweeps."""

import numpy as np
import pytest

from janostab.janowski import JanowskiParams, janowski_series
from janostab.search import (
    SearchSpec,
    Violation,
    _coarse_scan,
    _margin_fn,
    _refine,
    find_self_stability_violation,
    sweep_parameter_grid,
)
from janostab.subordination import KNOWN_COUNTEREXAMPLE, disk_for, stability_ratio

K = KNOWN_COUNTEREXAMPLE


def make_spec(**overrides):
    base = dict(params=K.params, n_values=(K.n,), r=0.983)
    base.update(overrides)
    return SearchSpec(**base)


class TestSearchSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_spec(r=1.5)
        with pytest.raises(ValueError):
            make_spec(n_values=())
        with pytest.raises(ValueError):
            make_spec(coarse_radii=4)
        with pytest.raises(ValueError):
            make_spec(target="other")


class TestFindViolations:
    def test_finds_the_known_violation_region(self):
        violations = find_self_stability_violation(make_spec())
        assert violations, "expected a positive-margin witness"
        assert violations[0].margin >= 0.10
        # the known witness sits inside the violating region
        assert min(abs(v.z - K.z0) for v in violations) < 0.1

    def test_sorted_by_descending_margin(self):
        violations = find_self_stability_violation(make_spec())
        margins = [v.margin for v in violations]
        assert margins == sorted(margins, reverse=True)

    def test_margins_are_recomputable(self):
        violations = find_self_stability_violation(make_spec(coarse_radii=16, coarse_angles=32))
        for v in violations[:50]:
            assert abs(v.margin - (abs(v.ratio - v.disk.center) - v.disk.radius)) < 1e-12

    def test_base_target_is_clean_in_established_range(self):
        spec = make_spec(
            params=JanowskiParams(-0.5, -1.0, 0.5),
            n_values=(1, 3, 5),
            r=0.999,
            target="base",
            coarse_radii=16,
            coarse_angles=64,
        )
        assert find_self_stability_violation(spec) == []

    def test_tiny_radius_has_no_violations(self):
        assert find_self_stability_violation(make_spec(r=0.05)) == []

    def test_deterministic(self):
        a = find_self_stability_violation(make_spec(coarse_radii=16, coarse_angles=32))
        b = find_self_stability_violation(make_spec(coarse_radii=16, coarse_angles=32))
        assert a == b


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
        margins, vals, zs, failures, total = _coarse_scan(series, K.params, disk, 0.983, 16, 32)
        k = int(np.nanargmax(margins))
        margin_at = _margin_fn(series, K.params, disk)
        history = _refine(
            margin_at, complex(zs.ravel()[k]), 0.983, 0.983 / 16, 2 * np.pi / 32, 16
        )
        assert history[-1][0] >= float(margins.ravel()[k])


    def test_margin_fn_agrees_with_stability_ratio(self):
        series = janowski_series(K.params, K.n)
        disk = disk_for("mobius_image", K.params, 0.983)
        margin, ratio = _margin_fn(series, K.params, disk)(K.z0)
        expect = stability_ratio(K.params, K.n, K.z0)
        assert abs(ratio - expect) < 1e-14
        assert abs(margin - disk.margin(expect)) < 1e-14


class TestSharedEngine:
    def test_sweep_cell_matches_best_violation(self):
        settings = dict(coarse_radii=16, coarse_angles=64, refine_iters=8)
        cells = sweep_parameter_grid((K.params.A,), (K.params.B,), (K.params.lam,), (K.n,), 0.983, **settings)
        violations = find_self_stability_violation(make_spec(**settings))
        assert abs(cells[0].margin - violations[0].margin) < 1e-12
        assert cells[0].z == violations[0].z


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

    def test_csv_row_is_recomputable(self):
        cells = sweep_parameter_grid(
            (-0.679,), (-0.97,), (0.3,), (1,), 0.983, coarse_radii=16, coarse_angles=64
        )
        row = cells[0].to_csv_row()
        ratio = complex(row[7], row[8])
        center = complex(row[9], row[10])
        assert abs(row[4] - (abs(ratio - center) - row[11])) < 1e-12
        assert row[12] == "mobius_image"


class TestViolationRecord:
    def test_json_shape(self):
        violations = find_self_stability_violation(make_spec(coarse_radii=16, coarse_angles=32))
        doc = violations[0].to_json_dict()
        assert set(doc) == {"params", "n", "z", "ratio", "disk", "margin"}
        assert set(doc["z"]) == {"re", "im"}

    def test_equality_is_structural(self):
        v = find_self_stability_violation(make_spec(coarse_radii=16, coarse_angles=32))[0]
        clone = Violation(v.params, v.n, v.z, v.ratio, v.disk, v.margin)
        assert v == clone
