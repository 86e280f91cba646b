"""Counterexample search and parameter sweeps."""

import numpy as np
import pytest

import janostab.search as search
from janostab.cli import main
from janostab.janowski import janowski_series
from janostab.search import sweep_parameter_grid
from janostab.series import BranchFailureError, _circle_points
from janostab.subordination import KNOWN_COUNTEREXAMPLE, ratio_samples, stability_ratio

K = KNOWN_COUNTEREXAMPLE

# a small lattice of cells on both sides of the violation boundary
LATTICE = dict(
    a_values=(-0.679, -0.3, -0.05),
    b_values=(-1.0, -0.97, -0.5),
    lambda_values=(0.1, 0.3, 1.0),
    n_values=(1, 4),
    r=0.983,
)


class TestPremise:
    @staticmethod
    def _root_inside(monkeypatch):
        # s(z) = 1 + 2z has its root at -0.5, inside |z| <= 0.983
        monkeypatch.setattr(search, "coeff_table", lambda a, b, lam, n_max: np.array([1.0, 2.0]))

    def test_root_inside_the_circle_raises(self, monkeypatch):
        self._root_inside(monkeypatch)
        with pytest.raises(BranchFailureError, match="root in"):
            sweep_parameter_grid((K.params.A,), (K.params.B,), (K.params.lam,), (1,), 0.983)

    def test_root_inside_the_circle_exit_three(self, monkeypatch, capsys):
        self._root_inside(monkeypatch)
        code = main(["search", "--n-values", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "root in" in captured.err

    def test_failed_sample_raises(self, monkeypatch):
        def failing(*args, **kwargs):
            vals, zs, bad = ratio_samples(*args, **kwargs)
            bad[-1] = True
            return vals, zs, bad

        monkeypatch.setattr(search, "ratio_samples", failing)
        with pytest.raises(BranchFailureError, match="undefined"):
            sweep_parameter_grid((K.params.A,), (K.params.B,), (K.params.lam,), (1,), 0.983)

    @pytest.mark.parametrize("lower_round", [0, 2])
    def test_lowest_failing_n_names_the_sample(self, monkeypatch, lower_round):
        # the n = 4 row fails at scan sample 3, the n = 2 row at its sample 5 of
        # the scan or at its second probe of round 2: the message names the
        # n = 2 sample, as a search of one cell after another would
        rounds, named = [], []

        def failing(series, params, points):
            vals, zs, bad = ratio_samples(series, params, points)
            rows = bad.reshape(len(series), -1)
            if not rounds:
                rows[2, 3] = True
            if len(rounds) == lower_round:
                j = 5 if lower_round == 0 else 1
                rows[1, j] = True
                named.append(zs.reshape(rows.shape)[1, j])
            rounds.append(len(series))
            return vals, zs, bad

        monkeypatch.setattr(search, "ratio_samples", failing)
        with pytest.raises(BranchFailureError) as err:
            sweep_parameter_grid((K.params.A,), (K.params.B,), (K.params.lam,), (1, 2, 4), 0.983)
        assert f"at z = {complex(named[0])!r}:" in str(err.value)
        if lower_round == 0:
            assert named[0] == _circle_points([0.983], 256)[0, 5]
        # the failing rows are dropped: two rows after the scan, one after round 2
        assert rounds == [3] + [2] * lower_round + [1] * (8 - lower_round)


class TestOneCircle:
    def test_not_below_the_polar_scan(self):
        # the 64 x 256 polar scan of |z| <= r the search ran before: by the
        # maximum modulus principle the circle |z| = r holds its maximum
        r = LATTICE["r"]
        radii = [(j + 1) * r / 64 for j in range(64)]
        for cell in sweep_parameter_grid(**LATTICE):
            series = janowski_series(cell.params, cell.n)
            vals, _, bad = ratio_samples(series, cell.params, _circle_points(radii, 256).ravel())
            assert not bad.any()
            assert cell.margin >= float(np.max(cell.disk.margin(vals))) - 1e-12

    def test_reaches_the_dense_circle_maximum(self):
        # 8 halvings from the best of 256 angles match a 65,536-angle scan
        for cell in sweep_parameter_grid(**LATTICE):
            series = janowski_series(cell.params, cell.n)
            vals, _, _ = ratio_samples(series, cell.params, _circle_points([LATTICE["r"]], 2**16)[0])
            assert cell.margin >= float(np.max(cell.disk.margin(vals))) - 1e-12

    @pytest.mark.parametrize("iters", [0, 8])
    def test_witness_is_the_evaluated_ratio_on_the_circle(self, iters):
        for cell in sweep_parameter_grid(**LATTICE, refine_iters=iters):
            assert cell.ratio == stability_ratio(cell.params, cell.n, cell.z)
            assert cell.margin == cell.disk.margin(cell.ratio)
            assert abs(abs(cell.z) - LATTICE["r"]) <= 4e-16

    def test_one_evaluation_per_round(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return ratio_samples(*args, **kwargs)

        monkeypatch.setattr(search, "ratio_samples", counting)
        for ns in ((1,), (1, 2, 4)):
            for iters in (0, 1, 8, 64):
                calls.clear()
                sweep_parameter_grid(
                    (K.params.A,), (K.params.B,), (K.params.lam,), ns, 0.983, refine_iters=iters
                )
                assert len(calls) == 1 + iters

    def test_refinement_never_lowers_the_margin(self):
        margins = [
            sweep_parameter_grid((-0.3,), (-0.9,), (0.7,), (2,), 0.983, refine_iters=iters)[0].margin
            for iters in (0, 1, 2, 4, 8, 16)
        ]
        assert margins == sorted(margins)


def _cell_bits(cell) -> list:
    values = [cell.margin, cell.z.real, cell.z.imag, cell.ratio.real, cell.ratio.imag]
    return [cell.params, cell.n, cell.disk] + np.array(values).view(np.uint64).tolist()


class TestLockStep:
    @pytest.mark.parametrize("sweep", [
        LATTICE,
        # the golden tool's mixed-degree search case
        dict(a_values=(-0.9, -0.5, -0.1), b_values=(-1.0, -0.95), lambda_values=(0.1, 0.5, 1.0),
             n_values=(1, 3, 8, 16), r=0.99),
    ])
    def test_a_cell_does_not_depend_on_its_sweep(self, sweep):
        for cell in sweep_parameter_grid(**sweep):
            p = cell.params
            (alone,) = sweep_parameter_grid((p.A,), (p.B,), (p.lam,), (cell.n,), sweep["r"])
            assert _cell_bits(cell) == _cell_bits(alone)

    def test_chunks_hold_at_most_max_points(self, monkeypatch):
        # 2**20 // 2**18 = 4 rows per evaluation: the seven n values take two
        # chunks of 4 and 3 rows, each scanned in one call
        sizes = []

        def counting(series, params, points):
            sizes.append(np.size(points))
            return ratio_samples(series, params, points)

        monkeypatch.setattr(search, "ratio_samples", counting)
        ns = (1, 1, 2, 3, 5, 8, 13)
        cells = sweep_parameter_grid((-0.3,), (-0.9,), (0.7,), ns, 0.983, coarse_angles=2**18,
                                     refine_iters=1)
        assert sizes == [4 * 2**18, 4 * 2, 3 * 2**18, 3 * 2]
        assert [c.n for c in cells] == list(ns)


def _count_cells(monkeypatch) -> list:
    """Stub out the group search; the returned list gets one entry per cell
    searched."""
    calls = []

    def searched(params, ns, *args):
        calls.extend((params, n) for n in ns)
        return [(0.0, 0j, 0j)] * len(ns)

    monkeypatch.setattr(search, "_search_group", searched)
    return calls


class TestSweep:
    def test_known_cell_is_positive(self):
        cells = sweep_parameter_grid((-0.679,), (-0.97,), (0.3,), (1,), 0.983, coarse_angles=64)
        assert len(cells) == 1
        assert cells[0].margin > 0.10

    def test_cells_are_lexicographic_and_deterministic(self):
        args = dict(
            a_values=(-0.3, -0.6),
            b_values=(-0.9, -0.7),
            lambda_values=(0.4,),
            n_values=(2, 1),
            r=0.9,
            coarse_angles=32,
            refine_iters=2,
        )
        cells = sweep_parameter_grid(**args)
        keys = [(c.params.A, c.params.B, c.params.lam, c.n) for c in cells]
        assert keys == sorted(keys)
        assert cells == sweep_parameter_grid(**args)

    def test_drops_pairs_without_gap(self):
        cells = sweep_parameter_grid(
            (-0.5,), (-0.5, -0.9), (0.5,), (1,), 0.9, coarse_angles=32
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
            dict(refine_iters=65),
            dict(coarse_angles=15),
            dict(refine_iters=-1),
            dict(a_values=()),
            dict(b_values=()),
            dict(lambda_values=()),
            dict(coarse_angles=16.5),
            dict(coarse_angles=16.0),
            dict(refine_iters=2.5),
        ],
    )
    def test_validation(self, overrides):
        args = dict(
            a_values=(K.params.A,), b_values=(K.params.B,), lambda_values=(K.params.lam,),
            n_values=(1,), r=0.983, coarse_angles=16, refine_iters=0,
        )
        args.update(overrides)
        with pytest.raises(ValueError):
            sweep_parameter_grid(**args)

    def test_lambda_is_checked_before_any_cell(self, monkeypatch):
        calls = _count_cells(monkeypatch)
        with pytest.raises(ValueError, match="lambda"):
            sweep_parameter_grid((K.params.A,), (K.params.B,), (0.3, 1.5), (1,), 0.983)
        assert calls == []

    def test_cell_count_is_checked_before_any_cell(self, monkeypatch):
        # 16 x 16 pairs B < A (the pairs B >= A are not counted), 16 lambdas
        calls = _count_cells(monkeypatch)
        a_values = [-0.5 + 0.01 * k for k in range(16)]
        b_values = [-1.0 + 0.01 * k for k in range(16)] + [a_values[-1], -0.1]
        lambdas = [0.5 + 0.01 * k for k in range(16)]
        ns = range(1, 17)
        with pytest.raises(ValueError, match="69632 sweep cells exceed 65536"):
            sweep_parameter_grid(a_values, b_values, lambdas, [*ns, 17], 0.983)
        assert calls == []
        cells = sweep_parameter_grid(a_values, b_values, lambdas, ns, 0.983)
        assert len(cells) == len(calls) == search.MAX_CELLS

    def test_work_is_checked_before_any_cell(self, monkeypatch):
        # sum over the cells of (n + 1) * (coarse_angles + 2 * refine_iters) is
        # bounded by MAX_DEGREE * MAX_POINTS = 2**28
        calls = _count_cells(monkeypatch)
        one = ((K.params.A,), (K.params.B,), (K.params.lam,), (255,), 0.983)
        with pytest.raises(ValueError, match="268435968 coefficient-samples exceed 268435456"):
            sweep_parameter_grid(*one, coarse_angles=2**20, refine_iters=1)
        assert calls == []
        assert len(sweep_parameter_grid(*one, coarse_angles=2**20, refine_iters=0)) == 1
        # 2**16 cells: at n = 1, 2, 4, 8 (8.5e7) admitted, at n = 256 (4.6e9) not
        a_values = [-0.5 + 0.005 * k for k in range(64)]
        b_values = [-1.0 + 0.005 * k for k in range(64)]
        grid = (a_values, b_values, [0.5 + 0.01 * k for k in range(4)])
        calls.clear()
        assert len(sweep_parameter_grid(*grid, (1, 2, 4, 8), 0.983)) == search.MAX_CELLS
        assert len(calls) == search.MAX_CELLS
        calls.clear()
        with pytest.raises(ValueError, match="4581228544 coefficient-samples"):
            sweep_parameter_grid(*grid, (256,) * 4, 0.983)
        assert calls == []

    def test_tiny_radius_has_no_violations(self):
        cells = sweep_parameter_grid((K.params.A,), (K.params.B,), (K.params.lam,), (1, 2, 4), 0.05)
        assert all(c.margin < 0 for c in cells)

    def test_csv_row_is_recomputable(self):
        cells = sweep_parameter_grid((-0.679,), (-0.97,), (0.3,), (1,), 0.983, coarse_angles=64)
        row = cells[0].to_csv_row()
        ratio = complex(row[7], row[8])
        center = complex(row[9], row[10])
        assert abs(row[4] - (abs(ratio - center) - row[11])) < 1e-12
        assert row[12] == "mobius_image"
