"""Counterexample search and parameter sweeps."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import janostab.search as search
import oracles
from janostab.cli import main
from janostab.janowski import janowski_series
from janostab.search import sweep_parameter_grid
from janostab.series import BranchFailureError, _circle_points
from janostab.subordination import KNOWN_COUNTEREXAMPLE, ratio_samples

K = KNOWN_COUNTEREXAMPLE

# a small lattice of cells on both sides of the violation boundary
LATTICE = dict(
    a_values=(-0.679, -0.3, -0.05),
    b_values=(-1.0, -0.97, -0.5),
    lambda_values=(0.1, 0.3, 1.0),
    n_values=(1, 4),
    r=0.983,
)


def _marking(mark):
    """``ratio_samples`` with a failed sample (NaN, flagged bad) wherever
    ``mark(n, zs)`` holds, zs being the points of one row and n the degree of
    its series: a verdict that depends on the point alone, as the real one."""

    def evaluate(series, params, points):
        vals, zs, bad = ratio_samples(series, params, points)
        shape = len(series), -1
        for row, f in enumerate(series):
            hit = mark(f.coeffs.size - 1, zs.reshape(shape)[row])
            vals.reshape(shape)[row][hit] = np.nan
            bad.reshape(shape)[row] |= hit
        return vals, zs, bad

    return evaluate


def _run(evaluate, reference, *sweep, **kwargs):
    """The ``_cell_bits`` of a sweep, or the text of its
    ``BranchFailureError``, with ``evaluate`` as the evaluator of the
    package's search or, if ``reference``, of the round-by-round oracle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "ratio_samples", evaluate)
        if reference:
            rows = functools.partial(oracles.search_rows_by_round, evaluate=evaluate)
            patch.setattr(search, "_search_rows", rows)
        try:
            return [_cell_bits(cell) for cell in sweep_parameter_grid(*sweep, **kwargs)]
        except BranchFailureError as exc:
            return str(exc)


def _calls(sweep, **kwargs) -> list:
    """(degrees, points) of each evaluator call of the round-by-round
    oracle's sweep, one row of points per series: the scan, then one call
    per round holding the probes on every row's path."""
    calls = []

    def recording(series, params, points):
        vals, zs, bad = ratio_samples(series, params, points)
        calls.append(([f.coeffs.size - 1 for f in series], zs.reshape(len(series), -1).copy()))
        return vals, zs, bad

    _run(recording, True, *sweep, **kwargs)
    return calls


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

    # the n = 4 row fails at scan sample 3, the n = 2 row at its scan sample 5
    # or at its second probe of round 2: the message names the n = 2 sample,
    # as a search of one cell after another would; the failing rows are
    # dropped from the next call on, with 256 angles and with 32 alike
    PLANS = {
        (256, 0): [(3, 768), (1, 26), (1, 26), (1, 8)],
        (256, 2): [(3, 768), (2, 52), (1, 26), (1, 8)],
        (32, 0): [(3, 96), (1, 26), (1, 26), (1, 8)],
        (32, 2): [(3, 96), (2, 52), (1, 26), (1, 8)],
    }

    @pytest.mark.parametrize("lower_round", [0, 2])
    def test_lowest_failing_n_names_the_sample(self, lower_round):
        sweep = ((K.params.A,), (K.params.B,), (K.params.lam,), (1, 2, 4), 0.983)
        for angles in (256, 32):
            calls = _calls(sweep, coarse_angles=angles)
            named = calls[lower_round][1][1, 5 if lower_round == 0 else 1]
            if lower_round == 0:
                assert named == _circle_points([0.983], angles)[0, 5]
            scan = _circle_points([0.983], angles)[0, 3]
            failing = _marking(lambda n, zs: (zs == scan) & (n == 4) | (zs == named) & (n == 2))
            plan = []

            def counting(series, params, points):
                plan.append((len(series), np.size(points)))
                return failing(series, params, points)

            text = _run(counting, False, *sweep, coarse_angles=angles)
            assert f"at z = {complex(named)!r}:" in text
            assert plan == self.PLANS[angles, lower_round]
            assert text == _run(failing, True, *sweep, coarse_angles=angles)


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
            assert cell.ratio == oracles.ratio_at(cell.params, cell.n, cell.z)
            assert cell.margin == cell.disk.margin(cell.ratio)
            assert abs(abs(cell.z) - LATTICE["r"]) <= 4e-16

    def test_one_evaluation_per_tree_or_round(self, monkeypatch):
        # one call for every row's scan; then one per tree of up to three rounds
        # (2 + 6 + 18 probes a row), whatever the row count
        calls = []

        def counting(series, params, points):
            calls.append((len(series), np.size(points)))
            return ratio_samples(series, params, points)

        monkeypatch.setattr(search, "ratio_samples", counting)
        cases = (((1,), 256), ((1, 2, 4), 256), ((1, 2, 4), 64), ((1,), 16), ((1, 2), 52), ((1, 2), 51))
        for ns, angles in cases:
            rows = len(ns)
            for iters in (0, 1, 2, 3, 4, 8, 64):
                calls.clear()
                sweep_parameter_grid(
                    (K.params.A,), (K.params.B,), (K.params.lam,), ns, 0.983,
                    coarse_angles=angles, refine_iters=iters,
                )
                depths = [3] * (iters // 3) + [iters % 3] * (iters % 3 > 0)
                assert calls == [(rows, rows * angles)] + [(rows, rows * (3**d - 1)) for d in depths]
                assert len(calls) == 1 + -(-iters // 3)

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


@st.composite
def _sweeps(draw, angles=st.sampled_from([16, 32, 64, 256])):
    """One (A, B, lambda) with 1 to 40 n values, r, coarse_angles (drawn
    from ``angles``), refine_iters, a period of failed samples (0: none),
    whether the scan's samples are spared and whether the values are
    coarsened to multiples of 1/8, where margins tie."""
    a = draw(st.floats(-0.95, -0.05))
    b = draw(st.floats(-1.0, a - 0.01))
    lam = draw(st.floats(0.05, 1.0))
    ns = draw(st.lists(st.integers(1, 40), min_size=1, max_size=draw(st.sampled_from([3, 12, 40]))))
    r = draw(st.floats(0.05, 0.999))
    angles = draw(angles)
    iters, period = draw(st.integers(0, 20)), draw(st.sampled_from([0, 11, 41, 257]))
    return ((a,), (b,), (lam,), ns, r), angles, iters, period, draw(st.booleans()), draw(st.booleans())


def _both_searches(drawn):
    """The search of a drawn sweep with probe trees and round by round (each
    its ``_run``), failed samples at pseudo-random points of the scan and
    the probes, and the number of points of each evaluator call of the
    first."""
    sweep, angles, iters, period, spare_scan, coarse = drawn
    scan = _circle_points([sweep[-1]], angles)[0] if spare_scan else []

    def mark(n, zs):
        hit = (zs.real.view(np.uint64) + n) % period == 0 if period else np.zeros(zs.shape, bool)
        return hit & ~np.isin(zs, scan)

    marked, sizes = _marking(mark), []

    def evaluate(series, params, points):
        sizes.append(np.size(points))
        vals, zs, bad = marked(series, params, points)
        return (np.round(vals * 8) / 8 if coarse else vals), zs, bad

    got = _run(evaluate, False, *sweep, coarse_angles=angles, refine_iters=iters)
    calls = sizes.copy()
    return got, _run(evaluate, True, *sweep, coarse_angles=angles, refine_iters=iters), calls


class TestProbeTrees:
    @settings(deadline=None, max_examples=150)
    @given(_sweeps())
    def test_cells_and_failures_match_the_round_by_round_search(self, drawn):
        # cells bit for bit, and the same BranchFailureError text
        got, reference, _ = _both_searches(drawn)
        assert got == reference

    @settings(deadline=None, max_examples=40)
    @given(_sweeps(st.just(16)))
    @example((((-0.3,), (-0.9,), (0.7,), list(range(1, 41)), 0.983), 16, 8, 0, False, False))
    def test_trees_are_chunked_within_max_points(self, drawn):
        # with 2**10 points a call, 16 angles split the rows into chunks of
        # 2**10 // 26 = 39 trees (a chunk of 2**10 // 16 = 64 scan rows would
        # put 40 trees, 1,040 probes, in one call), and chunks change no cell
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "MAX_POINTS", 2**10)
            got, reference, calls = _both_searches(drawn)
        assert max(calls) <= 2**10
        assert got == reference

    def test_replay_takes_the_first_of_a_tie(self):
        # as argmax does: of two equal probes that improve the row, the -h one;
        # then the -h node's probes (columns 4, 5) are read
        margins = [1.0, 1.0, 0.0, 0.0, 2.0, 3.0, 0.0, 0.0]
        assert search._replay(margins, [False] * 8, 0, 0.5, 2) == (5, None)
        assert search._replay(margins, [False] * 4 + [False, True] + [False] * 2, 0, 0.5, 2) == (0, 4)

    SWEEP = ((-0.3,), (-0.9,), (0.7,), (1, 2, 4), 0.983)

    def test_failed_probe_off_the_path_changes_nothing(self):
        # every probe of the trees that the round-by-round search does not
        # evaluate fails, and every cell stays bit for bit the same
        on_path = {}
        for degrees, zs in _calls(self.SWEEP):
            for n, row in zip(degrees, zs):
                on_path.setdefault(n, set()).update(row.tolist())
        off = []

        def mark(n, zs):
            hit = np.array([z not in on_path[n] for z in zs.tolist()])
            off.append(int(hit.sum()))
            return hit

        assert _run(_marking(mark), False, *self.SWEEP) == _run(ratio_samples, False, *self.SWEEP)
        # the scan marks nothing; each tree marks some probes of every row (of
        # its 26 + 26 + 8 probes, 16 lie on the path, and a few more coincide
        # with a probe on it, such as (theta - h) + h/2 and theta + (-h/2))
        assert len(off) == 3 * 4 and off[:3] == [0, 0, 0] and min(off[3:]) > 0

    @pytest.mark.parametrize("probe", [0, 1])
    def test_failed_probe_on_the_path_raises_there(self, probe):
        # the n = 2 row's probe of round 5 fails: the search raises at it, as
        # the round-by-round search does
        named = _calls(self.SWEEP)[5][1][1, probe]
        failing = _marking(lambda n, zs: (zs == named) & (n == 2))
        text = _run(failing, False, *self.SWEEP)
        assert f"at z = {complex(named)!r}:" in text
        assert text == _run(failing, True, *self.SWEEP)


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

    @pytest.mark.parametrize(
        "overrides, text",
        [
            (dict(n_values=(1, 257)), "series degree 257 exceeds 256"),
            # the size limits are checked first: the degree is named, not n = 0 or r
            (dict(n_values=(0, 257), r=1.5), "series degree 257 exceeds 256"),
            (dict(coarse_angles=2**20 + 1), "1048577 sample points in one evaluation exceed 1048576"),
        ],
    )
    def test_size_limits_are_checked_before_any_cell(self, monkeypatch, overrides, text):
        calls = _count_cells(monkeypatch)
        args = dict(
            a_values=(K.params.A,), b_values=(K.params.B,), lambda_values=(K.params.lam,),
            n_values=(1,), r=0.983, refine_iters=0,
        )
        args.update(overrides)
        with pytest.raises(ValueError, match=text):
            sweep_parameter_grid(**args)
        assert calls == []

    def test_lambda_is_checked_before_any_cell(self, monkeypatch):
        calls = _count_cells(monkeypatch)
        with pytest.raises(ValueError, match="lambda"):
            sweep_parameter_grid((K.params.A,), (K.params.B,), (0.3, 1.5), (1,), 0.983)
        assert calls == []

    def test_cell_count_is_checked_before_any_cell(self, monkeypatch):
        # every cell is charged 2**12 coefficient-samples, so more than 2**16
        # cells exceed 2**28 at any work: 16 x 16 pairs B < A (the pairs
        # B >= A are not counted), 16 lambdas and 17 n values are rejected
        calls = _count_cells(monkeypatch)
        a_values = [-0.5 + 0.01 * k for k in range(16)]
        b_values = [-1.0 + 0.01 * k for k in range(16)] + [a_values[-1], -0.1]
        lambdas = [0.5 + 0.01 * k for k in range(16)]
        ns = range(1, 17)
        with pytest.raises(ValueError, match="681279488 coefficient-samples exceed 268435456"):
            sweep_parameter_grid(a_values, b_values, lambdas, [*ns, 17], 0.983)
        # 2**16 cells at the defaults: their price alone fills the bound
        with pytest.raises(ValueError, match="620494848 coefficient-samples exceed 268435456"):
            sweep_parameter_grid(a_values, b_values, lambdas, ns, 0.983)
        assert calls == []
        # at the smallest work, n = 1 on 16 angles and no rounds, a cell
        # counts 2 * 16 + 2**12 = 4,128: 65,027 cells fit, one more does not
        one = ((K.params.A,), (K.params.B,), (K.params.lam,))
        with pytest.raises(ValueError, match="268435584 coefficient-samples exceed 268435456"):
            sweep_parameter_grid(*one, [1] * 65028, 0.983, coarse_angles=16, refine_iters=0)
        assert calls == []
        cells = sweep_parameter_grid(*one, [1] * 65027, 0.983, coarse_angles=16, refine_iters=0)
        assert len(cells) == len(calls) == 65027

    def test_work_is_checked_before_any_cell(self, monkeypatch):
        # cells x ((top n + 1) * (coarse_angles + tree probes) + 2**12) is
        # bounded by MAX_WORK = MAX_DEGREE * MAX_POINTS = 2**28; one round is 2 probes
        calls = _count_cells(monkeypatch)
        one = ((K.params.A,), (K.params.B,), (K.params.lam,), (255,), 0.983)
        for angles, iters, work in ((2**20, 1, 268440064), (2**20, 0, 268439552)):
            with pytest.raises(ValueError, match=f"{work} coefficient-samples exceed 268435456"):
                sweep_parameter_grid(*one, coarse_angles=angles, refine_iters=iters)
        assert calls == []
        assert len(sweep_parameter_grid(*one, coarse_angles=2**20 - 16, refine_iters=0)) == 1
        # 2**15 cells of 256 angles and 8 rounds (26 + 26 + 8 probes): at
        # n = 1, 2, 4, 8 (2.3e8) admitted, at n = 256 (2.8e9) not
        a_values = [-0.5 + 0.005 * k for k in range(32)]
        b_values = [-1.0 + 0.005 * k for k in range(32)]
        grid = (a_values, b_values, [0.5 + 0.01 * k for k in range(8)])
        calls.clear()
        assert len(sweep_parameter_grid(*grid, (1, 2, 4, 8), 0.983)) == 2**15
        assert len(calls) == 2**15
        calls.clear()
        with pytest.raises(ValueError, match="2795372544 coefficient-samples"):
            sweep_parameter_grid(*grid, (256,) * 4, 0.983)
        assert calls == []

    def test_work_counts_every_row_at_the_top_degree(self, monkeypatch):
        # a chunk pads its rows to its highest n: 511 rows at n = 1 and one at
        # n = 256 count as 512 rows at n = 256, not as the sum of their n + 1
        # (the sum, 2 x 1,279 x 1,600 for two (A, B, lambda), would admit them)
        calls = _count_cells(monkeypatch)
        ns, scan = [1] * 511 + [256], dict(coarse_angles=1600, refine_iters=0)
        with pytest.raises(ValueError, match="425263104 coefficient-samples"):
            sweep_parameter_grid((-0.5, -0.45), (K.params.B,), (K.params.lam,), ns, 0.983, **scan)
        assert calls == []
        # one fits: 512 x (257 x 1,600 + 2**12) = 212,631,552
        assert len(sweep_parameter_grid((-0.5,), (K.params.B,), (K.params.lam,), ns, 0.983, **scan)) == 512

    def test_work_counts_the_tree_probes(self, monkeypatch):
        # one cell at n = 255 with 64 rounds evaluates 26 * 21 + 2 = 548
        # probes: 2**20 - 16 - 548 scan points fill the bound with the cell's
        # price, one more exceeds it
        calls = _count_cells(monkeypatch)
        one = ((K.params.A,), (K.params.B,), (K.params.lam,), (255,), 0.983)
        assert len(sweep_parameter_grid(*one, coarse_angles=2**20 - 564, refine_iters=64)) == 1
        assert len(calls) == 1
        calls.clear()
        for angles, work in ((2**20 - 563, 268435712), (2**20 - 128, 268547072)):
            with pytest.raises(ValueError, match=f"{work} coefficient-samples exceed 268435456"):
                sweep_parameter_grid(*one, coarse_angles=angles, refine_iters=64)
        assert calls == []

    def test_rows_evaluate_what_admission_counts(self):
        # each row evaluates its scan and its trees' probes, the samples the
        # work bound counts (256 + 26 + 26 + 8 at the defaults), and finds
        # the cells of the round-by-round search bit for bit
        per_row = []

        def counting(series, params, points):
            per_row.append(np.size(points) // len(series))
            return ratio_samples(series, params, points)

        sweep = ((K.params.A,), (K.params.B,), (K.params.lam,), (1, 2, 4), 0.983)
        cells = _run(counting, False, *sweep)
        assert per_row == [256, 26, 26, 8]
        assert cells == _run(ratio_samples, True, *sweep)

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
