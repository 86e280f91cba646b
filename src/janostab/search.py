"""Counterexample discovery for the subordination checks.

A violation is one probe point whose stability ratio escapes the target
disk; a single strictly positive margin falsifies the subordination, which
is all a disproof needs.

The search looks on the circle |z| = r only: where no sample fails, s_n
does not meet (-inf, 0] on it, so its logarithm is analytic on |z| <= r
(see :mod:`janostab.series`) and the maximum modulus principle puts the
largest margin over the disk on that circle.  A failed sample raises
:class:`~janostab.series.BranchFailureError` rather than search a disk
the argument does not cover.

Each cell scans ``coarse_angles`` equispaced points of the circle, then
refines arg z by halving from the best of them: a round evaluates
theta - h and theta + h, moves to the better if it improves, and halves h
(first h = pi / coarse_angles, half the scan's spacing).  The refinement
is local, so the result is the best margin found, not a certified maximum.

The cells of one (A, B, lambda) hold partial sums of one coefficient
sequence, and they are searched in lock step: one row per n, one
evaluator call for every row's scan, then one per round for every row's
two probes, each row with its own theta and best.  A call holds at most
``MAX_POINTS`` samples, so the rows are split into chunks of at most
``MAX_POINTS // coarse_angles``.  Each row's values are bit for bit those
of its cell alone (see :mod:`janostab.series`), so a cell does not depend
on its sweep.  A failed sample drops its row and the rows above it; the
search then raises at the first failed sample of the lowest-n failing
cell, as a search of one cell after another would.
"""

from __future__ import annotations

import bisect
import cmath
from dataclasses import dataclass

import numpy as np

from .janowski import JanowskiParams, coeff_table
from .series import MAX_DEGREE, MAX_POINTS, TruncatedSeries, _circle_points
from .subordination import DiskSpec, _count, _defined, disk_for, ratio_samples

__all__ = [
    "SWEEP_CSV_HEADER",
    "SweepCell",
    "sweep_parameter_grid",
]

SWEEP_CSV_HEADER = (
    "A",
    "B",
    "lambda",
    "n",
    "margin",
    "z_re",
    "z_im",
    "G_re",
    "G_im",
    "disk_center_re",
    "disk_center_im",
    "disk_radius",
    "disk_source",
)

MAX_CELLS = 2**16


@dataclass(frozen=True)
class SweepCell:
    """Best margin found in one (A, B, lambda, n) cell of a parameter sweep."""

    params: JanowskiParams
    n: int
    margin: float
    z: complex
    ratio: complex
    disk: DiskSpec
    disk_source: str

    def to_csv_row(self) -> list:
        return [
            self.params.A,
            self.params.B,
            self.params.lam,
            self.n,
            self.margin,
            self.z.real,
            self.z.imag,
            self.ratio.real,
            self.ratio.imag,
            self.disk.center.real,
            self.disk.center.imag,
            self.disk.radius,
            self.disk_source,
        ]


def _search_rows(stack, params: JanowskiParams, disk: DiskSpec, r: float, angles: int, iters: int):
    """Best (margin, z, ratio) on |z| = r of each series of ``stack``, in
    ascending n, searched in lock step as the module describes; a failed
    sample raises :class:`~janostab.series.BranchFailureError` at the end."""
    live, failure = len(stack), None
    rows = np.arange(live)

    def samples(points):
        # (margins, zs, vals) of the live rows, one row of ``points`` each
        nonlocal live, failure
        vals, zs, bad = (a.reshape(live, -1) for a in ratio_samples(stack[:live], params, points))
        if bad.any():
            live = int(np.flatnonzero(bad.any(axis=1))[0])
            failure = vals[live], zs[live], bad[live]
        return disk.margin(vals[:live]), zs[:live], vals[:live]

    margins, zs, vals = samples(np.repeat(_circle_points([r], angles), live, axis=0))
    pick = rows[:live], margins.argmax(axis=1)
    best_m, best_z, best_v = margins[pick], zs[pick], vals[pick]
    theta, step = 2.0 * np.pi * pick[1] / angles, np.pi / angles
    for _ in range(iters):
        if not live:
            break
        probes = theta[:live, None] + (-step, step)  # x + (-h) is x - h exactly
        margins, zs, vals = samples([cmath.rect(r, t) for t in probes.ravel().tolist()])
        pick = rows[:live], margins.argmax(axis=1)
        up = margins[pick] > best_m[:live]
        if up.any():  # a round that improves no row copies nothing
            for best, probe in ((best_m, margins), (best_z, zs), (best_v, vals), (theta, probes)):
                np.copyto(best[:live], probe[pick], where=up)
        step *= 0.5
    if failure is not None:
        _defined(failure)  # raises at the row's first failed sample
    return list(zip(best_m.tolist(), best_z.tolist(), best_v.tolist()))


def _search_group(params: JanowskiParams, ns: list, disk: DiskSpec, r: float, angles: int, iters: int):
    """Best (margin, z, ratio) of each cell (params, n), n in ascending
    ``ns``: the prefixes of one coefficient table, searched in lock step by
    chunks of rows that hold at most ``MAX_POINTS`` scan samples."""
    coeffs = coeff_table(params.A, params.B, params.lam, ns[-1])
    size = max(1, MAX_POINTS // angles)
    best = []
    for i in range(0, len(ns), size):
        stack = [TruncatedSeries(coeffs[: n + 1]) for n in ns[i : i + size]]
        best += _search_rows(stack, params, disk, r, angles, iters)
    return best


def sweep_parameter_grid(
    a_values,
    b_values,
    lambda_values,
    n_values,
    r: float,
    coarse_angles: int = 256,
    refine_iters: int = 8,
    disk_source: str = "mobius_image",
) -> list:
    """Best self-stability margin per (A, B, lambda, n) cell.

    Each value list must be non-empty and lie inside -1 <= B < A < 0 and
    0 < lambda <= 1; pairs with B >= A are dropped.  More than ``MAX_CELLS``
    cells, or a sum over the cells of (n + 1) * (``coarse_angles`` + 2
    ``refine_iters``) above ``MAX_DEGREE * MAX_POINTS``, raise
    ``ValueError`` before any cell runs.  Cells are emitted in
    lexicographic order and each records the best margin found on |z| = r
    with its witness, whether or not it is positive.  A cell with a failed
    sample, as at all when s_n meets (-inf, 0] on |z| = r, raises
    :class:`~janostab.series.BranchFailureError`.
    """
    a_values = sorted(float(v) for v in a_values)
    b_values = sorted(float(v) for v in b_values)
    lambda_values = sorted(float(v) for v in lambda_values)
    n_values = sorted(int(n) for n in n_values)
    if not (a_values and b_values and lambda_values and n_values):
        raise ValueError("the A, B, lambda and n value lists must be non-empty")
    for v in a_values:
        if not -1.0 < v < 0.0:
            raise ValueError(f"A values must lie in (-1, 0), got {v!r}")
    for v in b_values:
        if not -1.0 <= v < 0.0:
            raise ValueError(f"B values must lie in [-1, 0), got {v!r}")
    for v in lambda_values:
        if not 0.0 < v <= 1.0:
            raise ValueError(f"lambda values must lie in (0, 1], got {v!r}")
    if any(n < 1 for n in n_values):
        raise ValueError("n values must be integers >= 1")
    if not 0.0 < r < 1.0:
        raise ValueError("need 0 < r < 1")
    coarse_angles = _count("coarse_angles", coarse_angles, 16)
    refine_iters = _count("refine_iters", refine_iters, 0)
    # 64 halvings of a step <= pi/16 fall below the resolution of arg z
    if refine_iters > 64:
        raise ValueError(f"refine_iters must lie in [0, 64], got {refine_iters!r}")
    pairs = sum(bisect.bisect_left(b_values, a) for a in a_values)  # the B < A of each A
    count = pairs * len(lambda_values) * len(n_values)
    if count > MAX_CELLS:
        raise ValueError(f"{count} sweep cells exceed {MAX_CELLS}")
    # (n + 1) coefficients times the samples of each cell: its time grows with both
    groups = pairs * len(lambda_values)
    work = groups * sum(n + 1 for n in n_values) * (coarse_angles + 2 * refine_iters)
    if work > MAX_DEGREE * MAX_POINTS:
        raise ValueError(f"the sweep's {work} coefficient-samples exceed {MAX_DEGREE * MAX_POINTS}")
    cells = []
    for a in a_values:
        for b in b_values:
            if not b < a:
                continue
            for lam in lambda_values:
                params = JanowskiParams(a, b, lam)
                disk = disk_for(disk_source, params, r)
                best = _search_group(params, n_values, disk, r, coarse_angles, refine_iters)
                cells += (SweepCell(params, n, *cell, disk, disk_source) for n, cell in zip(n_values, best))
    return cells
