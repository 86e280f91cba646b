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
theta - h and theta + h in one batch, moves to the better if it improves,
and halves h (first h = pi / coarse_angles, half the scan's spacing).
The refinement is local, so the result is the best margin found, not a
certified maximum.
"""

from __future__ import annotations

import bisect
import cmath
from dataclasses import dataclass

import numpy as np

from .janowski import JanowskiParams, janowski_series
from .series import _circle_points
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


def _best_sample(series, params: JanowskiParams, disk: DiskSpec, points):
    """(index, (margin, z, ratio)) of the largest margin at ``points``.  A
    failed sample voids the maximum modulus argument: it raises
    :class:`~janostab.series.BranchFailureError`."""
    vals, zs = _defined(ratio_samples(series, params, points))
    margins = disk.margin(vals)
    k = int(np.argmax(margins))
    return k, (float(margins[k]), complex(zs[k]), complex(vals[k]))


def _search_cell(params: JanowskiParams, n: int, disk: DiskSpec, r: float, angles: int, iters: int):
    """Best (margin, z, ratio) of one (params, n) cell on |z| = r: a scan
    of ``angles`` equispaced points, then ``iters`` rounds of halving on
    arg z from the best sample."""
    series = janowski_series(params, n)
    k, best = _best_sample(series, params, disk, _circle_points([r], angles)[0])
    theta, step = 2.0 * np.pi * k / angles, np.pi / angles
    for _ in range(iters):
        probes = (theta - step, theta + step)
        k, probe = _best_sample(series, params, disk, [cmath.rect(r, t) for t in probes])
        if probe[0] > best[0]:
            best, theta = probe, probes[k]
        step *= 0.5
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
    cells raise ``ValueError`` before any runs.  Cells are emitted in
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
    cells = []
    for a in a_values:
        for b in b_values:
            if not b < a:
                continue
            for lam in lambda_values:
                params = JanowskiParams(a, b, lam)
                disk = disk_for(disk_source, params, r)
                for n in n_values:
                    best = _search_cell(params, n, disk, r, coarse_angles, refine_iters)
                    cells.append(SweepCell(params, n, *best, disk, disk_source))
    return cells
