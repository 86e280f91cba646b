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
sequence, and they are searched in lock step: one row per n, each row
with its own theta and best.  One evaluator call holds every row's scan;
each further call holds every row's probe tree of up to three rounds: the
2 probes of the first round, the 6 of the three places the row can be at
after it and the 18 of the nine after the second, 26 in all (see
:func:`_tree`).  The rounds are then replayed row by row from those
margins, each row going on from the node its replay reaches
(:func:`_replay`); the angles are built with the same float additions as
round by round, so every cell is bit for bit the same.  A default search
(three rows, 256 angles, 8 rounds) makes 1 + 3 calls.

A sweep is admitted by the coefficient-samples it may evaluate, each row
at the top degree, to which a chunk pads its rows (see
:func:`sweep_parameter_grid`).  A call holds at most ``MAX_POINTS``
samples: the rows are split into chunks of at most
``MAX_POINTS // max(coarse_angles, 26)``, a scan row or a tree each.
Each row's values are bit for bit those of its cell alone (see
:mod:`janostab.series`), so a cell does not depend on its sweep.

A failed sample counts only on a row's path: anywhere in its scan, or
among the two probes of a round it replays; a probe of a tree that the
replay does not reach cannot fail the search.  A failed sample drops its
row and the rows above it; the search then raises at the first failed
sample of the lowest-n failing cell, as a search of one cell after
another would.
"""

from __future__ import annotations

import bisect
import cmath
from dataclasses import dataclass

import numpy as np

from .janowski import JanowskiParams, coeff_table
from .series import MAX_POINTS, TruncatedSeries, _circle_points, check_size
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

_CELL_PRICE = 2**12  # coefficient-samples per cell: 2**16 cells fill MAX_WORK
_TREE_ROUNDS = 3  # refine rounds per evaluator call
_TREE_PROBES = 3**_TREE_ROUNDS - 1  # 2 + 6 + 18 probes per row


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


def _tree(theta: float, step: float, depth: int) -> list:
    """The probe angles of a ``depth``-round tree from ``theta``, level by
    level: each node's theta - h and theta + h, h halving with the level;
    a node's children stay at its theta or move to either of its probes."""
    nodes, probes = [theta], []
    for _ in range(depth):
        level = [t + h for t in nodes for h in (-step, step)]
        probes += level
        nodes = [t for node in zip(nodes, level[::2], level[1::2]) for t in node]
        step *= 0.5
    return probes


def _replay(margins: list, bad: list, first: int, top: float, depth: int):
    """One row's rounds replayed in its tree's margins (from flat index
    ``first``, in :func:`_tree`'s order) from best margin ``top``: the flat
    index of the probe that last improved it (-1 if none), and the index of
    the first probe pair on the path with a bad sample (None if none), where
    the replay stops."""
    node, at = 0, -1
    for k in range(depth):
        pair = first + 2 * node
        if bad[pair] or bad[pair + 1]:
            return at, pair
        j = margins[pair + 1] > margins[pair]  # argmax: the first of a tie
        if margins[pair + j] > top:
            top, at, node = margins[pair + j], pair + j, 3 * node + 1 + j
        else:
            node *= 3
        first += 2 * 3**k
    return at, None


def _search_rows(stack, params: JanowskiParams, disk: DiskSpec, r: float, angles: int, iters: int):
    """Best (margin, z, ratio) on |z| = r of each series of ``stack``, in
    ascending n, searched in lock step as the module describes; a failed
    sample raises :class:`~janostab.series.BranchFailureError` at the end."""
    live, failure = len(stack), None
    scan = np.repeat(_circle_points([r], angles), live, axis=0)
    vals, zs, bad = (a.reshape(live, -1) for a in ratio_samples(stack, params, scan))
    if bad.any():  # a failed scan sample drops its row and those above
        live = int(np.flatnonzero(bad.any(axis=1))[0])
        failure = vals[live], zs[live], bad[live]
    margins = disk.margin(vals[:live])
    pick = np.arange(live), margins.argmax(axis=1)
    best_m, best_z, best_v = margins[pick], zs[pick], vals[pick]
    theta, step = 2.0 * np.pi * pick[1] / angles, np.pi / angles
    while iters and live:  # every row's tree in one call, then each row's rounds replayed
        depth = min(iters, _TREE_ROUNDS)
        probes = [t for start in theta[:live].tolist() for t in _tree(start, step, depth)]
        vals, zs, bad = ratio_samples(stack[:live], params, [cmath.rect(r, t) for t in probes])
        margins, flags = disk.margin(vals).tolist(), bad.tolist()
        for i, top in enumerate(best_m[:live].tolist()):
            at, pair = _replay(margins, flags, i * (3**depth - 1), top, depth)
            if pair is not None:  # a failed sample on the path drops the row and those above
                live, failure = i, (vals[pair : pair + 2], zs[pair : pair + 2], bad[pair : pair + 2])
                break
            if at >= 0:
                best_m[i], best_z[i], best_v[i], theta[i] = margins[at], zs[at], vals[at], probes[at]
        step, iters = step * 0.5**depth, iters - depth  # exact: powers of two
    if failure is not None:
        _defined(failure)  # raises at the row's first failed sample
    return list(zip(best_m.tolist(), best_z.tolist(), best_v.tolist()))


def _search_group(params: JanowskiParams, ns: list, disk: DiskSpec, r: float, angles: int, iters: int):
    """Best (margin, z, ratio) of each cell (params, n), n in ascending
    ``ns``: the prefixes of one coefficient table, searched in lock step by
    chunks of rows whose scan or trees hold at most ``MAX_POINTS`` samples."""
    coeffs = coeff_table(params.A, params.B, params.lam, ns[-1])
    size = MAX_POINTS // max(angles, _TREE_PROBES)
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
    0 < lambda <= 1; pairs with B >= A are dropped.  Before any cell runs,
    and before the values are checked, :func:`~janostab.series.check_size`
    admits the top n, ``coarse_angles`` samples a call and cells x ((top n
    + 1) x a cell's samples + 2**12) coefficient-samples; a cell evaluates
    ``coarse_angles`` and 26 tree probes for every three ``refine_iters``
    (2 or 8 for the rest), and the cells are the pairs B < A times the
    lambda values times the n values.  Cells are emitted in
    lexicographic order and each records the best margin found on |z| = r
    with its witness, whether or not it is positive.  A cell with a failed
    sample, as at all when s_n meets (-inf, 0] on |z| = r, raises
    :class:`~janostab.series.BranchFailureError`.
    """
    a_values = sorted(float(v) for v in a_values)
    b_values = sorted(float(v) for v in b_values)
    lambda_values = sorted(float(v) for v in lambda_values)
    n_values = sorted(int(n) for n in n_values)
    coarse_angles = _count("coarse_angles", coarse_angles, 16)
    refine_iters = _count("refine_iters", refine_iters, 0)
    # 64 halvings of a step <= pi/16 fall below the resolution of arg z
    if refine_iters > 64:
        raise ValueError(f"refine_iters must lie in [0, 64], got {refine_iters!r}")
    # every row at the top degree times a cell's scan and its trees' probes, and a price per cell
    probes = _TREE_PROBES * (refine_iters // 3) + 3 ** (refine_iters % 3) - 1
    top = max(n_values, default=0)
    count = sum(bisect.bisect_left(b_values, a) for a in a_values) * len(lambda_values) * len(n_values)
    check_size(top, coarse_angles, count * ((top + 1) * (coarse_angles + probes) + _CELL_PRICE))
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
