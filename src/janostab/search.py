"""Counterexample discovery for the subordination checks.

A violation is one probe point whose stability ratio escapes the target
disk; a single strictly positive margin falsifies the subordination, which
is all a disproof needs.  The search is a coarse polar scan followed by
coordinate-descent refinement on (|z|, arg z); it is heuristic, not a
certified global optimizer.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .janowski import JanowskiParams, janowski_series
from .subordination import DiskSpec, disk_for, ratio_samples

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


def _margin_fn(series, params, disk):
    """Batch margin closure used by refinement: a list of points in, their
    (margin, ratio) out, (None, None) where the ratio is undefined.

    Coordinate descent probes many points more than once (a radial step
    clipped at |z| = r stays put, a step back returns to the last point),
    so each distinct z is evaluated once per closure, and the new points of
    a batch in one ``ratio_samples`` call (a value does not depend on its batch).
    """
    memo = {}

    def margins_at(zs):
        new = list(dict.fromkeys(z for z in zs if z not in memo))
        if new:
            vals, _, bad = ratio_samples(series, params, points=new)
            for z, ratio, failed in zip(new, vals.tolist(), bad.tolist()):
                memo[z] = (None, None) if failed else (disk.margin(ratio), ratio)
        return [memo[z] for z in zs]

    return margins_at


def _moves(rho: float, theta: float, step_r: float, step_t: float, r_limit: float, tried: int):
    """(|z|, arg z) after each move from (rho, theta) that a round has not
    tried yet, in the order they are tried; |z| stays in [0, r_limit]."""
    moves = ((step_r, 0.0), (-step_r, 0.0), (0.0, step_t), (0.0, -step_t))[tried:]
    return [(min(max(rho + d_rho, 0.0), r_limit), theta + d_theta) for d_rho, d_theta in moves]


def _refine(margins_at, z_start: complex, r_limit: float, step_r: float, step_t: float, iters: int):
    """Coordinate descent on (|z|, arg z) with shrinking steps.

    A round tries the four moves in turn and takes each improvement.  Its
    untried moves are evaluated as one batch, sent again from the new
    centre after an acceptance; the start point joins round 1's batch.
    Returns the per-round best (margin, z, ratio) history; the best value
    never decreases from one round to the next.
    """
    rho, theta = abs(z_start), cmath.phase(z_start)
    first = _moves(rho, theta, step_r, step_t, r_limit, 0) if iters else []
    (best_margin, best_ratio), *_ = margins_at([z_start, *(cmath.rect(*c) for c in first)])
    if best_margin is None:
        return []
    history = [(best_margin, z_start, best_ratio)]
    for _ in range(iters):
        improved, tried = False, 0
        while tried < 4:
            cands = _moves(rho, theta, step_r, step_t, r_limit, tried)
            for cand, (margin, ratio) in zip(cands, margins_at([cmath.rect(*c) for c in cands])):
                tried += 1
                if margin is not None and margin > best_margin:
                    best_margin, best_ratio = margin, ratio
                    rho, theta = cand
                    improved = True
                    break
        if not improved:
            step_r *= 0.5
            step_t *= 0.5
        history.append((best_margin, cmath.rect(rho, theta), best_ratio))
    return history


def _search_cell(
    params: JanowskiParams,
    n: int,
    disk: DiskSpec,
    r: float,
    coarse_radii: int,
    coarse_angles: int,
    refine_iters: int,
):
    """Best (margin, z, ratio) of one (params, n) cell: a coarse polar scan
    of |z| <= r, then refinement from the best coarse sample, keeping the
    better of the two.  More than half of the samples failing is treated as
    an error rather than a silently shrunken search region.
    """
    series = janowski_series(params, n)
    radii = [(j + 1) * r / coarse_radii for j in range(coarse_radii)]
    vals, zs, bad = ratio_samples(series, params, radii, coarse_angles)
    failures = int(bad.sum())
    if failures * 2 > bad.size:
        raise RuntimeError(f"{failures} of {bad.size} samples failed branch continuation")
    margins = np.abs(vals - disk.center) - disk.radius
    k = int(np.argmax(np.where(np.isfinite(margins), margins, -np.inf)))
    best = (float(margins[k]), complex(zs[k]), complex(vals[k]))
    if refine_iters > 0:
        history = _refine(
            _margin_fn(series, params, disk),
            best[1],
            r,
            r / coarse_radii,
            2.0 * np.pi / coarse_angles,
            refine_iters,
        )
        if history and history[-1][0] > best[0]:
            best = history[-1]
    return best


def sweep_parameter_grid(
    a_values,
    b_values,
    lambda_values,
    n_values,
    r: float,
    coarse_radii: int = 64,
    coarse_angles: int = 256,
    refine_iters: int = 8,
    disk_source: str = "mobius_image",
) -> list:
    """Best self-stability margin per (A, B, lambda, n) cell.

    Values must lie inside -1 <= B < A < 0 and 0 < lambda <= 1; pairs with
    B >= A are dropped.  Cells are emitted in lexicographic order and each
    records the best margin found with its witness, whether or not it is
    positive.
    """
    a_values = sorted(float(v) for v in a_values)
    b_values = sorted(float(v) for v in b_values)
    lambda_values = sorted(float(v) for v in lambda_values)
    n_values = sorted(int(n) for n in n_values)
    for v in a_values:
        if not -1.0 < v < 0.0:
            raise ValueError(f"A values must lie in (-1, 0), got {v!r}")
    for v in b_values:
        if not -1.0 <= v < 0.0:
            raise ValueError(f"B values must lie in [-1, 0), got {v!r}")
    if any(n < 1 for n in n_values) or not n_values:
        raise ValueError("n_values must be a non-empty list of integers >= 1")
    if not 0.0 < r < 1.0:
        raise ValueError("need 0 < r < 1")
    if coarse_radii < 16 or coarse_angles < 16:
        raise ValueError("coarse grid must have at least 16 points per axis")
    if refine_iters < 0:
        raise ValueError("refine_iters must be >= 0")
    cells = []
    for a in a_values:
        for b in b_values:
            if not b < a:
                continue
            for lam in lambda_values:
                params = JanowskiParams(a, b, lam)
                disk = disk_for(disk_source, params, r)
                for n in n_values:
                    best = _search_cell(params, n, disk, r, coarse_radii, coarse_angles, refine_iters)
                    cells.append(SweepCell(params, n, *best, disk, disk_source))
    return cells
