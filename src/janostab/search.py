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
from .series import TruncatedSeries, circle_log_values, ray_log_values
from .subordination import POLE_EPS, DiskSpec, _mobius_power_margins, disk_for

__all__ = [
    "SWEEP_CSV_HEADER",
    "SearchSpec",
    "SweepCell",
    "Violation",
    "find_self_stability_violation",
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
class SearchSpec:
    """One search configuration.

    ``target`` selects the disk the ratio is tested against: ``"self"``
    uses the image disk of |z| <= r (where violations are expected for
    -1 <= B < A < 0), ``"base"`` uses the disk center 1 radius |B| (where
    none should exist for A <= 0).
    """

    params: JanowskiParams
    n_values: tuple
    r: float
    coarse_radii: int = 64
    coarse_angles: int = 256
    refine_iters: int = 16
    disk_source: str = "mobius_image"
    target: str = "self"

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        if any(n < 1 for n in self.n_values) or not self.n_values:
            raise ValueError("n_values must be a non-empty list of integers >= 1")
        if not 0.0 < self.r < 1.0:
            raise ValueError("need 0 < r < 1")
        if self.coarse_radii < 16 or self.coarse_angles < 16:
            raise ValueError("coarse grid must have at least 16 points per axis")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be >= 0")
        if self.target not in ("self", "base"):
            raise ValueError("target must be 'self' or 'base'")


@dataclass(frozen=True)
class Violation:
    """A witnessed escape from the target disk.

    ``margin`` equals |ratio - disk.center| - disk.radius for the stored
    fields, so every violation is independently re-verifiable.
    """

    params: JanowskiParams
    n: int
    z: complex
    ratio: complex
    disk: DiskSpec
    margin: float

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.as_dict(),
            "n": self.n,
            "z": {"re": self.z.real, "im": self.z.imag},
            "ratio": {"re": self.ratio.real, "im": self.ratio.imag},
            "disk": self.disk.to_json_dict(),
            "margin": self.margin,
        }


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


def _coarse_scan(
    series: TruncatedSeries,
    params: JanowskiParams,
    disk: DiskSpec,
    r: float,
    n_radii: int,
    n_angles: int,
):
    """Margins, ratio values and sample points on the coarse polar grid."""
    radii = [(j + 1) * r / n_radii for j in range(n_radii)]
    L, failed, rho = circle_log_values(series, radii, n_angles)
    theta = 2.0 * np.pi * np.arange(n_angles) / n_angles
    zs = rho[:, None] * np.exp(1j * theta)[None, :]
    margins, vals, pole = _mobius_power_margins(
        L, zs, 1.0 / params.lam, params.A, params.B, disk
    )
    bad = failed | pole
    margins = np.where(bad, np.nan, margins)
    return margins, vals, zs, int(bad.sum()), margins.size


def _margin_fn(series, params, disk):
    """Scalar margin closure used by refinement.

    It keeps its own exp(L / lam) rather than the exp((1 / lam) * L) of
    ``stability_ratio``: the two round differently, and the latter moves the
    last digits of 9 of the 24 rows of ``search --A-values -0.3,-0.6
    --B-values -0.9,-0.7 --lambda-values 0.4,0.8 --n-values 1,2,4 --r 0.95``.
    """

    def margin_at(z: complex):
        L, failed = ray_log_values(series, np.asarray(z))
        if bool(failed):
            return None, None
        den = 1.0 + params.A * z
        if abs(den) < POLE_EPS:
            return None, None
        ratio = (1.0 + params.B * z) / den * complex(np.exp(complex(L) / params.lam))
        return disk.margin(ratio), ratio

    return margin_at


def _refine(margin_at, z_start: complex, r_limit: float, step_r: float, step_t: float, iters: int):
    """Coordinate descent on (|z|, arg z) with shrinking steps.

    Returns the per-round best (margin, z, ratio) history; the best value
    never decreases from one round to the next.
    """
    rho = abs(z_start)
    theta = cmath.phase(z_start)
    best_margin, best_ratio = margin_at(z_start)
    if best_margin is None:
        return []
    history = [(best_margin, z_start, best_ratio)]
    for _ in range(iters):
        improved = False
        for d_rho, d_theta in ((step_r, 0.0), (-step_r, 0.0), (0.0, step_t), (0.0, -step_t)):
            cand_rho = min(max(rho + d_rho, 0.0), r_limit)
            cand_theta = theta + d_theta
            z = cmath.rect(cand_rho, cand_theta)
            margin, ratio = margin_at(z)
            if margin is not None and margin > best_margin:
                best_margin, best_ratio = margin, ratio
                rho, theta = cand_rho, cand_theta
                improved = True
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
    """Coarse scan of |z| <= r for one (params, n) cell, then refinement
    from the best coarse sample.

    Returns the flattened coarse margins (NaN where a sample failed), ratios
    and points, the index of the best coarse sample, and the refined
    (margin, z, ratio), or None when refinement did not run.  More than half
    of the samples failing is treated as an error rather than a silently
    shrunken search region.
    """
    series = janowski_series(params, n)
    margins, vals, zs, failures, total = _coarse_scan(
        series, params, disk, r, coarse_radii, coarse_angles
    )
    if failures * 2 > total:
        raise RuntimeError(f"{failures} of {total} samples failed branch continuation")
    margins, vals, zs = margins.ravel(), vals.ravel(), zs.ravel()
    finite = np.isfinite(margins)
    best = int(np.argmax(np.where(finite, margins, -np.inf)))
    refined = None
    if finite.any() and refine_iters > 0:
        history = _refine(
            _margin_fn(series, params, disk),
            complex(zs[best]),
            r,
            r / coarse_radii,
            2.0 * np.pi / coarse_angles,
            refine_iters,
        )
        refined = history[-1] if history else None
    return margins, vals, zs, best, refined


def find_self_stability_violation(spec: SearchSpec) -> list:
    """Scan |z| <= r for strictly positive margins, refine the best point,
    and return every violation found sorted by descending margin.

    Branch-failure samples are skipped; more than half of them failing
    raises ``RuntimeError``.
    """
    if spec.target == "base":
        disk = DiskSpec(1.0 + 0.0j, abs(spec.params.B))
    else:
        disk = disk_for(spec.disk_source, spec.params, spec.r)
    violations = []
    for n in spec.n_values:
        margins, vals, zs, _, refined = _search_cell(
            spec.params, n, disk, spec.r, spec.coarse_radii, spec.coarse_angles, spec.refine_iters
        )
        seen = {}
        for k in np.flatnonzero(np.isfinite(margins) & (margins > 0.0)):
            z, ratio = complex(zs[k]), complex(vals[k])
            seen[z] = Violation(spec.params, n, z, ratio, disk, disk.margin(ratio))
        if refined is not None and refined[0] > 0.0:
            margin, z, ratio = refined
            seen[z] = Violation(spec.params, n, z, ratio, disk, margin)
        violations.extend(seen.values())
    violations.sort(key=lambda v: (-v.margin, v.z.real, v.z.imag, v.n))
    return violations


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
    cells = []
    for a in a_values:
        for b in b_values:
            if not b < a:
                continue
            for lam in lambda_values:
                params = JanowskiParams(a, b, lam)
                disk = disk_for(disk_source, params, r)
                for n in n_values:
                    margins, vals, zs, k, refined = _search_cell(
                        params, n, disk, r, coarse_radii, coarse_angles, refine_iters
                    )
                    best = (float(margins[k]), complex(zs[k]), complex(vals[k]))
                    if refined is not None and refined[0] > best[0]:
                        best = refined
                    cells.append(SweepCell(params, n, *best, disk, disk_source))
    return cells
