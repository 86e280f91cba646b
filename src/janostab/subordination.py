"""Numerical subordination (stability) checks for the Janowski-type family.

For v(z) = ((1+Az)/(1+Bz))**lam with partial sum s_n, stability of v with
respect to a target family member is a subordination statement about
s_n(v)/v.  Its 1/lam power, the "stability ratio" (1+Bz) * s_n(z)**(1/lam)
/ (1+Az), must map sample sets into a closed disk: center 1, radius |B|
against the A=0 base member; the image of |z| <= r under (1+Bz)/(1+Az)
against the member itself.  A disk check samples its largest circle, which
decides the disk unless a sample fails, and explicit points.

Every ratio value comes from :func:`ratio_samples` at flat points of
|z| < 1, where 1 + Az never vanishes: Horner's rule and the principal
logarithm, kept where s_n does not meet (-inf, 0] on the circle through
the point (see :mod:`janostab.series`).  A failed sample hides no pass:
each target lies in Re w >= 0 and |Arg (1+Bz)/(1+Az)| < pi/2, so where a
subordination checked here holds, |Arg s_n| < lam*pi <= pi.  All is pure
and deterministic; ties for the worst sample break toward the
lexicographically smallest (re, im).
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .janowski import JanowskiParams, janowski_series
from .series import BranchFailureError, _circle_points, _rounded_radii, ray_log_values

__all__ = [
    "DISK_SOURCES",
    "DiskSpec",
    "KNOWN_COUNTEREXAMPLE",
    "SampleGrid",
    "StabilityReport",
    "check_stability_vs_base",
    "check_stability_vs_self",
    "closed_form_disk",
    "disk_for",
    "mobius_image_disk",
    "ratio_samples",
    "reference_disk_comparison",
]

DEFAULT_TOL = 1e-6
DISK_DENOMINATOR_EPS = 1e-12
DISK_SOURCES = ("closed_form", "mobius_image")


def _count(name: str, value, least: int) -> int:
    """A sample count as a Python int; ``ValueError`` unless ``value`` is an
    integer (``np.int64`` is, ``16.0`` and ``8.5`` are not) >= ``least``."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class DiskSpec:
    """Closed disk |w - center| <= radius."""

    center: complex
    radius: float

    def __post_init__(self):
        c = complex(self.center)
        if not (np.isfinite(c.real) and np.isfinite(c.imag)):
            raise ValueError("center must be finite")
        if not (np.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError("radius must be finite and >= 0")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    def margin(self, w):
        """Signed distance of w outside the disk (positive = outside); w
        may be a value or an array of values."""
        margin = np.abs(w - self.center)
        margin -= self.radius
        return margin

    def boundary_points(self, count: int) -> np.ndarray:
        """``count`` equispaced boundary points, starting at angle 0."""
        return self.center + _circle_points([self.radius], count)[0]

    def to_json_dict(self) -> dict:
        return {
            "center": {"re": self.center.real, "im": self.center.imag},
            "radius": self.radius,
        }


@dataclass(frozen=True)
class SampleGrid:
    """Circles plus optional explicit probe points.

    ``radii`` must be strictly increasing and lie in (0, 1); the base-member
    check reads them as disk radii, the self check as fractions of its r.
    The disk checks sample only the largest, which decides the others.
    An empty radius list is allowed when explicit points are supplied;
    they must lie in |z| < 1 (:func:`_disk_samples` checks them).
    """

    radii: tuple = (0.9, 0.99, 0.999)
    points_per_circle: int = 4096
    extra_points: tuple = ()

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if any(not 0.0 < r < 1.0 for r in radii):
            raise ValueError("radii must lie in (0, 1)")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly increasing")
        count = _count("points_per_circle", self.points_per_circle, 8)
        extras = tuple(complex(z) for z in self.extra_points)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "points_per_circle", count)
        object.__setattr__(self, "extra_points", extras)


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of one subordination check.

    ``verdict`` is ``pass`` when the worst sampled margin stays within
    tolerance, ``violated`` when some sample escapes the target disk, and
    ``branch_failure`` when a sample failed, as every sample of a circle
    where s_n meets (-inf, 0] does (the worst margin then
    covers the valid samples only; it is NaN, JSON null, if none is).  Only
    the largest of ``sample_radii`` and the explicit points are sampled; the
    verdict covers every listed circle.  ``worst_ratio`` is the evaluated
    ratio at ``worst_point``; it is not part of the JSON form.
    """

    verdict: str
    worst_margin: float
    worst_point: Optional[complex]
    n: int
    params: JanowskiParams
    sample_radii: tuple
    points_per_circle: int
    worst_ratio: Optional[complex] = None
    disk_source: Optional[str] = None
    disk: Optional[DiskSpec] = None

    def to_json_dict(self) -> dict:
        doc = {
            "verdict": self.verdict,
            "worst_margin": self.worst_margin if np.isfinite(self.worst_margin) else None,
            "worst_point": None
            if self.worst_point is None
            else {"re": self.worst_point.real, "im": self.worst_point.imag},
            "n": self.n,
            "params": self.params.as_dict(),
            "grid": {"radii": list(self.sample_radii), "points": self.points_per_circle},
        }
        if self.disk_source is not None:
            doc["disk_source"] = self.disk_source
        if self.disk is not None:
            doc["disk"] = self.disk.to_json_dict()
        return doc


# --- image disks of the Mobius target (1+Bz)/(1+Az) -------------------------

def closed_form_disk(params: JanowskiParams, r: float) -> DiskSpec:
    """Disk from the closed-form center/radius expressions

        C(r) = (r**2*A - B) / (B**2 - r**2*A**2)
        R(r) = r*(A - B)   / (B**2 - r**2*A**2)

    evaluated literally.  These differ slightly from the true Mobius image
    of |z| <= r (see :func:`mobius_image_disk`); both are kept so the two
    target conventions can be compared.
    """
    if r < 0.0:
        raise ValueError("r must be >= 0")
    a, b = params.A, params.B
    den = b * b - r * r * a * a
    if den <= DISK_DENOMINATOR_EPS:
        raise ValueError(f"degenerate denominator B^2 - r^2*A^2 = {den!r}")
    return DiskSpec((r * r * a - b) / den, r * (a - b) / den)


def mobius_image_disk(params: JanowskiParams, r: float) -> DiskSpec:
    """Exact image of |z| <= r under (1+Bz)/(1+Az).

    Center (1 - A*B*r**2)/(1 - A**2*r**2), radius (A-B)*r/(1 - A**2*r**2);
    every boundary point w of the result satisfies |(1-w)/(Aw-B)| = r.
    """
    if r < 0.0:
        raise ValueError("r must be >= 0")
    a, b = params.A, params.B
    if abs(a) * r >= 1.0:
        raise ValueError("need |A|*r < 1")
    den = 1.0 - a * a * r * r
    if abs(den) < DISK_DENOMINATOR_EPS:
        raise ValueError("degenerate denominator 1 - A^2*r^2")
    return DiskSpec((1.0 - a * b * r * r) / den, (a - b) * r / den)


def disk_for(source: str, params: JanowskiParams, r: float) -> DiskSpec:
    if source == "closed_form":
        return closed_form_disk(params, r)
    if source == "mobius_image":
        return mobius_image_disk(params, r)
    raise ValueError(f"disk source must be one of {DISK_SOURCES}")


# --- known counterexample configuration -------------------------------------

@dataclass(frozen=True)
class CounterexampleConfig:
    params: JanowskiParams
    n: int
    z0: complex
    r: float


#: Configuration at which the family is known to escape its own target disk.
KNOWN_COUNTEREXAMPLE = CounterexampleConfig(
    params=JanowskiParams(-0.679, -0.97, 0.3),
    n=1,
    z0=complex(0.915282, -0.357037),
    r=0.98,
)

#: Center/radius previously reported for the closed-form disk of the
#: configuration above.  Direct evaluation of the closed-form expressions at
#: r = 0.98 gives (0.638181..., 0.572516...) instead, a ~4e-3 discrepancy;
#: the reported numbers coincide with evaluating the same expressions at
#: r = |z0| ~ 0.982454.  Both are recorded so reports can flag the gap.
REFERENCE_DISK_CENTER = 0.634444
REFERENCE_DISK_RADIUS = 0.576521
REFERENCE_FLAG_THRESHOLD = 1e-3


def reference_disk_comparison(params: JanowskiParams, r: float) -> dict:
    """Compare the computed closed-form disk with the recorded reference
    values for the known configuration; ``flagged`` marks a discrepancy
    beyond ``REFERENCE_FLAG_THRESHOLD``."""
    disk = closed_form_disk(params, r)
    center_delta = abs(disk.center.real - REFERENCE_DISK_CENTER)
    radius_delta = abs(disk.radius - REFERENCE_DISK_RADIUS)
    return {
        "reference_center": REFERENCE_DISK_CENTER,
        "reference_radius": REFERENCE_DISK_RADIUS,
        "computed_center": disk.center.real,
        "computed_radius": disk.radius,
        "center_delta": center_delta,
        "radius_delta": radius_delta,
        "flagged": bool(
            center_delta > REFERENCE_FLAG_THRESHOLD
            or radius_delta > REFERENCE_FLAG_THRESHOLD
        ),
    }


# --- the stability ratio ------------------------------------------------------

def _checked_points(points):
    """Flat ``points`` (no copy) and their radii from
    :func:`~janostab.series._rounded_radii`, or ``ValueError`` at the first
    point not in |z| < 1 (NaN too)."""
    zs = np.asarray(points, dtype=complex).ravel()
    moduli = np.abs(zs)
    inside = moduli < 1.0
    if not inside.all():
        raise ValueError(f"sample point z = {complex(zs[np.argmin(inside)])!r} is not in |z| < 1")
    return zs, _rounded_radii(moduli)


def ratio_samples(series, params: JanowskiParams, points: Sequence[complex]):
    """(1+Bz) * s(z)**(1/lam) / (1+Az) on the analytic branch, with
    ``params``' A, B and lambda: the one evaluation of the stability ratio.

    ``series`` is one :class:`~janostab.series.TruncatedSeries`, or a stack
    (sequence) of them that splits the flattened ``points`` into as many
    equal rows, row i evaluated with series i and bit for bit as it would be
    alone.  Each of ``points`` must lie in |z| < 1, else ``ValueError`` is
    raised before any value; then it goes through
    :func:`~janostab.series.ray_log_values`.
    The pole -1/A is out of reach: |A| <= 1, so Re(1 + Az) >= 1 - |Re z| > 0,
    in floating point too, as rounding is monotone (|fl(A Re z)| <= |Re z| < 1)
    and fl(1 + y) > 0 for every double y > -1.  Returns flat arrays
    ``(vals, zs, bad)``; ``bad`` marks a branch failure, where ``vals`` is NaN,
    and ``zs`` is ``points`` flattened, a view of them where numpy allows.
    """
    return _ratio(series, params, *_checked_points(points))


def _ratio(series, params: JanowskiParams, zs: np.ndarray, rhos: np.ndarray):
    """:func:`ratio_samples` at flat checked ``zs`` with their rounded radii
    ``rhos``; neither is written."""
    L, bad = ray_log_values(series, zs, rhos)
    # (1+Bz)/(1+Az) * exp(L/lam), no product or quotient of two arrays written onto
    # one of them (numpy rounds such a product differently at one element; a scalar
    # factor keeps its bits in place); L/lam's bits where log|s| is finite: numpy divides by lam + 0j by Smith's
    # rule, times fl(1/lam) + 0j as here, and the zero-imaginary terms vanish
    # (log|s| is never -0, Arg is +0.0-normalised)
    with np.errstate(invalid="ignore", over="ignore"):
        L *= 1.0 / params.lam
        np.exp(L, L)
        num = np.multiply(params.B, zs)
        num += 1.0
        den = np.multiply(params.A, zs)
        den += 1.0
        vals = np.multiply(np.divide(num, den), L, den)
    return vals, zs, bad


def _defined(samples):
    """``(vals, zs)`` of a :func:`ratio_samples` result, or
    :class:`~janostab.series.BranchFailureError` at its first bad sample."""
    vals, zs, bad = samples
    if bad.any():
        raise BranchFailureError(
            f"the stability ratio is undefined at z = {complex(zs[bad][0])!r}: s_n meets "
            "(-inf, 0] on |zeta| = |z|, as with a root in |zeta| <= |z|, or |s_n| < 1e-12"
        )
    return vals, zs


# --- stability checks ---------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _circle_samples(radius: float, count: int):
    """The points and rounded radii of one circle, as :func:`_checked_points`
    gives them, built once per (radius, count) and shared, so read-only."""
    zs, rhos = _checked_points(_circle_points([radius], count))
    zs.flags.writeable = rhos.flags.writeable = False
    return zs, rhos


def _disk_samples(radii, grid: SampleGrid):
    """The samples of a disk check and their rounded radii: ``grid``'s
    ``points_per_circle`` equispaced points from angle 0 on the largest
    circle of ``radii`` (cached), then its explicit points, flat.
    ``ValueError`` when there are none or one is not in |z| < 1, the
    explicit points checked first."""
    parts = [_checked_points(grid.extra_points)] if grid.extra_points else []
    if radii:
        parts.insert(0, _circle_samples(radii[-1], grid.points_per_circle))
    if not parts:
        raise ValueError("sample grid is empty: no circles and no extra points")
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(a) for a in zip(*parts))


def _worst_sample(margins: np.ndarray, points: np.ndarray) -> Optional[int]:
    """Index of the max finite margin with deterministic tie-break (smallest
    (re, im)); None when no margin is finite."""
    top = np.max(margins, where=np.isfinite(margins), initial=-np.inf)
    if top == -np.inf:
        return None
    ties = np.flatnonzero(margins == top)
    return int(ties[np.lexsort((points[ties].imag, points[ties].real))[0]])


def _stability_report(
    params: JanowskiParams,
    n: int,
    disk: DiskSpec,
    radii: tuple,
    grid: SampleGrid,
    tol: float,
    disk_source: Optional[str] = None,
) -> StabilityReport:
    """Worst margin of the stability ratio of s_n against ``disk`` on the
    disks of ``radii``, decided on the largest circle, and at the grid's
    explicit points, as a report."""
    series = janowski_series(params, n)
    vals, zs, bad = _ratio(series, params, *_disk_samples(radii, grid))
    margins = disk.margin(vals)
    k = _worst_sample(margins, zs)
    worst, worst_point, worst_ratio = (
        (float("nan"), None, None) if k is None
        else (float(margins[k]), complex(zs[k]), complex(vals[k]))
    )
    verdict = "branch_failure" if bad.any() else "pass" if worst <= tol else "violated"
    return StabilityReport(
        verdict=verdict,
        worst_margin=worst,
        worst_point=worst_point,
        worst_ratio=worst_ratio,
        n=n,
        params=params,
        sample_radii=radii,
        points_per_circle=grid.points_per_circle,
        disk=disk,
        disk_source=disk_source,
    )


def check_stability_vs_base(
    params: JanowskiParams,
    n: int,
    grid: Optional[SampleGrid] = None,
    tol: float = DEFAULT_TOL,
    allow_outside: bool = False,
) -> StabilityReport:
    """Check |ratio(z) - 1| <= |B| over the grid, the criterion for the
    n-th partial sum to be subordinate to the A=0 base member.

    Parameters outside the proven range A <= 0 are rejected unless
    ``allow_outside`` permits exploratory use.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not params.base_stable_range and not allow_outside:
        raise ValueError(
            "params outside the established range A <= 0; "
            "pass allow_outside=True for exploratory checks"
        )
    grid = grid or SampleGrid()
    disk = DiskSpec(1.0 + 0.0j, abs(params.B))
    return _stability_report(params, n, disk, grid.radii, grid, tol)


def check_stability_vs_self(
    params: JanowskiParams,
    n: int,
    r: float,
    grid: Optional[SampleGrid] = None,
    disk_source: str = "mobius_image",
    tol: float = DEFAULT_TOL,
) -> StabilityReport:
    """Check whether the ratio maps |z| <= r into the image of |z| <= r
    under the Mobius target, the criterion for self-subordination.

    ``grid.radii`` are read as fractions of ``r`` so the circles stay inside
    the probed subdisk; ``grid.extra_points`` are absolute and may probe any
    point of |z| < 1.  One with r < |z| < 1, as the built-in witness
    (|z0| ~ 0.98245) at r = 0.98, is still compared against the disk of r.
    Verdict is ``violated`` as soon as one sample escapes the disk by more
    than ``tol``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < r < 1.0:
        raise ValueError("need 0 < r < 1")
    grid = grid or SampleGrid()
    disk = disk_for(disk_source, params, r)
    radii = tuple(f * r for f in grid.radii)
    return _stability_report(params, n, disk, radii, grid, tol, disk_source)

