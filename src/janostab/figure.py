"""Figure geometry and deterministic SVG rendering.

The figure shows, on one complex-plane chart: the self-stability target
disk for |z| <= r under both disk conventions, the closed curve traced by
the stability ratio on |z| = r, and the ratio at one marked witness point.
Geometry is computed once and can be dumped to / reloaded from CSV; the
SVG is a pure function of the geometry, so a replot from CSV reproduces
the original file byte for byte.

Every number in the SVG is ``"%.6f"`` of its float: the exact binary value
correctly rounded to 6 decimals, ties to even, with "-" before a negative
value even where it rounds to zero.  A path's ``d`` text is built from
numpy digit words (see :func:`_fixed6_slice`) when every coordinate of the
path lies below 10**6 in magnitude and provably off a rounding tie; a path
with any other coordinate (an exact tie such as k/128, a huge or a
non-finite value) is formatted wholly by ``%``, so the bytes are the same
either way and the choice rests on the coordinates alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .janowski import JanowskiParams, janowski_series
from .serialize import csv_text, fmt6
from .series import _circle_points
from .subordination import DISK_SOURCES, _count, _defined, disk_for, ratio_samples

__all__ = [
    "FigureGeometry",
    "compute_figure_geometry",
    "geometry_csv_documents",
    "load_geometry_csvs",
    "render_svg",
]

_STYLE = {
    "closed_form": ("#4878cf", 'stroke-dasharray="8,5" '),
    "mobius_image": ("#d65f5f", ""),
}
_CURVE_COLOR = "#2f9e44"
_SCALE = 500.0
_SLICE = 2**15  # points per numpy pass of a path: bounds its temporaries
_SEPARATORS = np.array([0, 1000])  # offsets into the tail words: "," after x, " " after y


@dataclass(frozen=True)
class FigureGeometry:
    """Plot-ready data: disk boundaries by source, ratio curve, witness."""

    boundaries: tuple  # ((source, complex ndarray), ...)
    curve: np.ndarray
    point: complex


def compute_figure_geometry(
    params: JanowskiParams,
    n: int,
    r: float,
    z0: complex,
    curve_angles: int = 1024,
    boundary_samples: int = 720,
) -> FigureGeometry:
    """Build the figure geometry; raises ValueError unless |z0| < 1, and
    BranchFailureError when the ratio is undefined on the curve or at z0."""
    if not 0.0 < r < 1.0:
        raise ValueError("need 0 < r < 1")
    curve_angles = _count("curve_angles", curve_angles, 8)
    boundary_samples = _count("boundary_samples", boundary_samples, 8)
    boundaries = []
    for source in DISK_SOURCES:
        disk = disk_for(source, params, r)
        boundaries.append((source, disk.boundary_points(boundary_samples)))
    series = janowski_series(params, n)
    points = np.append(_circle_points([r], curve_angles)[0], z0)
    vals, _ = _defined(ratio_samples(series, params, points))
    return FigureGeometry(tuple(boundaries), vals[:-1], complex(vals[-1]))


def geometry_csv_documents(geom: FigureGeometry) -> dict:
    """CSV texts keyed by file name (re/im columns, 17-digit floats)."""
    boundary_rows = []
    for source, pts in geom.boundaries:
        boundary_rows.extend([source, float(w.real), float(w.imag)] for w in pts)
    return {
        "disk_boundary.csv": csv_text(("source", "re", "im"), boundary_rows),
        "g_curve.csv": csv_text(
            ("re", "im"), [[float(w.real), float(w.imag)] for w in geom.curve]
        ),
        "point.csv": csv_text(
            ("re", "im"), [[geom.point.real, geom.point.imag]]
        ),
    }


def _csv_points(path, header: tuple) -> tuple:
    """(first cells, points) of the data rows of an exported CSV, whose last
    two cells are re and im.  Raises ``ValueError`` unless the file has
    ``header``, rows of as many cells, at least one, and finite numbers."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if lines[:1] != [",".join(header)] or not rows or {len(r) for r in rows} != {len(header)}:
        raise ValueError(f"{path.name} needs the header {','.join(header)} and rows of "
                         f"{len(header)} cells, at least one")
    xy = np.array([[float(x) for x in row[-2:]] for row in rows])
    if not np.isfinite(xy).all():
        raise ValueError(f"{path.name} holds a non-finite number")
    return [row[0] for row in rows], xy.view(complex).ravel()


def load_geometry_csvs(directory) -> FigureGeometry:
    """Rebuild geometry from the three CSV files in ``directory``; raises
    ``ValueError`` for a malformed file (see :func:`_csv_points`), a
    ``point.csv`` without exactly one row, or an unknown disk source."""
    directory = Path(directory)
    sources, pts = _csv_points(directory / "disk_boundary.csv", ("source", "re", "im"))
    if not set(sources) <= set(DISK_SOURCES):
        raise ValueError(f"disk_boundary.csv: the disk sources are {', '.join(DISK_SOURCES)}")
    boundaries = tuple((s, pts[[src == s for src in sources]]) for s in dict.fromkeys(sources))
    _, curve = _csv_points(directory / "g_curve.csv", ("re", "im"))
    _, point = _csv_points(directory / "point.csv", ("re", "im"))
    if point.size != 1:
        raise ValueError(f"point.csv must hold one row, not {point.size}")
    return FigureGeometry(boundaries, curve, complex(point[0]))


def _xy(pts) -> np.ndarray:
    """SVG (x, y) coordinates of complex points, one row per point."""
    pts = np.asarray(pts, dtype=complex)
    return np.column_stack((_SCALE * pts.real, -_SCALE * pts.imag))


@functools.cache
def _digit_words() -> tuple:
    """The word tables of :func:`_fixed6_slice`, built on first use.  Each
    word is 4 bytes, NUL where a table entry is shorter: ``sign[1000 s + h]``
    is "-" when s = 1 and then h without leading zeros (nothing for h = 0);
    ``lead[1000 z + m]`` is m with 3 digits when z = 0 and without leading
    zeros when z = 1; ``dot[f]`` is "." and f with 3 digits; ``tail[1000 k
    + g]`` is g with 3 digits and then ",", " " or nothing for k = 0, 1, 2."""
    padded = [f"{k:03d}" for k in range(1000)]
    bare = ["", *map(str, range(1, 1000))]
    texts = (
        bare + ["-" + b for b in bare],
        padded + ["0", *bare[1:]],
        ["." + f for f in padded],
        [g + "," for g in padded] + [g + " " for g in padded] + padded,
    )
    tables = tuple(np.array(t, dtype="S4").view(np.uint32) for t in texts)
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def _fixed6_slice(xy: np.ndarray, last: bool):
    """``"%.6f,%.6f "`` of each row (x, y) of ``xy`` as ASCII bytes, without
    the final space when ``last``; None unless every coordinate is finite,
    rounds below 10**6 in magnitude and is provably off a rounding tie.

    Proof that the bytes are those of ``"%.6f"``.  That format prints "-"
    when x has its sign bit set, then the integer nearest t = |x| 10**6
    (exactly), as digits with a "." before the last six.  The rounded
    product y = fl(t) has |y - t| <= y 2**-53.  The half-integer nearest y
    is floor(y) + 1/2, at d = |y - floor(y) - 1/2|, and every other one is
    at least 1/2 >= d away; so where d > |y - t|, t lies strictly on the
    same side of every half-integer as y, is no tie, and rint(y) is the
    integer nearest t.  With q = rint(y) < 10**12, y < 2**52: floor(y) is
    exact, and so is y - floor(y) (Sterbenz's lemma when floor(y) >= 1, y
    itself when it is 0); subtracting 1/2 then rounds once, so the computed
    d' <= d (1 + 2**-53).  For y >= 1/4 the test d' > y 2**-51 (exact
    there) therefore gives d > y 2**-53 >= |y - t|; below 1/4, where
    y 2**-51 may underflow, d > 1/4 > |y - t| anyway.  NaN and infinity
    fail q < 10**12.  Of q = 10**9 h + 10**6 m + 10**3 f + g, the words of
    :func:`_digit_words` give the sign and h, m (unpadded when h = 0, so
    that 0 prints as "0"), "." and f, then g and the separator; the NULs
    between them are dropped."""
    y = np.abs(xy) * 1e6
    q = np.rint(y)
    if not (np.all(q < 1e12) and np.all(np.abs(y - np.floor(y) - 0.5) > y * 2.0**-51)):
        return None
    whole, frac = np.divmod(q.astype(np.int64), 10**6)
    high, mid = np.divmod(whole, 1000)
    dots, low = np.divmod(frac, 1000)
    low += _SEPARATORS
    if last:
        low[-1, 1] += 1000
    sign, lead, dot, tail = _digit_words()
    words = np.empty(xy.shape + (4,), np.uint32)
    words[..., 0] = sign[high + 1000 * np.signbit(xy)]
    words[..., 1] = lead[mid + 1000 * (high == 0)]
    words[..., 2] = dot[dots]
    words[..., 3] = tail[low]
    return words.tobytes().translate(None, b"\0")


def _path(points: np.ndarray, color: str, extra: str = "") -> str:
    xy = _xy(points)
    coords = []
    for start in range(0, len(xy), _SLICE):
        piece = _fixed6_slice(xy[start : start + _SLICE], start + _SLICE >= len(xy))
        if piece is None:
            coords = [" ".join(["%.6f,%.6f"] * len(xy)) % tuple(xy.ravel().tolist())]
            break
        coords.append(piece.decode("ascii"))
    tail = f' Z" fill="none" stroke="{color}" stroke-width="2" {extra}/>'
    return "".join(['<path d="M ', *coords, tail])  # one copy of a long path's text


def render_svg(geom: FigureGeometry) -> str:
    """Deterministic SVG 1.1 text for the figure.

    The viewport auto-fits the drawn geometry with 5% padding; axes are
    drawn through the origin with tick marks at unit steps.  Coordinates
    carry exactly 6 decimals, so identical geometry yields identical bytes.
    """
    # the origin keeps the axes inside the viewport
    pts = np.concatenate([*(b for _, b in geom.boundaries), geom.curve, [geom.point, 0j]])
    # the bounds of _xy's coordinates, from 1-D reductions: rounding is
    # monotone and negation exact, so _SCALE * min(re) is min(_SCALE * re)
    # and -(_SCALE * max(im)) is min(-_SCALE * im).  numpy's min and max may
    # return either zero of a -0.0/0.0 tie, but the bytes cannot change: the
    # bounds hold the origin and pad >= 0.05, so the padded bounds, width
    # and height are never zero
    re, im = pts.real, pts.imag
    x0, x1 = _SCALE * float(re.min()), _SCALE * float(re.max())
    y0, y1 = -(_SCALE * float(im.max())), -(_SCALE * float(im.min()))
    del pts, re, im  # a long figure's paths are formatted without this copy of them
    pad = 0.05 * max(x1 - x0, y1 - y0, 1.0)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    width, height = x1 - x0, y1 - y0

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt6(width)}" height="{fmt6(height)}" '
        f'viewBox="{fmt6(x0)} {fmt6(y0)} {fmt6(width)} {fmt6(height)}">'
    )
    out.append(
        f'<rect x="{fmt6(x0)}" y="{fmt6(y0)}" width="{fmt6(width)}" '
        f'height="{fmt6(height)}" fill="#ffffff"/>'
    )
    # axes through the origin with unit ticks
    axis = 'stroke="#999999" stroke-width="1"'
    out.append(f'<line x1="{fmt6(x0)}" y1="0.000000" x2="{fmt6(x1)}" y2="0.000000" {axis}/>')
    out.append(f'<line x1="0.000000" y1="{fmt6(y0)}" x2="0.000000" y2="{fmt6(y1)}" {axis}/>')
    tick = 6.0
    k = int(np.ceil(x0 / _SCALE))
    while k * _SCALE <= x1:
        x = k * _SCALE
        out.append(
            f'<line x1="{fmt6(x)}" y1="{fmt6(-tick)}" x2="{fmt6(x)}" y2="{fmt6(tick)}" {axis}/>'
        )
        out.append(
            f'<text x="{fmt6(x + 4)}" y="{fmt6(tick + 14)}" font-family="monospace" '
            f'font-size="12" fill="#666666">{k}</text>'
        )
        k += 1
    k = int(np.ceil(y0 / _SCALE))
    while k * _SCALE <= y1:
        y = k * _SCALE
        out.append(
            f'<line x1="{fmt6(-tick)}" y1="{fmt6(y)}" x2="{fmt6(tick)}" y2="{fmt6(y)}" {axis}/>'
        )
        if k != 0:
            out.append(
                f'<text x="{fmt6(tick + 4)}" y="{fmt6(y - 4)}" font-family="monospace" '
                f'font-size="12" fill="#666666">{-k}</text>'
            )
        k += 1
    for source, boundary in geom.boundaries:
        color, extra = _STYLE[source]
        out.append(_path(boundary, color, extra))
    out.append(_path(geom.curve, _CURVE_COLOR))
    ((px, py),) = _xy([geom.point]).tolist()
    out.append(f'<circle cx="{fmt6(px)}" cy="{fmt6(py)}" r="4" fill="#000000"/>')
    out.append(
        f'<text x="{fmt6(px + 8)}" y="{fmt6(py - 8)}" font-family="monospace" '
        f'font-size="13" fill="#000000">ratio at witness</text>'
    )
    # legend, anchored to the top-left of the padded viewport
    lx, ly = x0 + 12, y0 + 20
    legend = [
        ("target disk, closed-form expressions", _STYLE["closed_form"][0]),
        ("target disk, exact circle image", _STYLE["mobius_image"][0]),
        ("ratio on the circle |z| = r", _CURVE_COLOR),
    ]
    for i, (label, color) in enumerate(legend):
        y = ly + 18 * i
        out.append(
            f'<line x1="{fmt6(lx)}" y1="{fmt6(y - 4)}" x2="{fmt6(lx + 24)}" '
            f'y2="{fmt6(y - 4)}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{fmt6(lx + 30)}" y="{fmt6(y)}" font-family="monospace" '
            f'font-size="13" fill="#333333">{label}</text>'
        )
    out += ["</svg>", ""]  # "" ends the text with a newline without copying it
    return "\n".join(out)
