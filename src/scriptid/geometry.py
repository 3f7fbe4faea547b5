"""Pixel-geometry primitives: projection profiles, components, contour chains.

Ink regions use 8-connectivity and background uses 4-connectivity, the
standard complementary pair that avoids topological paradoxes. Boundaries
are traced with Moore neighbor following: the walk scans the 8-neighborhood
clockwise from the backtrack pixel and stops once its state repeats, which
handles single pixels and one-pixel-wide spurs. A chain records every visit,
so a thin spur contributes each boundary pixel once per pass; chain length
is therefore a visit count, not a Euclidean arc length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .raster import BinaryRaster

__all__ = [
    "ProjectionProfile",
    "Component",
    "ContourChain",
    "project",
    "connected_components",
    "trace_contours",
]

_EIGHT = np.ones((3, 3), dtype=int)
_FOUR = ndimage.generate_binary_structure(2, 1)

# Clockwise Moore neighborhood on screen coordinates, starting east.
_MOORE = ((0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1))
_MOORE_INDEX = {d: i for i, d in enumerate(_MOORE)}


@dataclass(frozen=True)
class ProjectionProfile:
    """Per-row ('horizontal') or per-column ('vertical') ink pixel counts."""

    axis: str
    counts: tuple[int, ...]

    def total(self) -> int:
        return sum(self.counts)


@dataclass(eq=False)
class Component:
    """One 8-connected ink region.

    pixels is an (n, 2) array of (row, col) pairs in raster-scan order and
    bbox is the tight (min_row, min_col, max_row, max_col) bound.
    """

    label: int
    pixels: np.ndarray
    bbox: tuple[int, int, int, int]

    def pixel_set(self):
        return {(int(r), int(c)) for r, c in self.pixels}


@dataclass(frozen=True)
class ContourChain:
    """Ordered boundary pixel sequence around an ink region or a hole.

    Consecutive points are 8-neighbors; when closed, the last point is an
    8-neighbor of the first. Polarity is 'outer' for region boundaries and
    'inner' for hole boundaries.
    """

    points: tuple[tuple[int, int], ...]
    closed: bool
    polarity: str

    @property
    def length(self) -> int:
        return len(self.points)


def project(img: BinaryRaster, axis: str = "horizontal") -> ProjectionProfile:
    """Count ink pixels per row (horizontal) or per column (vertical)."""
    if axis == "horizontal":
        counts = img.pixels.sum(axis=1)
    elif axis == "vertical":
        counts = img.pixels.sum(axis=0)
    else:
        raise ValueError(f"axis must be 'horizontal' or 'vertical', not {axis!r}")
    return ProjectionProfile(axis, tuple(int(c) for c in counts))


def connected_components(img: BinaryRaster) -> list[Component]:
    """8-connected ink regions, ordered by (bbox min_col, min_row)."""
    labels, n = ndimage.label(img.pixels, structure=_EIGHT)
    found = []
    for lab, sl in enumerate(ndimage.find_objects(labels), start=1):
        local = np.argwhere(labels[sl] == lab)
        pixels = local + (sl[0].start, sl[1].start)
        bbox = (sl[0].start, sl[1].start, sl[0].stop - 1, sl[1].stop - 1)
        found.append((bbox, pixels))
    found.sort(key=lambda t: (t[0][1], t[0][0], t[0][3], t[0][2]))
    return [Component(i + 1, pixels, bbox) for i, (bbox, pixels) in enumerate(found)]


def _trace(ink: np.ndarray, start: tuple[int, int], back: tuple[int, int]):
    """Follow one boundary from start, entered from the background pixel back.

    Returns the visited pixel sequence. The walk is a deterministic map on
    (pixel, backtrack) states, so it terminates when a state repeats; a
    trailing revisit of the start pixel is dropped because closure is implied.
    """
    height, width = ink.shape
    points = [start]
    seen = {(start, back)}
    p, b = start, back
    while True:
        d0 = _MOORE_INDEX[(b[0] - p[0], b[1] - p[1])]
        for k in range(1, 9):
            dr, dc = _MOORE[(d0 + k) % 8]
            r, c = p[0] + dr, p[1] + dc
            if 0 <= r < height and 0 <= c < width and ink[r, c]:
                br, bc = _MOORE[(d0 + k - 1) % 8]
                b = (p[0] + br, p[1] + bc)
                p = (r, c)
                break
        else:
            break  # isolated pixel: no ink neighbor at all
        state = (p, b)
        if state in seen:
            break
        seen.add(state)
        points.append(p)
    if len(points) > 1 and points[-1] == points[0]:
        points.pop()
    return points


def _first_pixels(labels: np.ndarray, skip=()):
    """First raster-order pixel of each label, via per-label bounding slices."""
    firsts = []
    for lab, sl in enumerate(ndimage.find_objects(labels), start=1):
        if lab in skip or sl is None:
            continue
        local = np.argwhere(labels[sl] == lab)[0]
        firsts.append((int(local[0] + sl[0].start), int(local[1] + sl[1].start)))
    firsts.sort()
    return firsts


def trace_contours(img: BinaryRaster) -> list[ContourChain]:
    """Trace every region and hole boundary of the image.

    Each 8-connected ink region yields exactly one closed outer chain,
    started at its first raster-order pixel as if entered from the west.
    Each hole (a 4-connected background region not touching the image
    border) yields exactly one closed inner chain over the ink pixels that
    enclose it, started above the hole's first raster-order pixel. Outer
    chains come first, each group ordered by start pixel.
    """
    ink = img.pixels
    chains = []

    labels, _ = ndimage.label(ink, structure=_EIGHT)
    for start in _first_pixels(labels):
        points = _trace(ink, start, (start[0], start[1] - 1))
        chains.append(
            ContourChain(tuple(points), closed=True, polarity="outer")
        )

    bg_labels, _ = ndimage.label(~ink, structure=_FOUR)
    border = np.unique(
        np.concatenate(
            [bg_labels[0, :], bg_labels[-1, :], bg_labels[:, 0], bg_labels[:, -1]]
        )
    )
    touching = set(int(lab) for lab in border if lab != 0)
    for hole_first in _first_pixels(bg_labels, skip=touching):
        # The pixel above a hole's topmost-leftmost cell is always ink.
        seed = (hole_first[0] - 1, hole_first[1])
        points = _trace(ink, seed, hole_first)
        chains.append(
            ContourChain(tuple(points), closed=True, polarity="inner")
        )
    return chains
