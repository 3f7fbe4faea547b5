"""Pixel-geometry primitives: ink labellings and contour chains.

Ink regions use 8-connectivity and background uses 4-connectivity, the
standard complementary pair that avoids topological paradoxes. Boundaries
are traced with Moore neighbor following: the walk scans the 8-neighborhood
clockwise from the backtrack pixel and stops once its state repeats, which
handles single pixels and one-pixel-wide spurs. A chain records every visit,
so a thin spur contributes each boundary pixel once per pass; chain length
is therefore a visit count, not a Euclidean arc length, and the walk is the
only way the pipeline measures it.

The walk probes the ink directly. Each traced raster is stored once as the
bytes of its ink over a one-pixel zero pad, so the border needs no bounds
checks and a pixel is a flat index into the padded grid. From a state, the
walk probes the neighbors clockwise from the backtrack direction; the first
ink probe is the next pixel, and the background probe just before it, seen
from the next pixel, is the next backtrack. That relative direction depends
only on the step direction, so an 8-entry table gives it, and a state is the
integer pixel * 8 + backtrack direction. The probe offsets depend only on
the padded row stride, so their table is built once per stride and cached.

Holes come from one 4-connected labelling of the background framed by a
one-pixel border of background: the frame and every region touching the
image border share label 1, so the holes are exactly the labels from 2 up,
numbered in raster order of their first pixel.

A caller that only needs the boundaries near a row band can pass that band
to trace_contours, which then chooses boundaries by bounding box before
walking any of them. An outer chain visits only pixels of its region and
includes the region's topmost and bottommost pixels, so its rows are
exactly the region's bounding-box rows. An inner chain visits the ink cells
around its hole, and the ink directly above the hole's top cells and below
its bottom cells closes it, so its rows are the hole's bounding-box rows
widened by one. Box rows therefore decide, with no walk, which chains
lie entirely above or below the band and which reach it. A raster that
stacks several text lines passes one band per row instead, and each
boundary is tested against the band of the line it starts in. For regions
the box rows come from Labelling.boxes, which also decides every other
box-row test of the pipeline: the detached marks of word parts, and the
pole and jamb margins. For holes they come from the labelling's hole pixels. The margins
are read off one labelling of the word with its band rows blanked: no
8-connected region crosses a blank row, so each of its regions lies wholly
in one outer zone. A region's first pixel, the start of its outer chain
and the tip of a pole, is found in its box's top row; Labelling.first_pixels
reads the top rows of many regions in one gather.

trace_contours labels the raster it is given and walks it with its own
walker; nothing is shared with a labelling of some other stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain

import numpy as np
from scipy import ndimage

from .raster import BinaryRaster

__all__ = [
    "ContourChain",
    "Labelling",
    "label_components",
    "trace_contours",
]

_EIGHT = np.ones((3, 3), dtype=int)
# Labelling.first_pixels compares at most this many label pixels at once.
_GATHER = 1 << 20
_FOUR = ndimage.generate_binary_structure(2, 1)

# Clockwise Moore neighborhood on screen coordinates, starting east.
_MOORE = ((0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1))
_MOORE_INDEX = {d: i for i, d in enumerate(_MOORE)}


@dataclass(frozen=True, eq=False)
class Labelling:
    """8-connected ink labels of one raster plus each label's bounding slices.

    labels is 0 on background and numbers the regions 1..count in raster
    order of their first pixel; objects[i] bounds label i + 1. boxes is
    built on first use and then cached.
    """

    labels: np.ndarray
    objects: list

    @property
    def count(self) -> int:
        return len(self.objects)

    @cached_property
    def boxes(self) -> np.ndarray:
        """Read-only (count, 4) array of inclusive (top, left, bottom, right)
        bounds; row i bounds label i + 1."""
        bounds = chain.from_iterable((s[0].start, s[1].start, s[0].stop - 1, s[1].stop - 1) for s in self.objects)
        boxes = np.fromiter(bounds, dtype=np.intp, count=4 * self.count).reshape(-1, 4)
        boxes.flags.writeable = False
        return boxes

    def beyond(self, upper, lower) -> np.ndarray:
        """Per label, whether its rows lie entirely above upper or entirely
        below lower: the detached-region test. Entry i is label i + 1, and
        upper and lower are rows, or arrays of one row per label."""
        return (self.boxes[:, 2] < upper) | (self.boxes[:, 0] > lower)

    def first_pixels(self, index: np.ndarray, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the first pixel of each label index + 1 in the
        given rows, by default its top rows, which gives its first
        raster-order pixel. Each row must hold a pixel of its label."""
        rows = self.boxes[index, 0] if rows is None else rows
        # Whole rows are read, at most _GATHER pixels at a time.
        step = max(1, _GATHER // self.labels.shape[1])
        cols = [
            (self.labels[rows[i : i + step]] == index[i : i + step, None] + 1).argmax(axis=1)
            for i in range(0, index.size, step)
        ]
        return rows, np.concatenate([index[:0], *cols])


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


def label_components(img: BinaryRaster) -> Labelling:
    """Label the 8-connected ink regions of the image."""
    return _label(img.pixels)


def _label(ink: np.ndarray) -> Labelling:
    labels, _ = ndimage.label(ink, structure=_EIGHT)
    return Labelling(labels, ndimage.find_objects(labels))


def _framed(pixels: np.ndarray, border: bool) -> np.ndarray:
    """pixels inside a one-pixel frame of the value border."""
    out = np.full((pixels.shape[0] + 2, pixels.shape[1] + 2), border)
    out[1:-1, 1:-1] = pixels
    return out


def _back_table() -> tuple[int, ...]:
    """New backtrack direction for every step direction.

    The probe just before step direction s is direction s - 1, a background
    pixel; the entry is its direction seen from the pixel the step reaches.
    """
    return tuple(
        _MOORE_INDEX[(_MOORE[s - 1][0] - _MOORE[s][0], _MOORE[s - 1][1] - _MOORE[s][1])]
        for s in range(8)
    )


_BACK = _back_table()


@lru_cache(maxsize=64)
def _probe_table(stride: int) -> tuple:
    """Per backtrack direction d, the (flat offset, new backtrack) of each
    probe, clockwise after d, in a padded grid of the given row stride."""
    offsets = [dr * stride + dc for dr, dc in _MOORE]
    return tuple(tuple((offsets[(d + k) % 8], _BACK[(d + k) % 8]) for k in range(1, 9)) for d in range(8))


class _Walker:
    """Moore neighbor walks over one raster, probing its padded ink bytes.

    The ink is stored once over a one-pixel zero pad, and a walk probes it
    at flat indices into the padded grid; _BACK gives each step's new
    backtrack direction.
    """

    def __init__(self, ink: np.ndarray):
        self._stride = ink.shape[1] + 2
        self._ink = _framed(ink, False).tobytes()
        self._probes = _probe_table(self._stride)

    def walk(self, start: tuple[int, int], back: tuple[int, int]) -> list[int]:
        """Follow one boundary from start, entered from the background pixel back.

        Returns the visited pixels as flat indices into the padded grid. The
        walk is a deterministic map on (pixel, backtrack) states, so it
        terminates when a state repeats; a trailing revisit of the start
        pixel is dropped because closure is implied.
        """
        ink, probes = self._ink, self._probes
        p = (start[0] + 1) * self._stride + start[1] + 1
        d = _MOORE_INDEX[(back[0] - start[0], back[1] - start[1])]
        flat = [p]
        seen = {p * 8 + d}
        while True:
            for offset, new_back in probes[d]:
                if ink[p + offset]:
                    p += offset
                    d = new_back
                    break
            else:
                break  # isolated pixel: no ink neighbor at all
            state = p * 8 + d
            if state in seen:
                break
            seen.add(state)
            flat.append(p)
        if len(flat) > 1 and flat[-1] == flat[0]:
            flat.pop()
        return flat

    def points(self, walks: list[list[int]]) -> list[tuple[tuple[int, int], ...]]:
        """The (row, col) pixels of each walk, converted in one pass."""
        rows, cols = np.divmod(np.fromiter(chain.from_iterable(walks), dtype=np.intp), self._stride)
        pixels = list(zip((rows - 1).tolist(), (cols - 1).tolist()))
        ends = list(accumulate(map(len, walks)))
        return [tuple(pixels[lo:hi]) for lo, hi in zip([0, *ends], ends)]


def _holes(ink: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols) of the first raster-order pixel and the bottom row of
    every hole, holes in raster order of that pixel.

    A hole is a 4-connected background region not touching the image
    border. One labelling of the background framed by a one-pixel border of
    background finds them all: the frame joins every border-touching region
    into label 1, and the holes are labels 2 and up, numbered in raster
    order of their first pixel.
    """
    framed, count = ndimage.label(_framed(~ink, True), structure=_FOUR)
    if count < 2:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, empty
    stride = ink.shape[1] + 2
    flat = np.flatnonzero(framed > 1)
    labs = framed.ravel()[flat]
    rows, cols = np.divmod(flat, stride)
    _, first = np.unique(labs, return_index=True)
    bottom = np.zeros(count + 1, dtype=np.intp)
    np.maximum.at(bottom, labs, rows)
    return rows[first] - 1, cols[first] - 1, bottom[2:] - 1


def _at(row, rows: np.ndarray):
    """row, or the entries of a per-row array at rows."""
    return row[rows] if np.ndim(row) else row


def trace_contours(img: BinaryRaster, band=None) -> list[ContourChain]:
    """Trace the region and hole boundaries of the image.

    Each 8-connected ink region yields exactly one closed outer chain,
    started at its first raster-order pixel as if entered from the west.
    Each hole (a 4-connected background region not touching the image
    border) yields exactly one closed inner chain over the ink pixels that
    enclose it, started above the hole's first raster-order pixel. Outer
    chains come first, each group ordered by start pixel.

    band, an (upper_row, lower_row) pair, keeps only the chains a dot or
    loop test can accept: outer chains of regions whose rows lie entirely
    above upper_row or entirely below lower_row, and inner chains of holes
    whose rows, widened by one on each side, meet [upper_row, lower_row].
    An outer chain spans its region's box rows and an inner chain its
    hole's box rows widened by one, so the choice is made from bounding
    boxes and the other boundaries are never walked. The kept chains are
    exactly those of the full trace that pass the same row tests, in the
    same order. Either entry of band may instead be an array with one row
    per image row, for an image of several text lines: a region is then
    tested against the band given at its top row, and a hole against the
    band given at the row of its first pixel.

    The image is labelled once here and walked by one walker over its ink.
    """
    labelling = _label(img.pixels)
    hole_rows, hole_cols, hole_bottoms = _holes(img.pixels)
    if band is None:
        kept = np.arange(labelling.count)
    else:
        top = labelling.boxes[:, 0]
        kept = np.flatnonzero(labelling.beyond(_at(band[0], top), _at(band[1], top)))
        near = (hole_bottoms + 1 >= _at(band[0], hole_rows)) & (hole_rows - 1 <= _at(band[1], hole_rows))
        hole_rows, hole_cols = hole_rows[near], hole_cols[near]
    # Labels number regions in raster order of their first pixel, so the starts come sorted.
    rows, cols = (a.tolist() for a in labelling.first_pixels(kept))
    outer = [((r, c), (r, c - 1)) for r, c in zip(rows, cols)]
    # The pixel above a hole's topmost-leftmost cell is always ink.
    inner = [((r - 1, c), (r, c)) for r, c in zip(hole_rows.tolist(), hole_cols.tolist())]
    if not outer and not inner:
        return []
    walker = _Walker(img.pixels)
    walks = [walker.walk(start, back) for start, back in outer + inner]
    return [
        ContourChain(points, closed=True, polarity="outer" if i < len(outer) else "inner")
        for i, points in enumerate(walker.points(walks))
    ]
