"""Pixel-geometry primitives: ink labellings and contour chains.

Ink regions use 8-connectivity and background uses 4-connectivity, the
standard complementary pair that avoids topological paradoxes. Boundaries
are traced with Moore neighbor following: the walk scans the 8-neighborhood
clockwise from the backtrack pixel and stops once its state repeats, which
handles single pixels and one-pixel-wide spurs. A chain records every visit,
so a thin spur contributes each boundary pixel once per pass; chain length
is therefore a visit count, not a Euclidean arc length.

The walk probes the ink directly. Each traced raster is stored once as the
bytes of its ink over a one-pixel zero pad, so the border needs no bounds
checks and a pixel is a flat index into the padded grid. From a state, the
walk probes the neighbors clockwise from the backtrack direction; the first
ink probe is the next pixel, and the background probe just before it, seen
from the next pixel, is the next backtrack. That relative direction depends
only on the step direction, so an 8-entry table gives it, and a state is the
integer pixel * 8 + backtrack direction.

A chain's length can also be counted without walking it (after Gray, "Local
properties of binary images in two dimensions", IEEE Trans. Computers
C-20(5), 1971). Around each ink pixel, split the 8 neighbors, read
cyclically, into maximal runs of background, and count the runs that hold
one of the pixel's 4-neighbors; a 256-entry table built at import gives
that count for every neighbor code, 1 for an isolated pixel and 0 for a
surrounded one. A run is 4-connected, so it lies in one background region,
and a chain's length is the number of such runs that face its own
background region. Summed over a region's pixels, the count therefore
equals the length of its outer chain plus those of its hole chains, and a
region whose sum stays under a cap has an outer chain under it too.

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
lie entirely above or below the band and which reach it. For regions they
come from Labelling.boxes, which also decides every other box-row test of
the pipeline: the detached-dot candidates, the detached marks of word
parts, and the pole and jamb margins. For holes they come from the
labelling's hole pixels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
_FOUR = ndimage.generate_binary_structure(2, 1)

# Clockwise Moore neighborhood on screen coordinates, starting east.
_MOORE = ((0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1))
_MOORE_INDEX = {d: i for i, d in enumerate(_MOORE)}


@dataclass(frozen=True, eq=False)
class Labelling:
    """8-connected ink labels of one raster plus each label's bounding slices.

    labels is 0 on background and numbers the regions 1..count in raster
    order of their first pixel; objects[i] bounds label i + 1. boxes and
    walker, the Moore walker over the same ink, are built on first use and
    then cached.
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

    def beyond(self, upper: int, lower: int) -> np.ndarray:
        """Per label, whether its rows lie entirely above upper or entirely
        below lower: the detached-region test. Entry i is label i + 1."""
        return (self.boxes[:, 2] < upper) | (self.boxes[:, 0] > lower)

    @cached_property
    def walker(self) -> "_Walker":
        return _Walker(self.labels > 0)


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
    labels, _ = ndimage.label(img.pixels, structure=_EIGHT)
    return Labelling(labels, ndimage.find_objects(labels))


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


def _run_table() -> np.ndarray:
    """Background runs holding a 4-neighbor, for every neighbor code.

    Bit k of a code is set when the neighbor in direction _MOORE[k] is ink;
    the 4-neighbors are the even directions. Runs are read cyclically, so a
    code with no ink is one run, and a code with all eight bits set has none.
    """
    table = np.zeros(256, dtype=np.intp)
    for code in range(1, 256):
        for k in range(8):
            if code >> k & 1 or not code >> (k - 1) % 8 & 1:
                continue  # k does not start a background run
            j = k
            while not code >> j % 8 & 1:
                if j % 2 == 0:
                    table[code] += 1
                    break
                j += 1
    table[0] = 1
    return table


_RUNS = _run_table()


class _Walker:
    """Moore neighbor walks over one raster, probing its padded ink bytes.

    The ink is stored once over a one-pixel zero pad, and a walk probes it
    at flat indices into the padded grid; _BACK gives each step's new
    backtrack direction.
    """

    def __init__(self, ink: np.ndarray):
        self._stride = ink.shape[1] + 2
        self._ink = np.pad(ink, 1).tobytes()
        offsets = [dr * self._stride + dc for dr, dc in _MOORE]
        # _probes[d]: (offset, new backtrack) per probe, clockwise after direction d.
        self._probes = tuple(
            tuple((offsets[(d + k) % 8], _BACK[(d + k) % 8]) for k in range(1, 9)) for d in range(8)
        )

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


def _first_pixel(labels: np.ndarray, lab: int, sl, row: int | None = None) -> tuple[int, int]:
    """First pixel of label lab in row, by default its top row and so its
    first raster-order pixel; sl is the label's bounding slice."""
    row = sl[0].start if row is None else row
    return row, int(np.argmax(labels[row, sl[1]] == lab)) + sl[1].start


def _run_counts(labels: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Per-label sums of the _RUNS count over the pixels of the kept labels.

    labels is an 8-connected ink labelling and keep a boolean per label,
    index 0 (background) False. Entry lab of the result is the summed
    count of label lab, its outer chain length plus its hole chain
    lengths, and 0 for labels not kept. Codes are read only at kept
    pixels: distinct regions are never 8-adjacent, so every ink neighbor
    of a pixel is in its own region.
    """
    width = labels.shape[1]
    flat = np.flatnonzero(np.take(keep, labels))
    rows, cols = np.divmod(flat, width)
    stride = width + 2
    at = (rows + 1) * stride + cols + 1
    ink = np.pad(labels > 0, 1).ravel().view(np.uint8)
    codes = np.zeros(flat.size, dtype=np.uint8)
    for k, (dr, dc) in enumerate(_MOORE):
        codes |= ink[at + dr * stride + dc] << k
    totals = np.bincount(labels.ravel()[flat], weights=_RUNS[codes], minlength=keep.size)
    return totals.astype(np.intp)


def _holes(ink: np.ndarray) -> list[tuple[tuple[int, int], int]]:
    """(first raster-order pixel, bottom row) of every hole, in raster order.

    A hole is a 4-connected background region not touching the image
    border. One labelling of the background framed by a one-pixel border of
    background finds them all: the frame joins every border-touching region
    into label 1, and the holes are labels 2 and up, numbered in raster
    order of their first pixel.
    """
    framed, count = ndimage.label(np.pad(~ink, 1, constant_values=True), structure=_FOUR)
    if count < 2:
        return []
    stride = ink.shape[1] + 2
    flat = np.flatnonzero(framed > 1)
    labs = framed.ravel()[flat]
    rows, cols = np.divmod(flat, stride)
    _, first = np.unique(labs, return_index=True)
    bottom = np.zeros(count + 1, dtype=np.intp)
    np.maximum.at(bottom, labs, rows)
    return list(
        zip(
            zip((rows[first] - 1).tolist(), (cols[first] - 1).tolist()),
            (bottom[2:] - 1).tolist(),
        )
    )


def trace_contours(img: BinaryRaster, band=None, labelling: Labelling | None = None) -> list[ContourChain]:
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
    same order.

    labelling, when given, must be label_components(img); the ink is then
    not labelled again, and the labelling's walker is shared.
    """
    if labelling is None:
        labelling = label_components(img)
    labels, objects = labelling.labels, labelling.objects
    kept = range(labelling.count) if band is None else np.flatnonzero(labelling.beyond(*band)).tolist()
    # Labels number regions in raster order of their first pixel, so the starts come sorted.
    starts = [_first_pixel(labels, i + 1, objects[i]) for i in kept]
    outer = [((r, c), (r, c - 1)) for r, c in starts]
    # The pixel above a hole's topmost-leftmost cell is always ink.
    inner = [
        ((r - 1, c), (r, c))
        for (r, c), bottom in _holes(img.pixels)
        if band is None or (bottom + 1 >= band[0] and r - 1 <= band[1])
    ]
    if not outer and not inner:
        return []
    walker = labelling.walker
    walks = [walker.walk(start, back) for start, back in outer + inner]
    return [
        ContourChain(points, closed=True, polarity="outer" if i < len(outer) else "inner")
        for i, points in enumerate(walker.points(walks))
    ]
