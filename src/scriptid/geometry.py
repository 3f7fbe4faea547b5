"""Pixel-geometry primitives: ink labellings and contour chains.

Ink regions use 8-connectivity and background uses 4-connectivity, the
standard complementary pair that avoids topological paradoxes. Boundaries
are traced with Moore neighbor following: the walk scans the 8-neighborhood
clockwise from the backtrack pixel and stops when the state after its
first step recurs (Jacob's stopping criterion), which handles single
pixels and one-pixel-wide spurs. A chain records every visit, so a thin
spur contributes each boundary pixel once per pass; chain length is
therefore a visit count, not a Euclidean arc length, and the walk is the
only way the pipeline measures it.

The walk probes the ink directly. Each traced raster is stored once as the
bytes of its ink over a one-pixel zero pad, so the border needs no bounds
checks and a pixel is a flat index into the padded grid. From a state, the
walk probes the neighbors clockwise from the backtrack direction; the first
ink probe is the next pixel, and the background probe just before it, seen
from the next pixel, is the next backtrack. That relative direction depends
only on the step direction, so an 8-entry table gives it, and a state is a
pixel and a backtrack direction. The probe offsets depend only on
the padded row stride, so their table is built once per stride and cached.

Regions are labelled by their horizontal runs, not pixel by pixel (after
He, Chao & Suzuki, IEEE TIP 17(5), 2008): a text raster holds far fewer
runs than pixels. Runs of consecutive rows whose columns overlap are
joined, the columns widened by one for 8-connected ink and not widened for
the 4-connected gaps of holes, by rounds of hooking each root under the smaller
of the two and jumping pointers, all of it array work. The links between
runs are found apart from the joining, so a subset of runs can be joined
by the links among them with no second search. A region's root is its
first run, so regions are numbered in raster order of their first pixel.
A labelling is only its runs: its boxes, its first pixels and the label
of any pixel come from them, and no label image is painted.

Holes come from the same runs, with no pass over the background: a hole
is made of gaps, the background runs between two ink runs of a row. The
gaps are joined 4-connectedly, and a region of them is a hole when none
of its gaps meets the background before or after the ink of the row above
or below it, or lies on the first or last row. Holes come in raster order
of their first pixel.

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
pole and jamb margins. For holes they come from the rows of their gaps.
A region's first pixel, the start of its outer chain and the tip of a
pole, starts its first run. Runs come in raster order, so the first of a
region's runs on its bottom row starts the tip of a jamb.

trace_contours finds the runs of the raster it is given once, for its
regions and its holes, and walks it with its own walker; nothing is shared
with a labelling of some other stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain

import numpy as np

from .raster import BinaryRaster

__all__ = [
    "ContourChain",
    "Labelling",
    "trace_contours",
]

# Clockwise Moore neighborhood on screen coordinates, starting east.
_MOORE = ((0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1))
_MOORE_INDEX = {d: i for i, d in enumerate(_MOORE)}


@dataclass(frozen=True, eq=False)
class Labelling:
    """Connected regions of one raster, kept as its horizontal runs.

    Run i covers row rows[i], columns starts[i] to ends[i], and belongs to
    region run_labels[i]. Runs come in raster order, and the regions are
    numbered 1..count in raster order of their first pixel; first_runs[k]
    is the first run of region k + 1. boxes is built on first use and then
    cached, and label_at searches the runs.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    run_labels: np.ndarray
    first_runs: np.ndarray

    @property
    def count(self) -> int:
        return self.first_runs.size

    @cached_property
    def boxes(self) -> np.ndarray:
        """Read-only (count, 4) array of inclusive (top, left, bottom, right)
        bounds; row i bounds label i + 1."""
        k = self.run_labels - 1
        left = np.full(self.count, self.shape[1])
        bottom, right = np.zeros((2, self.count), dtype=np.intp)
        np.minimum.at(left, k, self.starts)
        np.maximum.at(bottom, k, self.rows)
        np.maximum.at(right, k, self.ends)
        boxes = np.column_stack((self.rows[self.first_runs], left, bottom, right))
        boxes.flags.writeable = False
        return boxes

    def label_at(self, rows, cols) -> np.ndarray:
        """Label of each pixel (rows[i], cols[i]), each of which must be
        ink: runs come in raster order, so the last run starting at or
        before an ink pixel holds it."""
        width = self.shape[1]
        starts = self.rows * width + self.starts
        return self.run_labels[np.searchsorted(starts, np.asarray(rows) * width + cols, side="right") - 1]

    def beyond(self, upper, lower) -> np.ndarray:
        """Per label, whether its rows lie entirely above upper or entirely
        below lower: the detached-region test. Entry i is label i + 1, and
        upper and lower are rows, or arrays of one row per label."""
        return (self.boxes[:, 2] < upper) | (self.boxes[:, 0] > lower)

    def first_pixels(self, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the first raster-order pixel of each label index + 1."""
        runs = self.first_runs[index]
        return self.rows[runs], self.starts[runs]


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


def _runs(ink: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, first col, last col) of every horizontal run of ink, in raster order."""
    height, width = ink.shape
    # A blank column on each side of every row: every run starts and ends in its row.
    stride = width + 2
    padded = np.zeros((height, stride), dtype=bool)
    padded[:, 1:-1] = ink
    flat = padded.ravel()
    edges = np.flatnonzero(flat[1:] != flat[:-1])
    rows = edges[0::2] // stride
    return rows, edges[0::2] - rows * stride, edges[1::2] - rows * stride - 1


def _links(rows, starts, ends, width: int, reach: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (above[i], below[i]) of runs of consecutive rows whose
    columns, one side widened by reach, overlap: reach 1 links 8-connected
    ink and reach 0 the 4-connected gaps between ink runs. The runs may
    skip rows, and runs of rows that are not consecutive are never linked.
    above comes sorted, and each run's partners below it in column order.
    """
    n = rows.size
    # Keys order the runs by row, then column. Adding stride to a key moves
    # it one row down, and a run widened by reach stays clear of the keys
    # of the rows above and below its own.
    stride = width + 2
    key_starts, key_ends = rows * stride + starts, rows * stride + ends
    lo = np.searchsorted(key_ends, key_starts + stride - reach)
    hi = np.searchsorted(key_starts, key_ends + stride + reach, side="right")
    # The runs of the next row that meet run i are lo[i] up to hi[i].
    counts = np.maximum(hi - lo, 0)
    above = np.repeat(np.arange(n), counts)
    below = np.arange(above.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return above, below


def _join(n: int, above: np.ndarray, below: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Label of each of n runs and the first run of every label, the runs
    of each link (above[i], below[i]) joined.

    Each run is first its own root. Every round hooks the larger root of
    each still-unjoined link under the smaller, then jumps pointers until
    every run points at its root, so a root is always the smallest run of
    its region: its first in raster order. Labels number the roots in that
    order.
    """
    parent = np.arange(n)
    while above.size:
        a, b = parent[above], parent[below]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            parent = jumped
        apart = parent[above] != parent[below]
        above, below = above[apart], below[apart]
    roots = parent == np.arange(n)
    return np.cumsum(roots)[parent], np.flatnonzero(roots)


def _label(ink: np.ndarray) -> Labelling:
    """The 8-connected regions of the ink: its runs, joined by their links
    at reach 1."""
    rows, starts, ends = _runs(ink)
    links = _links(rows, starts, ends, ink.shape[1], 1)
    return Labelling(ink.shape, rows, starts, ends, *_join(rows.size, *links))


def _label_and_holes(ink: np.ndarray) -> tuple[Labelling, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The labelling of the ink, and the (rows, cols) of the first
    raster-order pixel and the bottom row of every hole, holes in raster
    order of that pixel.

    A hole is a 4-connected background region not touching the image
    border. A row's background before its first ink run and after its last
    touches the left or right border, and so does a blank row, so a hole is
    made only of gaps: the background runs between two ink runs of a row.
    A gap is outside when its columns meet the leading or trailing
    background of the row above or below it; rows off the image count as
    blank, so every gap of the first and last rows is outside. The gaps
    linked 4-connectedly form regions, and a region with no outside gap is
    closed, so it is a hole. The ink's runs are found once for both.
    """
    labelling = _label(ink)
    rows, starts, ends = labelling.rows, labelling.starts, labelling.ends
    height, width = ink.shape
    same = rows[1:] == rows[:-1]
    # Runs i and i + 1 of one row bound gap i.
    gaps = np.flatnonzero(same)
    gap_rows, gap_starts, gap_ends = rows[gaps], ends[gaps] + 1, starts[gaps + 1] - 1
    # Per row, shifted down one so rows -1 and height are blank: the first
    # ink column and the last, width and -1 on a blank row.
    first = np.full(height + 2, width)
    last = np.full(height + 2, -1)
    lead, trail = np.ones((2, rows.size), dtype=bool)
    lead[1:] = trail[:-1] = ~same
    first[rows[lead] + 1] = starts[lead]
    last[rows[trail] + 1] = ends[trail]
    outside = (gap_starts < np.maximum(first[gap_rows], first[gap_rows + 2])) | (
        gap_ends > np.minimum(last[gap_rows], last[gap_rows + 2])
    )
    labels, first_gaps = _join(gaps.size, *_links(gap_rows, gap_starts, gap_ends, width, 0))
    closed = np.ones(first_gaps.size, dtype=bool)
    closed[labels[outside] - 1] = False
    bottoms = np.zeros(first_gaps.size, dtype=np.intp)
    np.maximum.at(bottoms, labels - 1, gap_rows)
    holes = first_gaps[closed]
    return labelling, (gap_rows[holes], gap_starts[holes], bottoms[closed])


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
        height, width = ink.shape
        self._stride = width + 2
        padded = np.zeros((height + 2, self._stride), dtype=bool)
        padded[1:-1, 1:-1] = ink
        self._ink = padded.tobytes()
        self._probes = _probe_table(self._stride)
        # More steps than there are states: a walk that takes them is a fault.
        self._bound = 8 * len(self._ink)

    def walk(self, start: tuple[int, int], back: tuple[int, int]) -> list[int]:
        """Follow one boundary from start, entered from the background pixel back.

        Returns the visited pixels as flat indices into the padded grid,
        a trailing revisit of the start pixel dropped because closure is
        implied. The walk is a deterministic map on (pixel, backtrack)
        states, and it stops when the state after its first step recurs.

        That is where a state first repeats. A state reached by a step has
        one predecessor among such states: its backtrack is a background
        4-neighbor, and the pixel it came from lies one or two places
        anticlockwise of that backtrack, which leaves one pixel and one
        backtrack that step onto it. So the states from the first step on
        form a pure cycle. The start state lies off it, or on it, where it
        comes round just before the first-step state and its pixel is the
        dropped revisit. A cycle holds fewer than 8 states per padded pixel,
        so the loop is bounded by that many steps and raises at the bound.
        """
        ink, probes = self._ink, self._probes
        p = (start[0] + 1) * self._stride + start[1] + 1
        d = _MOORE_INDEX[(back[0] - start[0], back[1] - start[1])]
        flat = [p]
        for offset, new_back in probes[d]:
            if ink[p + offset]:
                p += offset
                d = new_back
                break
        else:
            return flat  # isolated pixel: no ink neighbor at all
        first_p, first_d = p, d
        for _ in range(self._bound):
            flat.append(p)
            # The pixel a step came from is ink, so every later scan finds ink.
            for offset, new_back in probes[d]:
                if ink[p + offset]:
                    p += offset
                    d = new_back
                    break
            if p == first_p and d == first_d:
                break
        else:
            raise RuntimeError("contour walk exceeded its state bound")
        if flat[-1] == flat[0]:
            flat.pop()
        return flat

    def points(self, walks: list[list[int]]) -> list[tuple[tuple[int, int], ...]]:
        """The (row, col) pixels of each walk, converted in one pass."""
        rows, cols = np.divmod(np.fromiter(chain.from_iterable(walks), dtype=np.intp), self._stride)
        pixels = list(zip((rows - 1).tolist(), (cols - 1).tolist()))
        ends = list(accumulate(map(len, walks)))
        return [tuple(pixels[lo:hi]) for lo, hi in zip([0, *ends], ends)]


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
    labelling, (hole_rows, hole_cols, hole_bottoms) = _label_and_holes(img.pixels)
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
