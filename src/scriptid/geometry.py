"""Pixel-geometry primitives: ink labellings and contour chains.

Ink regions use 8-connectivity and background uses 4-connectivity, the
standard complementary pair that avoids topological paradoxes. Boundaries
are traced with Moore neighbor following: the walk scans the 8-neighborhood
clockwise from the backtrack pixel and stops when the state after its
first step recurs (Jacob's stopping criterion), which handles single
pixels and one-pixel-wide spurs. A chain records every visit, so a thin
spur contributes each boundary pixel once per pass; chain length is
therefore a visit count, not a Euclidean arc length. Only a walk measures
it, but the edges of a region or hole bound it from above, so a walk is
needed only when that bound does not settle a test against a cap.

The walk probes the ink directly. Each traced raster is stored once as the
bytes of its ink over a one-pixel zero pad, so the border needs no bounds
checks and a pixel is a flat index into the padded grid. From a state, the
walk probes the neighbors clockwise from the backtrack direction; the first
ink probe is the next pixel, and the background probe just before it, seen
from the next pixel, is the next backtrack. That relative direction depends
only on the step direction, so an 8-entry table gives it, and a state is a
pixel and a backtrack direction. The probe offsets depend only on
the padded row stride, so each walker builds their table once.

Regions are labelled by their horizontal runs, not pixel by pixel (after
He, Chao & Suzuki, IEEE TIP 17(5), 2008): a text raster holds far fewer
runs than pixels. Runs of consecutive rows whose columns overlap are
joined, the columns widened by one for 8-connected ink, by rounds of
hooking each root under the smaller of the two and jumping pointers, all of
it array work. The links between runs are found apart from the joining, so
a subset of runs can be joined by the links among them with no second
search: _label_and_zones labels a page pass's stacked ink, and the same ink
with every line's band rows blanked, from one search and one join. A
region's root is its first run, so regions are numbered in raster order of
their first pixel. A labelling is only its runs: its boxes, its first
pixels and the label of any pixel come from them; no label image is painted.

Holes come from the same runs, with no pass over the background: a hole
is made of gaps, the background runs between two ink runs of a row. The
gaps are joined 4-connectedly, and a region of them is a hole when none
of its gaps meets the background before or after the ink of the row above
or below it, or lies on the first or last row. The holes are a Labelling
too, whose runs are the gaps of the closed regions, renumbered in raster
order of their first pixel. The gaps' links are read off the bounds of the
ink's link search (_gap_links).

A caller that only needs the boundaries near a row band can pass that band
to trace_contours, which then chooses boundaries by bounding box. An outer
chain visits only pixels of its region and includes the region's topmost
and bottommost pixels, so its rows are exactly the region's bounding-box
rows. An inner chain visits the ink cells
around its hole, and the ink directly above the hole's top cells and below
its bottom cells closes it, so its rows are the hole's bounding-box rows
widened by one. Box rows therefore decide, with no walk, which chains
lie entirely above or below the band and which reach it. A raster that
stacks several text lines passes one band per row instead, and each
boundary is tested against the band of the line it starts in. Every box
row and band test of the pipeline comes from Labelling.box_rows and
Labelling.beyond, for regions and holes alike: the chains kept for a
band, the detached marks of word parts, and the pole and jamb margins;
only word parts read box columns, from Labelling.boxes of the ink.
A region's first pixel, the start of its outer chain and the tip of a
pole, starts its first run. Runs come in raster order, so the first of a
region's runs on its bottom row starts the tip of a jamb.

Each state of a walk pairs an ink pixel with a background 4-neighbor,
its backtrack, and the states from the first step on form a cycle; the
start state is one more such pair. So an outer chain is no longer than
its region's count of unit edges to the pixels outside it, and an inner
chain no longer than its hole's count of unit edges to the ink. Both
labellings of trace_contours carry that count per label, summed from the
runs and links they are joined from: two edges per column of a run and
one at each end, less two per column that a link's two runs share.

trace_contours finds the runs and links of the raster it is given once,
for its regions and its holes; nothing is shared with a labelling of some
other stage. _outer_lengths walks the outer chains that the pole and jamb
scan's dot rule measures, entered from the west as trace_contours does.

A traced chain carries its start, rows and length bound from the trace:
the start is the pixel its walk sets out from, the rows are the box rows
above (widened by one for an inner chain), and the bound is the edge
count. It walks on first reading its length or points, all chains of one
trace by one walker built on the first walk, and builds its (row, col)
point tuples only on first reading its points. The dot and loop tests
read the start, rows and bound, and the length only when the bound
reaches the cap, so on text, where no dot or loop comes near the cap,
the contour stage walks nothing.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cache, cached_property, partial

import numpy as np

from .raster import BinaryRaster, _require_binary

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
    """Connected regions of one raster, kept as their horizontal runs: the
    8-connected ink regions, or the holes, whose runs are background.

    Run i covers row rows[i], columns starts[i] to ends[i], and belongs to
    region run_labels[i]. Runs come in raster order, and the regions are
    numbered 1..count in raster order of their first pixel; first_runs[k]
    is the first run of region k + 1. box_rows and boxes are built on first
    use and then cached; every box row and band test reads box_rows, and
    word parts boxes. label_at searches the runs. edges[k], which
    _label_and_holes gives, counts the unit edges between region k + 1
    and the 4-adjacent pixels outside it, off-image pixels included.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    run_labels: np.ndarray
    first_runs: np.ndarray
    edges: np.ndarray | None = None

    @property
    def count(self) -> int:
        return self.first_runs.size

    @cached_property
    def box_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(top, bottom) rows of every label, entry i for label i + 1."""
        bottoms = np.zeros(self.count, dtype=np.intp)
        np.maximum.at(bottoms, self.run_labels - 1, self.rows)
        return self.rows[self.first_runs], bottoms

    @cached_property
    def boxes(self) -> np.ndarray:
        """Read-only (count, 4) array of inclusive (top, left, bottom, right)
        bounds; row i bounds label i + 1."""
        k = self.run_labels - 1
        boxes = np.zeros((self.count, 4), dtype=np.intp)
        (boxes[:, 0], boxes[:, 2]), boxes[:, 1] = self.box_rows, self.shape[1]
        np.minimum.at(boxes[:, 1], k, self.starts)
        np.maximum.at(boxes[:, 3], k, self.ends)
        boxes.flags.writeable = False
        return boxes

    def label_at(self, rows, cols) -> np.ndarray:
        """Label of each pixel (rows[i], cols[i]), each of which must be
        ink: runs come in raster order, so the last run starting at or
        before an ink pixel holds it."""
        width = self.shape[1]
        starts = self.rows * width + self.starts
        return self.run_labels[starts.searchsorted(np.asarray(rows) * width + cols, side="right") - 1]

    def beyond(self, upper, lower) -> np.ndarray:
        """Per label, whether its rows lie entirely above upper or entirely
        below lower: the detached-region test. Entry i is label i + 1, and
        upper and lower are rows, or arrays of one row per label."""
        return (self.box_rows[1] < upper) | (self.box_rows[0] > lower)

    def first_pixels(self, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the first raster-order pixel of each label index + 1."""
        runs = self.first_runs[index]
        return self.rows[runs], self.starts[runs]


class ContourChain:
    """Ordered boundary pixel sequence around an ink region or a hole.

    Consecutive points are 8-neighbors; when closed, the last point is an
    8-neighbor of the first. Polarity is 'outer' for region boundaries and
    'inner' for hole boundaries. start is the first point, rows the least
    and greatest row of the points, and length their count.

    A chain built from points stores them as a tuple of (row, col) tuples
    and reads start, rows and length off them; it needs at least one point.
    trace_contours builds its chains before walking them, with start and
    rows known from the trace and a bound on the length: such a chain walks
    on first reading its length or points, and makes its point tuples on
    first reading its points. Either way a chain is immutable, and it
    compares, hashes and prints by (points, closed, polarity).
    """

    def __init__(self, points, closed: bool, polarity: str):
        points = tuple(map(tuple, points))
        if not points:
            raise ValueError("a contour chain needs at least one point")
        rows = [p[0] for p in points]
        vars(self).update(
            points=points,
            closed=closed,
            polarity=polarity,
            start=points[0],
            rows=(min(rows), max(rows)),
            length=len(points),
            _bound=len(points),
        )

    @classmethod
    def _traced(cls, walker, start, back, rows, bound: int, polarity: str):
        """The closed chain that walker() walks from start, entered from the
        background pixel back, whose rows the trace already knows and
        whose length is at most bound."""
        chain = object.__new__(cls)
        vars(chain).update(
            _walker=walker, _back=back, _bound=bound, closed=True, polarity=polarity, start=start, rows=rows
        )
        return chain

    @cached_property
    def _walk(self) -> list[int]:
        return self._walker().walk(self.start, self._back)

    @cached_property
    def length(self) -> int:
        return len(self._walk)

    @cached_property
    def points(self) -> tuple[tuple[int, int], ...]:
        # Looked up on the module, where the count of point builds is taken.
        return _points(self._walk, self._walker()._stride)

    def _under(self, cap: int) -> bool:
        """Whether the chain is shorter than cap, walked only when its
        bound does not already say so."""
        return self._bound < cap or self.length < cap

    def _key(self):
        return self.points, self.closed, self.polarity

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__qualname__}(points={self.points!r}, closed={self.closed!r}, polarity={self.polarity!r})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _points(walk: list[int], stride: int) -> tuple[tuple[int, int], ...]:
    """The (row, col) pixels of a walk, flat indices into a padded grid of
    the given row stride, where pixel (r, c) is (r + 1) * stride + c + 1."""
    origin = stride + 1
    return tuple(divmod(p - origin, stride) for p in walk)


def _runs(ink: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, first col, last col) of every horizontal run of ink, in raster order."""
    height, width = ink.shape
    # A blank column on each side of every row: every run starts and ends in its row.
    stride = width + 2
    padded = np.zeros((height, stride), dtype=bool)
    padded[:, 1:-1] = ink
    flat = padded.ravel()
    edges = (flat[1:] != flat[:-1]).nonzero()[0]
    rows = edges[0::2] // stride
    return rows, edges[0::2] - rows * stride, edges[1::2] - rows * stride - 1


def _links(rows, starts, ends, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Per run i, the runs lo[i] up to hi[i] - 1 of the next row, whose
    columns meet its own widened by one: in raster order, the first run
    ending at or past column starts[i] - 1 of the next row, and the first
    starting past column ends[i] + 1 of it. Runs may skip rows."""
    # Keys order the runs by row, then column. Adding stride to a key moves
    # it one row down, and a run widened by one stays clear of the keys of
    # the rows above and below its own.
    stride = width + 2
    key_starts, key_ends = rows * stride + starts, rows * stride + ends
    return key_ends.searchsorted(key_starts + stride - 1), key_starts.searchsorted(key_ends + stride + 1, side="right")


def _pairs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (above[i], below[i]) with lo[above[i]] <= below[i] <
    hi[above[i]]: above comes sorted, and each one's partners in order."""
    counts = np.maximum(hi - lo, 0)
    above = np.arange(lo.size).repeat(counts)
    below = np.arange(above.size) + (lo - (counts.cumsum() - counts)).repeat(counts)
    return above, below


def _join(n: int, above: np.ndarray, below: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Label of each of n runs and the first run of every label, the runs
    of each link (above[i], below[i]) joined.

    Each run is first its own root. Every round hooks the larger root of
    each still-unjoined link under the smaller, then jumps pointers until
    every run points at its root, so a root is always the smallest run of
    its region: its first in raster order. Labels number the roots in that
    order. Roots point at themselves, so the jumps are tested two at a time.
    """
    parent = np.arange(n)
    while above.size:
        a, b = parent[above], parent[below]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = parent[parent]
            jumped = jumped[jumped]
            if not np.logical_or.reduce(jumped != parent):
                break
            parent = jumped
        apart = parent[above] != parent[below]
        above, below = above[apart], below[apart]
    roots = parent == np.arange(n)
    return roots.cumsum()[parent], roots.nonzero()[0]


def _edge_counts(labels, count: int, starts, ends, above, below) -> np.ndarray:
    """Per region of the runs, its count of unit edges to the pixels
    outside it, for runs linked by every pair of 4-adjacent pixels: each
    run has two edges per column and one at each end, less two per column
    it shares with a run it is linked to in the next row."""
    shared = np.maximum(np.minimum(ends[above], ends[below]) - np.maximum(starts[above], starts[below]) + 1, 0)
    edges = np.bincount(labels - 1, 2 * (ends - starts) + 4, count) - np.bincount(labels[above] - 1, 2 * shared, count)
    return edges.astype(np.intp)


def _gap_links(rows, lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gaps of the runs, each given by the run on its left, and every
    pair (above[i], below[i]) of gaps of consecutive rows whose columns
    overlap, read off the runs' link bounds lo and hi (see _links).

    The gap between runs a and a + 1 meets the gaps whose left run h has
    hi[a] - 1 <= h < lo[a + 1]: run h + 1 starts past its first column and
    run h ends before its last; a run hi[a] - 1 of the gap's own row is its
    last, left of no gap, so the count of gaps before each run bounds them."""
    n = rows.size
    same = np.zeros(n + 1, dtype=bool)
    same[: n - 1] = rows[1:] == rows[:-1]
    # before[i] counts the gaps left of the runs before run i.
    gaps, before = same.nonzero()[0], same.cumsum() - same
    return (gaps, *_pairs(before[hi[gaps] - 1], before[lo[gaps + 1]]))


def _label_and_zones(ink: np.ndarray, blank: np.ndarray) -> tuple[Labelling, Labelling]:
    """The labelling of the ink, and of the ink with every row r where
    blank[r] is set blanked: the runs outside those rows, joined by the
    links between two of them, as links only join runs of adjacent rows.
    The runs and links are searched for once, and the zone runs, numbered
    after the ink runs, are joined in the same call."""
    rows, starts, ends = _runs(ink)
    above, below = _pairs(*_links(rows, starts, ends, ink.shape[1]))
    n, outside = rows.size, ~blank[rows]
    index = outside.cumsum() + (n - 1)
    kept = (outside[above] & outside[below]).nonzero()[0]
    links = np.empty((2, above.size + kept.size), dtype=np.intp)
    links[:, : above.size], links[:, above.size :] = (above, below), (index[above[kept]], index[below[kept]])
    runs = rows[outside], starts[outside], ends[outside]
    labels, first_runs = _join(n + runs[0].size, *links)
    # The ink runs come first, so their roots and labels come first too.
    k = first_runs.searchsorted(n)
    labelling = Labelling(ink.shape, rows, starts, ends, labels[:n], first_runs[:k])
    return labelling, Labelling(ink.shape, *runs, labels[n:] - k, first_runs[k:] - n)


def _label_and_holes(ink: np.ndarray) -> tuple[Labelling, Labelling]:
    """The labelling of the ink, and that of its holes: the 4-connected
    background regions not touching the image border, numbered in raster
    order of their first pixel.

    A row's background before its first ink run and after its last touches
    the left or right border, and so does a blank row, so a hole is made
    only of gaps: the background runs between two ink runs of a row. A gap
    is outside when its columns meet the leading or trailing background of
    the row above or below it; rows off the image count as blank, so every
    gap of the first and last rows is outside. The gaps linked 4-connectedly
    form regions, and a region with no outside gap is closed, so it is a
    hole; the holes' labelling is the gaps of the closed regions. The ink's
    runs and links are found once for both. Both labellings carry their
    edge counts: every pixel 4-adjacent to a hole and outside it is ink, so
    a hole's count is that of its edges to the ink.
    """
    height, width = ink.shape
    rows, starts, ends = _runs(ink)
    lo, hi = _links(rows, starts, ends, width)
    above, below = _pairs(lo, hi)
    labels, first_runs = _join(rows.size, above, below)
    edges = _edge_counts(labels, first_runs.size, starts, ends, above, below)
    labelling = Labelling(ink.shape, rows, starts, ends, labels, first_runs, edges)
    gaps, above, below = _gap_links(rows, lo, hi)
    gap_rows, gap_starts, gap_ends = rows[gaps], ends[gaps] + 1, starts[gaps + 1] - 1
    # Per row, shifted down one so rows -1 and height are blank: the first
    # ink column and the last, width and -1 on a blank row. A run is a row's
    # first unless it is right of a gap, and its last unless it is left of one.
    first, last = np.array([[width], [-1]]).repeat(height + 2, axis=1)
    by_gap = np.zeros((2, rows.size), dtype=bool)
    by_gap[0, gaps + 1] = by_gap[1, gaps] = True
    lead, trail = ~by_gap
    first[rows[lead] + 1] = starts[lead]
    last[rows[trail] + 1] = ends[trail]
    outside = (gap_starts < np.maximum(first[gap_rows], first[gap_rows + 2])) | (
        gap_ends > np.minimum(last[gap_rows], last[gap_rows + 2])
    )
    labels, first_gaps = _join(gaps.size, above, below)
    closed = np.bincount(labels[outside] - 1, minlength=first_gaps.size) == 0
    edges = _edge_counts(labels, first_gaps.size, gap_starts, gap_ends, above, below)[closed]
    # The gaps of the closed regions, the regions renumbered 1..count in order.
    kept = closed[labels - 1].nonzero()[0]
    runs = gap_rows[kept], gap_starts[kept], gap_ends[kept]
    first_runs = kept.searchsorted(first_gaps[closed])
    return labelling, Labelling(ink.shape, *runs, closed.cumsum()[labels[kept] - 1], first_runs, edges)


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


class _Walker:
    """Moore neighbor walks over one raster, probing its padded ink bytes.

    The ink is stored once over a one-pixel zero pad, and a walk probes it
    at flat indices into the padded grid. The walker's probe table gives,
    per backtrack direction d, the (flat offset, new backtrack) of each
    probe clockwise after d; _BACK gives each step's new backtrack.
    """

    def __init__(self, ink: np.ndarray):
        height, width = ink.shape
        self._stride = width + 2
        padded = np.zeros((height + 2, self._stride), dtype=bool)
        padded[1:-1, 1:-1] = ink
        self._ink = padded.tobytes()
        offsets = [dr * self._stride + dc for dr, dc in _MOORE]
        self._probes = [[(offsets[(d + k) % 8], _BACK[(d + k) % 8]) for k in range(1, 9)] for d in range(8)]
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


def _outer_lengths(ink: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Length of the outer chain of the region whose first raster-order
    pixel is (rows[i], cols[i]), walked on the ink as trace_contours walks
    it, entered from the west, where none of the region lies. A walker is
    built only when there is a pixel to walk from."""
    walk = _Walker(ink).walk if rows.size else None
    return np.array([len(walk((r, c), (r, c - 1))) for r, c in zip(rows.tolist(), cols.tolist())], dtype=np.intp)


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
    hole's box rows widened by one, so the choice is made from the boxes
    of the two labellings, regions and holes alike, and the other
    boundaries are never walked. The kept chains are exactly those of the
    full trace that pass the same row tests, in the same order. Either
    entry of band may instead be an array with one row per image row, for
    an image of several text lines: each entry is broadcast to one row per
    image row, and a region or a hole is tested against the band given at
    its top row.

    The image is labelled once here, and no chain is walked here: a chain
    walks on first reading its length or points, all chains of one call by
    one walker over the ink, built on the first walk. Each chain carries a
    bound on its length, its region's or hole's count of unit edges, which
    the dot and loop tests read before the length.
    """
    _require_binary(img, "trace_contours")
    labelling, holes = _label_and_holes(img.pixels)
    kept, kept_holes = np.arange(labelling.count), np.arange(holes.count)
    if band is not None:
        upper, lower = (np.zeros(img.height, dtype=np.intp) + rows for rows in band)
        top, hole_top = labelling.box_rows[0], holes.box_rows[0]
        kept = labelling.beyond(upper[top], lower[top]).nonzero()[0]
        kept_holes = (~holes.beyond(upper[hole_top] - 1, lower[hole_top] + 1)).nonzero()[0]
    # One walker serves every chain of the call, built on the first walk.
    walker = cache(partial(_Walker, img.pixels))
    # Labels number regions and holes in raster order of their first pixel,
    # so the starts come sorted. An outer chain spans its region's box rows.
    rows, cols = (a.tolist() for a in labelling.first_pixels(kept))
    bottoms, bounds = labelling.box_rows[1][kept].tolist(), labelling.edges[kept].tolist()
    chains = [
        ContourChain._traced(walker, (r, c), (r, c - 1), (r, bottom), bound, "outer")
        for r, c, bottom, bound in zip(rows, cols, bottoms, bounds)
    ]
    # The pixel above a hole's topmost-leftmost cell is always ink, and an
    # inner chain spans its hole's box rows widened by one.
    rows, cols = (a.tolist() for a in holes.first_pixels(kept_holes))
    bottoms, bounds = holes.box_rows[1][kept_holes].tolist(), holes.edges[kept_holes].tolist()
    chains += [
        ContourChain._traced(walker, (r - 1, c), (r, c), (r - 1, bottom + 1), bound, "inner")
        for r, c, bottom, bound in zip(rows, cols, bottoms, bounds)
    ]
    return chains
