"""Page decomposition into lines and word parts, plus baseline estimation.

A page splits into horizontal line bands wherever the horizontal projection
goes blank for long enough. _group_parts splits each line's ink into word
parts for extract_features: connected components, with small detached marks
above or below the body band reattached to the body they annotate, ordered
right to left. Two baseline rows bound the dense body band of a word; they
are estimated as the widest run of rows whose projection stays above a
fraction of the peak, restricted to runs that contain the peak itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Labelling
from .raster import BinaryRaster, _require_binary, _require_integers

__all__ = [
    "NoInkError",
    "Baselines",
    "LineBand",
    "extract_lines",
    "estimate_baselines",
]

# Fraction of the peak row count that a body-band row reaches.
DEFAULT_ALPHA = 0.5
DEFAULT_MERGE_GAP = 2  # blank rows a line band bridges; see extract_lines


class NoInkError(ValueError):
    """Raised when an operation needs ink pixels and the image has none."""


@dataclass(frozen=True)
class Baselines:
    """Upper and lower baseline rows, integers, splitting a word into three zones."""

    upper_row: int
    lower_row: int

    def __post_init__(self):
        _require_integers(vars(self))
        if not 0 <= self.upper_row <= self.lower_row:
            raise ValueError(
                f"need 0 <= upper_row <= lower_row, got ({self.upper_row}, {self.lower_row})"
            )

    @property
    def band_height(self) -> int:
        return self.lower_row - self.upper_row


@dataclass(frozen=True)
class LineBand:
    """Row extent of one text line, integer rows with 0 <= top_row <=
    bottom_row; bands of a page are disjoint and ordered."""

    top_row: int
    bottom_row: int

    def __post_init__(self):
        _require_integers(vars(self))
        if not 0 <= self.top_row <= self.bottom_row:
            raise ValueError(f"need 0 <= top_row <= bottom_row, got ({self.top_row}, {self.bottom_row})")


def extract_lines(page: BinaryRaster, merge_gap: int = DEFAULT_MERGE_GAP) -> list[LineBand]:
    """Find line bands as maximal inked row runs of the horizontal projection.

    A blank run shorter than merge_gap rows does not split a line, which
    keeps broken strokes in scans together; merge_gap 0 acts as 1, so
    adjacent inked rows always share a line. Bands end and start at the
    steps between inked rows longer than that. A merge_gap that is not an
    integer raises TypeError, a negative one ValueError.
    """
    _require_binary(page, "extract_lines")
    _require_integers({"merge_gap": merge_gap})
    if merge_gap < 0:
        raise ValueError("merge_gap must be >= 0")
    inked = np.logical_or.reduce(page.pixels, axis=1).nonzero()[0]
    if inked.size == 0:
        return []
    cut = inked[1:] - inked[:-1] > max(merge_gap, 1)
    tops, bottoms = [int(inked[0]), *inked[1:][cut].tolist()], [*inked[:-1][cut].tolist(), int(inked[-1])]
    return [LineBand(top, bottom) for top, bottom in zip(tops, bottoms)]


def estimate_baselines(word: BinaryRaster, alpha: float = DEFAULT_ALPHA) -> Baselines:
    """Estimate the dense body band of a word from its horizontal projection.

    Rows whose count reaches alpha times the peak are band candidates; the
    widest candidate run containing a peak row wins, topmost on ties. The
    returned band therefore always holds the projection's global maximum.
    The runs are read off the edges of the candidate rows.
    """
    _require_binary(word, "estimate_baselines")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    counts = np.add.reduce(word.pixels, axis=1)
    peak = int(np.maximum.reduce(counts))
    if peak == 0:
        raise NoInkError("cannot estimate baselines of a blank image")
    dense = np.zeros(counts.size + 2, dtype=bool)
    dense[1:-1] = counts >= alpha * peak
    # Run k spans rows top[k] to end[k] - 1; no row between runs is a peak row.
    top, end = (dense[1:] != dense[:-1]).nonzero()[0].reshape(-1, 2).T
    best = ((end - top) * (np.add.reduceat(counts == peak, top) > 0)).argmax()
    return Baselines(int(top[best]), int(end[best]) - 1)


# Scratch searches run in blocks of at most this many entries: (mark, body)
# pairs in _group_parts, window pixels in features._nearest_paws.
_BLOCK = 1 << 16
# Column overlap of a mark with a body of another line: below any real overlap.
_FAR = np.iinfo(np.intp).min


def _centroids(labelling: Labelling, origin: np.ndarray) -> np.ndarray:
    """(row, col) pixel means of every component, entry i for label i + 1,
    with rows counted from origin[i].

    Coordinates are summed exactly as integers, run by run: a run from
    column s to e holds e - s + 1 pixels, whose columns sum to
    (s + e)(e - s + 1) / 2. Each mean is then the correctly rounded
    quotient of the exact sum and the pixel count.
    """
    k, starts, ends = labelling.run_labels - 1, labelling.starts, labelling.ends
    lengths = ends - starts + 1
    sums = np.zeros((3, labelling.count), dtype=np.int64)
    pixels, row_sums, col_sums = sums
    np.add.at(pixels, k, lengths)
    np.add.at(row_sums, k, lengths * (labelling.rows - origin[k]))
    np.add.at(col_sums, k, (starts + ends) * lengths // 2)
    return (sums[1:] / pixels).T


def _group_parts(labelling: Labelling, detached: np.ndarray, line: np.ndarray, origin: np.ndarray):
    """Word parts of the components of one or several text lines.

    detached says whether each label lies wholly above or below its line's
    band, line gives its line key, 0 and up, and origin the first row of
    its line, from which centroid rows are counted; entry i is label i + 1.

    Each line is grouped alone. Its detached components are marks, not
    standalone parts, and each mark joins a body of its own line: the one
    with maximal signed column overlap (a negative overlap measures the
    gap), then the nearest centroid, then the first body in (min_col,
    min_row) order, in blocks of at most _BLOCK (mark, body) pairs. One
    centroid table of all labels is built at the first tie on overlap, if
    any. A line whose components are all detached keeps them all as
    bodies. The parts partition the line's ink.

    Returns the part index of every label (entry i for label i + 1), each
    part's (top, left, bottom, right) extent, and each part's line key.
    Parts are numbered line by line in key order, right to left within a
    line.
    """
    n = labelling.count
    boxes = labelling.boxes
    # Component order: line, then bbox (min_col, min_row, max_col, max_row), labels on ties.
    comps = np.lexsort((boxes[:, 2], boxes[:, 3], boxes[:, 0], boxes[:, 1], line))
    detached = (detached & (np.bincount(line[~detached], minlength=int(np.maximum.reduce(line)) + 1)[line] > 0))[comps]
    bodies, marks = comps[~detached], comps[detached]
    body_line = line[bodies]

    owner = np.empty(n, dtype=np.intp)
    owner[bodies] = np.arange(bodies.size)
    centroid = None
    block = max(1, _BLOCK // bodies.size)
    for i in range(0, marks.size, block):
        m = marks[i : i + block, None]
        overlap = np.minimum(boxes[bodies, 3], boxes[m, 3]) - np.maximum(boxes[bodies, 1], boxes[m, 1])
        overlap[body_line != line[m]] = _FAR
        top = overlap == np.maximum.reduce(overlap, axis=1, keepdims=True)
        owner[m[:, 0]] = top.argmax(axis=1)
        # Only a mark with several bodies at its largest overlap needs centroids.
        tied = (np.add.reduce(top, axis=1) > 1).nonzero()[0]
        if tied.size:
            centroid = _centroids(labelling, origin) if centroid is None else centroid
            t = m[tied]
            dist = np.hypot(centroid[bodies, 0] - centroid[t, 0], centroid[bodies, 1] - centroid[t, 1])
            dist[~top[tied]] = np.inf
            owner[t[:, 0]] = dist.argmin(axis=1)

    extent = boxes[bodies]
    for k, widen in enumerate((np.minimum, np.minimum, np.maximum, np.maximum)):
        widen.at(extent[:, k], owner[marks], boxes[marks, k])
    order = np.lexsort((extent[:, 0], -extent[:, 1], -extent[:, 3], body_line))
    part_of = np.empty(bodies.size, dtype=np.intp)
    part_of[order] = np.arange(bodies.size)
    return part_of[owner], extent[order], body_line[order]
