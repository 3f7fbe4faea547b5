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
from .raster import BinaryRaster

__all__ = [
    "NoInkError",
    "Baselines",
    "LineBand",
    "extract_lines",
    "estimate_baselines",
]

# Fraction of the peak row count that a body-band row reaches.
DEFAULT_ALPHA = 0.5


class NoInkError(ValueError):
    """Raised when an operation needs ink pixels and the image has none."""


@dataclass(frozen=True)
class Baselines:
    """Upper and lower baseline rows splitting a word into three zones."""

    upper_row: int
    lower_row: int

    def __post_init__(self):
        if not 0 <= self.upper_row <= self.lower_row:
            raise ValueError(
                f"need 0 <= upper_row <= lower_row, got ({self.upper_row}, {self.lower_row})"
            )

    @property
    def band_height(self) -> int:
        return self.lower_row - self.upper_row


@dataclass(frozen=True)
class LineBand:
    """Row extent of one text line; bands of a page are disjoint and ordered."""

    top_row: int
    bottom_row: int


def extract_lines(page: BinaryRaster, merge_gap: int = 2) -> list[LineBand]:
    """Find line bands as maximal inked row runs of the horizontal projection.

    A blank run shorter than merge_gap rows does not split a line, which
    keeps broken strokes in scans together; merge_gap 0 acts as 1, so
    adjacent inked rows always share a line.
    """
    if merge_gap < 0:
        raise ValueError("merge_gap must be >= 0")
    inked = np.flatnonzero(page.pixels.any(axis=1))
    if inked.size == 0:
        return []
    groups = np.split(inked, np.flatnonzero(np.diff(inked) > max(merge_gap, 1)) + 1)
    return [LineBand(int(g[0]), int(g[-1])) for g in groups]


def estimate_baselines(word: BinaryRaster, alpha: float = DEFAULT_ALPHA) -> Baselines:
    """Estimate the dense body band of a word from its horizontal projection.

    Rows whose count reaches alpha times the peak are band candidates; the
    widest candidate run containing a peak row wins, topmost on ties. The
    returned band therefore always holds the projection's global maximum.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    counts = word.pixels.sum(axis=1)
    peak = int(counts.max())
    if peak == 0:
        raise NoInkError("cannot estimate baselines of a blank image")
    dense = np.flatnonzero(counts >= alpha * peak)
    runs = np.split(dense, np.flatnonzero(np.diff(dense) > 1) + 1)
    best = None
    for run in runs:
        if not (counts[run] == peak).any():
            continue
        if best is None or len(run) > len(best):
            best = run
    return Baselines(int(best[0]), int(best[-1]))


# Marks are matched against every body in blocks of at most this many
# (mark, body) pairs, which bounds memory on lines with many components.
_PAIR_BLOCK = 1 << 20
# Column overlap of a mark with a body of another line: below any real overlap.
_FAR = np.iinfo(np.intp).min


def _centroids(labelling: Labelling, comps: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """(row, col) pixel means of the components comps, each label - 1, with
    rows counted from origin[k] for component k.

    Coordinates are summed exactly as integers, run by run: a run from
    column s to e holds e - s + 1 pixels, whose columns sum to
    (s + e)(e - s + 1) / 2. Each mean is then the correctly rounded
    quotient of the exact sum and the pixel count.
    """
    slot = np.full(labelling.count, -1)
    slot[comps] = np.arange(comps.size)
    # Entry i of comps for each run of comps[i].
    k = slot[labelling.run_labels - 1]
    mine = k >= 0
    k, rows = k[mine], labelling.rows[mine]
    starts, ends = labelling.starts[mine], labelling.ends[mine]
    lengths = ends - starts + 1
    pixels, row_sums, col_sums = np.zeros((3, comps.size), dtype=np.int64)
    np.add.at(pixels, k, lengths)
    np.add.at(row_sums, k, lengths * (rows - origin[comps][k]))
    np.add.at(col_sums, k, (starts + ends) * lengths // 2)
    return np.column_stack((row_sums / pixels, col_sums / pixels))


def _group_parts(labelling: Labelling, detached: np.ndarray, line: np.ndarray, origin: np.ndarray):
    """Word parts of the components of one or several text lines.

    detached says whether each label lies wholly above or below its line's
    band, line gives its line key, 0 and up, and origin the first row of
    its line, from which centroid rows are counted; entry i is label i + 1.

    Each line is grouped alone. Its detached components are marks, not
    standalone parts, and each mark joins a body of its own line: the one
    with maximal signed column overlap (a negative overlap measures the
    gap), then the nearest centroid, then the first body in (min_col,
    min_row) order. Centroids are computed only for marks that tie on
    overlap and for their tied bodies. A line whose components are all
    detached keeps them all as bodies. The parts partition the line's ink.

    Returns the part index of every label (entry i for label i + 1), each
    part's (top, left, bottom, right) extent, and each part's line key.
    Parts are numbered line by line in key order, right to left within a
    line.
    """
    n = labelling.count
    boxes = labelling.boxes
    # Component order: line, then bbox (min_col, min_row, max_col, max_row), labels on ties.
    comps = np.lexsort((boxes[:, 2], boxes[:, 3], boxes[:, 0], boxes[:, 1], line))
    detached = (detached & (np.bincount(line[~detached], minlength=int(line.max()) + 1)[line] > 0))[comps]
    bodies, marks = comps[~detached], comps[detached]
    body_line = line[bodies]

    owner = np.empty(n, dtype=np.intp)
    owner[bodies] = np.arange(bodies.size)
    block = max(1, _PAIR_BLOCK // bodies.size)
    for i in range(0, marks.size, block):
        m = marks[i : i + block, None]
        overlap = np.minimum(boxes[bodies, 3], boxes[m, 3]) - np.maximum(boxes[bodies, 1], boxes[m, 1])
        overlap[body_line != line[m]] = _FAR
        top = overlap == overlap.max(axis=1, keepdims=True)
        owner[m[:, 0]] = top.argmax(axis=1)
        # Only a mark with several bodies at its largest overlap needs centroids.
        tied = np.flatnonzero(top.sum(axis=1) > 1)
        if tied.size:
            t, ties = m[tied], top[tied]
            centroid = np.zeros((n, 2))
            need = np.union1d(t, bodies[ties.any(axis=0)])
            centroid[need] = _centroids(labelling, need, origin)
            dist = np.hypot(centroid[bodies, 0] - centroid[t, 0], centroid[bodies, 1] - centroid[t, 1])
            dist[~ties] = np.inf
            owner[t[:, 0]] = dist.argmin(axis=1)

    extent = boxes[bodies]
    for k, widen in enumerate((np.minimum, np.minimum, np.maximum, np.maximum)):
        widen.at(extent[:, k], owner[marks], boxes[marks, k])
    order = np.lexsort((extent[:, 0], -extent[:, 1], -extent[:, 3], body_line))
    part_of = np.empty(bodies.size, dtype=np.intp)
    part_of[order] = np.arange(bodies.size)
    return part_of[owner], extent[order], body_line[order]
