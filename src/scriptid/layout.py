"""Page decomposition into lines and word parts, plus baseline estimation.

A page splits into horizontal line bands wherever the horizontal projection
goes blank for long enough. Within a line, ink is grouped into word parts:
connected components, with small detached marks above or below the body band
reattached to the body they annotate, ordered right to left. Two baseline
rows bound the dense body band of a word; they are estimated as the widest
run of rows whose projection stays above a fraction of the peak, restricted
to runs that contain the peak itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Labelling, label_components
from .raster import BinaryRaster

__all__ = [
    "NoInkError",
    "Baselines",
    "LineBand",
    "Paw",
    "extract_lines",
    "segment_paws",
    "estimate_baselines",
]


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


@dataclass(eq=False)
class Paw:
    """One word part: a body component plus any reattached detached marks.

    order_index runs right to left, the rightmost part being 0. labels are
    the part's component labels in the line's labelling.
    """

    bbox: tuple[int, int, int, int]
    order_index: int
    labels: np.ndarray


def extract_lines(page: BinaryRaster, merge_gap: int = 2) -> list[LineBand]:
    """Find line bands as maximal inked row runs of the horizontal projection.

    Blank runs shorter than merge_gap rows do not split a line, which keeps
    broken strokes in scans together.
    """
    if merge_gap < 0:
        raise ValueError("merge_gap must be >= 0")
    inked = np.flatnonzero(page.pixels.any(axis=1))
    if inked.size == 0:
        return []
    groups = np.split(inked, np.flatnonzero(np.diff(inked) > merge_gap) + 1)
    return [LineBand(int(g[0]), int(g[-1])) for g in groups]


def estimate_baselines(word: BinaryRaster, alpha: float = 0.5) -> Baselines:
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


def _centroids(labelling: Labelling, comps: np.ndarray) -> np.ndarray:
    """(row, col) pixel means of the components comps, each label - 1.

    Absolute coordinates are summed as integers, so each mean is the
    correctly rounded quotient of the exact sum and the pixel count.
    """
    means = np.empty((comps.size, 2))
    for i, k in enumerate(comps.tolist()):
        sl = labelling.objects[k]
        rows, cols = np.nonzero(labelling.labels[sl] == k + 1)
        means[i] = (rows + sl[0].start).sum() / rows.size, (cols + sl[1].start).sum() / cols.size
    return means


def segment_paws(
    line: BinaryRaster,
    baselines: Baselines | None = None,
    alpha: float = 0.5,
    labelling: Labelling | None = None,
) -> list[Paw]:
    """Group the ink of a single line into word parts, right to left.

    Components lying entirely above the upper baseline or entirely below the
    lower one are detached marks, not standalone parts; each is attached to
    the body component with maximal signed column overlap (a negative
    overlap measures the gap), then the nearest centroid, then the first
    body in (min_col, min_row) order. Centroids are computed only for marks
    that tie on overlap and for their tied bodies. The resulting pixel sets
    partition the line's ink. labelling, when given, must be
    label_components(line).
    """
    if labelling is None:
        labelling = label_components(line)
    n = labelling.count
    if n == 0:
        return []
    b = baselines if baselines is not None else estimate_baselines(line, alpha=alpha)

    # Row i describes label i + 1: (min_row, min_col, max_row, max_col).
    boxes = labelling.boxes
    # Component order: bbox (min_col, min_row, max_col, max_row), labels on ties.
    comps = np.lexsort((boxes[:, 2], boxes[:, 3], boxes[:, 0], boxes[:, 1]))
    detached = labelling.beyond(b.upper_row, b.lower_row)[comps]
    bodies, marks = comps[~detached], comps[detached]
    if bodies.size == 0:
        bodies, marks = comps, comps[:0]

    owner = np.empty(n, dtype=np.intp)
    owner[bodies] = np.arange(bodies.size)
    block = max(1, _PAIR_BLOCK // bodies.size)
    for i in range(0, marks.size, block):
        m = marks[i : i + block, None]
        overlap = np.minimum(boxes[bodies, 3], boxes[m, 3]) - np.maximum(boxes[bodies, 1], boxes[m, 1])
        top = overlap == overlap.max(axis=1, keepdims=True)
        owner[m[:, 0]] = top.argmax(axis=1)
        # Only a mark with several bodies at its largest overlap needs centroids.
        tied = np.flatnonzero(top.sum(axis=1) > 1)
        if tied.size:
            t, ties = m[tied], top[tied]
            centroid = np.zeros((n, 2))
            need = np.union1d(t, bodies[ties.any(axis=0)])
            centroid[need] = _centroids(labelling, need)
            dist = np.hypot(centroid[bodies, 0] - centroid[t, 0], centroid[bodies, 1] - centroid[t, 1])
            dist[~ties] = np.inf
            owner[t[:, 0]] = dist.argmin(axis=1)

    extent = boxes[bodies]
    for k, widen in enumerate((np.minimum, np.minimum, np.maximum, np.maximum)):
        widen.at(extent[:, k], owner[marks], boxes[marks, k])
    order = np.lexsort((extent[:, 0], -extent[:, 1], -extent[:, 3]))
    part_of = np.empty(bodies.size, dtype=np.intp)
    part_of[order] = np.arange(bodies.size)
    part_of_comp = part_of[owner]

    # Component labels grouped by part, in label order within a part.
    grouped = np.argsort(part_of_comp, kind="stable") + 1
    ends = np.cumsum(np.bincount(part_of_comp, minlength=bodies.size)).tolist()
    extents = extent.tolist()
    return [
        Paw(tuple(extents[j]), i, grouped[lo:hi])
        for i, (j, lo, hi) in enumerate(zip(order.tolist(), [0, *ends], ends))
    ]
