"""Structural primitive detection: poles, jambs, diacritic dots, and loops.

A word is measured against two baseline rows. Rows above the upper baseline
form the upper zone, rows below the lower baseline the lower zone, and the
rows between them the body band. The margins derive from the band height h:
a pole (H) must rise more than 2h above the upper baseline and a jamb (J)
must drop more than h below the lower one. A closed outer contour shorter
than the contour cap counts as an upper (P) or lower (Q) diacritic dot when
it lies entirely inside the matching outer zone. A background hole whose
boundary touches the band counts as a loop (B) if that boundary stays under
the same cap; larger holes are dropped but tallied.

Classification order is dots, then loops, then poles and jambs, so a deep
detached dot can never double as a pole or a jamb. Per-word extraction is a
pure function of its inputs and is independently parallelizable.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import (
    ContourChain,
    Labelling,
    _first_pixel,
    _run_counts,
    label_components,
    trace_contours,
)
from .layout import Baselines, NoInkError, segment_paws
from .raster import BinaryRaster, dilate

__all__ = [
    "FEATURE_KINDS",
    "POSITIONS",
    "FeatureThresholds",
    "FeatureHit",
    "FeatureSet",
    "LineLabels",
    "label_line",
    "detect_poles",
    "detect_jambs",
    "detect_diacritics",
    "detect_loops",
    "detect_positions",
    "feature_zones",
    "extract_features",
    "combine_feature_sets",
]

FEATURE_KINDS = ("H", "J", "P", "Q", "B")
POSITIONS = ("D", "M", "F", "I")


@dataclass(frozen=True)
class FeatureThresholds:
    """Pole/jamb margins in pixels plus the diacritic contour cap in points."""

    marge_h: int
    marge_j: int
    diacritic_max_contour: int = 60

    def __post_init__(self):
        if self.diacritic_max_contour <= 0:
            raise ValueError("diacritic_max_contour must be positive")

    @classmethod
    def from_baselines(cls, baselines: Baselines, diacritic_max_contour: int = 60):
        """Margins computed once per line: marge_h = 2 * band height, marge_j = band height."""
        h = baselines.band_height
        return cls(marge_h=2 * h, marge_j=h, diacritic_max_contour=diacritic_max_contour)


@dataclass(frozen=True)
class FeatureHit:
    """One detected primitive with a representative pixel.

    paw_index and position stay None until the full extraction pipeline
    assigns them; the standalone detectors do not know the word layout.
    """

    kind: str
    location: tuple[int, int]
    paw_index: int | None = None
    position: str | None = None


@dataclass(frozen=True)
class FeatureSet:
    """Occurrence counts of the five primitives plus the word-part count."""

    counts: dict[str, int]
    nb_paws: int
    hits: tuple[FeatureHit, ...] = ()
    dropped_oversize_loops: int = 0

    @classmethod
    def empty(cls) -> "FeatureSet":
        return cls(counts={k: 0 for k in FEATURE_KINDS}, nb_paws=0)

    def total_hits(self) -> int:
        return sum(self.counts.values())


def _zone_rows(chain: ContourChain):
    rows = [p[0] for p in chain.points]
    return min(rows), max(rows)


def detect_diacritics(chains, baselines: Baselines, thresholds: FeatureThresholds):
    """Split short closed outer chains into upper (P) and lower (Q) dots.

    A chain qualifies only when every point sits strictly inside one outer
    zone; anything touching the body band is left to the loop stage.
    Returns the (P hits, Q hits) pair.
    """
    p_hits, q_hits = [], []
    for chain in chains:
        if chain.polarity != "outer" or not chain.closed:
            continue
        if chain.length >= thresholds.diacritic_max_contour:
            continue
        lo, hi = _zone_rows(chain)
        if hi < baselines.upper_row:
            p_hits.append(FeatureHit("P", chain.points[0]))
        elif lo > baselines.lower_row:
            q_hits.append(FeatureHit("Q", chain.points[0]))
    return p_hits, q_hits


def _band_holes(chains, baselines: Baselines):
    """Closed hole chains whose rows reach into the body band."""
    for chain in chains:
        if chain.polarity != "inner" or not chain.closed:
            continue
        lo, hi = _zone_rows(chain)
        if hi < baselines.upper_row or lo > baselines.lower_row:
            continue
        yield chain


def detect_loops(chains, baselines: Baselines, thresholds: FeatureThresholds):
    """Find loops: closed hole boundaries under the cap that touch the body band.

    Holes at or over the cap are not loops; extract_features tallies them
    as dropped_oversize_loops.
    """
    return [
        FeatureHit("B", chain.points[0])
        for chain in _band_holes(chains, baselines)
        if chain.length < thresholds.diacritic_max_contour
    ]


@dataclass(frozen=True, eq=False)
class LineLabels:
    """One labelling of a line's raw ink, shared by the pole, jamb and part stages.

    dots holds the labels of detached dots: components entirely above the
    upper baseline or entirely below the lower one whose closed outer
    contour stays under the cap. Dots never feed the pole/jamb detectors.
    """

    labelling: Labelling
    dots: frozenset


def label_line(word: BinaryRaster, baselines: Baselines, thresholds: FeatureThresholds) -> LineLabels:
    """Label the word's 8-connected ink and find its detached dots.

    A candidate's run count is its outer chain length plus its hole chain
    lengths, so a count under the cap makes a dot with no walk; only a
    count at or over the cap walks the outer chain.
    """
    labelling = label_components(word)
    cap = thresholds.diacritic_max_contour
    candidate = np.concatenate(([False], labelling.beyond(baselines.upper_row, baselines.lower_row)))
    dots = set()
    if candidate.any():
        totals = _run_counts(labelling.labels, candidate)
        for lab in np.flatnonzero(candidate).tolist():
            if totals[lab] >= cap:
                start = _first_pixel(labelling.labels, lab, labelling.objects[lab - 1])
                if len(labelling.walker.walk(start, (start[0], start[1] - 1))) >= cap:
                    continue
            dots.add(lab)
    return LineLabels(labelling, frozenset(dots))


def _extremum_hits(word, baselines, thresholds, kind, labels: LineLabels | None):
    """Common pole/jamb scan over one outer zone.

    Each 8-connected ink region beyond the baseline becomes one hit when its
    extremal row clears the margin, with detached dots excluded. A region's
    top and bottom rows are its bounding-box rows. Its first raster-order
    pixel anchors the dot test and is also the pole tip; a jamb tip is the
    first pixel of its bottom row.
    """
    if kind == "H":
        if baselines.upper_row == 0:
            return []
        zone = word.pixels[: baselines.upper_row]
        offset = 0
    else:
        if baselines.lower_row >= word.height - 1:
            return []
        zone = word.pixels[baselines.lower_row + 1 :]
        offset = baselines.lower_row + 1

    if labels is None:
        labels = label_line(word, baselines, thresholds)
    label_of = labels.labelling.labels
    hits = []
    regions = label_components(BinaryRaster(zone))
    # A zone holds a few regions, so a Python loop beats array work here.
    for i, (top, _, bottom, _) in enumerate(regions.boxes.tolist()):
        if kind == "H":
            clears = baselines.upper_row - top > thresholds.marge_h
        else:
            clears = bottom + offset - baselines.lower_row > thresholds.marge_j
        if not clears:
            continue
        sl = regions.objects[i]
        row, col = _first_pixel(regions.labels, i + 1, sl)
        if int(label_of[row + offset, col]) in labels.dots:
            continue
        if kind == "J":
            row, col = _first_pixel(regions.labels, i + 1, sl, bottom)
        hits.append(FeatureHit(kind, (row + offset, col)))
    hits.sort(key=lambda h: h.location)
    return hits


def detect_poles(
    word: BinaryRaster,
    baselines: Baselines,
    thresholds: FeatureThresholds,
    labels: LineLabels | None = None,
):
    """Poles: ink regions whose top rises more than marge_h above the upper baseline.

    labels, when given, must be label_line(word, baselines, thresholds).
    """
    return _extremum_hits(word, baselines, thresholds, "H", labels)


def detect_jambs(
    word: BinaryRaster,
    baselines: Baselines,
    thresholds: FeatureThresholds,
    labels: LineLabels | None = None,
):
    """Jambs: ink regions whose bottom drops more than marge_j below the lower baseline.

    labels, when given, must be label_line(word, baselines, thresholds).
    """
    return _extremum_hits(word, baselines, thresholds, "J", labels)


def feature_zones(word: BinaryRaster) -> list[tuple[int, int]]:
    """Column intervals of letter zones, delimited by vertical projection minima.

    Blank columns split zones outright; inside an inked run, every strict
    local-minimum plateau marks a boundary at its center column, which
    belongs to neither neighboring zone. A plateau is a maximal run of equal
    column counts; it is a strict local minimum when the plateaus on both
    sides are higher, a blank neighbor or the image edge counting as 0, so a
    plateau at the edge of a run never marks a boundary.
    """
    counts = word.pixels.sum(axis=0)
    # Plateau k spans columns starts[k]..ends[k] at count level[k].
    starts = np.flatnonzero(np.diff(counts, prepend=-1))
    ends = np.append(starts[1:], counts.size) - 1
    level = counts[starts]
    cut = (np.append(0, level[:-1]) > level) & (np.append(level[1:], 0) > level)
    keep = counts > 0
    keep[(starts[cut] + ends[cut]) // 2] = False
    cols = np.flatnonzero(keep)
    if cols.size == 0:
        return []
    gaps = np.flatnonzero(np.diff(cols) > 1)
    return list(zip(cols[np.append(0, gaps + 1)].tolist(), cols[np.append(gaps, -1)].tolist()))


_TAGS = "IFDM"  # indexed by 2 * (left inked) + (right inked)


def detect_positions(
    word: BinaryRaster,
    baselines: Baselines,
    zone_bounds,
    neighborhood: int = 2,
) -> list[str]:
    """Tag each letter zone as start D, middle M, final F, or isolated I.

    Ink is counted in the body band within neighborhood columns just outside
    each zone edge. Reading right to left, a letter that continues leftward
    but not rightward starts a word part: left > 0 and right = 0 gives D,
    both sides inked gives M, right only gives F, neither gives I.
    """
    band = word.pixels[baselines.upper_row : baselines.lower_row + 1]
    # inked[c] counts the band columns before c that hold ink.
    inked = np.concatenate(([0], np.cumsum(band.any(axis=0))))
    width = word.width
    c0, c1 = np.asarray(zone_bounds, dtype=np.intp).reshape(-1, 2).T
    left = inked[c0] > inked[np.clip(c0 - neighborhood, 0, width)]
    right_start = np.minimum(c1 + 1, width)
    right = inked[np.clip(c1 + 1 + neighborhood, right_start, width)] > inked[right_start]
    return [_TAGS[i] for i in (2 * left + right).tolist()]


def _zone_index(zone_bounds, starts, col: int) -> int:
    """Index of the zone holding col, else of the nearest zone, the left one on ties.

    zone_bounds are disjoint and sorted, as feature_zones returns them, and
    starts lists their first columns.
    """
    i = bisect_right(starts, col) - 1
    if i < 0:
        return 0
    gap_left = col - zone_bounds[i][1]
    if gap_left > 0 and i + 1 < len(starts) and starts[i + 1] - col < gap_left:
        return i + 1
    return i


@lru_cache(maxsize=16)
def _search_offsets(row_reach: int, col_reach: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) offsets within the given reaches, nearest first by
    Chebyshev distance, in raster order on ties."""
    dr, dc = np.meshgrid(
        np.arange(-row_reach, row_reach + 1), np.arange(-col_reach, col_reach + 1), indexing="ij"
    )
    dr, dc = dr.ravel(), dc.ravel()
    order = np.argsort(np.maximum(np.abs(dr), np.abs(dc)), kind="stable")
    return dr[order], dc[order]


def _nearest_paws(label_image: np.ndarray, index_of_label: np.ndarray, locations, max_radius: int) -> list[int]:
    """Word-part index of the part pixel nearest to each location.

    index_of_label maps each label of label_image to its part index, -1 for
    none. Contour hits live on the expanded stage, so their pixel can sit in
    the halo up to the expansion radius away from the original ink. The
    nearest part pixel by Chebyshev distance wins, the first in raster order
    on ties. A location on a part pixel is its own answer; the windows of
    the others are gathered at once, their offsets ordered nearest first,
    so the first part pixel in a window row is the answer. Raises KeyError
    when a location has no part pixel within max_radius.
    """
    height, width = label_image.shape
    loc = np.asarray(locations, dtype=np.intp).reshape(-1, 2)
    paws = index_of_label[label_image[loc[:, 0], loc[:, 1]]]
    off = np.flatnonzero(paws < 0)
    if off.size:
        dr, dc = _search_offsets(min(max_radius, height - 1), min(max_radius, width - 1))
        rows = loc[off, :1] + dr
        cols = loc[off, 1:] + dc
        inside = (rows >= 0) & (rows < height) & (cols >= 0) & (cols < width)
        found = index_of_label[label_image[rows.clip(0, height - 1), cols.clip(0, width - 1)]]
        found[~inside] = -1
        paws[off] = found[np.arange(off.size), np.argmax(found >= 0, axis=1)]
    missing = np.flatnonzero(paws < 0)
    if missing.size:
        raise KeyError(f"no word part within {max_radius} of {tuple(loc[missing[0]].tolist())}")
    return paws.tolist()


_KIND_ORDER = {k: i for i, k in enumerate(FEATURE_KINDS)}


def extract_features(
    word: BinaryRaster,
    baselines: Baselines,
    thresholds: FeatureThresholds | None = None,
    dilation_radius: int = 1,
) -> FeatureSet:
    """Run the full per-word pipeline and consolidate the results.

    The ink is expanded so every contour closes, and the contour-bound
    primitives (dots and loops) are read off that expanded stage. Poles,
    jambs, word parts, and letter-zone positions measure the word exactly
    as given: expansion exists to close contours, and letting it thicken
    the body would smear one extra body row into the upper zone, fusing
    separate ascenders. Radius 0 skips the expansion entirely.
    """
    t = thresholds if thresholds is not None else FeatureThresholds.from_baselines(baselines)
    labels = label_line(word, baselines, t)
    if labels.labelling.count == 0:
        raise NoInkError("cannot extract features from a blank image")
    stage = dilate(word, dilation_radius)
    # Only chains a dot or loop test can keep are walked; see trace_contours.
    # Radius 0 leaves the word as it is, so its labelling serves the walk too.
    chains = trace_contours(
        stage,
        band=(baselines.upper_row, baselines.lower_row),
        labelling=labels.labelling if stage is word else None,
    )

    p_hits, q_hits = detect_diacritics(chains, baselines, t)
    b_hits = detect_loops(chains, baselines, t)
    dropped = sum(
        1 for ch in _band_holes(chains, baselines) if ch.length >= t.diacritic_max_contour
    )
    h_hits = detect_poles(word, baselines, t, labels)
    j_hits = detect_jambs(word, baselines, t, labels)

    paws = segment_paws(word, baselines=baselines, labelling=labels.labelling)
    # Word-part index of every label, -1 for the background.
    index_of_label = np.full(labels.labelling.count + 1, -1)
    for paw in paws:
        index_of_label[paw.labels] = paw.order_index

    zones = feature_zones(word)
    tags = detect_positions(word, baselines, zones)
    starts = [c0 for c0, _ in zones]

    found = (*h_hits, *j_hits, *p_hits, *q_hits, *b_hits)
    paw_of = _nearest_paws(
        labels.labelling.labels, index_of_label, [hit.location for hit in found], dilation_radius
    )
    hits = []
    for hit, paw in zip(found, paw_of):
        position = tags[_zone_index(zones, starts, hit.location[1])]
        hits.append(FeatureHit(hit.kind, hit.location, paw, position))
    hits.sort(key=lambda h: (_KIND_ORDER[h.kind], h.location))

    counts = {k: sum(1 for h in hits if h.kind == k) for k in FEATURE_KINDS}
    return FeatureSet(
        counts=counts,
        nb_paws=len(paws),
        hits=tuple(hits),
        dropped_oversize_loops=dropped,
    )


def combine_feature_sets(sets) -> FeatureSet:
    """Sum counts, word-part counts, and hit lists of several feature sets."""
    counts = {k: 0 for k in FEATURE_KINDS}
    nb_paws = 0
    hits: list[FeatureHit] = []
    dropped = 0
    for fs in sets:
        for k in FEATURE_KINDS:
            counts[k] += fs.counts[k]
        nb_paws += fs.nb_paws
        hits.extend(fs.hits)
        dropped += fs.dropped_oversize_loops
    return FeatureSet(counts=counts, nb_paws=nb_paws, hits=tuple(hits), dropped_oversize_loops=dropped)
