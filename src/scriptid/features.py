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
detached dot can never double as a pole or a jamb.

Pages are analysed in one pass, not line by line. The text lines of every
page are stacked in one buffer with blank rows between them, at least one
and at least the expansion radius clamped at the longest side of any line,
left-aligned and padded with blank columns to the widest page. The
expansion is clipped to each line's rows and its page's columns. No
8-connected region, hole, expansion halo or nearest-part window of one line
can then reach another, and every line keeps the borders it would have as a
crop of its own. geometry builds every labelling and walk, each once over
the buffer: the raw ink and the ink with every line's band rows blanked
from one search for runs and links and one join, the expanded stage and its
holes in the trace from one search, with a bound on each chain's length,
and the outer-chain lengths of the dot rule. This module only decides from
their runs, box rows, bounds and lengths; word parts alone read the raw
ink's box columns. Both column tables, of each line's ink and of its band
rows' ink, are summed from the raw runs, every line's columns laid in one
row between blank entries.
A label's line is the line of its top row, and every stage runs on the
labels of all lines at once, each against its own line's baselines and
margins.
A single word is the one-line case of the same code.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import geometry
from .geometry import Labelling, trace_contours
from .layout import _BLOCK, Baselines, LineBand, NoInkError, _group_parts
from .raster import DEFAULT_DILATION_RADIUS, BinaryRaster, _require_binary, _require_integers, dilate

__all__ = [
    "FEATURE_KINDS",
    "FeatureThresholds",
    "FeatureHit",
    "FeatureSet",
    "detect_poles",
    "detect_jambs",
    "detect_diacritics",
    "detect_loops",
    "extract_features",
    "combine_feature_sets",
]

FEATURE_KINDS = ("H", "J", "P", "Q", "B")
# Contour points at which a closed chain is too long to be a dot or a loop.
DEFAULT_CONTOUR_CAP = 60


@dataclass(frozen=True)
class FeatureThresholds:
    """Pole/jamb margins in pixels plus the diacritic contour cap in points, integers below 2**63."""

    marge_h: int
    marge_j: int
    diacritic_max_contour: int = DEFAULT_CONTOUR_CAP

    def __post_init__(self):
        _require_integers(vars(self))
        if not 0 < self.diacritic_max_contour < 2**63:
            raise ValueError("diacritic_max_contour must lie in 1 .. 2**63 - 1")
        if not (0 <= self.marge_h < 2**63 and 0 <= self.marge_j < 2**63):
            raise ValueError("marge_h and marge_j must lie in 0 .. 2**63 - 1")

    @classmethod
    def from_baselines(cls, baselines: Baselines, diacritic_max_contour: int = DEFAULT_CONTOUR_CAP):
        """Margins computed once per line: marge_h = 2 * band height, marge_j = band height."""
        h = baselines.band_height
        return cls(marge_h=2 * h, marge_j=h, diacritic_max_contour=diacritic_max_contour)


@dataclass(frozen=True)
class FeatureHit:
    """One detected primitive with a representative pixel.

    paw_index and position, the letter zone's tag D, M, F or I, stay None
    until extract_features assigns them; the detect_* functions leave them.
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
        lo, hi = chain.rows
        if hi < baselines.upper_row:
            kind, hits = "P", p_hits
        elif lo > baselines.lower_row:
            kind, hits = "Q", q_hits
        else:
            continue
        if chain._under(thresholds.diacritic_max_contour):
            hits.append(FeatureHit(kind, chain.start))
    return p_hits, q_hits


def detect_loops(chains, baselines: Baselines, thresholds: FeatureThresholds):
    """Find loops: closed hole boundaries under the cap whose rows reach
    into the body band.

    Holes at or over the cap are not loops; extract_features tallies them
    as dropped_oversize_loops.
    """
    return [
        FeatureHit("B", chain.start)
        for chain in chains
        if chain.polarity == "inner" and chain.closed
        and chain.rows[1] >= baselines.upper_row and chain.rows[0] <= baselines.lower_row
        and chain._under(thresholds.diacritic_max_contour)
    ]


# Body-band columns read on each side of a letter zone for its position tag,
# and the blank entries laid before each line's columns; see _Lines.column_tables.
_NEIGHBORHOOD = 2


def _gap(radius: int) -> int:
    """Blank rows stacked after each line expanded by radius, so no halo reaches the next line."""
    return max(1, radius)


class _Lines:
    """Text lines of one or several rasters stacked in a buffer, left-aligned
    and as wide as the widest raster, each followed by blank gap rows.

    radius is the expansion radius clamped at the longest side of any line,
    past which expansion fills each inked line whole, and _gap(radius) blank
    rows follow each line, so no halo reaches the next one.
    Row r of the buffer belongs to line line[r]; a line's rows and the gap
    rows after it carry its key. Line k owns rows starts[k] to end - 1 and
    the columns below width, spans[k] = (starts[k], end, width) in Python
    ints, and in_band marks the band rows. baselines, upper and lower hold
    each line's baselines in buffer rows, marge_h, marge_j and cap its
    thresholds; a buffer row of line k plus shift[k] is its raster's row,
    and stride steps from line to line in the laid column tables.
    raw labels the ink, raw_line gives each raw label's line, and zones
    labels the ink with every line's band rows blanked, whose regions each
    lie wholly in one outer zone. detached says, per raw label, whether it
    lies wholly above or below its line's band: a detached mark of word
    parts, and a dot candidate of the pole and jamb scan.
    """

    def __init__(self, inks, bands, baselines, thresholds, radius: int = 0):
        self.thresholds = thresholds
        heights, widths = [band.bottom_row - band.top_row + 1 for band in bands], [ink.shape[1] for ink in inks]
        self.radius = min(radius, max(max(heights), max(widths)))
        gap = _gap(self.radius)
        size = sum(heights) + gap * (len(heights) - 1)
        self.ink = np.zeros((size, max(widths)), dtype=bool)
        self.stride = self.ink.shape[1] + _NEIGHBORHOOD
        self.line, self.in_band = np.empty(size, dtype=np.intp), np.zeros(size, dtype=bool)
        fields, self.spans, start = [], [], 0
        for k, (ink, band, b, t, height, width) in enumerate(zip(inks, bands, baselines, thresholds, heights, widths)):
            if band.bottom_row >= ink.shape[0]:
                raise ValueError(f"{band} reaches past its page's last row, {ink.shape[0] - 1}")
            end, shift = start + height, band.top_row - start
            upper, lower = b.upper_row - shift, b.lower_row - shift
            self.ink[start:end, :width] = ink[band.top_row : band.bottom_row + 1]
            self.line[start : end + gap] = k
            # The band, clipped to the line's rows and gap rows.
            self.in_band[max(upper, start) : min(lower + 1, end + gap)] = True
            self.spans.append((start, end, width))
            fields.append((start, shift, upper, lower, t.marge_h, t.marge_j, t.diacritic_max_contour))
            start = end + gap
        self.starts, self.shift, self.upper, self.lower, self.marge_h, self.marge_j, self.cap = np.array(fields).T
        self.baselines = [Baselines(upper, lower) for _, _, upper, lower, *_ in fields]
        self.raw, self.zones = geometry._label_and_zones(self.ink, self.in_band)
        self.raw_line = self.line[self.raw.box_rows[0]]
        self.detached = self.raw.beyond(self.upper[self.raw_line], self.lower[self.raw_line])

    def poles_and_jambs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Kinds (0 pole, 1 jamb), rows and columns of every line's pole and
        jamb tips, one per region of zones that clears its line's margin and
        is not a detached dot.

        Margins are never negative, so a top row that clears the pole margin
        also puts the region in the upper zone, and a bottom row that clears
        the jamb margin in the lower one; no region clears both.

        The raw component at a clearing region's first raster-order pixel
        decides the dot rule. When that component lies wholly above or below
        its line's band, blanking the band left it whole, so the region is
        that component and the pixel starts its outer chain. The region is
        then a dot, and no tip, when that chain, walked on the raw ink, is
        shorter than the contour cap. This is the only place a region is
        decided to be a dot.

        The first pixel is also the pole tip; a jamb tip is the first pixel
        of its bottom row, which starts the region's first run on that row,
        since runs come in raster order.
        """
        zones, raw = self.zones, self.raw
        top, bottom = zones.box_rows
        line = self.line[top]
        pole = self.upper[line] - top > self.marge_h[line]
        clears = (pole | (bottom - self.lower[line] > self.marge_j[line])).nonzero()[0]
        rows, cols = zones.first_pixels(clears)
        dots = self.detached[raw.label_at(rows, cols) - 1]
        keep = ~dots
        keep[dots] = geometry._outer_lengths(self.ink, rows[dots], cols[dots]) >= self.cap[line[clears[dots]]]
        jamb = ~pole[clears]
        on_bottom = (zones.rows == bottom[zones.run_labels - 1]).nonzero()[0]
        # first[k] is the first run of label k + 1 on its bottom row, which every region has.
        first = np.array(zones.rows.size).repeat(zones.count)
        np.minimum.at(first, zones.run_labels[on_bottom] - 1, on_bottom)
        tips = first[clears[jamb]]
        rows[jamb], cols[jamb] = zones.rows[tips], zones.starts[tips]
        return jamb[keep].astype(np.intp), rows[keep], cols[keep]

    def dots_and_loops(self):
        """Kinds (2 P, 3 Q, 4 B), rows and columns of every line's dots and
        loops on the stacked stage, plus each line's count of holes dropped
        for reaching the cap.

        One trace of the stage, keyed by row to each line's band, keeps only
        the chains a dot or loop test can accept; each line's chains then
        meet that line's tests, which walk a chain only when its length
        bound reaches the cap, on its slices of outer and of inner chains.
        Every inner chain the trace keeps reaches its line's band, so a
        line's kept inner chains that are not loops are its dropped holes.
        """
        chains = trace_contours(self.stage(), band=(self.upper[self.line], self.lower[self.line]))
        # Outer chains, then inner ones, each in raster order of their start:
        # of n lines, line k's are entries ends[k] and ends[n + k] on.
        n = len(self.thresholds)
        key = self.line[[chain.start[0] for chain in chains]]
        key[bisect_left(chains, True, key=lambda chain: chain.polarity == "inner") :] += n
        ends = key.searchsorted(np.arange(2 * n + 1)).tolist()
        found, dropped = [], []
        for k, (b, t) in enumerate(zip(self.baselines, self.thresholds)):
            p_hits, q_hits = detect_diacritics(chains[ends[k] : ends[k + 1]], b, t)
            holes = chains[ends[n + k] : ends[n + k + 1]]
            loops = detect_loops(holes, b, t)
            for hit in (*p_hits, *q_hits, *loops):
                found.extend((_KIND_ORDER[hit.kind], *hit.location))
            dropped.append(len(holes) - len(loops))
        kinds, rows, cols = np.array(found, dtype=np.intp).reshape(-1, 3).T
        return kinds, rows, cols, dropped

    def stage(self) -> BinaryRaster:
        """The ink of every line expanded by radius and clipped to the line's
        rows and its raster's columns, as if each line were expanded alone:
        the gap rows and the padding columns stay blank."""
        stage = dilate(BinaryRaster._wrap(self.ink), self.radius).pixels.copy()
        for start, end, width in self.spans:
            stage[start:end, width:] = False
            stage[end : end + _gap(self.radius)] = False
        return BinaryRaster._wrap(stage)

    def column_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Per line and column, the count of ink pixels of that line, and of
        its band rows alone, each as one laid row: column c of line k is
        entry k * stride + _NEIGHBORHOOD + c, where stride is the buffer
        width plus _NEIGHBORHOOD, so every line follows _NEIGHBORHOOD blank
        entries and the row ends with _NEIGHBORHOOD more. They are summed
        from the raw runs, keyed by whether the row is a band row: each run
        adds one at its first entry and takes one away past its last. A
        line's table is the sum of its band rows' table and its other rows'."""
        rows, starts, ends = self.raw.rows, self.raw.starts, self.raw.ends
        size = len(self.starts) * self.stride + _NEIGHBORHOOD
        key = self.in_band[rows] * size + self.line[rows] * self.stride + _NEIGHBORHOOD
        steps = np.bincount(key + starts, minlength=2 * size) - np.bincount(key + ends + 1, minlength=2 * size)
        tables = steps.reshape(2, size).cumsum(axis=1)
        tables[0] += tables[1]
        return tables[0], tables[1]


def _scan_hits(word: BinaryRaster, baselines: Baselines, thresholds: FeatureThresholds, kind: int):
    lines = _Lines([word.pixels], [LineBand(0, word.height - 1)], [baselines], [thresholds])
    kinds, rows, cols = lines.poles_and_jambs()
    pick = kinds == kind
    tips = sorted(zip(rows[pick].tolist(), cols[pick].tolist()))
    return [FeatureHit(FEATURE_KINDS[kind], tip) for tip in tips]


def detect_poles(word: BinaryRaster, baselines: Baselines, thresholds: FeatureThresholds):
    """Poles: ink regions whose top rises more than marge_h above the upper
    baseline, detached dots excepted; hits sorted by location."""
    _require_binary(word, "detect_poles")
    return _scan_hits(word, baselines, thresholds, 0)


def detect_jambs(word: BinaryRaster, baselines: Baselines, thresholds: FeatureThresholds):
    """Jambs: ink regions whose bottom drops more than marge_j below the
    lower baseline, detached dots excepted; hits sorted by location."""
    _require_binary(word, "detect_jambs")
    return _scan_hits(word, baselines, thresholds, 1)


def _letter_zones(laid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Letter zones of every line of laid, a laid row of column ink counts
    (see _Lines.column_tables): first and last entry arrays, sorted.

    Zones are delimited by vertical projection minima. Blank columns split
    zones outright; inside an inked run, every strict local-minimum plateau
    marks a boundary at its center column, which belongs to neither
    neighboring zone. A plateau is a maximal run of equal column counts; it
    is a strict local minimum when the plateaus on both sides are higher, a
    blank neighbor or the line's edge counting as 0, so a plateau at the
    edge of a run never marks a boundary. The blank entries around each
    line split its zones from the next line's and count as its edges, so
    one pass over the row finds every line's zones.
    """
    # Plateau k spans entries starts[k]..ends[k] at count level[k]: step[e]
    # marks the edge before entry e, where the count changes or the row
    # ends. The first and last plateaus are blank, and no blank plateau is
    # a strict minimum.
    step = np.empty(laid.size + 1, dtype=bool)
    step[[0, -1]], step[1:-1] = True, laid[1:] != laid[:-1]
    starts, ends = step[:-1].nonzero()[0], step[1:].nonzero()[0]
    level = laid[starts]
    cut = ((level[:-2] > level[1:-1]) & (level[2:] > level[1:-1])).nonzero()[0] + 1
    keep = (laid > 0).view(np.int8)
    keep[(starts[cut] + ends[cut]) // 2] = 0
    # A zone is a maximal run of kept entries.
    edges = keep[1:] - keep[:-1]
    return (edges == 1).nonzero()[0] + 1, (edges == -1).nonzero()[0]


_TAGS = "IFDM"  # indexed by 2 * (left inked) + (right inked)


def _position_codes(band_columns: np.ndarray, first, last) -> np.ndarray:
    """_TAGS index of each zone first..last, entries of band_columns, a laid
    row of whether each column holds body-band ink.

    A tag reads the band within _NEIGHBORHOOD entries outside each zone
    edge; the blank entries between lines keep every window on its own
    line. Reading right to left, a letter inked leftward only starts a word
    part, D; both sides inked give M, right only F, and neither I."""
    # inked[e] counts the entries before e that hold band ink.
    inked = np.zeros(band_columns.size + 1, dtype=np.intp)
    band_columns.cumsum(out=inked[1:])
    left = inked[first] > inked[first - _NEIGHBORHOOD]
    right = inked[last + 1 + _NEIGHBORHOOD] > inked[last + 1]
    return 2 * left + right


def _zone_index(first, last, stride: int, entries) -> np.ndarray:
    """Index of the zone holding each entry of a laid row with this stride,
    else of the nearest zone of the entry's line, the left one on ties.

    Zones are sorted, as _letter_zones gives them, and every line asked
    about has one. Each zone owns the entries from just past the midpoint
    of the gap before it, a line's first zone from the line's first blank
    entry, so one search of the owned starts finds them all.
    """
    start = first - first % stride
    same = start[1:] == start[:-1]
    start[1:][same] = (first[1:][same] + last[:-1][same]) // 2 + 1
    return start.searchsorted(entries, side="right") - 1


def _nearest_paws(ink: np.ndarray, labelling: Labelling, part: np.ndarray, locations, max_radius: int) -> np.ndarray:
    """Word-part index of the ink pixel nearest to each location, where
    labelling labels ink and part[i] is the part of label i + 1.

    Contour hits live on the expanded stage, so their pixel can sit in the
    halo up to the expansion radius away from the original ink. The nearest
    ink pixel by Chebyshev distance wins, the first in raster order on ties,
    so a location on ink is its own. Windows are gathered in blocks of at
    most _BLOCK pixels (one window when it is larger), their offsets built
    on each call. Its part is read off the runs. Every location has ink
    within max_radius: each is a pole or jamb tip on the ink or a chain
    start on the stage, the ink dilated by max_radius.
    """
    height, width = ink.shape
    row_reach, col_reach = min(max_radius, height - 1), min(max_radius, width - 1)
    dr, dc = np.divmod(np.arange((2 * row_reach + 1) * (2 * col_reach + 1), dtype=np.int32), 2 * col_reach + 1)
    dr, dc = dr - row_reach, dc - col_reach
    distance = np.maximum(np.abs(dr), np.abs(dc))
    loc = np.asarray(locations, dtype=np.intp).reshape(-1, 2)
    nearest = np.empty((2, loc.shape[0]), dtype=np.intp)
    block = max(1, _BLOCK // dr.size)
    for lo in range(0, loc.shape[0], block):
        rows, cols = loc[lo : lo + block, :1] + dr, loc[lo : lo + block, 1:] + dc
        found = (rows >= 0) & (rows < height) & (cols >= 0) & (cols < width)
        found[found] = ink[rows[found], cols[found]]
        pick = np.arange(rows.shape[0]), np.where(found, distance, distance.size).argmin(axis=1)
        nearest[:, lo : lo + block] = rows[pick], cols[pick]
    return part[labelling.label_at(*nearest) - 1]


_KIND_ORDER = {k: i for i, k in enumerate(FEATURE_KINDS)}


def extract_features(
    word: BinaryRaster,
    baselines,
    thresholds=None,
    dilation_radius: int = DEFAULT_DILATION_RADIUS,
    bands=None,
):
    """Run the full pipeline on a word, or on every text line of several pages at once.

    The ink is expanded so every contour closes, and the contour-bound
    primitives (dots and loops) are read off that expanded stage. Poles,
    jambs, word parts, and letter-zone positions measure the word exactly
    as given: expansion exists to close contours, and letting it thicken
    the body would smear one extra body row into the upper zone, fusing
    separate ascenders. Radius 0 skips the expansion entirely.

    Without bands, thresholds None derives them from the baselines. bands,
    when given, makes word a sequence of pages and holds, per page, a
    sequence of its LineBands. baselines and thresholds, both required,
    then hold, per page, one entry per band: baselines in page rows with
    each upper baseline at or below its band's top row, and one
    FeatureThresholds. Each band is measured as if cropped from its
    page, its expansion clipped to its rows and its page's columns. One
    list comes back per page, holding one FeatureSet per band, its hits in
    page coordinates and its word parts numbered across the page in band
    order; a band reaching past its page's last row raises ValueError.
    Without bands the word is one band and its FeatureSet is returned. A
    word or page that is not a BinaryRaster raises TypeError, and so does a
    dilation_radius that is not an integer; a negative one raises ValueError.
    """
    _require_integers({"dilation_radius": dilation_radius})
    if dilation_radius < 0:
        raise ValueError(f"dilation_radius must be >= 0, got {dilation_radius}")
    single = bands is None
    if single:
        thresholds = thresholds or FeatureThresholds.from_baselines(baselines)
        bands, baselines, thresholds = [[LineBand(0, word.height - 1)]], [[baselines]], [[thresholds]]
        word = [word]
    for page in word:
        _require_binary(page, "extract_features")
    # Every line of every page, page by page: its page's ink, band, baselines and thresholds.
    flat = [
        (page.pixels, band, b, t)
        for page, *per_line in zip(word, bands, baselines, thresholds, strict=True)
        for band, b, t in zip(*per_line, strict=True)
    ]
    per_page = [len(page_bands) for page_bands in bands]
    if not flat:
        return [[] for _ in per_page]
    lines = _Lines(*zip(*flat), dilation_radius)
    columns, band_columns = lines.column_tables()
    if not np.logical_and.reduce(np.logical_or.reduce(columns[_NEIGHBORHOOD:].reshape(-1, lines.stride), axis=1)):
        raise NoInkError("cannot extract features from a blank image")
    raw, raw_line = lines.raw, lines.raw_line
    # Only chains a dot or loop test can accept are kept; see trace_contours.
    *dots, dropped = lines.dots_and_loops()
    kinds, rows, cols = np.concatenate((lines.poles_and_jambs(), dots), axis=1)
    line = lines.line[rows]

    # Centroids are taken in line rows, as in a crop of the line.
    part, _, part_line = _group_parts(raw, lines.detached, raw_line, lines.starts[raw_line])
    paws = _nearest_paws(lines.ink, raw, part, np.array((rows, cols)).T, lines.radius)
    # Parts are numbered line by line across the buffer; each page counts
    # from the first part of its first line.
    line_parts = np.bincount(part_line, minlength=len(flat))
    page_lines = np.array(per_page)
    page_first_line = (page_lines.cumsum() - page_lines).repeat(page_lines)
    paws -= (line_parts.cumsum() - line_parts)[page_first_line][line]

    first, last = _letter_zones(columns)
    codes = _position_codes(band_columns > 0, first, last)
    positions = codes[_zone_index(first, last, lines.stride, line * lines.stride + _NEIGHBORHOOD + cols)]

    # One row per hit, sorted by line, kind and location: the hits of line
    # k and kind j are entries ends[5k + j] to ends[5k + j + 1] - 1.
    table = np.array((line, kinds, rows, cols, rows + lines.shift[line], paws, positions))
    line, kinds, _, cols, rows, paws, positions = table[:, np.lexsort(table[3::-1])]
    ends = (line * len(FEATURE_KINDS) + kinds).searchsorted(np.arange(len(flat) * len(FEATURE_KINDS) + 1))
    kinds, tags = map(FEATURE_KINDS.__getitem__, kinds.tolist()), map(_TAGS.__getitem__, positions.tolist())
    hits = tuple(map(FeatureHit, kinds, zip(rows.tolist(), cols.tolist()), paws.tolist(), tags))
    counts = (ends[1:] - ends[:-1]).reshape(-1, len(FEATURE_KINDS)).tolist()
    bounds = ends[:: len(FEATURE_KINDS)].tolist()
    sets = [
        FeatureSet(counts=dict(zip(FEATURE_KINDS, c)), nb_paws=n, hits=hits[lo:hi], dropped_oversize_loops=d)
        for c, n, lo, hi, d in zip(counts, line_parts.tolist(), bounds, bounds[1:], dropped)
    ]
    if single:
        return sets[0]
    ends = list(accumulate(per_page))
    return [sets[lo:hi] for lo, hi in zip([0, *ends], ends)]


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
