"""Independent brute-force oracles used to check the library's fast paths.

Everything here is deliberately naive pure Python so its correctness is
obvious: BFS flood fills for regions and holes, direct neighborhood
enumeration for dilation, a probe-by-probe Moore walk for contours and
the dot test, the library's own walk stopped by a set of every state it
has met, a mark-by-mark grouping of word parts, and column-by-column
loops for letter zones, positions, zone lookup and the pole/jamb region
scan. The rest use scipy, which the library itself does not import: a
second dilation reference, binary_dilation with a square element; the
pole/jamb scan, which labels its zone with ndimage.label; and the
references for the run labeller, ndimage.label with find_objects for ink
regions and a labelling of the framed background for holes. The worst-case
rasters for the run labeller are here too, and every 4×4 raster tiled
into one.

The page oracle runs the library's own single-word extraction once per
text line, on each line cropped from the page, which is how pages were
analysed before one pass covered every line.

The portable-map oracle decodes byte by byte, reading whitespace and '#'
comments as it meets them; the library's decoder must return the same
raster, or raise the same exception with the same message, on any input.
The plain graymap encoder's oracle formats one sample at a time.

The report oracle writes a CLI report's JSON as the CLI did before it had
its own encoder: dataclasses through dataclasses.asdict, floats rounded by
a second walk, then json.dumps with indent=2.

The column-table oracle sums the stacked buffer's pixels line by line
with np.add.reduceat, as the library did before it summed the raw runs.

The projection profiles, the component list and the word-part pixel
reader near the end are test helpers the pipeline does not use. The
adaptors after them run the pipeline's private stages on one word or line,
as the tests call them: paws_of groups a line's word parts with the
labeller and _group_parts, letter_zones_of finds its letter zones with
_letter_zones, and positions_of tags zones with _position_codes. Both lay
the word out as the page pass lays one line: its column counts, or its
band columns, between _NEIGHBORHOOD blank entries on each side, so an
entry is a column plus _NEIGHBORHOOD. The
component list and every test that needs a label image read scipy_label,
which numbers regions in raster order of their first pixel, as the
library's labelling does; the labelling tests check that they agree.
"""

import json
import math
from collections import deque
from dataclasses import asdict, dataclass, is_dataclass, replace

import numpy as np
from hypothesis import example
from scipy import ndimage

from scriptid.features import (
    _NEIGHBORHOOD,
    _TAGS,
    FeatureHit,
    FeatureThresholds,
    _letter_zones,
    _position_codes,
    combine_feature_sets,
    extract_features,
)
from scriptid.geometry import _label_and_holes
from scriptid.layout import Baselines, _group_parts, estimate_baselines, extract_lines
from scriptid.pipeline import DEFAULT_PARAMS, LineAnalysis, PageAnalysis
from scriptid.raster import BinaryRaster, GrayRaster, PnmHeaderError, PnmPayloadError


def bfs_regions(mask, connectivity=8):
    """Label a boolean array by BFS; returns a list of pixel-coordinate sets."""
    mask = np.asarray(mask, dtype=bool)
    height, width = mask.shape
    if connectivity == 8:
        neighbors = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    else:
        neighbors = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    seen = np.zeros_like(mask)
    regions = []
    for r0 in range(height):
        for c0 in range(width):
            if not mask[r0, c0] or seen[r0, c0]:
                continue
            queue = deque([(r0, c0)])
            seen[r0, c0] = True
            region = set()
            while queue:
                r, c = queue.popleft()
                region.add((r, c))
                for dr, dc in neighbors:
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < height and 0 <= cc < width and mask[rr, cc] and not seen[rr, cc]:
                        seen[rr, cc] = True
                        queue.append((rr, cc))
            regions.append(region)
    return regions


def count_components(mask):
    """Number of 8-connected ink regions."""
    return len(bfs_regions(mask, connectivity=8))


def hole_regions(mask):
    """4-connected background regions not touching the border."""
    mask = np.asarray(mask, dtype=bool)
    height, width = mask.shape
    return [
        region
        for region in bfs_regions(~mask, connectivity=4)
        if not any(r in (0, height - 1) or c in (0, width - 1) for r, c in region)
    ]


def count_holes(mask):
    """Number of 4-connected background regions not touching the border."""
    return len(hole_regions(mask))


def brute_dilate(mask, radius):
    """Union of Chebyshev balls, enumerated cell by cell."""
    mask = np.asarray(mask, dtype=bool)
    height, width = mask.shape
    out = np.zeros_like(mask)
    for r, c in np.argwhere(mask):
        r0, r1 = max(0, r - radius), min(height, r + radius + 1)
        c0, c1 = max(0, c - radius), min(width, c + radius + 1)
        out[r0:r1, c0:c1] = True
    return out


def scipy_dilate(mask, radius):
    """Binary dilation by a (2r+1)-square structuring element, outside the
    raster counted as background."""
    mask = np.asarray(mask, dtype=bool)
    if radius == 0:
        return mask.copy()
    side = 2 * radius + 1
    return ndimage.binary_dilation(mask, structure=np.ones((side, side), dtype=bool))


def label_runs(ink):
    """The program's run labelling of the ink's 8-connected regions, with
    their edge counts: the ink labelling that comes with its holes."""
    return _label_and_holes(ink)[0]


def gap_links(ink):
    """Every pair of gaps, the background runs between two ink runs of one
    row, in consecutive rows whose columns overlap: the (row, first col,
    last col) of the upper gap and of the lower, sorted. Found cell by
    cell, with no run search."""
    gaps = []
    for r, row in enumerate(np.asarray(ink, dtype=bool).tolist()):
        inked = [c for c, cell in enumerate(row) if cell]
        for c in range(inked[0] + 1, inked[-1]) if inked else ():
            if not row[c] and row[c - 1]:
                end = row.index(True, c)
                gaps.append((r, c, end - 1))
    return sorted((a, b) for a in gaps for b in gaps if b[0] == a[0] + 1 and a[1] <= b[2] and b[1] <= a[2])


def scipy_label(mask):
    """8-connected ink labels and each label's inclusive (top, left, bottom,
    right) box, by ndimage.label and find_objects."""
    labels, _ = ndimage.label(np.asarray(mask, dtype=bool), structure=np.ones((3, 3), dtype=int))
    boxes = [(s[0].start, s[1].start, s[0].stop - 1, s[1].stop - 1) for s in ndimage.find_objects(labels)]
    return labels, boxes


def scipy_holes(mask):
    """(rows, cols) of the first raster-order pixel and the bottom row of
    every hole, in raster order of that pixel, from one 4-connected
    labelling of the background framed by a one-pixel border of background:
    the frame joins every region touching the border into label 1, so the
    holes are the labels from 2 up."""
    mask = np.asarray(mask, dtype=bool)
    framed = np.pad(~mask, 1, constant_values=True)
    labels, count = ndimage.label(framed, structure=ndimage.generate_binary_structure(2, 1))
    rows, cols = np.nonzero(labels > 1)
    labs = labels[rows, cols]
    _, first = np.unique(labs, return_index=True)
    bottom = np.zeros(count + 1, dtype=np.intp)
    np.maximum.at(bottom, labs, rows)
    return rows[first] - 1, cols[first] - 1, bottom[2:] - 1


def scipy_hole_labelling(mask):
    """The holes of the mask as a Labelling's runs: a dict of rows, starts,
    ends, run_labels and first_runs, and boxes, each hole's inclusive (top,
    left, bottom, right) bounds, from one 4-connected ndimage.label of the
    background. Regions touching the border are dropped and the rest
    numbered from 1 in raster order of their first pixel. Two holes never
    touch in a row, so a run is a maximal row segment of hole pixels."""
    mask = np.asarray(mask, dtype=bool)
    labels, count = ndimage.label(~mask, structure=ndimage.generate_binary_structure(2, 1))
    border = np.concatenate((labels[0], labels[-1], labels[:, 0], labels[:, -1]))
    ids, first = np.unique(labels, return_index=True)
    keep = (ids > 0) & ~np.isin(ids, border)
    number = np.zeros(count + 1, dtype=np.intp)
    number[ids[keep][np.argsort(first[keep])]] = np.arange(1, keep.sum() + 1)
    holes = number[labels]
    inside = np.pad(holes > 0, ((0, 0), (1, 1)))
    rows, starts = np.nonzero(inside[:, 1:-1] & ~inside[:, :-2])
    _, ends = np.nonzero(inside[:, 1:-1] & ~inside[:, 2:])
    run_labels = holes[rows, starts]
    _, first_runs = np.unique(run_labels, return_index=True)
    boxes = [(s[0].start, s[1].start, s[0].stop - 1, s[1].stop - 1) for s in ndimage.find_objects(holes)]
    runs = {"rows": rows, "starts": starts, "ends": ends, "run_labels": run_labels, "first_runs": first_runs}
    return runs, np.array(boxes, dtype=np.intp).reshape(-1, 4)


# Gaps between ink runs that reach the outside only through a border row,
# only through the background before or after the runs of the row above or
# below, or only through a blank row inside the box; gaps that meet the
# outside only diagonally, which are still holes; and an island in a hole.
HOLE_CASES = (
    ("10101", "10101", "11111"),
    ("11111", "10101", "10101"),
    ("11111", "00011", "10101", "11111"),
    ("11111", "11000", "10101", "11111"),
    ("11111", "10101", "00011", "11111"),
    ("11111", "10101", "11000", "11111"),
    ("1111111", "1010101", "0000000", "1010101", "1111111"),
    ("11111", "10111", "11011", "11101", "11110"),
    ("01110", "10001", "10101", "10001", "01110"),
    ("1111111", "1000001", "1001001", "1000001", "1111111"),
)


def raster_of(rows):
    """A raster from equal-length strings, '1' marking ink and '0' background."""
    if set("".join(rows)) - set("01"):
        raise ValueError("raster rows hold only '0' and '1'")
    return BinaryRaster([[ch == "1" for ch in row] for row in rows])


def with_hole_cases(test):
    """A Hypothesis test of one raster, given every HOLE_CASES raster as an
    explicit example."""
    for rows in HOLE_CASES:
        test = example(raster_of(rows))(test)
    return test


def worst_case_rasters(height=400, width=600):
    """Rasters that are hard for run labelling: a checkerboard, whose runs
    are single pixels joined only diagonally; 50% noise; a comb of one-pixel
    teeth joined by its bottom row; and a square spiral, one region whose
    runs chain from the border to the centre. Every 4×4 raster, tiled,
    comes at its own fixed size."""
    rows, cols = np.indices((height, width))
    comb = cols % 2 == 0
    comb[-1] = True
    spiral = np.zeros((height, width), dtype=bool)
    t, l, b, r = 0, 0, height - 1, width - 1
    while t <= b and l <= r:
        # Each ring starts where the left side of the one outside it ends.
        spiral[t, max(0, l - 2) : r + 1] = True
        spiral[t : b + 1, r] = True
        if t + 2 <= b:
            spiral[b, l : r + 1] = True
            spiral[t + 2 : b + 1, l] = True
        t, l, b, r = t + 2, l + 2, b - 2, r - 2
    return {
        "every_4x4": every_4x4_raster(),
        "checkerboard": (rows + cols) % 2 == 0,
        "noise": np.random.default_rng(2008).random((height, width)) < 0.5,
        "comb": comb,
        "spiral": spiral,
    }


def nearest_labelled(label_map, location, max_radius):
    """Value of the nearest cell >= 0 within max_radius by Chebyshev distance.

    Ties go to the first cell in raster order; None when no cell is in reach.
    """
    best = None
    for (r, c), value in np.ndenumerate(label_map):
        if value < 0:
            continue
        d = max(abs(r - location[0]), abs(c - location[1]))
        if d <= max_radius and (best is None or d < best[0]):
            best = (d, int(value))
    return None if best is None else best[1]


# Clockwise Moore neighborhood on screen coordinates, starting east.
_MOORE = ((0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1))
_MOORE_INDEX = {d: i for i, d in enumerate(_MOORE)}


def reference_trace(ink, start, back):
    """Moore neighbor walk from start, entered from the background pixel back.

    Scans the 8-neighborhood clockwise from the backtrack pixel, one probe
    at a time, and stops when a (pixel, backtrack) state repeats; a trailing
    revisit of the start pixel is dropped.
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


def reference_walk(walker, start, back):
    """The library's walk from start, entered from the background pixel
    back, over the walker's padded ink bytes and probe table, stopped at the
    first (pixel, backtrack) state met twice, which it finds by keeping a
    set of every state. Returns flat indices into the padded grid, a
    trailing revisit of the start pixel dropped. The walker stops instead
    when the state after its first step recurs; the two must agree."""
    ink, probes = walker._ink, walker._probes
    p = (start[0] + 1) * walker._stride + start[1] + 1
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


def every_4x4_raster():
    """All 65,536 4×4 rasters, raster k holding bit i of k at cell i in
    raster order, each centred in a blank 6×6 tile so none touches another,
    tiled in raster order of k into one 1536×1536 raster."""
    bits = (np.arange(1 << 16)[:, None] >> np.arange(16)) & 1
    tiles = np.zeros((256, 256, 6, 6), dtype=bool)
    tiles[:, :, 1:5, 1:5] = bits.reshape(256, 256, 4, 4)
    return tiles.transpose(0, 2, 1, 3).reshape(1536, 1536)


def reference_line_dots(ink, baselines, cap):
    """First pixels of the regions entirely above the upper baseline or
    below the lower one whose outer walk from that pixel, entered from the
    west, is shorter than cap."""
    dots = set()
    for region in bfs_regions(ink):
        rows = [r for r, _ in region]
        if not (max(rows) < baselines.upper_row or min(rows) > baselines.lower_row):
            continue
        r, c = min(region)
        if len(reference_trace(ink, (r, c), (r, c - 1))) < cap:
            dots.add((r, c))
    return dots


def reference_segment_paws(line, baselines=None, alpha=0.5):
    """Word parts grouped one mark at a time.

    Each detached mark joins the body with the most column overlap, then the
    nearest centroid, then the first body in component order; parts come
    back as (bbox, raster-order pixels, order_index) triples, right to left.
    """
    comps = connected_components(line)
    if not comps:
        return []
    b = baselines if baselines is not None else estimate_baselines(line, alpha=alpha)

    marks = [c for c in comps if c.bbox[2] < b.upper_row or c.bbox[0] > b.lower_row]
    bodies = [c for c in comps if c not in marks]
    if not bodies:
        bodies, marks = comps, []

    def overlap(a, m):
        return min(a[3], m[3]) - max(a[1], m[1])

    groups = {id(body): [body] for body in bodies}
    centroids = {id(body): body.pixels.mean(axis=0) for body in bodies}
    for mark in marks:
        mc = mark.pixels.mean(axis=0)
        best = max(
            bodies,
            key=lambda body: (
                overlap(body.bbox, mark.bbox),
                -float(np.hypot(*(centroids[id(body)] - mc))),
            ),
        )
        groups[id(best)].append(mark)

    paws = []
    for body in bodies:
        pixels = np.concatenate([m.pixels for m in groups[id(body)]])
        pixels = pixels[np.lexsort((pixels[:, 1], pixels[:, 0]))]
        bbox = (
            int(pixels[:, 0].min()),
            int(pixels[:, 1].min()),
            int(pixels[:, 0].max()),
            int(pixels[:, 1].max()),
        )
        paws.append((bbox, pixels))
    paws.sort(key=lambda t: (-t[0][3], -t[0][1], t[0][0]))
    return [(bbox, pixels, i) for i, (bbox, pixels) in enumerate(paws)]


def reference_extremum_hits(word, baselines, thresholds, kind):
    """Pole (kind "H") or jamb ("J") hits by listing every pixel of each zone region.

    Regions whose first pixel belongs to a detached dot, a BFS region that
    reference_line_dots keeps, are skipped. The tip is the first pixel of
    the region's topmost (H) or bottommost (J) row.
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
    dot_firsts = reference_line_dots(word.pixels, baselines, thresholds.diacritic_max_contour)
    dot_pixels = set().union(*(r for r in bfs_regions(word.pixels) if min(r) in dot_firsts))
    hits = []
    zone_labels, _ = ndimage.label(zone, structure=np.ones((3, 3), dtype=int))
    for lab, sl in enumerate(ndimage.find_objects(zone_labels), start=1):
        if sl is None:
            continue
        region = np.argwhere(zone_labels[sl] == lab) + (sl[0].start, sl[1].start)
        anchor = (int(region[0][0] + offset), int(region[0][1]))
        if anchor in dot_pixels:
            continue
        if kind == "H":
            top = int(region[:, 0].min())
            extent = baselines.upper_row - top
            tip_rows = region[region[:, 0] == top]
            tip = (top, int(tip_rows[:, 1].min()))
            margin = thresholds.marge_h
        else:
            bottom = int(region[:, 0].max())
            extent = bottom + offset - baselines.lower_row
            tip_rows = region[region[:, 0] == bottom]
            tip = (bottom + offset, int(tip_rows[:, 1].min()))
            margin = thresholds.marge_j
        if extent > margin:
            hits.append(FeatureHit(kind, tip))
    hits.sort(key=lambda h: h.location)
    return hits


def reference_analyze_page(page, params=DEFAULT_PARAMS):
    """Page analysis line by line: each band is cropped from the page, its
    baselines are estimated on the crop, its features are extracted as one
    word, and its hits are shifted to page rows with its word parts
    numbered after those of the lines above."""
    lines, paw_offset = [], 0
    for band in extract_lines(page, params.merge_gap):
        crop = BinaryRaster(page.pixels[band.top_row : band.bottom_row + 1])
        local = estimate_baselines(crop, params.alpha)
        thresholds = FeatureThresholds.from_baselines(local, params.diacritic_max_contour)
        fs = extract_features(crop, local, thresholds=thresholds, dilation_radius=params.dilation_radius)
        hits = tuple(
            FeatureHit(h.kind, (h.location[0] + band.top_row, h.location[1]), h.paw_index + paw_offset, h.position)
            for h in fs.hits
        )
        paw_offset += fs.nb_paws
        baselines = Baselines(local.upper_row + band.top_row, local.lower_row + band.top_row)
        lines.append(LineAnalysis(band, baselines, replace(fs, hits=hits)))
    return PageAnalysis(combine_feature_sets([line.features for line in lines]), tuple(lines))


_PNM_WHITESPACE = b" \t\r\n\x0b\x0c"
_PNM_MAX_DIGITS = 20


def _reference_skip(data, pos):
    while pos < len(data):
        if data[pos] in _PNM_WHITESPACE:
            pos += 1
        elif data[pos] == ord("#"):
            while pos < len(data) and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    return pos


def _reference_digits(data, pos):
    start = pos = _reference_skip(data, pos)
    while pos < len(data) and data[pos : pos + 1].isdigit():
        pos += 1
    return data[start:pos], pos


def _reference_header_int(data, pos):
    digits, pos = _reference_digits(data, pos)
    if not digits:
        raise PnmHeaderError("malformed header: expected an unsigned integer")
    if len(digits) > _PNM_MAX_DIGITS:
        raise PnmHeaderError(f"malformed header: integer longer than {_PNM_MAX_DIGITS} digits")
    return int(digits), pos


def _reference_scale(samples, maxval):
    return [(v * 255 + maxval // 2) // maxval for v in samples]


def reference_encode_p2(gray):
    """A plain (P2) graymap file, each sample formatted on its own."""
    body = b"\n".join(b" ".join(b"%d" % v for v in row) for row in gray.pixels)
    return b"P2\n%d %d\n255\n" % (gray.width, gray.height) + body + b"\n"


def reference_decode(data):
    """Portable-map decoding one byte at a time (P1/P2/P4/P5)."""
    if len(data) < 2:
        raise PnmHeaderError("empty or truncated file: no magic number")
    magic = data[:2]
    if magic not in (b"P1", b"P2", b"P4", b"P5"):
        raise PnmHeaderError(f"unsupported magic {magic!r} (P1/P2/P4/P5 expected)")
    width, pos = _reference_header_int(data, 2)
    height, pos = _reference_header_int(data, pos)
    if width < 1 or height < 1:
        raise PnmHeaderError(f"invalid dimensions {width}x{height}")
    count = width * height
    if magic in (b"P1", b"P2") and count > len(data) - pos:
        raise PnmPayloadError(
            f"truncated payload: header promises {count} cells, file carries {len(data) - pos} bytes"
        )

    if magic == b"P1":
        bits = []
        while len(bits) < count and pos < len(data):
            c = data[pos]
            if c in _PNM_WHITESPACE:
                pos += 1
            elif c == ord("#"):
                while pos < len(data) and data[pos] not in b"\r\n":
                    pos += 1
            elif c in b"01":
                bits.append(c == ord("1"))
                pos += 1
            else:
                raise PnmPayloadError(f"unexpected byte {bytes([c])!r} in plain bitmap payload")
        if len(bits) < count:
            raise PnmPayloadError(
                f"truncated payload: header promises {count} cells, file carries {len(bits)}"
            )
        return BinaryRaster(np.array(bits).reshape(height, width))

    if magic in (b"P2", b"P5"):
        maxval, pos = _reference_header_int(data, pos)
        if not 1 <= maxval <= 255:
            raise PnmHeaderError(f"unsupported maxval {maxval} (1..255 expected)")

    if magic == b"P2":
        samples = []
        while len(samples) < count:
            digits, pos = _reference_digits(data, pos)
            if not digits:
                if pos < len(data):
                    raise PnmPayloadError(
                        f"unexpected byte {data[pos:pos + 1]!r} in plain graymap payload"
                    )
                raise PnmPayloadError(
                    f"truncated payload: header promises {count} samples, file carries {len(samples)}"
                )
            if len(digits) > _PNM_MAX_DIGITS:
                raise PnmPayloadError(
                    f"sample longer than {_PNM_MAX_DIGITS} digits in plain graymap payload"
                )
            if int(digits) > maxval:
                raise PnmPayloadError(f"sample {int(digits)} exceeds declared maxval {maxval}")
            samples.append(int(digits))
        return GrayRaster(np.array(_reference_scale(samples, maxval)).reshape(height, width))

    if pos >= len(data) or data[pos] not in _PNM_WHITESPACE:
        raise PnmHeaderError("malformed header: missing whitespace before raw payload")
    row_bytes = (width + 7) // 8 if magic == b"P4" else width
    need = row_bytes * height
    payload = data[pos + 1 : pos + 1 + need]
    if len(payload) < need:
        raise PnmPayloadError(f"truncated payload: need {need} bytes, file carries {len(payload)}")
    if magic == b"P4":
        rows = [payload[r * row_bytes : (r + 1) * row_bytes] for r in range(height)]
        return BinaryRaster([[bool(row[c // 8] >> (7 - c % 8) & 1) for c in range(width)] for row in rows])
    if max(payload) > maxval:
        raise PnmPayloadError(f"sample {max(payload)} exceeds declared maxval {maxval}")
    return GrayRaster(np.array(_reference_scale(payload, maxval)).reshape(height, width))


def _round_floats(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf"
        return round(obj, 4)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _asdict_tree(obj):
    """obj with every dataclass instance in it replaced by its asdict."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return asdict(obj)
    if isinstance(obj, dict):
        return {k: _asdict_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_asdict_tree(v) for v in obj]
    return obj


def reference_report_json(obj):
    """A report tree as JSON text: dataclasses as their asdict, floats
    rounded to 4 decimals and infinities as "inf", then json.dumps(indent=2)."""
    return json.dumps(_round_floats(_asdict_tree(obj)), indent=2)


def reference_column_table(ink, starts):
    """Per line and column, the ink count of the rows from each line's
    first row up to the next line's, by a pixel sum over the buffer."""
    return np.add.reduceat(ink, starts, axis=0)


def reference_feature_zones(word):
    """Letter zones by walking each inked run plateau by plateau."""
    counts = word.pixels.sum(axis=0)
    inked = np.flatnonzero(counts > 0)
    if inked.size == 0:
        return []
    runs = np.split(inked, np.flatnonzero(np.diff(inked) > 1) + 1)

    zones = []
    for run in runs:
        start, end = int(run[0]), int(run[-1])
        boundaries = []
        i = start + 1
        while i <= end - 1:
            j = i
            while j + 1 <= end - 1 and counts[j + 1] == counts[i]:
                j += 1
            if counts[i - 1] > counts[i] and counts[j + 1] > counts[j]:
                boundaries.append((i + j) // 2)
            i = j + 1
        cursor = start
        for boundary in boundaries:
            if cursor <= boundary - 1:
                zones.append((cursor, boundary - 1))
            cursor = boundary + 1
        if cursor <= end:
            zones.append((cursor, end))
    return zones


def reference_detect_positions(word, baselines, zone_bounds, neighborhood=2):
    """D/M/F/I tags from slicing the body band around each zone in turn."""
    band = word.pixels[baselines.upper_row : baselines.lower_row + 1]
    width = word.width
    tags = []
    for c0, c1 in zone_bounds:
        left = bool(band[:, max(0, c0 - neighborhood) : c0].any()) if c0 > 0 else False
        right = bool(band[:, c1 + 1 : min(width, c1 + 1 + neighborhood)].any())
        tags.append({(True, False): "D", (True, True): "M", (False, True): "F", (False, False): "I"}[(left, right)])
    return tags


def reference_zone_of_column(zone_bounds, col):
    """Index of the zone holding col, else of the nearest zone, the first on ties."""
    best, best_dist = 0, None
    for i, (c0, c1) in enumerate(zone_bounds):
        if c0 <= col <= c1:
            return i
        dist = c0 - col if col < c0 else col - c1
        if best_dist is None or dist < best_dist:
            best, best_dist = i, dist
    return best


@dataclass(frozen=True)
class ProjectionProfile:
    """Per-row ('horizontal') or per-column ('vertical') ink pixel counts."""

    axis: str
    counts: tuple[int, ...]

    def total(self) -> int:
        return sum(self.counts)


def project(img: BinaryRaster, axis: str = "horizontal") -> ProjectionProfile:
    """Count ink pixels per row (horizontal) or per column (vertical)."""
    if axis == "horizontal":
        counts = img.pixels.sum(axis=1)
    elif axis == "vertical":
        counts = img.pixels.sum(axis=0)
    else:
        raise ValueError(f"axis must be 'horizontal' or 'vertical', not {axis!r}")
    return ProjectionProfile(axis, tuple(int(c) for c in counts))


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


def connected_components(img: BinaryRaster) -> list[Component]:
    """8-connected ink regions, ordered by (bbox min_col, min_row)."""
    labels, boxes = scipy_label(img.pixels)
    found = []
    for lab, (r0, c0, r1, c1) in enumerate(boxes, start=1):
        pixels = np.argwhere(labels[r0 : r1 + 1, c0 : c1 + 1] == lab) + (r0, c0)
        found.append(((r0, c0, r1, c1), pixels))
    found.sort(key=lambda t: (t[0][1], t[0][0], t[0][3], t[0][2]))
    return [Component(i + 1, pixels, bbox) for i, (bbox, pixels) in enumerate(found)]


def paw_pixels(paw, labels):
    """A word part's (row, col) pixels in raster order: the pixels inside its
    box whose label in the line's label image is one of the part's labels."""
    r0, c0, r1, c1 = paw.bbox
    inside = np.isin(labels[r0 : r1 + 1, c0 : c1 + 1], paw.labels)
    return np.argwhere(inside) + (r0, c0)


@dataclass(eq=False)
class Part:
    """One word part: a body component plus any reattached detached marks.

    order_index runs right to left, the rightmost part being 0. labels are
    the part's component labels in the line's labelling.
    """

    bbox: tuple[int, int, int, int]
    order_index: int
    labels: np.ndarray


def paws_of(line, baselines=None):
    """The word parts of a single line, right to left, as _group_parts
    groups them with the line as its only line; baselines default to the
    line's estimate."""
    labelling = label_runs(line.pixels)
    if labelling.count == 0:
        return []
    b = baselines if baselines is not None else estimate_baselines(line)
    one_line = np.zeros(labelling.count, dtype=np.intp)
    part, extents, _ = _group_parts(labelling, labelling.beyond(b.upper_row, b.lower_row), one_line, one_line)
    # Component labels grouped by part, in label order within a part.
    grouped = np.argsort(part, kind="stable") + 1
    ends = np.cumsum(np.bincount(part, minlength=len(extents))).tolist()
    return [
        Part(tuple(extent), i, grouped[lo:hi])
        for i, (extent, lo, hi) in enumerate(zip(extents.tolist(), [0, *ends], ends))
    ]


def letter_zones_of(word):
    """Column intervals of a word's letter zones, from _letter_zones on its
    column counts laid between _NEIGHBORHOOD blank entries."""
    first, last = np.array(_letter_zones(np.pad(word.pixels.sum(axis=0), _NEIGHBORHOOD))) - _NEIGHBORHOOD
    return list(zip(first.tolist(), last.tolist()))


def positions_of(word, baselines, zone_bounds):
    """D/M/F/I tag of each zone of a word, from _position_codes over the
    columns of its body band laid between _NEIGHBORHOOD blank entries."""
    band = np.pad(word.pixels[baselines.upper_row : baselines.lower_row + 1].any(axis=0), _NEIGHBORHOOD)
    first, last = np.asarray(zone_bounds, dtype=np.intp).reshape(-1, 2).T + _NEIGHBORHOOD
    return [_TAGS[i] for i in _position_codes(band, first, last).tolist()]
