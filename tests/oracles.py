"""Independent brute-force oracles used to check the library's fast paths.

Everything here is deliberately naive pure Python so its correctness is
obvious: BFS flood fills for regions and holes, direct neighborhood
enumeration for dilation, a probe-by-probe Moore walk for contours and
the dot test, a mark-by-mark grouping of word parts, and column-by-column
loops for letter zones, positions, zone lookup and the pole/jamb region
scan. Two keep scipy: a second dilation reference, binary_dilation with a
square element, and the pole/jamb scan, which labels its zone with
ndimage.label.

The projection profiles, the component list and the word-part pixel
reader at the end are test helpers the pipeline does not use; the
component list is built on the library's labelling.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from scriptid.features import FeatureHit
from scriptid.geometry import label_components
from scriptid.layout import estimate_baselines
from scriptid.raster import BinaryRaster


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
    labelling = label_components(img)
    labels = labelling.labels
    found = []
    for lab, sl in enumerate(labelling.objects, start=1):
        local = np.argwhere(labels[sl] == lab)
        pixels = local + (sl[0].start, sl[1].start)
        bbox = (sl[0].start, sl[1].start, sl[0].stop - 1, sl[1].stop - 1)
        found.append((bbox, pixels))
    found.sort(key=lambda t: (t[0][1], t[0][0], t[0][3], t[0][2]))
    return [Component(i + 1, pixels, bbox) for i, (bbox, pixels) in enumerate(found)]


def paw_pixels(paw, labels):
    """A word part's (row, col) pixels in raster order: the pixels inside its
    box whose label in the line's label image is one of the part's labels."""
    r0, c0, r1, c1 = paw.bbox
    inside = np.isin(labels[r0 : r1 + 1, c0 : c1 + 1], paw.labels)
    return np.argwhere(inside) + (r0, c0)
