"""Independent brute-force oracles used to check the library's fast paths.

Everything here is deliberately naive pure Python so its correctness is
obvious: BFS flood fills for regions and holes, and direct neighborhood
enumeration for dilation.
"""

from collections import deque

import numpy as np


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


def count_holes(mask):
    """Number of 4-connected background regions not touching the border."""
    mask = np.asarray(mask, dtype=bool)
    height, width = mask.shape
    holes = 0
    for region in bfs_regions(~mask, connectivity=4):
        if any(r in (0, height - 1) or c in (0, width - 1) for r, c in region):
            continue
        holes += 1
    return holes


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
