from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scriptid.geometry import (
    ContourChain,
    _Walker,
    _label,
    _label_and_holes,
    _points,
    trace_contours,
)
from scriptid.raster import BinaryRaster, dilate

from oracles import (
    bfs_regions,
    connected_components,
    count_components,
    count_holes,
    every_4x4_raster,
    hole_regions,
    project,
    raster_of,
    reference_trace,
    reference_walk,
    with_hole_cases,
)


def random_raster(rng, max_side=24):
    h = int(rng.integers(1, max_side + 1))
    w = int(rng.integers(1, max_side + 1))
    density = float(rng.uniform(0.05, 0.9))
    return BinaryRaster(rng.random((h, w)) < density)


class TestProject:
    def test_empty_image(self):
        img = BinaryRaster.blank(3, 4)
        assert project(img, "horizontal").counts == (0, 0, 0)
        assert project(img, "vertical").counts == (0, 0, 0, 0)

    def test_full_block(self):
        img = BinaryRaster(np.ones((3, 3), dtype=bool))
        assert project(img, "horizontal").counts == (3, 3, 3)

    def test_l_glyph_mass(self):
        # column of 4 plus row of 3 sharing the corner: 6 pixels by hand
        img = raster_of(["100", "100", "100", "111"])
        horiz = project(img, "horizontal")
        vert = project(img, "vertical")
        assert horiz.total() == vert.total() == 6
        assert horiz.counts == (1, 1, 1, 3)
        assert vert.counts == (4, 1, 1)

    def test_mass_conservation_random(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            img = random_raster(rng)
            assert (
                project(img, "horizontal").total()
                == project(img, "vertical").total()
                == img.ink_count()
            )

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            project(raster_of(["1"]), "diagonal")


class TestConnectedComponents:
    def test_empty(self):
        assert connected_components(BinaryRaster.blank(4, 4)) == []

    def test_two_dots(self):
        img = raster_of(["100", "000", "001"])
        comps = connected_components(img)
        assert len(comps) == 2
        assert comps[0].pixel_set() == {(0, 0)}
        assert comps[1].pixel_set() == {(2, 2)}

    def test_diagonal_is_connected(self):
        img = raster_of(["10", "01"])
        assert len(connected_components(img)) == 1

    def test_word_of_five_strokes(self):
        # three letter bodies and two dots, all disjoint by construction
        img = raster_of(
            [
                "0100000100000000",
                "0000000000000000",
                "1110001110001110",
                "1110001110001110",
            ]
        )
        comps = connected_components(img)
        assert len(comps) == 5

    def test_ordering_by_min_col_then_min_row(self):
        img = raster_of(["010", "000", "100"])
        comps = connected_components(img)
        assert [c.bbox[:2] for c in comps] == [(2, 0), (0, 1)]

    def test_bbox_tight_and_partition(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            img = random_raster(rng)
            comps = connected_components(img)
            seen = set()
            for comp in comps:
                pset = comp.pixel_set()
                assert not (pset & seen)
                seen |= pset
                rows = [p[0] for p in pset]
                cols = [p[1] for p in pset]
                assert comp.bbox == (min(rows), min(cols), max(rows), max(cols))
            assert len(seen) == img.ink_count()
            assert len(comps) == count_components(img.pixels)


def chain_is_valid(chain):
    pts = chain.points
    for a, b in zip(pts, pts[1:]):
        if max(abs(a[0] - b[0]), abs(a[1] - b[1])) > 1 or a == b:
            return False
    if chain.closed and len(pts) > 1:
        a, b = pts[-1], pts[0]
        if max(abs(a[0] - b[0]), abs(a[1] - b[1])) > 1:
            return False
    return True


class TestTraceContours:
    def test_single_pixel(self):
        chains = trace_contours(raster_of(["010"]))
        assert len(chains) == 1
        assert chains[0].polarity == "outer"
        assert chains[0].closed
        assert chains[0].points == ((0, 1),)

    def test_solid_5x5_boundary(self):
        img = BinaryRaster(np.ones((5, 5), dtype=bool))
        chains = trace_contours(img)
        assert len(chains) == 1
        chain = chains[0]
        assert chain.length == 16
        boundary = {
            (r, c)
            for r in range(5)
            for c in range(5)
            if r in (0, 4) or c in (0, 4)
        }
        assert set(chain.points) == boundary

    def test_hollow_ring_has_outer_and_inner(self):
        ring = np.ones((7, 7), dtype=bool)
        ring[1:6, 1:6] = False
        ring[0, :] = ring[-1, :] = ring[:, 0] = ring[:, -1] = True
        img = BinaryRaster(ring)
        chains = trace_contours(img)
        assert [c.polarity for c in chains] == ["outer", "inner"]
        assert all(c.closed for c in chains)

    def test_thin_bar_counts_each_visit(self):
        chains = trace_contours(raster_of(["11111"]))
        assert chains[0].length == 8  # middle pixels are walked twice

    def test_counts_match_bfs_oracles(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            img = random_raster(rng)
            chains = trace_contours(img)
            outer = sum(1 for c in chains if c.polarity == "outer")
            inner = sum(1 for c in chains if c.polarity == "inner")
            assert outer == count_components(img.pixels)
            assert inner == count_holes(img.pixels)
            assert all(chain_is_valid(c) for c in chains)

    def test_dilation_never_adds_outer_chains(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            img = random_raster(rng)
            before = sum(1 for c in trace_contours(img) if c.polarity == "outer")
            grown = dilate(img, int(rng.integers(1, 3)))
            after = sum(1 for c in trace_contours(grown) if c.polarity == "outer")
            assert after <= before

    def test_deterministic(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            img = random_raster(rng)
            assert trace_contours(img) == trace_contours(img)


@st.composite
def small_rasters(draw):
    h, w = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    cells = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    return BinaryRaster(np.array(cells).reshape(h, w))


@settings(max_examples=300, deadline=None)
@given(small_rasters())
def test_every_chain_stays_inside_one_component(img):
    # A border walk started on an ink pixel never leaves that pixel's
    # 8-connected component, so a hole chain needs no further check of the
    # region that encloses it.
    component_of = {}
    for i, region in enumerate(bfs_regions(img.pixels)):
        component_of.update(dict.fromkeys(region, i))
    for chain in trace_contours(img):
        assert len({component_of[p] for p in chain.points}) == 1


@st.composite
def walk_rasters(draw, max_side=20, max_shapes=3):
    """Random ink up to max_side on a side, sometimes cleared, overlaid with
    up to max_shapes nested square outlines (holes inside holes), one-pixel
    spurs and isolated pixels."""
    h, w = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    cells = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    ink = np.array(cells).reshape(h, w) & draw(st.booleans())
    for _ in range(draw(st.integers(0, max_shapes))):
        kind = draw(st.sampled_from(["rings", "spur", "isolated"]))
        r, c = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        if kind == "rings":
            size = draw(st.integers(3, max_side - 6))
            r1, c1 = min(h, r + size), min(w, c + size)
            ink[r:r1, c:c1] = False
            for k in range(0, size, 2):
                box = ink[r + k : r1 - k, c + k : c1 - k]
                if box.size == 0:
                    break
                box[[0, -1], :] = True
                box[:, [0, -1]] = True
        elif kind == "spur":
            length = draw(st.integers(1, 8))
            if draw(st.booleans()):
                ink[r, c : c + length] = True
            else:
                ink[r : r + length, c] = True
        else:
            ink[max(0, r - 1) : r + 2, max(0, c - 1) : c + 2] = False
            ink[r, c] = True
    return BinaryRaster(ink)


@settings(max_examples=300, deadline=None)
@given(walk_rasters())
def test_chains_match_reference_walk(img):
    # Outer walks start at each region's first raster-order pixel, entered
    # from the west; hole walks start above each hole's first pixel, entered
    # from that pixel.
    ink = img.pixels
    expected = []
    for r, c in sorted(min(region) for region in bfs_regions(ink)):
        expected.append((tuple(reference_trace(ink, (r, c), (r, c - 1))), True, "outer"))
    for r, c in sorted(min(region) for region in hole_regions(ink)):
        expected.append((tuple(reference_trace(ink, (r - 1, c), (r, c))), True, "inner"))
    chains = trace_contours(img)
    assert [(ch.points, ch.closed, ch.polarity) for ch in chains] == expected


@settings(max_examples=300, deadline=None)
@given(walk_rasters())
def test_walker_matches_reference_from_every_entry(img):
    # Every ink pixel entered from each background 4-neighbor, the west one
    # (outer chains) and the south one (hole chains) included; a neighbor
    # off the raster counts as background.
    ink = img.pixels
    height, width = ink.shape
    walker = _Walker(ink)
    for r, c in np.argwhere(ink).tolist():
        for back in ((r, c - 1), (r + 1, c), (r, c + 1), (r - 1, c)):
            if 0 <= back[0] < height and 0 <= back[1] < width and ink[back]:
                continue
            assert list(_points(walker.walk((r, c), back), walker._stride)) == reference_trace(ink, (r, c), back)


def _walk_starts(ink):
    """The (start, back) of every outer and every hole walk of trace_contours."""
    labelling, holes = _label_and_holes(ink)
    rows, cols = (a.tolist() for a in labelling.first_pixels(np.arange(labelling.count)))
    hole_rows, hole_cols = (a.tolist() for a in holes.first_pixels(np.arange(holes.count)))
    outer = [((r, c), (r, c - 1)) for r, c in zip(rows, cols)]
    return outer + [((r - 1, c), (r, c)) for r, c in zip(hole_rows, hole_cols)]


def test_walks_stop_where_the_reference_walk_does_on_every_4x4_raster():
    # The walker stops when the state after its first step recurs, the
    # reference at the first state met twice: from every outer and hole
    # start of every 4×4 raster, both must give the same chain.
    ink = every_4x4_raster()
    walker = _Walker(ink)
    starts = _walk_starts(ink)
    assert len(starts) == 113_184
    assert [s for s in starts if walker.walk(*s) != reference_walk(walker, *s)] == []


def test_edge_counts_bound_every_chain_of_every_4x4_raster():
    # A walk's states from its first step form a cycle of distinct (ink
    # pixel, background 4-neighbor) pairs, and its start is one more such
    # pair, so no chain is longer than the unit edges between its region
    # and the pixels outside it, or between its hole and the ink.
    chains = trace_contours(BinaryRaster(every_4x4_raster()))
    assert len(chains) == 113_184
    assert [chain for chain in chains if chain.length > chain._bound] == []


@settings(max_examples=300, deadline=None)
@given(walk_rasters())
@with_hole_cases
def test_deferred_chains_walk_as_the_reference_within_their_bound(img):
    walker = _Walker(img.pixels)
    for chain in trace_contours(img):
        reference = reference_walk(walker, chain.start, chain._back)
        assert chain.length == len(reference) <= chain._bound
        assert chain.points == _points(reference, walker._stride)


@settings(max_examples=100, deadline=None)
@given(walk_rasters(max_side=48, max_shapes=8))
def test_walks_stop_where_the_reference_walk_does(img):
    walker = _Walker(img.pixels)
    for start, back in _walk_starts(img.pixels):
        assert walker.walk(start, back) == reference_walk(walker, start, back)


def _rows(points):
    rows = [p[0] for p in points]
    return min(rows), max(rows)


@settings(max_examples=300, deadline=None)
@given(walk_rasters())
def test_chain_rows_equal_box_rows(img):
    # trace_contours chooses chains for a band from bounding boxes alone;
    # that is exact because an outer chain spans its region's box rows and
    # an inner chain its hole's box rows widened by one.
    ink = img.pixels
    regions = sorted(bfs_regions(ink), key=min)
    holes = sorted(hole_regions(ink), key=min)
    chains = trace_contours(img)
    assert len(chains) == len(regions) + len(holes)
    for chain, region in zip(chains, regions):
        assert chain.polarity == "outer"
        assert _rows(chain.points) == _rows(region)
    for chain, hole in zip(chains[len(regions):], holes):
        top, bottom = _rows(hole)
        assert chain.polarity == "inner"
        assert _rows(chain.points) == (top - 1, bottom + 1)


@settings(max_examples=300, deadline=None)
@given(walk_rasters(), st.data())
def test_band_keeps_exactly_the_chains_its_row_tests_accept(img, data):
    upper = data.draw(st.integers(-1, img.height))
    lower = data.draw(st.integers(upper - 1, img.height + 1))
    kept = []
    for chain in trace_contours(img):
        # The zone test of detect_diacritics for outer chains, and of the
        # loop stage for inner chains.
        top, bottom = _rows(chain.points)
        beyond_band = bottom < upper or top > lower
        if beyond_band if chain.polarity == "outer" else not beyond_band:
            kept.append(chain)
    assert trace_contours(img, band=(upper, lower)) == kept


@settings(max_examples=300, deadline=None)
@given(walk_rasters(), st.data())
def test_per_row_bands_test_each_chain_at_its_first_row(img, data):
    # A raster of stacked text lines passes one band per row. A region is
    # tested against the band at its top row, and a hole against the band
    # at its first row, one below the top row of its chain.
    height = img.height
    upper = np.array(data.draw(st.lists(st.integers(-1, height), min_size=height, max_size=height)))
    lower = upper + np.array(data.draw(st.lists(st.integers(-1, 4), min_size=height, max_size=height)))
    kept = []
    for chain in trace_contours(img):
        top, bottom = _rows(chain.points)
        key = top if chain.polarity == "outer" else top + 1
        beyond_band = bottom < upper[key] or top > lower[key]
        if beyond_band if chain.polarity == "outer" else not beyond_band:
            kept.append(chain)
    assert trace_contours(img, band=(upper, lower)) == kept


@pytest.mark.parametrize("band", [(np.arange(5), 3), (0, np.arange(7))], ids=["upper", "lower"])
def test_per_row_band_of_the_wrong_length_raises_value_error(band):
    # A per-row band entry holds one row per image row, or is one row for all.
    with pytest.raises(ValueError):
        trace_contours(BinaryRaster(np.eye(6, dtype=bool)), band=band)


@settings(max_examples=300, deadline=None)
@given(walk_rasters())
def test_first_pixels_match_bfs_regions(img):
    # The first raster-order pixel of each region.
    labelling = _label(img.pixels)
    regions = sorted(bfs_regions(img.pixels), key=min)
    rows, cols = labelling.first_pixels(np.arange(len(regions)))
    assert list(zip(rows.tolist(), cols.tolist())) == [min(region) for region in regions]


@settings(max_examples=300, deadline=None)
@given(walk_rasters(), st.integers(-1, 21), st.integers(-2, 22))
@example(BinaryRaster.blank(3, 4), 1, 1)
@example(BinaryRaster(np.ones((2, 3), dtype=bool)), 0, 0)
@example(raster_of(["1"]), 0, 0)
@example(raster_of(["1"]), 1, -1)
@example(raster_of(["100", "000", "001"]), 1, 1)
def test_boxes_and_beyond_match_bfs_regions(img, upper, lower):
    # Row i bounds the region whose first raster-order pixel comes i-th, and
    # beyond is the row test of detached dots and marks.
    labelling = _label(img.pixels)
    expected = []
    for region in sorted(bfs_regions(img.pixels), key=min):
        rows, cols = [r for r, _ in region], [c for _, c in region]
        expected.append([min(rows), min(cols), max(rows), max(cols)])
    assert labelling.boxes.shape == (len(expected), 4)
    assert labelling.boxes.dtype == np.intp
    assert labelling.boxes.tolist() == expected
    assert not labelling.boxes.flags.writeable
    beyond = [bottom < upper or top > lower for top, _, bottom, _ in expected]
    assert labelling.beyond(upper, lower).tolist() == beyond


@settings(max_examples=300, deadline=None)
@given(walk_rasters())
@example(BinaryRaster(every_4x4_raster()[:300, :300]))
@with_hole_cases
def test_holes_match_bfs_holes(img):
    expected = [(min(hole), max(r for r, _ in hole)) for hole in sorted(hole_regions(img.pixels), key=min)]
    _, holes = _label_and_holes(img.pixels)
    (rows, cols), bottoms = holes.first_pixels(np.arange(holes.count)), holes.boxes[:, 2]
    assert list(zip(zip(rows.tolist(), cols.tolist()), bottoms.tolist())) == expected


class TestContourChain:
    def test_points_given_as_lists_are_stored_as_tuples(self):
        chain = ContourChain([[1, 2], [1, 3]], True, "outer")
        built = ContourChain(((1, 2), (1, 3)), True, "outer")
        assert chain.points == ((1, 2), (1, 3))
        assert chain == built and hash(chain) == hash(built)
        assert repr(chain) == "ContourChain(points=((1, 2), (1, 3)), closed=True, polarity='outer')"

    def test_start_rows_and_length_come_from_the_points(self):
        chain = ContourChain([(3, 1), (2, 2), (4, 2)], closed=True, polarity="inner")
        assert (chain.start, chain.rows, chain.length) == ((3, 1), (2, 4), 3)

    def test_empty_points_are_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            ContourChain([], True, "outer")

    def test_attributes_cannot_be_assigned(self):
        chain = ContourChain([(0, 0)], True, "outer")
        for name in ("points", "closed", "polarity", "start", "rows", "length"):
            with pytest.raises(FrozenInstanceError):
                setattr(chain, name, None)
        with pytest.raises(FrozenInstanceError):
            del chain.points


def _bands(img):
    """No band, a scalar band over the middle third of the rows, and per-row
    bands that move and change height from row to row."""
    height = img.height
    rows = np.arange(height)
    upper = rows - rows % 4
    return None, (height // 3, 2 * height // 3), (upper, upper + rows % 3 - 1)


@settings(max_examples=200, deadline=None)
@given(walk_rasters())
@with_hole_cases
def test_traced_chains_carry_what_their_points_give(img):
    # trace_contours builds no point tuple: start, rows and length come
    # from the trace, and the points from the walk on first read.
    for band in _bands(img):
        for chain in trace_contours(img, band=band):
            start, rows, length = chain.start, chain.rows, chain.length
            points = chain.points
            assert start == points[0]
            assert rows == (min(r for r, _ in points), max(r for r, _ in points))
            assert length == len(points)
            built = ContourChain(points, chain.closed, chain.polarity)
            assert chain == built and built == chain
            assert hash(chain) == hash(built)
            assert repr(chain) == repr(built)
            with pytest.raises(FrozenInstanceError):
                chain.rows = rows
