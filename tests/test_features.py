import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scriptid.features import (
    _NEIGHBORHOOD,
    _TAGS,
    FeatureThresholds,
    _letter_zones,
    _Lines,
    _nearest_paws,
    _position_codes,
    _zone_index,
    detect_diacritics,
    detect_jambs,
    detect_loops,
    detect_poles,
    extract_features,
)
from scriptid.geometry import trace_contours
from scriptid.layout import Baselines, LineBand, NoInkError
from scriptid.raster import BinaryRaster, dilate

from oracles import (
    label_runs,
    letter_zones_of,
    nearest_labelled,
    positions_of,
    reference_column_table,
    reference_detect_positions,
    reference_extremum_hits,
    reference_feature_zones,
    reference_line_dots,
    reference_zone_of_column,
    scipy_label,
)


def paint(canvas, r0, r1, c0, c1, value=True):
    """Fill rows r0..r1 and cols c0..c1 inclusive."""
    canvas[r0 : r1 + 1, c0 : c1 + 1] = value


def word(height, width):
    return np.zeros((height, width), dtype=bool)


# Band of height 8 spanning rows 24..32: pole margin 16, jamb margin 8.
B8 = Baselines(24, 32)
T8 = FeatureThresholds.from_baselines(B8)


class TestThresholds:
    @pytest.mark.parametrize("marge_h, marge_j", [(-1, 0), (0, -1)])
    def test_negative_margin_is_rejected(self, marge_h, marge_j):
        # A negative jamb margin would let a region above the band pass the
        # jamb test, since the scans read both zones from one labelling.
        with pytest.raises(ValueError):
            FeatureThresholds(marge_h, marge_j)

    @pytest.mark.parametrize("fields", [(0, 0, 2**63), (2**63, 0), (0, 2**63)])
    def test_field_beyond_int64_is_rejected(self, fields):
        # The page pass holds each field in an int64.
        with pytest.raises(ValueError):
            FeatureThresholds(*fields)

    @pytest.mark.parametrize(
        "record, fields, name",
        [
            pytest.param(FeatureThresholds, (16.0, 8), "marge_h", id="marge_h"),
            pytest.param(FeatureThresholds, (16, 8.0), "marge_j", id="marge_j"),
            pytest.param(FeatureThresholds, (16, 8, 60.5), "diacritic_max_contour", id="diacritic_max_contour"),
            pytest.param(Baselines, (8.0, 16), "upper_row", id="upper_row"),
            pytest.param(Baselines, (8, 16.0), "lower_row", id="lower_row"),
        ],
    )
    def test_float_field_is_refused_at_construction(self, record, fields, name):
        # A float used to pass and fail deep inside the page pass.
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            record(*fields)

    def test_numpy_integer_fields_give_the_same_features(self):
        sink = build_kitchen_sink()
        as_ints = extract_features(sink, Baselines(24, 32), FeatureThresholds(16, 8, 60))
        as_int64 = extract_features(sink, Baselines(*np.int64([24, 32])), FeatureThresholds(*np.int64([16, 8, 60])))
        assert repr(as_int64) == repr(as_ints)

    def test_int64_max_fields_run(self):
        img = word(56, 30)
        paint(img, 24, 32, 4, 25)
        t = FeatureThresholds(2**63 - 1, 2**63 - 1, 2**63 - 1)
        assert detect_poles(BinaryRaster(img), B8, t) == [] and detect_jambs(BinaryRaster(img), B8, t) == []
        assert extract_features(BinaryRaster(img), B8, t).nb_paws == 1


class TestPoles:
    def test_tall_stroke_is_pole(self):
        img = word(56, 30)
        paint(img, 24, 32, 4, 25)          # body
        paint(img, 24 - 20, 23, 8, 10)     # rises 2.5x the band height
        hits = detect_poles(BinaryRaster(img), B8, T8)
        assert [h.kind for h in hits] == ["H"]
        assert hits[0].location == (4, 8)

    def test_band_height_stroke_is_not_pole(self):
        img = word(56, 30)
        paint(img, 24, 32, 4, 25)
        paint(img, 24 - 8, 23, 8, 10)      # rises exactly 1.0x the band height
        assert detect_poles(BinaryRaster(img), B8, T8) == []

    def test_margin_is_strict(self):
        for height, expect in [(17, 1), (16, 0)]:
            img = word(56, 30)
            paint(img, 24, 32, 4, 25)
            paint(img, 24 - height, 23, 8, 10)
            assert len(detect_poles(BinaryRaster(img), B8, T8)) == expect

    def test_two_separated_strokes_give_two_poles(self):
        img = word(56, 40)
        paint(img, 24, 32, 4, 35)
        paint(img, 4, 23, 8, 10)
        paint(img, 4, 23, 20, 22)
        assert len(detect_poles(BinaryRaster(img), B8, T8)) == 2

    def test_detached_dot_is_not_a_pole(self):
        img = word(56, 30)
        paint(img, 24, 32, 4, 25)
        # 4x4 dot high above a shallow band would clear a small margin
        shallow = Baselines(24, 26)
        t = FeatureThresholds.from_baselines(shallow)
        paint(img, 10, 13, 8, 11)
        assert detect_poles(BinaryRaster(img), shallow, t) == []


class TestJambs:
    def test_deep_tail_is_jamb(self):
        img = word(56, 30)
        paint(img, 24, 32, 4, 25)
        paint(img, 33, 32 + 12, 8, 10)     # drops 1.5x the band height
        hits = detect_jambs(BinaryRaster(img), B8, T8)
        assert [h.kind for h in hits] == ["J"]
        assert hits[0].location == (44, 8)

    def test_half_band_descender_is_not_jamb(self):
        img = word(56, 30)
        paint(img, 24, 32, 4, 25)
        paint(img, 33, 32 + 4, 8, 10)
        assert detect_jambs(BinaryRaster(img), B8, T8) == []

    def test_margin_is_strict(self):
        for depth, expect in [(9, 1), (8, 0)]:
            img = word(56, 30)
            paint(img, 24, 32, 4, 25)
            paint(img, 33, 32 + depth, 8, 10)
            assert len(detect_jambs(BinaryRaster(img), B8, T8)) == expect

    def test_two_tails_on_one_part(self):
        img = word(56, 40)
        paint(img, 24, 32, 4, 35)
        paint(img, 33, 44, 8, 10)
        paint(img, 33, 44, 20, 22)
        assert len(detect_jambs(BinaryRaster(img), B8, T8)) == 2


class TestDiacritics:
    def run(self, img):
        chains = trace_contours(BinaryRaster(img))
        return detect_diacritics(chains, B8, T8)

    def test_small_closed_chain_above_is_p(self):
        img = word(56, 30)
        paint(img, 24, 32, 4, 25)
        paint(img, 10, 15, 8, 13)  # 6x6 solid: boundary walk has 20 points
        p, q = self.run(img)
        assert len(p) == 1 and q == []

    def test_eighty_point_chain_is_too_long(self):
        img = word(80, 80)
        paint(img, 60, 68, 4, 75)
        paint(img, 10, 30, 8, 28)  # 21x21 solid: boundary walk has 80 points
        b = Baselines(60, 68)
        chains = trace_contours(BinaryRaster(img))
        p, q = detect_diacritics(chains, b, FeatureThresholds.from_baselines(b))
        assert p == [] and q == []

    def test_exact_cap_is_excluded(self):
        # 16x16 solid yields exactly 60 boundary points; 15x16 yields 58
        for side_r, expect in [(16, 0), (15, 1)]:
            img = word(80, 80)
            paint(img, 60, 68, 4, 75)
            paint(img, 10, 10 + side_r - 1, 8, 23)
            b = Baselines(60, 68)
            chains = trace_contours(BinaryRaster(img))
            p, _ = detect_diacritics(chains, b, FeatureThresholds.from_baselines(b))
            assert len(p) == expect

    def test_chain_straddling_upper_baseline_is_not_a_dot(self):
        img = word(56, 30)
        paint(img, 20, 27, 8, 13)  # crosses row 24
        p, q = self.run(img)
        assert p == [] and q == []

    def test_small_closed_chain_below_is_q(self):
        img = word(56, 30)
        paint(img, 24, 32, 4, 25)
        paint(img, 40, 45, 8, 13)
        p, q = self.run(img)
        assert p == [] and len(q) == 1


class TestLoops:
    def test_solid_square_has_no_loop(self):
        img = word(56, 30)
        paint(img, 24, 32, 8, 16)
        raster = BinaryRaster(img)
        hits = detect_loops(trace_contours(raster), B8, T8)
        assert hits == []

    def test_ring_in_band_is_loop(self):
        img = word(56, 30)
        paint(img, 24, 32, 8, 16)
        paint(img, 26, 30, 10, 14, value=False)  # carve a 5x5 hole
        raster = BinaryRaster(img)
        hits = detect_loops(trace_contours(raster), B8, T8)
        assert [h.kind for h in hits] == ["B"]

    def test_ring_above_band_is_dot_not_loop(self):
        img = word(56, 30)
        paint(img, 24, 32, 4, 25)
        paint(img, 8, 15, 10, 17)
        paint(img, 9, 14, 11, 16, value=False)  # hollow square above the band
        raster = BinaryRaster(img)
        chains = trace_contours(raster)
        assert detect_loops(chains, B8, T8) == []
        p, q = detect_diacritics(chains, B8, T8)
        assert len(p) == 1 and q == []

    def test_oversize_hole_is_dropped_but_tallied(self):
        img = word(80, 40)
        paint(img, 20, 38, 10, 28)
        paint(img, 21, 37, 11, 27, value=False)  # 17x17 hole: 64-point boundary
        b = Baselines(24, 32)
        raster = BinaryRaster(img)
        t = FeatureThresholds.from_baselines(b)
        assert detect_loops(trace_contours(raster), b, t) == []
        fs = extract_features(raster, b, thresholds=t, dilation_radius=0)
        assert fs.counts["B"] == 0
        assert fs.dropped_oversize_loops == 1


class TestPositions:
    def test_isolated_block(self):
        img = word(40, 30)
        paint(img, 24, 32, 10, 20)
        raster = BinaryRaster(img)
        zones = letter_zones_of(raster)
        assert positions_of(raster, B8, zones) == ["I"]

    def test_connected_run_tags_f_m_d(self):
        # three thick letters joined by thin connectors, read right to left
        img = word(24, 41)
        b = Baselines(14, 18)
        for c in (4, 18, 32):
            paint(img, 14, 18, c, c + 4)
        for c in (9, 23):
            paint(img, 18, 18, c, c + 8)
        raster = BinaryRaster(img)
        zones = letter_zones_of(raster)
        tags = positions_of(raster, b, zones)
        assert tags[0] == "F" and tags[-1] == "D"
        assert "M" in tags
        assert set(tags) == {"F", "M", "D"}


def build_fig_word():
    """Four word parts encoding the canonical position pattern.

    Left to right on the canvas (right to left in reading order):
    part 3: ring+dot letter then dot letter -> P@F, B@F, P@D
    part 2: lone letter with an ascender -> H@I
    part 1: ring+ascender letter, ascender letter, ascender letter
            -> H@F, B@F, H@M, H@D
    part 0: lone letter with an ascender -> H@I
    """
    img = word(24, 104)
    b = Baselines(14, 18)

    def letter(c):
        paint(img, 14, 18, c, c + 6)

    def connector(c):
        paint(img, 18, 18, c, c + 2)

    def ascender(c):
        paint(img, 4, 13, c, c + 2)

    def dot(c):
        paint(img, 9, 11, c, c + 2)

    def hole(c):
        paint(img, 15, 17, c + 2, c + 4, value=False)

    x = 4
    letter(x); hole(x); dot(x)          # part 3, left letter: B@F, P@F
    connector(x + 7)
    letter(x + 10); dot(x + 10)         # part 3, right letter: P@D
    x += 23  # 17 wide + 6 gap
    letter(x); ascender(x)              # part 2: H@I
    x += 13
    letter(x); hole(x); ascender(x)     # part 1, left letter: B@F, H@F
    connector(x + 7)
    letter(x + 10); ascender(x + 10)    # part 1, middle letter: H@M
    connector(x + 17)
    letter(x + 20); ascender(x + 20)    # part 1, right letter: H@D
    x += 33
    letter(x); ascender(x)              # part 0: H@I
    return BinaryRaster(img), b


class TestFigurePattern:
    def test_position_tokens_per_part(self):
        raster, b = build_fig_word()
        fs = extract_features(raster, b, dilation_radius=0)
        by_paw = {}
        for hit in fs.hits:
            by_paw.setdefault(hit.paw_index, set()).add((hit.kind, hit.position))
        assert fs.nb_paws == 4
        assert by_paw[0] == {("H", "I")}
        assert by_paw[1] == {("H", "D"), ("H", "M"), ("H", "F"), ("B", "F")}
        assert by_paw[2] == {("H", "I")}
        assert by_paw[3] == {("P", "D"), ("P", "F"), ("B", "F")}


def build_kitchen_sink():
    """One part firing every rule exactly once or twice, by construction."""
    img = word(56, 60)
    paint(img, 24, 32, 4, 55)            # body
    paint(img, 4, 23, 6, 8)              # pole 1: height 20 > 16
    paint(img, 4, 23, 14, 16)            # pole 2
    paint(img, 33, 44, 22, 24)           # jamb: depth 12 > 8
    paint(img, 13, 16, 30, 33)           # upper dot
    paint(img, 40, 43, 38, 41)           # lower dot, depth 11 would fake a jamb
    paint(img, 26, 30, 46, 50, value=False)  # loop hole
    return BinaryRaster(img)


class TestExtractFeatures:
    def test_blank_image_raises(self):
        with pytest.raises(NoInkError):
            extract_features(BinaryRaster.blank(10, 10), B8)

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            pytest.param((0, 76), ValueError, r"^LineBand\(top_row=0, bottom_row=76\) reaches past", id="past-page"),
            pytest.param((0, 56), ValueError, r"^LineBand\(top_row=0, bottom_row=56\) reaches past", id="one-past"),
            pytest.param((30, 5), ValueError, "^need 0 <= top_row <= bottom_row", id="upside-down"),
            pytest.param((-1, 5), ValueError, "^need 0 <= top_row <= bottom_row", id="negative"),
            pytest.param((0.0, 20), TypeError, "^top_row must be an integer", id="float"),
        ],
    )
    def test_bad_band_is_refused(self, rows, error, message):
        # Each used to fail inside the pass with a raw numpy error, or pass.
        page = build_kitchen_sink()
        assert page.height == 56
        with pytest.raises(error, match=message):
            extract_features([page], [[B8]], [[T8]], bands=[[LineBand(*rows)]])

    @pytest.mark.parametrize(
        "radius, error, message",
        [
            pytest.param(1.5, TypeError, "^dilation_radius must be an integer", id="float"),
            pytest.param(-1, ValueError, "^dilation_radius must be >= 0", id="negative"),
        ],
    )
    def test_bad_dilation_radius_is_refused_by_name(self, radius, error, message):
        # Unchecked, a float radius fails inside numpy and a negative one names dilate's radius.
        with pytest.raises(error, match=message):
            extract_features(build_kitchen_sink(), B8, dilation_radius=radius)

    def test_numpy_dilation_radius_reads_as_its_integer(self):
        page = build_kitchen_sink()
        assert extract_features(page, B8, dilation_radius=np.int64(2)) == extract_features(page, B8, dilation_radius=2)

    def test_one_blank_band_among_inked_bands_raises(self):
        # The second page's middle band holds no ink, though every other band does.
        inked = word(9, 12)
        paint(inked, 2, 6, 3, 8)
        page = np.zeros((29, 16), dtype=bool)
        page[0:9, 0:12] = page[20:29, 4:16] = inked
        bands = [[LineBand(0, 8)], [LineBand(0, 8), LineBand(10, 18), LineBand(20, 28)]]
        baselines = [[Baselines(2, 6)], [Baselines(2, 6), Baselines(12, 16), Baselines(22, 26)]]
        thresholds = [[FeatureThresholds.from_baselines(b) for b in lines] for lines in baselines]
        pages = [BinaryRaster(inked), BinaryRaster(page)]
        with pytest.raises(NoInkError):
            extract_features(pages, baselines, thresholds, dilation_radius=1, bands=bands)
        page[12:15, 5:9] = True
        pages[1] = BinaryRaster(page)
        sets = extract_features(pages, baselines, thresholds, dilation_radius=1, bands=bands)
        assert [len(page_sets) for page_sets in sets] == [1, 3]

    def test_single_ring_in_band(self):
        img = word(56, 30)
        paint(img, 24, 32, 8, 16)
        paint(img, 26, 30, 10, 14, value=False)
        fs = extract_features(BinaryRaster(img), B8, dilation_radius=0)
        assert fs.counts == {"H": 0, "J": 0, "P": 0, "Q": 0, "B": 1}
        assert fs.nb_paws == 1

    @pytest.mark.parametrize("radius", [0, 1])
    def test_kitchen_sink_counts(self, radius):
        fs = extract_features(build_kitchen_sink(), B8, dilation_radius=radius)
        assert fs.counts == {"H": 2, "J": 1, "P": 1, "Q": 1, "B": 1}
        assert fs.nb_paws == 1

    def test_counts_match_hits(self):
        fs = extract_features(build_kitchen_sink(), B8)
        for kind, count in fs.counts.items():
            assert count == sum(1 for h in fs.hits if h.kind == kind)

    def test_one_chain_one_kind(self):
        # the lower dot must be Q only, never also J; the hole B only
        fs = extract_features(build_kitchen_sink(), B8, dilation_radius=0)
        assert fs.counts["J"] == 1
        assert fs.counts["Q"] == 1

    def test_raising_cap_never_loses_dots(self):
        raster = build_kitchen_sink()
        low = FeatureThresholds(16, 8, diacritic_max_contour=10)
        high = FeatureThresholds(16, 8, diacritic_max_contour=120)
        fs_low = extract_features(raster, B8, thresholds=low, dilation_radius=0)
        fs_high = extract_features(raster, B8, thresholds=high, dilation_radius=0)
        assert (
            fs_high.counts["P"] + fs_high.counts["Q"]
            >= fs_low.counts["P"] + fs_low.counts["Q"]
        )

    def test_raising_pole_margin_never_adds_poles(self):
        raster = build_kitchen_sink()
        t_low = FeatureThresholds(10, 8)
        t_high = FeatureThresholds(30, 8)
        fs_low = extract_features(raster, B8, thresholds=t_low, dilation_radius=0)
        fs_high = extract_features(raster, B8, thresholds=t_high, dilation_radius=0)
        assert fs_high.counts["H"] <= fs_low.counts["H"]

    def test_hit_zone_constraints(self):
        fs = extract_features(build_kitchen_sink(), B8, dilation_radius=0)
        for hit in fs.hits:
            r = hit.location[0]
            if hit.kind == "P":
                assert r < B8.upper_row
            elif hit.kind == "Q":
                assert r > B8.lower_row
            elif hit.kind == "B":
                assert B8.upper_row <= r <= B8.lower_row


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_nearest_paw_matches_brute_force(data):
    h, w = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    ink = np.array(data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))).reshape(h, w)
    labels, boxes = scipy_label(ink)
    # Each region belongs to one of three parts; background to none.
    part = np.array(data.draw(st.lists(st.integers(0, 2), min_size=len(boxes), max_size=len(boxes))), dtype=np.intp)
    paw_map = np.append(-1, part)[labels]
    radius = data.draw(st.integers(0, 3))
    # A pass asks only about locations with ink within the radius.
    reached = [(r, c) for r in range(h) for c in range(w) if nearest_labelled(paw_map, (r, c), radius) is not None]
    assume(reached)
    location = data.draw(st.sampled_from(reached))
    expected = nearest_labelled(paw_map, location, radius)
    assert _nearest_paws(ink, label_runs(ink), part, [location], radius).tolist() == [expected]


@st.composite
def ringed_lines(draw):
    """Sparse random ink over hollow squares, with baselines and a dot cap.

    Rings give detached regions whose outer chains, 8 to 32 visits and more
    with ink attached, fall on both sides of the cap.
    """
    h, w = draw(st.integers(2, 24)), draw(st.integers(1, 24))
    cells = draw(st.lists(st.sampled_from([False, False, False, True]), min_size=h * w, max_size=h * w))
    ink = np.array(cells).reshape(h, w)
    for _ in range(draw(st.integers(0, 3))):
        r, c, size = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1)), draw(st.integers(3, 9))
        ink[r : r + size, c : c + size] = True
        ink[r + 1 : r + size - 1, c + 1 : c + size - 1] = False
    upper = draw(st.integers(0, h - 1))
    baselines = Baselines(upper, draw(st.integers(upper, h - 1)))
    return BinaryRaster(ink), baselines, draw(st.integers(1, 60))


@settings(max_examples=300, deadline=None)
@given(ringed_lines())
def test_scan_dots_match_reference_walk(case):
    # At zero margins every zone region clears its margin in exactly one of
    # the two scans, so the regions neither scan reports are the line's dots.
    line, baselines, cap = case
    t = FeatureThresholds(0, 0, cap)
    outside = line.pixels.copy()
    outside[baselines.upper_row : baselines.lower_row + 1] = False
    zone_of, _ = scipy_label(outside)
    hits = detect_poles(line, baselines, t) + detect_jambs(line, baselines, t)
    reported = {int(zone_of[hit.location]) for hit in hits}
    skipped = set(range(1, int(zone_of.max()) + 1)) - reported
    firsts = {tuple(np.argwhere(zone_of == lab)[0].tolist()) for lab in skipped}
    assert firsts == reference_line_dots(line.pixels, baselines, cap)


@st.composite
def column_profiles(draw):
    """Words drawn column by column from a few ink counts, so equal-count
    plateaus, blank columns and inked border columns are common."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 30))
    counts = draw(st.lists(st.integers(0, min(h, 3)), min_size=w, max_size=w))
    img = word(h, w)
    for c, n in enumerate(counts):
        rows = draw(st.permutations(range(h)))[:n]
        img[list(rows), c] = True
    return BinaryRaster(img)


@st.composite
def line_stacks(draw):
    """Lines cut from rasters of different widths, each with random ink,
    a band of the raster's rows and baselines that may reach past it: the
    inks, bands, baselines and thresholds _Lines takes, and an expansion
    radius from 0 to 2."""
    inks, bands, baselines = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        h, w = draw(st.integers(1, 10)), draw(st.integers(1, 20))
        density = draw(st.sampled_from([[False], [False, True], [False, False, False, True]]))
        inks.append(np.array(draw(st.lists(st.sampled_from(density), min_size=h * w, max_size=h * w))).reshape(h, w))
        top = draw(st.integers(0, h - 1))
        bottom = draw(st.integers(top, h - 1))
        upper = draw(st.integers(top, bottom))
        bands.append(LineBand(top, bottom))
        baselines.append(Baselines(upper, draw(st.integers(upper, h + 2))))
    thresholds = [FeatureThresholds(0, 0)] * len(inks)
    return inks, bands, baselines, thresholds, draw(st.integers(0, 2))


def stacked_lines():
    """_Lines of line_stacks, stacked one or two blank rows apart (one when
    a 1x1 line clamps radius 2 to 1)."""
    return line_stacks().map(lambda case: _Lines(*case[:4], radius=case[4]))


@settings(max_examples=300, deadline=None)
@given(line_stacks())
def test_stage_is_each_line_expanded_alone(case):
    # Each line's rows and raster columns of the stage hold the line's own
    # crop expanded alone, at the radius before the clamp; every gap row and
    # padding column stays blank.
    inks, bands, *_, radius = case
    lines = _Lines(*case[:4], radius=radius)
    stage = lines.stage().pixels.copy()
    for start, ink, band in zip(lines.starts.tolist(), inks, bands):
        height, width = band.bottom_row - band.top_row + 1, ink.shape[1]
        crop = BinaryRaster(ink[band.top_row : band.bottom_row + 1])
        assert np.array_equal(stage[start : start + height, :width], dilate(crop, radius).pixels)
        stage[start : start + height, :width] = False
    assert not stage.any()


def laid(tables, stride):
    """A (lines, width) table laid in one row as the page pass lays it:
    column c of line k at entry k * stride + _NEIGHBORHOOD + c, every other
    entry 0."""
    lines, width = tables.shape
    row = np.zeros(lines * stride + _NEIGHBORHOOD, dtype=tables.dtype)
    for k in range(lines):
        row[k * stride + _NEIGHBORHOOD : k * stride + _NEIGHBORHOOD + width] = tables[k]
    return row


@settings(max_examples=300, deadline=None)
@given(stacked_lines())
def test_column_tables_match_reference(lines):
    # The whole-line table and the band-row table, summed from the raw runs
    # and laid in one row whose blank entries all hold 0.
    table, band_table = lines.column_tables()
    assert lines.stride == lines.ink.shape[1] + _NEIGHBORHOOD
    assert np.array_equal(table, laid(reference_column_table(lines.ink, lines.starts), lines.stride))
    band_ink = lines.ink & lines.in_band[:, None]
    assert np.array_equal(band_table, laid(reference_column_table(band_ink, lines.starts), lines.stride))


@settings(max_examples=300, deadline=None)
@given(stacked_lines())
def test_laid_zones_and_tags_match_each_line_alone(lines):
    # Zones and tags read from the laid row of lines of different widths
    # are those of each line's own crop: no zone and no tag window reaches
    # a neighbouring line or a padding column.
    table, band_table = lines.column_tables()
    first, last = _letter_zones(table)
    tags = np.array(list(_TAGS))[_position_codes(band_table > 0, first, last)]
    for k, ((start, end, width), b) in enumerate(zip(lines.spans, lines.baselines)):
        crop = BinaryRaster(lines.ink[start:end, :width])
        mine = first // lines.stride == k
        base = k * lines.stride + _NEIGHBORHOOD
        zones = list(zip((first[mine] - base).tolist(), (last[mine] - base).tolist()))
        assert zones == reference_feature_zones(crop)
        crop_baselines = Baselines(b.upper_row - start, b.lower_row - start)
        assert tags[mine].tolist() == reference_detect_positions(crop, crop_baselines, zones, _NEIGHBORHOOD)


@st.composite
def banded_words(draw):
    """Random ink with baselines that may sit on the first or the last row."""
    h, w = draw(st.integers(1, 14)), draw(st.integers(1, 20))
    density = draw(st.sampled_from([[False, True], [False, False, True], [False, True, True]]))
    cells = draw(st.lists(st.sampled_from(density), min_size=h * w, max_size=h * w))
    upper = draw(st.one_of(st.just(0), st.integers(0, h - 1)))
    lower = draw(st.one_of(st.just(h - 1), st.integers(upper, h - 1)))
    return BinaryRaster(np.array(cells).reshape(h, w)), Baselines(upper, lower)


@st.composite
def sorted_zones(draw, width):
    """Sorted column intervals inside [0, width), at least one, with at least
    one column between neighbors, as letter_zones_of leaves them."""
    zones, c0 = [], draw(st.integers(0, width - 1))
    while c0 < width:
        c1 = min(width - 1, c0 + draw(st.integers(0, 3)))
        zones.append((c0, c1))
        c0 = c1 + 1 + draw(st.integers(1, 4))
    return zones


@settings(max_examples=500, deadline=None)
@given(st.one_of(column_profiles(), banded_words().map(lambda case: case[0])))
def test_feature_zones_match_reference(img):
    assert letter_zones_of(img) == reference_feature_zones(img)


@settings(max_examples=500, deadline=None)
@given(banded_words(), st.data())
def test_detect_positions_match_reference(case, data):
    img, baselines = case
    zones = data.draw(st.one_of(st.just(letter_zones_of(img)), sorted_zones(img.width)))
    expected = reference_detect_positions(img, baselines, zones, _NEIGHBORHOOD)
    assert positions_of(img, baselines, zones) == expected


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_zone_index_matches_reference(data):
    # Zones of several lines laid in one row; an entry only looks at its
    # own line's zones, from the blank entries before the line to its last
    # column.
    width = data.draw(st.integers(1, 24))
    lines = data.draw(st.lists(sorted_zones(width), min_size=1, max_size=3))
    stride = width + _NEIGHBORHOOD
    base = [k * stride + _NEIGHBORHOOD for k in range(len(lines))]
    first, last = np.array([(base[k] + c0, base[k] + c1) for k, zones in enumerate(lines) for c0, c1 in zones]).T
    cols = np.arange(-_NEIGHBORHOOD, width)
    offset = 0
    for k, zones in enumerate(lines):
        got = _zone_index(first, last, stride, base[k] + cols) - offset
        assert got.tolist() == [reference_zone_of_column(zones, col) for col in cols.tolist()]
        offset += len(zones)
    assert _zone_index(first, last, stride, cols[:0]).size == 0


@settings(max_examples=600, deadline=None)
@given(
    st.one_of(st.tuples(banded_words(), st.integers(1, 30)).map(lambda c: (*c[0], c[1])), ringed_lines()),
    st.integers(0, 6),
    st.integers(0, 6),
)
def test_pole_and_jamb_scans_match_reference(case, marge_h, marge_j):
    img, baselines, cap = case
    t = FeatureThresholds(marge_h, marge_j, cap)
    assert detect_poles(img, baselines, t) == reference_extremum_hits(img, baselines, t, "H")
    assert detect_jambs(img, baselines, t) == reference_extremum_hits(img, baselines, t, "J")
