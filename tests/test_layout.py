import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scriptid.layout import (
    Baselines,
    LineBand,
    NoInkError,
    estimate_baselines,
    extract_lines,
    segment_paws,
)
from scriptid.raster import BinaryRaster

from oracles import paw_pixels, reference_segment_paws, scipy_label


def canvas(h, w):
    return np.zeros((h, w), dtype=bool)


def pixel_sets(paws, line):
    """Each part's (row, col) pixels as a set, read off scipy's labelling of
    line, which numbers regions as the library does."""
    labels, _ = scipy_label(line.pixels)
    return [set(map(tuple, paw_pixels(paw, labels).tolist())) for paw in paws]


class TestExtractLines:
    def test_empty_page(self):
        assert extract_lines(BinaryRaster.blank(30, 30)) == []

    def test_two_separate_bands(self):
        page = canvas(60, 30)
        page[10:21, 5:25] = True
        page[40:51, 5:25] = True
        assert extract_lines(BinaryRaster(page)) == [LineBand(10, 20), LineBand(40, 50)]

    def test_one_row_gap_merges_with_default_gap(self):
        page = canvas(20, 10)
        page[5, :] = True
        page[7, :] = True  # single blank row 6 between
        assert extract_lines(BinaryRaster(page), merge_gap=2) == [LineBand(5, 7)]

    def test_gap_equal_to_merge_gap_splits(self):
        page = canvas(20, 10)
        page[5, :] = True
        page[8, :] = True  # two blank rows
        assert extract_lines(BinaryRaster(page), merge_gap=2) == [
            LineBand(5, 5),
            LineBand(8, 8),
        ]

    def test_zero_merge_gap_keeps_adjacent_rows_together(self):
        # Adjacent inked rows have no blank run between them to split on.
        page = canvas(20, 10)
        page[5:12, 2:8] = True
        page[14:16, 2:8] = True
        assert extract_lines(BinaryRaster(page), merge_gap=0) == [LineBand(5, 11), LineBand(14, 15)]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_zero_merge_gap_acts_as_one(self, seed):
        page = BinaryRaster(np.random.default_rng(seed).random((40, 20)) < 0.05)
        assert extract_lines(page, merge_gap=0) == extract_lines(page, merge_gap=1)

    def test_every_band_contains_ink(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            page = BinaryRaster(rng.random((40, 20)) < 0.1)
            for band in extract_lines(page):
                assert page.pixels[band.top_row : band.bottom_row + 1].any()
                assert page.pixels[band.top_row].any()
                assert page.pixels[band.bottom_row].any()


class TestEstimateBaselines:
    def test_bar_spanning_three_rows(self):
        img = canvas(30, 20)
        img[10:13, :] = True
        assert estimate_baselines(BinaryRaster(img)) == Baselines(10, 12)

    def test_single_row_stroke(self):
        img = canvas(12, 8)
        img[7, 2:6] = True
        assert estimate_baselines(BinaryRaster(img)) == Baselines(7, 7)

    def test_dense_body_with_sparse_ascender(self):
        # oracle: the widest run of rows at >= half the projection peak
        img = canvas(40, 60)
        img[20:31, 5:55] = True  # dense body, 50 ink per row
        img[5:20, 10:13] = True  # sparse ascender, 3 ink per row
        b = estimate_baselines(BinaryRaster(img))
        assert b == Baselines(20, 30)
        assert 20 <= b.lower_row <= 30

    def test_band_contains_projection_peak(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            img = BinaryRaster(rng.random((25, 25)) < rng.uniform(0.05, 0.6))
            if img.ink_count() == 0:
                continue
            b = estimate_baselines(img)
            counts = img.pixels.sum(axis=1)
            peak_rows = np.flatnonzero(counts == counts.max())
            assert any(b.upper_row <= r <= b.lower_row for r in peak_rows)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            img = rng.random((15, 20)) < 0.3
            if not img.any():
                continue
            k = int(rng.integers(1, 10))
            shifted = np.zeros((15 + k, 20), dtype=bool)
            shifted[k:] = img
            b0 = estimate_baselines(BinaryRaster(np.vstack([img, np.zeros((k, 20), bool)])))
            b1 = estimate_baselines(BinaryRaster(shifted))
            assert (b1.upper_row, b1.lower_row) == (b0.upper_row + k, b0.lower_row + k)

    def test_blank_image_raises(self):
        with pytest.raises(NoInkError):
            estimate_baselines(BinaryRaster.blank(5, 5))

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            estimate_baselines(BinaryRaster.from_strings(["1"]), alpha=0.0)


class TestSegmentPaws:
    def test_single_block(self):
        img = canvas(20, 20)
        img[8:13, 4:16] = True
        paws = segment_paws(BinaryRaster(img))
        assert len(paws) == 1
        assert paws[0].order_index == 0

    def test_three_blocks_ordered_right_to_left(self):
        img = canvas(10, 34)
        img[3:8, 2:10] = True
        img[3:8, 14:20] = True
        img[3:8, 26:32] = True
        paws = segment_paws(BinaryRaster(img))
        assert [p.bbox[1] for p in paws] == [26, 14, 2]
        assert [p.order_index for p in paws] == [0, 1, 2]

    def test_dot_above_body_attaches(self):
        img = canvas(20, 20)
        img[10:15, 2:18] = True  # body defines the band
        img[2:4, 8:10] = True  # dot well above it, spans overlap
        paws = segment_paws(BinaryRaster(img))
        assert len(paws) == 1
        assert (2, 8) in pixel_sets(paws, BinaryRaster(img))[0]

    def test_dot_attaches_to_nearest_body_by_overlap(self):
        img = canvas(20, 40)
        img[10:15, 2:12] = True
        img[10:15, 25:38] = True
        img[2:4, 27:30] = True  # overlaps only the left span of the right body
        paws = segment_paws(BinaryRaster(img))
        assert len(paws) == 2
        assert (2, 27) in pixel_sets(paws, BinaryRaster(img))[0]  # rightmost paw is index 0

    def test_paws_partition_ink(self):
        rng = np.random.default_rng(34)
        for _ in range(30):
            img = BinaryRaster(rng.random((20, 30)) < 0.15)
            if img.ink_count() == 0:
                assert segment_paws(img) == []
                continue
            seen = set()
            for pset in pixel_sets(segment_paws(img), img):
                assert not (pset & seen)
                seen |= pset
            assert len(seen) == img.ink_count()

    def test_blank_line(self):
        assert segment_paws(BinaryRaster.blank(5, 5)) == []


def paw_triples(paws, line):
    labels, _ = scipy_label(line.pixels)
    return [(p.bbox, paw_pixels(p, labels).tolist(), p.order_index) for p in paws]


def reference_triples(line, baselines=None):
    return [(bbox, pixels.tolist(), i) for bbox, pixels, i in reference_segment_paws(line, baselines)]


def tie_line(mark_cols):
    # Two equal bodies on the same rows and a mark above, centred between
    # them: column overlap and centroid distance both tie.
    img = canvas(9, 13)
    img[4:9, 0:5] = True
    img[4:9, 8:13] = True
    img[0:2, mark_cols[0] : mark_cols[1] + 1] = True
    return BinaryRaster(img)


class TestSegmentPawsOracle:
    @pytest.mark.parametrize("mark_cols", [(4, 8), (5, 7)])  # overlap 0 each, gap 3 each
    def test_full_tie_goes_to_first_body(self, mark_cols):
        line = tie_line(mark_cols)
        paws = segment_paws(line, Baselines(4, 8))
        assert paw_triples(paws, line) == reference_triples(line, Baselines(4, 8))
        assert paws[1].bbox[1] == 0 and (0, mark_cols[0]) in pixel_sets(paws, line)[1]

    def test_tie_below_the_band(self):
        line = BinaryRaster(tie_line((4, 8)).pixels[::-1])
        for baselines in (Baselines(0, 4), None):
            assert paw_triples(segment_paws(line, baselines), line) == reference_triples(line, baselines)

    def test_labels_cover_each_part(self):
        line = tie_line((4, 8))
        labels, _ = scipy_label(line.pixels)
        for paw in segment_paws(line, Baselines(4, 8)):
            pixels = paw_pixels(paw, labels)
            assert set(labels[tuple(pixels.T)]) == set(paw.labels.tolist())


@st.composite
def paw_lines(draw):
    """Sparse random ink: many small components on both sides of the band."""
    h, w = draw(st.integers(1, 16)), draw(st.integers(1, 24))
    cells = draw(st.lists(st.sampled_from([False, False, False, True]), min_size=h * w, max_size=h * w))
    line = BinaryRaster(np.array(cells).reshape(h, w))
    upper = draw(st.integers(0, h - 1))
    baselines = draw(st.sampled_from([None, Baselines(upper, draw(st.integers(upper, h - 1)))]))
    return line, baselines


@settings(max_examples=300, deadline=None)
@given(paw_lines())
def test_segment_paws_matches_reference(case):
    line, baselines = case
    if line.ink_count() == 0:
        baselines = Baselines(0, 0)  # estimate_baselines needs ink
    assert paw_triples(segment_paws(line, baselines), line) == reference_triples(line, baselines)


@st.composite
def tie_lines(draw):
    """Lines whose marks tie on column overlap: n bodies of one width at one
    pitch in the band, and marks above or below it that sit centred in a
    gap, span whole bodies, or lie anywhere. With equal body heights a
    centred mark also ties on centroid distance; unequal heights make the
    centroid decide."""
    n = draw(st.integers(2, 4))
    body_w, gap, band_h = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    pitch = body_w + gap
    left = draw(st.integers(0, 3))
    width = left + n * pitch + draw(st.integers(0, 3))
    # Mark rows 0-1, a blank row, the band, a blank row, mark rows.
    height = band_h + 6
    ink = np.zeros((height, width), dtype=bool)
    equal = draw(st.booleans())
    for i in range(n):
        c = left + i * pitch
        ink[3 : 3 + (band_h if equal else draw(st.integers(1, band_h))), c : c + body_w] = True
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.integers(0, n - 2))
        kind = draw(st.sampled_from(["gap", "span", "any"]))
        if kind == "gap":
            g0, g1 = left + a * pitch + body_w, left + (a + 1) * pitch - 1
            k = draw(st.integers(0, (g1 - g0) // 2))
            c0, c1 = g0 + k, g1 - k
        elif kind == "span":
            last = draw(st.integers(a + 1, n - 1))
            c0 = max(0, left + a * pitch - draw(st.integers(0, 1)))
            c1 = min(width - 1, left + last * pitch + body_w - 1 + draw(st.integers(0, 1)))
        else:
            c0 = draw(st.integers(0, width - 1))
            c1 = draw(st.integers(c0, min(width - 1, c0 + 3)))
        rows = draw(st.sampled_from([slice(0, 1), slice(0, 2), slice(1, 2)]))
        if draw(st.booleans()):
            rows = slice(height - rows.stop, height - rows.start)
        ink[rows, c0 : c1 + 1] = True
    return BinaryRaster(ink), Baselines(3, 2 + band_h)


@settings(max_examples=300, deadline=None)
@given(tie_lines())
def test_segment_paws_matches_reference_on_ties(case):
    line, baselines = case
    assert paw_triples(segment_paws(line, baselines), line) == reference_triples(line, baselines)
