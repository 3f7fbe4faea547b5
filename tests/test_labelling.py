"""The run labeller against scipy's pixel labelling, on shapes from empty
rasters to salted pages and on its worst cases. A labelling is only its
runs, so each is checked to cover exactly the ink and to give scipy's label
at every ink pixel through its run lookup; the holes' labelling is checked
run for run against scipy's labelling of the background."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scriptid.classify import builtin_profiles
from scriptid.geometry import _label, _label_and_holes, _label_and_zones
from scriptid.layout import _centroids
from scriptid.raster import BinaryRaster, dilate
from scriptid.synthgen import apply_salt, generate_page

from oracles import scipy_hole_labelling, scipy_holes, scipy_label, with_hole_cases, worst_case_rasters

KINDS = ("empty", "pixel", "row", "column", "full", "border", "checkerboard", "random", "page")


@lru_cache(maxsize=None)
def _page(seed):
    return generate_page(builtin_profiles()[seed % 2], seed=seed).raster


@st.composite
def label_rasters(draw):
    """Rasters of one kind: empty, a single pixel, 1×N, N×1, full, random
    with ink on the border, a checkerboard, random, or a crop of a salted
    page, sometimes thickened first so its salt opens holes."""
    kind = draw(st.sampled_from(KINDS))
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    if kind == "row":
        h = 1
    elif kind == "column":
        w = 1
    cells = np.array(draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))).reshape(h, w)
    if kind == "empty":
        ink = np.zeros((h, w), dtype=bool)
    elif kind == "pixel":
        ink = np.zeros((h, w), dtype=bool)
        ink[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = True
    elif kind == "full":
        ink = np.ones((h, w), dtype=bool)
    elif kind == "border":
        ink = cells.copy()
        ink[[0, -1], :] |= draw(st.booleans())
        ink[:, [0, -1]] = True
    elif kind == "checkerboard":
        ink = np.indices((h, w)).sum(axis=0) % 2 == draw(st.integers(0, 1))
    elif kind == "page":
        page = _page(draw(st.integers(0, 3)))
        if draw(st.booleans()):
            page = dilate(page, 1)
        page = apply_salt(page, draw(st.sampled_from([0.0, 0.01, 0.05, 0.3])), seed=draw(st.integers(0, 99)))
        top = draw(st.integers(0, page.height - 1))
        left = draw(st.integers(0, page.width - 1))
        ink = page.pixels[top : top + draw(st.integers(1, page.height)), left : left + draw(st.integers(1, page.width))]
    else:
        ink = cells
    return BinaryRaster(ink)


def _assert_runs_match(labelling, ink, labels):
    """Every ink pixel lies in exactly one run and no background pixel in
    any, and the run lookup gives scipy's label at every ink pixel."""
    height, width = ink.shape
    # Per row, +1 at each run's first column and -1 past its last one.
    steps = np.zeros((height, width + 1), dtype=np.intp)
    np.add.at(steps, (labelling.rows, labelling.starts), 1)
    np.add.at(steps, (labelling.rows, labelling.ends + 1), -1)
    assert np.array_equal(np.cumsum(steps, axis=1)[:, :width], ink)
    rows, cols = np.nonzero(ink)
    assert np.array_equal(labelling.label_at(rows, cols), labels[rows, cols])


def _first_pixels(labels):
    """The first raster-order pixel of every label."""
    rows, cols = np.nonzero(labels)
    _, first = np.unique(labels[rows, cols], return_index=True)
    return list(zip(rows[first].tolist(), cols[first].tolist()))


@settings(max_examples=300, deadline=None)
@given(label_rasters())
def test_labelling_matches_scipy(img):
    labelling = _label(img.pixels)
    labels, boxes = scipy_label(img.pixels)
    assert labelling.count == len(boxes)
    _assert_runs_match(labelling, img.pixels, labels)
    assert labelling.boxes.tolist() == [list(box) for box in boxes]
    top_rows, top_cols = labelling.first_pixels(np.arange(labelling.count))
    assert list(zip(top_rows.tolist(), top_cols.tolist())) == _first_pixels(labels)


@settings(max_examples=300, deadline=None)
@given(label_rasters())
@with_hole_cases
def test_holes_match_scipy(img):
    _, holes = _label_and_holes(img.pixels)
    ours = (*holes.first_pixels(np.arange(holes.count)), holes.boxes[:, 2])
    theirs = scipy_holes(img.pixels)
    assert [a.tolist() for a in ours] == [a.tolist() for a in theirs]


def _assert_hole_labelling_matches(ink):
    """The hole labelling, run for run and box for box, against scipy's
    4-connected labelling of the background without the regions that touch
    the border."""
    _, holes = _label_and_holes(ink)
    runs, boxes = scipy_hole_labelling(ink)
    assert holes.shape == ink.shape
    for name, expected in runs.items():
        assert np.array_equal(getattr(holes, name), expected), name
    assert np.array_equal(holes.boxes, boxes)


@settings(max_examples=300, deadline=None)
@given(label_rasters())
@with_hole_cases
def test_hole_labelling_matches_scipy(img):
    _assert_hole_labelling_matches(img.pixels)


@pytest.mark.parametrize("name", sorted(worst_case_rasters()))
def test_worst_case_hole_labellings_match_scipy(name):
    _assert_hole_labelling_matches(worst_case_rasters()[name])


@settings(max_examples=200, deadline=None)
@given(label_rasters(), st.data())
def test_centroids_are_pixel_means(img, data):
    labelling = _label(img.pixels)
    assume(labelling.count > 0)
    origin = np.array(data.draw(st.lists(st.integers(0, 30), min_size=labelling.count, max_size=labelling.count)))
    labels, _ = scipy_label(img.pixels)
    rows, cols = np.nonzero(labels)
    k = labels[rows, cols] - 1
    pixels = np.bincount(k, minlength=labelling.count)
    row_means = np.bincount(k, weights=rows - origin[k], minlength=labelling.count) / pixels
    col_means = np.bincount(k, weights=cols, minlength=labelling.count) / pixels
    expected = np.column_stack((row_means, col_means))
    assert np.array_equal(_centroids(labelling, origin), expected)


@pytest.mark.parametrize("name", sorted(worst_case_rasters()))
def test_worst_case_rasters_match_scipy(name):
    ink = worst_case_rasters()[name]
    labelling = _label(ink)
    labels, boxes = scipy_label(ink)
    _assert_runs_match(labelling, ink, labels)
    assert labelling.boxes.tolist() == [list(box) for box in boxes]
    holes = _label_and_holes(ink)[1]
    ours = (*holes.first_pixels(np.arange(holes.count)), holes.boxes[:, 2])
    assert [a.tolist() for a in ours] == [a.tolist() for a in scipy_holes(ink)]


@settings(max_examples=300, deadline=None)
@given(label_rasters(), st.data())
def test_zones_are_the_raw_runs_outside_the_bands(img, data):
    # The zones labelling keeps the raw runs of the rows outside every band
    # and joins them again; it must equal a labelling of the ink with those
    # rows blanked, for any set of blanked rows.
    blank = np.array(data.draw(st.lists(st.booleans(), min_size=img.height, max_size=img.height)))
    _, zones = _label_and_zones(img.pixels, blank)
    expected = _label(img.pixels & ~blank[:, None])
    for name in ("rows", "starts", "ends", "run_labels", "first_runs", "boxes"):
        assert np.array_equal(getattr(zones, name), getattr(expected, name)), name
