"""The run labeller against scipy's pixel labelling, on shapes from empty
rasters to salted pages and on its worst cases. A labelling is only its
runs, so each is checked to cover exactly the ink and to give scipy's label
at every ink pixel through its run lookup."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scriptid.classify import builtin_profiles
from scriptid.features import FeatureThresholds, _Lines
from scriptid.geometry import _label, _label_and_holes
from scriptid.layout import Baselines, LineBand, _centroids
from scriptid.raster import BinaryRaster, dilate
from scriptid.synthgen import apply_salt, generate_page

from oracles import scipy_holes, scipy_label, with_hole_cases, worst_case_rasters

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
    _, ours = _label_and_holes(img.pixels)
    theirs = scipy_holes(img.pixels)
    assert [a.tolist() for a in ours] == [a.tolist() for a in theirs]


@settings(max_examples=200, deadline=None)
@given(label_rasters(), st.data())
def test_centroids_are_pixel_means(img, data):
    labelling = _label(img.pixels)
    assume(labelling.count > 0)
    comps = np.array(sorted(data.draw(st.sets(st.integers(0, labelling.count - 1), min_size=1))))
    origin = np.array(data.draw(st.lists(st.integers(0, 30), min_size=labelling.count, max_size=labelling.count)))
    labels, _ = scipy_label(img.pixels)
    rows, cols = np.nonzero(labels)
    k = labels[rows, cols] - 1
    pixels = np.bincount(k, minlength=labelling.count)
    row_means = np.bincount(k, weights=rows - origin[k], minlength=labelling.count) / pixels
    col_means = np.bincount(k, weights=cols, minlength=labelling.count) / pixels
    expected = np.column_stack((row_means[comps], col_means[comps]))
    assert np.array_equal(_centroids(labelling, comps, origin), expected)


@pytest.mark.parametrize("name", sorted(worst_case_rasters()))
def test_worst_case_rasters_match_scipy(name):
    ink = worst_case_rasters()[name]
    labelling = _label(ink)
    labels, boxes = scipy_label(ink)
    _assert_runs_match(labelling, ink, labels)
    assert labelling.boxes.tolist() == [list(box) for box in boxes]
    assert [a.tolist() for a in _label_and_holes(ink)[1]] == [a.tolist() for a in scipy_holes(ink)]


@settings(max_examples=300, deadline=None)
@given(label_rasters(), st.data())
def test_zones_are_the_raw_runs_outside_the_bands(img, data):
    # The zones labelling keeps the raw runs of the rows outside every band
    # and joins them again; it must equal a labelling of the ink with those
    # rows blanked, for any set of blanked rows.
    blank = np.array(data.draw(st.lists(st.booleans(), min_size=img.height, max_size=img.height)))
    lines = _Lines([img.pixels], [LineBand(0, img.height - 1)], [Baselines(0, 0)], [FeatureThresholds(0, 0)])
    lines.in_band = blank
    zones, expected = lines.zones, _label(img.pixels & ~blank[:, None])
    for name in ("rows", "starts", "ends", "run_labels", "first_runs", "boxes"):
        assert np.array_equal(getattr(zones, name), getattr(expected, name)), name
