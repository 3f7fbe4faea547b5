import collections
import functools
import hashlib
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from scriptid import features, geometry, layout, pipeline
from scriptid.classify import builtin_profiles
from scriptid.features import FeatureThresholds, detect_loops
from scriptid.geometry import trace_contours
from scriptid.pipeline import PipelineParams, analyze_page, analyze_pages, classify_page
from scriptid.layout import Baselines
from scriptid.raster import BinaryRaster, GrayRaster, dilate, load, save
from scriptid.synthgen import apply_salt, generate_corpus, generate_page

from oracles import reference_analyze_page


def wide_page(seed=1, script=0):
    return generate_page(builtin_profiles()[script], seed=seed, min_paws=20, max_paws=28).raster


def noise_page():
    """400x600 of 5% random ink: one line band whose marks outnumber its bodies."""
    return BinaryRaster(np.random.default_rng(0).random((400, 600)) < 0.05)


class TestAnalyzePage:
    def test_blank_page_yields_empty_analysis(self):
        analysis = analyze_page(BinaryRaster.blank(30, 30))
        assert analysis.lines == ()
        assert analysis.features.nb_paws == 0
        assert analysis.features.total_hits() == 0

    @pytest.mark.parametrize("page", [np.zeros((8, 8), dtype=bool), "page"], ids=["array", "str"])
    def test_page_of_neither_raster_kind_raises_type_error(self, page):
        with pytest.raises(TypeError, match="analyze_pages expects a BinaryRaster"):
            analyze_pages([wide_page(), page])

    def test_hits_are_in_page_coordinates(self):
        page = generate_page(builtin_profiles()[0], seed=6)
        analysis = analyze_page(page.raster)
        for line in analysis.lines:
            for hit in line.features.hits:
                assert line.band.top_row <= hit.location[0] <= line.band.bottom_row
                assert page.raster.pixels[
                    max(0, hit.location[0] - 2) : hit.location[0] + 3,
                    max(0, hit.location[1] - 2) : hit.location[1] + 3,
                ].any()

    def test_paw_indices_are_page_global(self):
        page = generate_page(builtin_profiles()[0], seed=8)
        analysis = analyze_page(page.raster)
        total = analysis.features.nb_paws
        indices = {h.paw_index for h in analysis.features.hits}
        assert all(0 <= i < total for i in indices)
        # line boundaries: later lines must use offset part indices
        offsets = []
        running = 0
        for line in analysis.lines:
            offsets.append(running)
            running += line.features.nb_paws
        for line, offset in zip(analysis.lines, offsets):
            for hit in line.features.hits:
                assert offset <= hit.paw_index < offset + line.features.nb_paws

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("dilation_radius", 1.0, TypeError),
            ("dilation_radius", -1, ValueError),
            ("merge_gap", 2.5, TypeError),
            ("merge_gap", -1, ValueError),
            ("diacritic_max_contour", 60.0, TypeError),
            ("diacritic_max_contour", 0, ValueError),
            ("diacritic_max_contour", 2**63, ValueError),
            ("alpha", "0.5", TypeError),
            ("alpha", 0.0, ValueError),
            ("alpha", 1.5, ValueError),
            ("alpha", float("nan"), ValueError),
        ],
    )
    def test_bad_param_is_refused_at_construction(self, field, value, error):
        # A float radius used to fail inside the pass, and a float merge gap to pass.
        with pytest.raises(error, match=f"^{field} must"):
            PipelineParams(**{field: value})

    def test_numpy_params_give_the_same_analysis(self):
        page = generate_page(builtin_profiles()[0], seed=1).raster
        fields = {"dilation_radius": 2, "merge_gap": 3, "diacritic_max_contour": 40}
        as_numpy = PipelineParams(**{name: np.int64(value) for name, value in fields.items()}, alpha=np.float64(0.5))
        assert repr(analyze_page(page, as_numpy)) == repr(analyze_page(page, PipelineParams(**fields)))

    def test_params_propagate(self):
        page = generate_page(builtin_profiles()[0], seed=2)
        loose = analyze_page(page.raster, PipelineParams(diacritic_max_contour=4))
        strict = analyze_page(page.raster)
        assert loose.features.counts["P"] <= strict.features.counts["P"]


@st.composite
def multi_line_rasters(draw):
    """One to four blocks of random ink, of one of three densities, stacked
    with two to four blank rows between them, so that each block holds at
    least one text line."""
    width = draw(st.integers(1, 24))
    density = draw(st.sampled_from([[False, True], [False, True, True], [False, True, True, True]]))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        height = draw(st.integers(1, 12))
        cells = draw(st.lists(st.sampled_from(density), min_size=height * width, max_size=height * width))
        blocks += [np.array(cells).reshape(height, width), np.zeros((draw(st.integers(2, 4)), width), dtype=bool)]
    return BinaryRaster(np.vstack(blocks[:-1]))


@settings(max_examples=200, deadline=None)
@given(multi_line_rasters(), st.integers(0, 2), st.integers(1, 200))
def test_loops_and_dropped_holes_match_each_line_traced_alone(img, radius, cap):
    # The page pass counts a line's dropped holes as its kept inner chains
    # minus its loops. The reference traces the line's crop, expanded alone,
    # with no band: B is detect_loops of that trace, and the dropped holes
    # are its closed inner chains that meet the band and reach the cap.
    analysis = analyze_page(img, PipelineParams(dilation_radius=radius, diacritic_max_contour=cap))
    for line in analysis.lines:
        top = line.band.top_row
        reference = trace_contours(dilate(BinaryRaster(img.pixels[top : line.band.bottom_row + 1]), radius))
        upper, lower = line.baselines.upper_row - top, line.baselines.lower_row - top
        loops = detect_loops(reference, Baselines(upper, lower), FeatureThresholds(0, 0, cap))
        assert line.features.counts["B"] == len(loops)
        dropped = [
            chain
            for chain in reference
            if chain.polarity == "inner" and chain.closed and chain.rows[1] >= upper and chain.rows[0] <= lower
            and chain.length >= cap
        ]
        assert line.features.dropped_oversize_loops == len(dropped)


class TestClassifyPage:
    def test_returns_verdict_and_analysis(self):
        page = generate_page(builtin_profiles()[1], seed=3)
        verdict, analysis = classify_page(page.raster)
        assert verdict.label == "Latin"
        assert analysis.features.nb_paws == page.expected.nb_paws

    def test_blank_page_is_unknown(self):
        verdict, _ = classify_page(BinaryRaster.blank(25, 25))
        assert verdict.label == "Unknown"

    @pytest.mark.parametrize("script", [0, 1])
    def test_graymap_page_reads_as_its_bitmap(self, tmp_path, script):
        # A graymap is thresholded as binarize does by default, dark cells
        # ink, so a page saved as P5 classifies exactly as its P4 bitmap.
        page = generate_page(builtin_profiles()[script], seed=1).raster
        save(page, tmp_path / "page.pbm")
        save(GrayRaster(np.where(page.pixels, 0, 255)), tmp_path / "page.pgm")
        gray, bitmap = load(tmp_path / "page.pgm"), load(tmp_path / "page.pbm")
        assert isinstance(gray, GrayRaster)
        verdict, analysis = classify_page(gray)
        assert verdict.label == builtin_profiles()[script].name
        assert repr(classify_page(gray)) == repr(classify_page(bitmap))


class TestPassesPerLine:
    @pytest.mark.parametrize("radius, labels_per_page, walkers_per_page", [(0, 3, 1), (1, 3, 1)])
    def test_label_calls_and_walkers_per_page(self, monkeypatch, radius, labels_per_page, walkers_per_page):
        # Every line of this page has ink above and below its body band. The
        # page is labelled whole, with every line's band rows blanked (all
        # outer zones at once), as the contour stage, and as the stage's
        # holes, however many lines it has. The one walker is the pole and
        # jamb scan's: every line has a lower dot that clears the jamb
        # margin, and the scan walks it to decide that it is a dot, not a
        # jamb. The contour stage builds none: the edge count of every chain
        # it keeps is under the cap. Runs are found twice, in the ink and
        # the stage: the holes are joined from the gaps between the stage's
        # own runs. Links are found twice, in the ink and the stage: the
        # zones keep the ink's runs outside the bands and the ink's links
        # between them, and the gap links are read off the stage's link
        # bounds. The run joiner is called three times: once for the ink
        # and its zones together, once for the stage and once for its gaps.
        runs, run_calls = geometry._runs, []
        links, link_calls = geometry._links, []
        join, labels = geometry._join, []
        walker, walkers = geometry._Walker, []

        def counting_runs(ink):
            run_calls.append(1)
            return runs(ink)

        def counting_links(*args, **kwargs):
            link_calls.append(1)
            return links(*args, **kwargs)

        def counting_join(*args, **kwargs):
            labels.append(1)
            return join(*args, **kwargs)

        def counting_walker(ink):
            walkers.append(1)
            return walker(ink)

        monkeypatch.setattr(geometry, "_runs", counting_runs)
        monkeypatch.setattr(geometry, "_links", counting_links)
        monkeypatch.setattr(geometry, "_join", counting_join)
        monkeypatch.setattr(geometry, "_Walker", counting_walker)
        analysis = analyze_page(wide_page(), PipelineParams(dilation_radius=radius))
        assert len(analysis.lines) == 4
        for line in analysis.lines:
            assert 0 < line.baselines.upper_row - line.band.top_row
            assert line.baselines.lower_row < line.band.bottom_row
        assert len(run_calls) == 2
        assert len(link_calls) == 2
        assert len(labels) == labels_per_page
        assert len(walkers) == walkers_per_page

    @pytest.mark.parametrize("radius", [0, 1])
    def test_only_word_parts_build_box_columns(self, monkeypatch, radius):
        # Four labellings are made per pass: the ink, its zones, the stage
        # and its holes. Every band and line test reads box rows; only word
        # parts read the left and right columns of the ink's boxes, so the
        # (count, 4) box table is built once per pass, for the ink's labelling.
        built, grouped = [], []
        boxes = geometry.Labelling.boxes

        def counting_boxes(labelling):
            built.append(labelling)
            return boxes.func(labelling)

        def recording_group_parts(labelling, *args):
            grouped.append(labelling)
            return group_parts(labelling, *args)

        counted = functools.cached_property(counting_boxes)
        counted.__set_name__(geometry.Labelling, "boxes")
        group_parts = features._group_parts
        monkeypatch.setattr(geometry.Labelling, "boxes", counted)
        monkeypatch.setattr(features, "_group_parts", recording_group_parts)
        analysis = analyze_page(wide_page(), PipelineParams(dilation_radius=radius))
        assert len(analysis.lines) == 4 and analysis.features.counts["B"] > 0
        assert len(grouped) == 1 and built == grouped

    def test_page_reaches_the_stages_through_module_attributes(self, monkeypatch):
        # bench/tracing.py::PATCHES wraps these names to count text lines as
        # calls to pipeline.extract_features, and to time line finding,
        # baselines, dilation and the contour, dot and loop stages; a page
        # must reach each of them through that attribute.
        calls = {}
        names = (
            (pipeline, "extract_features"),
            (pipeline, "extract_lines"),
            (pipeline, "estimate_baselines"),
            (features, "trace_contours"),
            (features, "detect_diacritics"),
            (features, "detect_loops"),
            (features, "dilate"),
        )
        for module, name in names:
            original = getattr(module, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        for radius in (0, 1):
            calls.clear()
            analysis = analyze_page(wide_page(), PipelineParams(dilation_radius=radius))
            assert analysis.features.nb_paws > 0 and len(analysis.lines) == 4
            assert calls["extract_features"] == calls["extract_lines"] == calls["dilate"] == 1
            # One baseline estimate and one dot and loop test per line.
            assert calls["estimate_baselines"] == calls["detect_diacritics"] == calls["detect_loops"] == 4
            assert calls["trace_contours"] >= 1

    @pytest.mark.parametrize("radius", [0, 1])
    def test_page_builds_no_point_tuples(self, monkeypatch, radius):
        # The dot and loop tests read each traced chain's start, rows and
        # length bound, which the trace gives, so no chain of the page builds
        # its points. The page is still traced once, and each of its 4 lines
        # meets one dot and one loop test: the benchmark's traced run times
        # and inspects those three stages.
        points, builds = geometry._points, []
        trace, chains = features.trace_contours, []
        calls = {"detect_diacritics": 0, "detect_loops": 0}

        def counting_points(*args):
            builds.append(1)
            return points(*args)

        def counting_trace(*args, **kwargs):
            chains.append(trace(*args, **kwargs))
            return chains[-1]

        for name in calls:
            original = getattr(features, name)

            def counting(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(features, name, counting)
        monkeypatch.setattr(geometry, "_points", counting_points)
        monkeypatch.setattr(features, "trace_contours", counting_trace)
        analysis = analyze_page(wide_page(), PipelineParams(dilation_radius=radius))
        assert analysis.features.total_hits() > 0 and len(analysis.lines) == 4
        assert len(chains) == 1 and len(chains[0]) > 0
        assert calls == {"detect_diacritics": 4, "detect_loops": 4}
        assert builds == []
        # Reading a chain's points afterwards builds them once.
        assert chains[0][0].points == chains[0][0].points and len(builds) == 1

    def test_only_a_chain_bounded_at_the_cap_is_walked(self, monkeypatch):
        # A dot above a body band that holds a rounded hole. The dot's edge
        # count, 8, is under the cap of 22, so it is a dot with no walk. The
        # hole's edge count, 24, reaches the cap, so its chain is walked:
        # its length is 20, which makes it a loop. No region clears a pole
        # or jamb margin, so nothing else is walked.
        ink = np.zeros((10, 30), dtype=bool)
        ink[1:3, 3:5] = ink[4:10] = True
        ink[5:9, 10:18] = False
        ink[5, 10] = ink[5, 17] = ink[8, 10] = ink[8, 17] = True
        params = PipelineParams(dilation_radius=0, diacritic_max_contour=22)
        walk, starts = geometry._Walker.walk, []

        def counting_walk(walker, start, back):
            starts.append(start)
            return walk(walker, start, back)

        monkeypatch.setattr(geometry._Walker, "walk", counting_walk)
        analysis = analyze_page(BinaryRaster(ink), params)
        assert len(starts) == 1
        assert analysis.features.counts == {"H": 0, "J": 0, "P": 1, "Q": 0, "B": 1}
        assert [hit.location for hit in analysis.features.hits if hit.kind == "B"] == [(4, 11)]
        # Walking both kept chains for their lengths gives the same analysis.
        monkeypatch.setattr(geometry.ContourChain, "_under", lambda chain, cap: chain.length < cap)
        assert repr(analyze_page(BinaryRaster(ink), params)) == repr(analysis)
        assert len(starts) == 3

    def test_centroids_only_for_tied_marks(self, monkeypatch):
        # No mark of the wide page ties on column overlap, so no centroid is
        # computed; a mark centred between two equal bodies ties and needs them.
        centroids, calls = layout._centroids, []

        def counting_centroids(*args):
            calls.append(1)
            return centroids(*args)

        monkeypatch.setattr(layout, "_centroids", counting_centroids)
        analysis = analyze_page(wide_page())
        assert analysis.features.nb_paws > 0 and calls == []
        tied = np.zeros((9, 13), dtype=bool)
        tied[4:9, 0:5] = tied[4:9, 8:13] = tied[0:2, 5:8] = True
        # merge_gap 3 keeps the mark, two blank rows above the bodies, in their line.
        (line,) = analyze_page(BinaryRaster(tied), PipelineParams(merge_gap=3)).lines
        assert line.baselines == Baselines(4, 8)
        assert line.features.nb_paws == 2 and len(calls) == 1

    def test_noise_page_builds_one_centroid_table(self, monkeypatch):
        # One line of 9,383 marks and 266 bodies, with ties in several blocks
        # of (mark, body) pairs: each block's ties read the same table.
        centroids, calls = layout._centroids, []

        def counting_centroids(*args):
            calls.append(1)
            return centroids(*args)

        monkeypatch.setattr(layout, "_centroids", counting_centroids)
        analysis = analyze_page(noise_page())
        assert len(analysis.lines) == 1 and len(calls) == 1

    @pytest.mark.parametrize(
        "page, ceiling",
        [
            (lambda: generate_page(builtin_profiles()[0], seed=1001, min_paws=5, max_paws=8).raster, 200),
            (lambda: generate_corpus(builtin_profiles()[0], 1, seed=5)[0].raster, 170),
        ],
        ids=["4-line page", "word"],
    )
    def test_page_pass_makes_few_python_level_numpy_calls(self, page, ceiling):
        # At the generator's sizes a pass is bound by its count of calls, not
        # by pixels, and a numpy helper written in Python (flatnonzero, diff,
        # ndarray.all, ...) costs more per call than its C work. Which helpers
        # are Python depends on the numpy release, so the ceiling leaves room.
        page = page()
        analyze_page(page)  # the first pass may still import and fill caches
        root = os.path.dirname(np.__file__) + os.sep
        calls = collections.Counter()

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(root):
                calls[f"{frame.f_globals.get('__name__')}.{frame.f_code.co_name}"] += 1

        sys.setprofile(count)
        try:
            analyze_page(page)
        finally:
            sys.setprofile(None)
        total = sum(calls.values())
        assert total <= ceiling, f"{total} calls into numpy, most often: " + ", ".join(
            f"{name} {n}" for name, n in calls.most_common(10)
        )

    @pytest.mark.parametrize(
        "page, expected",
        [
            (lambda: generate_corpus(builtin_profiles()[0], 1, seed=5)[0].raster, 97),
            (lambda: generate_page(builtin_profiles()[0], seed=1001, min_paws=5, max_paws=8).raster, 188),
            (lambda: wide_page(), 270),
        ],
        ids=["word", "4-line page", "wide page"],
    )
    def test_page_pass_makes_a_pinned_count_of_python_calls(self, page, expected):
        # The calls of scriptid's own functions in a second pass, leaving out
        # comprehensions and lambdas, whose frames come and go between Python
        # releases. A change that moves a count says so.
        page = page()
        analyze_page(page)
        root = os.path.dirname(pipeline.__file__) + os.sep
        calls = collections.Counter()

        def count(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename.startswith(root) and not code.co_name.startswith("<"):
                calls[f"{frame.f_globals.get('__name__')}.{code.co_name}"] += 1

        sys.setprofile(count)
        try:
            analyze_page(page)
        finally:
            sys.setprofile(None)
        assert sum(calls.values()) == expected, sorted(calls.items())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_blank_margins_only_shift_hits(data):
    # Dilation clips at the line crop, so pages whose ink comes within the
    # radius of the left or right edge would grow a longer contour once
    # padded; the generator keeps its ink farther in than that.
    seed, radius = data.draw(st.integers(0, 40)), data.draw(st.integers(0, 2))
    page = generate_page(builtin_profiles()[seed % 2], seed=seed).raster
    if data.draw(st.booleans()):
        page = apply_salt(page, 0.01, seed=seed)
    cols = np.flatnonzero(page.pixels.any(axis=0))
    assume(cols[0] >= radius and cols[-1] < page.width - radius)
    top, bottom, left, right = (data.draw(st.integers(0, 12)) for _ in range(4))
    padded = BinaryRaster(np.pad(page.pixels, ((top, bottom), (left, right))))

    params = PipelineParams(dilation_radius=radius)
    verdict, analysis = classify_page(page, params=params)
    padded_verdict, padded_analysis = classify_page(padded, params=params)
    assert padded_verdict == verdict
    fs, padded_fs = analysis.features, padded_analysis.features
    assert padded_fs.counts == fs.counts
    assert padded_fs.nb_paws == fs.nb_paws
    assert padded_fs.dropped_oversize_loops == fs.dropped_oversize_loops
    assert padded_fs.hits == tuple(
        features.FeatureHit(h.kind, (h.location[0] + top, h.location[1] + left), h.paw_index, h.position)
        for h in fs.hits
    )


@st.composite
def analysed_pages(draw):
    """Generator pages, clean, salted at 1%, or dilated and salted at 0.1%,
    with blank margins that may be 0 so bands touch the page's first or last
    row, sometimes restacked so their lines sit exactly merge_gap + 1 blank
    rows apart, and pipeline settings."""
    seed = draw(st.integers(0, 10_000))
    parts = draw(st.sampled_from([(1, 3), (5, 8), (20, 28)]))
    page = generate_page(builtin_profiles()[seed % 2], seed=seed, min_paws=parts[0], max_paws=parts[1]).raster
    params = PipelineParams(
        dilation_radius=draw(st.integers(0, 3)),
        merge_gap=draw(st.integers(0, 2)),
        diacritic_max_contour=draw(st.sampled_from([20, 60, 200])),
    )
    ink = page.pixels
    if draw(st.booleans()):
        gap = np.zeros((params.merge_gap + 1, page.width), dtype=bool)
        crops = [ink[band.top_row : band.bottom_row + 1] for band in layout.extract_lines(page)]
        ink = np.concatenate([part for crop in crops for part in (gap, crop)][1:])
    margin = st.one_of(st.just(0), st.integers(0, 12))
    ink = np.pad(ink, ((draw(margin), draw(margin)), (draw(margin), draw(margin))))
    page = BinaryRaster(ink)
    noise = draw(st.sampled_from(["clean", "salt", "grown"]))
    if noise == "salt":
        page = apply_salt(page, 0.01, seed=seed)
    elif noise == "grown":
        page = apply_salt(dilate(page, 1), 0.001, seed=seed)
    return page, params


@settings(max_examples=80, deadline=None)
@given(analysed_pages())
def test_page_pass_matches_line_by_line_analysis(case):
    page, params = case
    assert repr(analyze_page(page, params)) == repr(reference_analyze_page(page, params))


@st.composite
def page_lists(draw):
    """1-5 generator pages and words of different sizes, some cropped so
    ink meets their first row, last row or last column, some padded with
    blank rows and columns, some salted or grown, and now and then a blank
    image; plus pipeline settings."""
    params = PipelineParams(
        dilation_radius=draw(st.integers(0, 3)),
        merge_gap=draw(st.integers(0, 2)),
        diacritic_max_contour=draw(st.sampled_from([20, 60, 200])),
    )
    pages = []
    for _ in range(draw(st.integers(1, 5))):
        seed = draw(st.integers(0, 10_000))
        profile = builtin_profiles()[seed % 2]
        kind = draw(st.sampled_from(["word", "word", "page", "blank"]))
        if kind == "blank":
            pages.append(BinaryRaster.blank(draw(st.integers(1, 30)), draw(st.integers(1, 90))))
            continue
        if kind == "word":
            raster = generate_corpus(profile, 1, seed=seed, max_paws=draw(st.integers(1, 4)))[0].raster
        else:
            lines = draw(st.integers(1, 3))
            raster = generate_page(profile, seed=seed, n_lines=lines, min_paws=1, max_paws=5).raster
        noise = draw(st.sampled_from(["clean", "clean", "salt", "grown"]))
        if noise == "salt":
            raster = apply_salt(raster, 0.01, seed=seed)
        elif noise == "grown":
            raster = apply_salt(dilate(raster, 1), 0.001, seed=seed)
        ink = raster.pixels
        rows, cols = np.flatnonzero(ink.any(axis=1)), np.flatnonzero(ink.any(axis=0))
        top = rows[0] if draw(st.booleans()) else 0
        bottom = rows[-1] + 1 if draw(st.booleans()) else ink.shape[0]
        # Cut at the right edge of an ink region, often a dot, so that it
        # meets the last column.
        regions = ndimage.find_objects(ndimage.label(ink, structure=np.ones((3, 3)))[0])
        right = draw(st.sampled_from([ink.shape[1], draw(st.sampled_from(regions))[1].stop]))
        pad = ((0, draw(st.integers(0, 6))), (0, draw(st.integers(0, 20))))
        pages.append(BinaryRaster(np.pad(ink[top:bottom, :right], pad)))
    cuts = sorted(draw(st.sets(st.integers(1, len(pages) - 1)))) if len(pages) > 1 else []
    return pages, params, cuts


def _dot_at_right_border():
    """A word cut at the right edge of its upper dot, before the whole word.
    Expanded by 1, the dot's outer chain has 18 points, under the cap of
    20, only while the expansion stops at the cut's last column."""
    word = generate_corpus(builtin_profiles()[1], 1, seed=15)[0].raster
    params = PipelineParams(dilation_radius=1, diacritic_max_contour=20)
    return [BinaryRaster(word.pixels[:, :59]), word], params, []


@settings(max_examples=60, deadline=None)
@example(_dot_at_right_border())
@given(page_lists())
def test_batched_pages_match_one_page_at_a_time(case):
    pages, params, cuts = case
    alone = [repr(analyze_page(page, params)) for page in pages]
    assert [repr(a) for a in analyze_pages(pages, params)] == alone
    # Any split into runs of consecutive pages, and the reverse order, give the same.
    runs = [pages[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(pages)])]
    assert [repr(a) for run in runs for a in analyze_pages(run, params)] == alone
    assert [repr(a) for a in analyze_pages(pages[::-1], params)][::-1] == alone


# The peak working memory of a pass, in bytes per stacked pixel (total
# height times largest width), as pipeline._GATHER's comment and the README give it.
PEAK_BYTES_PER_PIXEL = 10


def _peak(call):
    """call's result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "pages",
    [
        pytest.param(lambda: [wide_page()], id="wide-page"),
        pytest.param(lambda: [w.raster for w in generate_corpus(builtin_profiles()[1], 10, seed=4)], id="10-words"),
        pytest.param(lambda: [wide_page(seed, seed % 2) for seed in range(8)], id="8-wide-pages"),
    ],
)
def test_peak_memory_per_stacked_pixel(pages, monkeypatch):
    # One pass over all the pages: the run bound of analyze_pages raised past them.
    pages = pages()
    monkeypatch.setattr(pipeline, "_GATHER", 1 << 40)
    _, peak = _peak(lambda: analyze_pages(pages))
    stacked = sum(page.height for page in pages) * max(page.width for page in pages)
    assert peak / stacked < PEAK_BYTES_PER_PIXEL


def test_pages_of_a_generator_are_analysed_in_bounded_runs():
    # One pass over all 64 pages would peak near 24 MB.
    def pages():
        for seed in range(64):
            yield generate_page(builtin_profiles()[seed % 2], seed=seed).raster

    analyses, peak = _peak(lambda: analyze_pages(pages()))
    assert peak < 10_000_000
    assert [repr(a) for a in analyses] == [repr(analyze_page(page)) for page in pages()]


def test_noise_page_peaks_under_ten_megabytes():
    # Matching its marks in blocks of 2^20 (mark, body) pairs peaks at
    # 32 MB, about 134 bytes per page pixel.
    page = noise_page()
    _, peak = _peak(lambda: analyze_page(page))
    assert peak < 10_000_000


def test_runs_of_several_pages_stack_at_most_the_bound_at_a_large_radius(monkeypatch):
    # At radius 155 each line stacks 155 gap rows after it, about three times
    # its own rows, so counting page rows would let a run stack 2.8 Mpx.
    passes, stacked = [], []
    extract, lines = pipeline.extract_features, features._Lines

    def counting(pages, *args, **kwargs):
        passes.append(len(pages))
        return extract(pages, *args, **kwargs)

    class Counted(lines):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            stacked.append(self.ink.size)

    monkeypatch.setattr(pipeline, "extract_features", counting)
    monkeypatch.setattr(features, "_Lines", Counted)
    pages, params = [wide_page(seed, seed % 2) for seed in range(8)], PipelineParams(dilation_radius=155)
    together = [repr(a) for a in analyze_pages(pages, params)]
    assert sum(passes) == 8 and max(passes) > 1
    assert all(size <= pipeline._GATHER for n, size in zip(passes, stacked) if n > 1)
    assert together == [repr(analyze_page(page, params)) for page in pages]


def test_nearest_part_search_keeps_nothing_after_the_call():
    # At radius 600 a search window holds 1,111 x 1,109 offsets, 20 MB as
    # an int64 table, which a cache would keep after the call.
    page, params = wide_page(), PipelineParams(dilation_radius=600)
    analyze_page(page)  # what a first pass imports stays after it
    tracemalloc.start()
    try:
        analyze_page(page, params)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1_000_000


def test_nearest_part_search_memory_does_not_grow_with_the_radius_squared():
    # At radius 155 each hit's search window holds 311 x 311 pixels, so the
    # windows of all the page's hits at once would take 136 MB. The digest
    # is the analysis one search over all the hits gives.
    page, params = wide_page(), PipelineParams(dilation_radius=155)
    analysis, peak = _peak(lambda: analyze_page(page, params))
    assert peak < 8_000_000
    digest = hashlib.sha256(repr(analysis).encode()).hexdigest()
    assert digest == "8d83266d17d23f969efc623e3d5a30d70679a29a564bcd212c84ed31017dba86"
