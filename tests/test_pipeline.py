import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from scriptid import features, geometry, layout, pipeline
from scriptid.classify import builtin_profiles
from scriptid.pipeline import PipelineParams, analyze_page, analyze_pages, classify_page
from scriptid.layout import Baselines
from scriptid.raster import BinaryRaster, dilate
from scriptid.synthgen import apply_salt, generate_corpus, generate_page

from oracles import reference_analyze_page


def wide_page(seed=1, script=0):
    return generate_page(builtin_profiles()[script], seed=seed, min_paws=20, max_paws=28).raster


class TestAnalyzePage:
    def test_blank_page_yields_empty_analysis(self):
        analysis = analyze_page(BinaryRaster.blank(30, 30))
        assert analysis.lines == ()
        assert analysis.features.nb_paws == 0
        assert analysis.features.total_hits() == 0

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

    def test_params_propagate(self):
        page = generate_page(builtin_profiles()[0], seed=2)
        loose = analyze_page(page.raster, PipelineParams(diacritic_max_contour=4))
        strict = analyze_page(page.raster)
        assert loose.features.counts["P"] <= strict.features.counts["P"]


class TestClassifyPage:
    def test_returns_verdict_and_analysis(self):
        page = generate_page(builtin_profiles()[1], seed=3)
        verdict, analysis = classify_page(page.raster)
        assert verdict.label == "Latin"
        assert analysis.features.nb_paws == page.expected.nb_paws

    def test_blank_page_is_unknown(self):
        verdict, _ = classify_page(BinaryRaster.blank(25, 25))
        assert verdict.label == "Unknown"


class TestPassesPerLine:
    @pytest.mark.parametrize("radius, labels_per_page, walkers_per_page", [(0, 4, 2), (1, 4, 2)])
    def test_label_calls_and_walkers_per_page(self, monkeypatch, radius, labels_per_page, walkers_per_page):
        # Every line of this page has ink above and below its body band. The
        # page is labelled whole, with every line's band rows blanked (all
        # outer zones at once), as the contour stage, and as the stage's
        # holes, however many lines it has. One walker is the contour
        # walk's. The other is the pole and jamb scan's: every line has a
        # lower dot that clears the jamb margin, and the scan walks it to
        # decide that it is a dot, not a jamb. Each labelling joins its runs
        # with one call to the run joiner. Runs are found twice, in the ink
        # and the stage: the holes are joined from the gaps between the
        # stage's own runs. Links are found three times, in the ink, the
        # stage and its gaps; the zones keep the ink's runs outside the
        # bands and the ink's links between them.
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
        assert len(link_calls) == 3
        assert len(labels) == labels_per_page
        assert len(walkers) == walkers_per_page

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
# height times largest width), as cli._GATHER's comment and the README give it.
PEAK_BYTES_PER_PIXEL = 10


@pytest.mark.parametrize(
    "pages",
    [
        pytest.param(lambda: [wide_page()], id="wide-page"),
        pytest.param(lambda: [w.raster for w in generate_corpus(builtin_profiles()[1], 10, seed=4)], id="10-words"),
        pytest.param(lambda: [wide_page(seed, seed % 2) for seed in range(8)], id="8-wide-pages"),
    ],
)
def test_peak_memory_per_stacked_pixel(pages):
    pages = pages()
    analyze_pages(pages)  # fill the lookup caches first
    tracemalloc.start()
    try:
        analyze_pages(pages)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stacked = sum(page.height for page in pages) * max(page.width for page in pages)
    assert peak / stacked < PEAK_BYTES_PER_PIXEL
