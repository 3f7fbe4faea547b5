import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from scriptid import features, geometry, layout
from scriptid.classify import builtin_profiles
from scriptid.pipeline import PipelineParams, analyze_page, classify_page
from scriptid.layout import Baselines, segment_paws
from scriptid.raster import BinaryRaster
from scriptid.synthgen import apply_salt, generate_page


def wide_page():
    return generate_page(builtin_profiles()[0], seed=1, min_paws=20, max_paws=28).raster


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
    @pytest.mark.parametrize("radius, labels_per_line, walkers_per_line", [(0, 4, 2), (1, 4, 2)])
    def test_label_calls_and_walkers_per_line(self, monkeypatch, radius, labels_per_line, walkers_per_line):
        # Every line of this page has ink above and below its body band.
        # Each line is labelled whole, with its band rows blanked (both outer
        # zones at once), as the contour stage, and as framed background.
        # One walker per line is the contour walk's. The other is the jamb
        # scan's: every line has a lower dot that clears the jamb margin, and
        # the scan walks it to decide that it is a dot, not a jamb.
        label, labels = ndimage.label, []
        walker, walkers = geometry._Walker, []

        def counting_label(*args, **kwargs):
            labels.append(1)
            return label(*args, **kwargs)

        def counting_walker(ink):
            walkers.append(1)
            return walker(ink)

        monkeypatch.setattr(ndimage, "label", counting_label)
        monkeypatch.setattr(geometry, "_Walker", counting_walker)
        analysis = analyze_page(wide_page(), PipelineParams(dilation_radius=radius))
        for line in analysis.lines:
            assert 0 < line.baselines.upper_row - line.band.top_row
            assert line.baselines.lower_row < line.band.bottom_row
        assert len(labels) == labels_per_line * len(analysis.lines)
        assert len(walkers) == walkers_per_line * len(analysis.lines)

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
        paws = segment_paws(BinaryRaster(tied), Baselines(4, 8))
        assert len(paws) == 2 and len(calls) == 1


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
