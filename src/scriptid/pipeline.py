"""End-to-end helpers: whole-page analysis and script identification."""

from __future__ import annotations

from dataclasses import dataclass

from .classify import DEFAULT_Q_MIN, Verdict, classify
from .features import DEFAULT_CONTOUR_CAP, FeatureSet, FeatureThresholds, _gap, combine_feature_sets, extract_features
from .layout import DEFAULT_ALPHA, DEFAULT_MERGE_GAP, Baselines, LineBand, estimate_baselines, extract_lines
from .raster import DEFAULT_DILATION_RADIUS, BinaryRaster, GrayRaster, _require_binary, binarize

__all__ = ["PipelineParams", "LineAnalysis", "PageAnalysis", "analyze_page", "analyze_pages", "classify_page"]


@dataclass(frozen=True)
class PipelineParams:
    """Knobs shared by every stage of the extraction pipeline."""

    dilation_radius: int = DEFAULT_DILATION_RADIUS
    alpha: float = DEFAULT_ALPHA
    merge_gap: int = DEFAULT_MERGE_GAP
    diacritic_max_contour: int = DEFAULT_CONTOUR_CAP


DEFAULT_PARAMS = PipelineParams()


@dataclass(frozen=True)
class LineAnalysis:
    """One text line: its row band, baselines, and features, in page coordinates."""

    band: LineBand
    baselines: Baselines
    features: FeatureSet


@dataclass(frozen=True)
class PageAnalysis:
    """Aggregate page features plus the per-line breakdown."""

    features: FeatureSet
    lines: tuple[LineAnalysis, ...]


# Consecutive pages share a pass while the buffer they stack (each band's
# rows and the gap rows after it, times the widest page) stays within this
# many pixels; a larger page has a pass alone. A pass peaks under 10 bytes
# per stacked pixel, so near 10 MB, and runs this large were no slower than
# one pass over a whole page list.
_GATHER = 1 << 20


def analyze_pages(pages, params: PipelineParams = DEFAULT_PARAMS) -> list[PageAnalysis]:
    """Split each page into lines and extract the features of every line;
    one PageAnalysis per page.

    pages, any iterable, is read one page at a time, and consecutive pages
    share one pass while the buffer they stack stays within _GATHER pixels.
    Each line is measured as if cropped from its page: its baselines come
    from its own rows, and its expansion is clipped to them and to its
    page's columns, so the result for a page does not depend on the pages
    analysed with it. Hit coordinates and word-part indices are reported in
    page coordinates, with each page's parts numbered from 0, top line
    first, right to left within each line. A blank page yields an empty
    analysis with zero counts and parts. A GrayRaster page is thresholded
    by binarize at its default first: a cell darker than 128 is ink; a page
    of any other kind raises TypeError.
    """
    analyses, run, rows, width, gap = [], [], 0, 0, _gap(params.dilation_radius)
    for page in pages:
        page = binarize(page) if isinstance(page, GrayRaster) else page
        _require_binary(page, "analyze_pages")
        bands = extract_lines(page, params.merge_gap)
        stacked = sum(band.bottom_row - band.top_row + 1 + gap for band in bands)
        rows, width = rows + stacked, max(width, page.width)
        if run and rows * width > _GATHER:
            analyses += _analyze_run(*zip(*run), params)
            run, rows, width = [], stacked, page.width
        run.append((page, bands))
    return analyses + _analyze_run(*zip(*run), params) if run else analyses


def _analyze_run(pages, bands, params: PipelineParams) -> list[PageAnalysis]:
    """analyze_pages of a run of BinaryRaster pages and their line bands, in one pass."""
    baselines = [
        [_line_baselines(page, band, params.alpha) for band in page_bands]
        for page, page_bands in zip(pages, bands)
    ]
    thresholds = [
        [FeatureThresholds.from_baselines(b, params.diacritic_max_contour) for b in page_baselines]
        for page_baselines in baselines
    ]
    sets = extract_features(pages, baselines, thresholds, params.dilation_radius, bands=bands)
    return [
        PageAnalysis(combine_feature_sets(page_sets), tuple(map(LineAnalysis, page_bands, page_baselines, page_sets)))
        for page_bands, page_baselines, page_sets in zip(bands, baselines, sets)
    ]


def _line_baselines(page: BinaryRaster, band: LineBand, alpha: float) -> Baselines:
    """Baselines estimated on the band's rows alone, in page rows."""
    local = estimate_baselines(BinaryRaster(page.pixels[band.top_row : band.bottom_row + 1]), alpha)
    return Baselines(local.upper_row + band.top_row, local.lower_row + band.top_row)


def analyze_page(page: BinaryRaster | GrayRaster, params: PipelineParams = DEFAULT_PARAMS) -> PageAnalysis:
    """analyze_pages of the one page."""
    return analyze_pages([page], params)[0]


def classify_page(
    page: BinaryRaster | GrayRaster,
    profiles=None,
    params: PipelineParams = DEFAULT_PARAMS,
    q_min: float = DEFAULT_Q_MIN,
) -> tuple[Verdict, PageAnalysis]:
    """Analyze a page and label its script; blank pages come back Unknown."""
    analysis = analyze_page(page, params)
    return classify(analysis.features, profiles, q_min=q_min), analysis
