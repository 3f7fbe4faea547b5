"""End-to-end helpers: whole-page analysis and script identification."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .classify import Verdict, classify
from .features import (
    FeatureHit,
    FeatureSet,
    FeatureThresholds,
    combine_feature_sets,
    extract_features,
)
from .layout import Baselines, LineBand, estimate_baselines, extract_lines
from .raster import BinaryRaster

__all__ = ["PipelineParams", "LineAnalysis", "PageAnalysis", "analyze_page", "classify_page"]


@dataclass(frozen=True)
class PipelineParams:
    """Knobs shared by every stage of the extraction pipeline."""

    dilation_radius: int = 1
    alpha: float = 0.5
    merge_gap: int = 2
    diacritic_max_contour: int = 60


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


def _shift_hits(fs: FeatureSet, row_offset: int, paw_offset: int) -> FeatureSet:
    hits = tuple(
        FeatureHit(h.kind, (h.location[0] + row_offset, h.location[1]), h.paw_index + paw_offset, h.position)
        for h in fs.hits
    )
    return replace(fs, hits=hits)


def analyze_page(page: BinaryRaster, params: PipelineParams = DEFAULT_PARAMS) -> PageAnalysis:
    """Split a page into lines, extract features per line, and aggregate.

    Hit coordinates and word-part indices are reported in page coordinates,
    with parts numbered top line first, right to left within each line.
    A blank page yields an empty analysis with zero counts and parts.
    """
    bands = extract_lines(page, params.merge_gap)
    line_results = []
    paw_offset = 0
    for band in bands:
        crop = BinaryRaster(page.pixels[band.top_row : band.bottom_row + 1])
        local = estimate_baselines(crop, params.alpha)
        thresholds = FeatureThresholds.from_baselines(local, params.diacritic_max_contour)
        fs = extract_features(
            crop,
            local,
            thresholds=thresholds,
            dilation_radius=params.dilation_radius,
        )
        fs = _shift_hits(fs, band.top_row, paw_offset)
        paw_offset += fs.nb_paws
        baselines = Baselines(
            local.upper_row + band.top_row, local.lower_row + band.top_row
        )
        line_results.append(LineAnalysis(band, baselines, fs))
    aggregate = combine_feature_sets([line.features for line in line_results])
    return PageAnalysis(aggregate, tuple(line_results))


def classify_page(
    page: BinaryRaster,
    profiles=None,
    params: PipelineParams = DEFAULT_PARAMS,
    q_min: float = 0.02,
    min_mass: int = 3,
    min_margin: float = 0.05,
) -> tuple[Verdict, PageAnalysis]:
    """Analyze a page and label its script; blank pages come back Unknown."""
    analysis = analyze_page(page, params)
    verdict = classify(
        analysis.features,
        profiles,
        q_min=q_min,
        min_mass=min_mass,
        min_margin=min_margin,
    )
    return verdict, analysis
