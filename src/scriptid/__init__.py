"""Structural-feature extraction and Arabic/Latin script identification.

The pipeline reads a binary page image and works upward: projection
profiles split it into lines, lines into word parts, each word gets two
baseline rows bounding its dense body band, and five structural primitives
are counted against that band: poles (H), jambs (J), upper and lower
diacritic dots (P, Q), and loops (B). Comparing the per-part frequencies to
per-alphabet reference profiles labels a page Arabic or Latin.
"""

from .classify import (
    ProfileFormatError,
    ScriptProfile,
    Verdict,
    builtin_profiles,
    classify,
    load_profiles,
    normalize,
    save_profiles,
)
from .evaluate import (
    EvalReport,
    FeatureScore,
    GroundTruth,
    GroundTruthError,
    error_rate,
    format_report,
    load_ground_truth,
    score,
)
from .features import (
    FEATURE_KINDS,
    FeatureHit,
    FeatureSet,
    FeatureThresholds,
    combine_feature_sets,
    detect_diacritics,
    detect_jambs,
    detect_loops,
    detect_poles,
    extract_features,
)
from .geometry import ContourChain, trace_contours
from .layout import (
    Baselines,
    LineBand,
    NoInkError,
    estimate_baselines,
    extract_lines,
)
from .pipeline import (
    LineAnalysis,
    PageAnalysis,
    PipelineParams,
    analyze_page,
    analyze_pages,
    classify_page,
)
from .raster import (
    BinaryRaster,
    GrayRaster,
    PnmError,
    PnmHeaderError,
    PnmPayloadError,
    binarize,
    dilate,
    load,
    save,
)
from .synthgen import (
    GlyphSpec,
    GlyphSpecError,
    Stroke,
    SyntheticPage,
    SyntheticWord,
    apply_salt,
    bar,
    body,
    dot,
    generate,
    generate_corpus,
    generate_page,
    ring,
    save_corpus,
    tail,
)

__version__ = "0.1.0"
