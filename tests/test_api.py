"""The package's public surface: what `import scriptid` offers, and that
every module's __all__ names only what the module defines."""

import ast
import importlib
import pkgutil
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import scriptid

PUBLIC = [
    "Baselines",
    "BinaryRaster",
    "ContourChain",
    "EvalReport",
    "FEATURE_KINDS",
    "FeatureHit",
    "FeatureScore",
    "FeatureSet",
    "FeatureThresholds",
    "GlyphSpec",
    "GlyphSpecError",
    "GrayRaster",
    "GroundTruth",
    "GroundTruthError",
    "LineAnalysis",
    "LineBand",
    "NoInkError",
    "PageAnalysis",
    "PipelineParams",
    "PnmError",
    "PnmHeaderError",
    "PnmPayloadError",
    "ProfileFormatError",
    "ScriptProfile",
    "Stroke",
    "SyntheticPage",
    "SyntheticWord",
    "Verdict",
    "analyze_page",
    "analyze_pages",
    "apply_salt",
    "bar",
    "binarize",
    "body",
    "builtin_profiles",
    "classify",
    "classify_page",
    "combine_feature_sets",
    "detect_diacritics",
    "detect_jambs",
    "detect_loops",
    "detect_poles",
    "dilate",
    "dot",
    "error_rate",
    "estimate_baselines",
    "extract_features",
    "extract_lines",
    "format_report",
    "generate",
    "generate_corpus",
    "generate_page",
    "load",
    "load_ground_truth",
    "load_profiles",
    "normalize",
    "ring",
    "save",
    "save_corpus",
    "save_profiles",
    "score",
    "tail",
    "trace_contours",
]

MODULES = sorted(f"scriptid.{m.name}" for m in pkgutil.iter_modules(scriptid.__path__))


def test_public_names_of_the_package():
    # Submodules become attributes of the package as they are imported.
    names = [
        name
        for name, value in vars(scriptid).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    ]
    assert sorted(names) == PUBLIC


def test_every_all_entry_exists():
    for name in MODULES:
        module = importlib.import_module(name)
        missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
        assert missing == [], name


def test_reexports_are_in_their_modules_all():
    tree = ast.parse(Path(scriptid.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"scriptid.{node.module}")
        stray = [alias.name for alias in node.names if alias.name not in module.__all__]
        assert stray == [], node.module


def test_raster_functions_below_the_page_entry_points_refuse_a_graymap():
    # Read as ink, a graymap's white would be ink. Only analyze_pages,
    # analyze_page and classify_page take one, and they threshold it first;
    # every public function below them refuses it, as dilate does.
    word = scriptid.generate_corpus(scriptid.builtin_profiles()[0], 1, seed=3)[0]
    gray = scriptid.GrayRaster(np.where(word.raster.pixels, 0, 255))
    band = scriptid.LineBand(0, word.raster.height - 1)
    thresholds = scriptid.FeatureThresholds.from_baselines(word.band)
    calls = {
        "extract_lines": lambda img: scriptid.extract_lines(img),
        "estimate_baselines": lambda img: scriptid.estimate_baselines(img),
        "extract_features": lambda img: scriptid.extract_features(img, word.band),
        "extract_features of pages": lambda img: scriptid.extract_features(
            [word.raster, img], [[word.band], [word.band]], [[thresholds], [thresholds]], bands=[[band], [band]]
        ),
        "detect_poles": lambda img: scriptid.detect_poles(img, word.band, thresholds),
        "detect_jambs": lambda img: scriptid.detect_jambs(img, word.band, thresholds),
        "trace_contours": lambda img: scriptid.trace_contours(img),
        "dilate": lambda img: scriptid.dilate(img),
    }
    for call in calls.values():
        call(word.raster)
        with pytest.raises(TypeError, match="expects a BinaryRaster"):
            call(gray)
