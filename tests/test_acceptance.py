"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion; every expected value is pinned here, nothing is deferred.
"""

import time

import numpy as np
import pytest

from scriptid.classify import builtin_profiles
from scriptid.cli import main
from scriptid.evaluate import error_rate
from scriptid.features import (
    FeatureThresholds,
    detect_diacritics,
    detect_jambs,
    detect_poles,
    extract_features,
)
from scriptid.geometry import ContourChain, trace_contours
from scriptid.layout import Baselines, estimate_baselines
from scriptid.pipeline import classify_page
from scriptid.raster import BinaryRaster, dilate
from scriptid.synthgen import apply_salt, generate_corpus, generate_page

from oracles import count_components, count_holes, project


def _report(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_profile_table_fidelity():
    arabic, latin = builtin_profiles()
    ok = (
        arabic.name == "Arabic"
        and arabic.form_count == 120
        and arabic.raw["H"] == 29
        and arabic.raw["B"] == 22
        and arabic.raw["P"] == 30
        and arabic.raw["J"] == 28
        and arabic.raw["Q"] == 11
        and latin.name == "Latin"
        and latin.form_count == 103
        and latin.raw["H"] == 29
        and latin.raw["B"] == 34
        and latin.raw["P"] == 28
        and latin.raw["J"] == 12
        and latin.raw["Q"] == 0
    )
    _report(1, "profile table fidelity", ok)


def test_criterion_2_error_rate_arithmetic():
    pairs = {
        "H": (16440, 10852, 33.99),
        "J": (12632, 8352, 33.88),
        "P": (12444, 10165, 18.31),
        "Q": (7514, 5957, 20.72),
        "B": (13149, 9021, 31.39),
    }
    start = time.perf_counter()
    computed = {k: round(error_rate(t, c) * 100, 2) for k, (t, c, _) in pairs.items()}
    elapsed = time.perf_counter() - start
    ok = all(computed[k] == expect for k, (_, _, expect) in pairs.items())
    ok = ok and elapsed < 1e-3
    _report(2, f"error-rate arithmetic ({elapsed * 1e6:.0f} us)", ok)


def _snake_chain(n_points, top_row):
    """Closed 8-connected boundary walk with an exact odd or even length."""
    half = (n_points - 1) // 2
    points = [(top_row, c) for c in range(half)]
    points.append((top_row + 1, half))
    points.extend((top_row + 1, c) for c in range(half - 1, -1, -1))
    assert len(points) == n_points
    return ContourChain(tuple(points), closed=True, polarity="outer")


def test_criterion_3_threshold_and_margin_semantics():
    baselines = Baselines(24, 32)  # band height 8: margins 16 and 8
    thresholds = FeatureThresholds.from_baselines(baselines)
    assert thresholds.diacritic_max_contour == 60
    assert thresholds.marge_h == 16 and thresholds.marge_j == 8

    p59, _ = detect_diacritics([_snake_chain(59, 5)], baselines, thresholds)
    p61, _ = detect_diacritics([_snake_chain(61, 5)], baselines, thresholds)
    chains_ok = len(p59) == 1 and len(p61) == 0

    def stroke_word(extent, kind):
        img = np.zeros((60, 30), dtype=bool)
        img[24:33, 4:26] = True
        if kind == "H":
            img[24 - extent : 24, 8:11] = True
        else:
            img[33 : 33 + extent, 8:11] = True
        return BinaryRaster(img)

    poles_ok = (
        len(detect_poles(stroke_word(17, "H"), baselines, thresholds)) == 1
        and len(detect_poles(stroke_word(15, "H"), baselines, thresholds)) == 0
    )
    jambs_ok = (
        len(detect_jambs(stroke_word(9, "J"), baselines, thresholds)) == 1
        and len(detect_jambs(stroke_word(7, "J"), baselines, thresholds)) == 0
    )
    # identical margins through the full pipeline without expansion
    pipeline_ok = (
        extract_features(stroke_word(17, "H"), baselines, dilation_radius=0).counts["H"] == 1
        and extract_features(stroke_word(15, "H"), baselines, dilation_radius=0).counts["H"] == 0
    )
    _report(3, "threshold and margin semantics", chains_ok and poles_ok and jambs_ok and pipeline_ok)


def test_criterion_4_oracle_round_trip():
    start = time.perf_counter()
    mismatches = 0
    degraded_mismatches = 0
    total = 0
    for profile in builtin_profiles():
        for word in generate_corpus(profile, 110, seed=101):
            total += 1
            fs = extract_features(word.raster, word.band)
            if fs.counts != word.expected.counts or fs.nb_paws != word.expected.nb_paws:
                mismatches += 1
            grown = extract_features(dilate(word.raster, 1), word.band)
            for kind in ("P", "Q", "B"):
                if grown.counts[kind] != word.expected.counts[kind]:
                    degraded_mismatches += 1
                    break
    elapsed = time.perf_counter() - start
    ok = total >= 200 and mismatches == 0 and degraded_mismatches == 0 and elapsed < 30
    _report(
        4,
        f"oracle round trip ({total} words, {mismatches} clean / "
        f"{degraded_mismatches} degraded mismatches, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_5_classification_accuracy():
    clean_hits = 0
    degraded_hits = 0
    n_pages = 50
    for profile in builtin_profiles():
        for seed in range(n_pages):
            page = generate_page(profile, seed=seed)
            verdict, _ = classify_page(page.raster)
            clean_hits += verdict.label == profile.name
            noisy = apply_salt(dilate(page.raster, 1), 0.001, seed=seed + 10_000)
            verdict, _ = classify_page(noisy)
            degraded_hits += verdict.label == profile.name
    blank, _ = classify_page(BinaryRaster.blank(64, 64))
    clean_acc = clean_hits / (2 * n_pages)
    degraded_acc = degraded_hits / (2 * n_pages)
    ok = clean_acc == 1.0 and degraded_acc >= 0.9 and blank.label == "Unknown"
    _report(
        5,
        f"classification (clean {clean_acc:.0%}, degraded {degraded_acc:.0%}, blank Unknown)",
        ok,
    )


def test_criterion_6_geometry_invariants():
    rng = np.random.default_rng(606)
    checked = 0
    ok = True
    for i in range(1000):
        h = int(rng.integers(1, 65))
        w = int(rng.integers(1, 65))
        img = BinaryRaster(rng.random((h, w)) < rng.uniform(0.05, 0.9))
        checked += 1

        if project(img, "horizontal").total() != img.ink_count():
            ok = False
        if project(img, "vertical").total() != img.ink_count():
            ok = False

        chains = trace_contours(img)
        outer = sum(1 for c in chains if c.polarity == "outer")
        inner = sum(1 for c in chains if c.polarity == "inner")
        if outer != count_components(img.pixels) or inner != count_holes(img.pixels):
            ok = False

        if i % 3 == 0:
            grown = dilate(img, int(rng.integers(1, 3)))
            if (img.pixels & ~grown.pixels).any():
                ok = False

        if img.ink_count() and i % 2 == 0:
            k = int(rng.integers(1, 8))
            shifted = BinaryRaster(
                np.vstack([np.zeros((k, w), dtype=bool), img.pixels])
            )
            b0 = estimate_baselines(img)
            b1 = estimate_baselines(shifted)
            if (b1.upper_row, b1.lower_row) != (b0.upper_row + k, b0.lower_row + k):
                ok = False

        if not ok:
            break
    _report(6, f"geometry invariants ({checked} rasters)", ok and checked >= 1000)


def test_criterion_7_cli_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    gen_args = [
        "generate", "--output-dir", str(corpus), "--script", "Arabic",
        "--words", "4", "--seed", "55",
    ]
    outputs = []
    for run in ("one", "two"):
        gen_out = tmp_path / f"gen_{run}.json"
        assert main(gen_args + ["--output", str(gen_out)]) == 0
        run_dir = tmp_path / run
        run_dir.mkdir()
        blobs = {"generate": gen_out.read_bytes()}
        blobs["corpus"] = {p.name: p.read_bytes() for p in sorted(corpus.iterdir())}
        for command in ("features", "classify", "evaluate"):
            out = run_dir / f"{command}.json"
            rc = main([command, "--input", str(corpus), "--output", str(out)])
            assert rc == 0
            blobs[command] = out.read_bytes()
        outputs.append(blobs)
    ok = outputs[0] == outputs[1]
    _report(7, "CLI determinism", ok)
