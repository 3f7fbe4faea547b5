import hashlib
import re

import pytest

from scriptid.classify import ScriptProfile, builtin_profiles
from scriptid.evaluate import GroundTruthError, load_ground_truth, score
from scriptid.features import FEATURE_KINDS, extract_features
from scriptid.pipeline import analyze_page
from scriptid.raster import dilate, load
from scriptid.synthgen import (
    GlyphSpec,
    GlyphSpecError,
    Stroke,
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

ARABIC, LATIN = builtin_profiles()


def expected_of(word):
    return (word.expected.counts, word.expected.nb_paws)


def extracted_of(word, radius=1):
    fs = extract_features(word.raster, word.band, dilation_radius=radius)
    return (fs.counts, fs.nb_paws)


class TestGenerate:
    def test_single_band_ring(self):
        word = generate(GlyphSpec((ring(),)))
        assert word.expected.counts == {"H": 0, "J": 0, "P": 0, "Q": 0, "B": 1}
        assert word.expected.nb_paws == 1

    def test_bar_plus_upper_dot(self):
        word = generate(GlyphSpec((bar(), dot("upper"))))
        assert word.expected.counts == {"H": 1, "J": 0, "P": 1, "Q": 0, "B": 0}

    def test_three_bodies_with_dots(self):
        strokes = (body(), dot("upper"), body(), dot("upper"), body(), dot("lower"))
        word = generate(GlyphSpec(strokes))
        assert word.expected.nb_paws == 3

    def test_short_bar_contributes_nothing(self):
        word = generate(GlyphSpec((bar(height=5),)))
        assert word.expected.counts["H"] == 0

    def test_ambiguous_bar_height_rejected(self):
        with pytest.raises(GlyphSpecError):
            generate(GlyphSpec((bar(height=16),)))

    def test_ambiguous_tail_depth_rejected(self):
        with pytest.raises(GlyphSpecError):
            generate(GlyphSpec((tail(depth=8),)))

    def test_bad_dot_zone_rejected(self):
        with pytest.raises(GlyphSpecError):
            generate(GlyphSpec((dot("band"),)))

    def test_bad_ring_diameter_rejected(self):
        with pytest.raises(GlyphSpecError):
            generate(GlyphSpec((ring(diameter=5, zone="band"),)))

    def test_explicit_body_too_narrow(self):
        with pytest.raises(GlyphSpecError):
            generate(GlyphSpec((body(width=5), bar(), tail())))

    def test_deterministic_for_seed(self):
        spec = GlyphSpec((body(), bar(), dot("upper"), ring()), seed=9)
        assert generate(spec).raster == generate(spec).raster

    @pytest.mark.parametrize("kind", ["riser", "sinker"])
    def test_internal_whisker_kinds_rejected(self, kind):
        with pytest.raises(GlyphSpecError):
            generate(GlyphSpec((body(), Stroke(kind))))

    def test_seed_shuffles_slot_order(self):
        strokes = (body(), bar(), tail(), dot("upper"), ring())
        a = generate(GlyphSpec(strokes, seed=1))
        b = generate(GlyphSpec(strokes, seed=4))
        assert a.expected == b.expected
        assert a.raster != b.raster


class TestOracleSoundness:
    def test_primitive_combinations_extract_exactly(self):
        combos = [
            (ring(),),
            (bar(), dot("upper")),
            (body(), bar(), tail(), dot("upper"), dot("lower"), ring()),
            (ring(8, "upper"),),
            (ring(8, "lower"),),
            (body(), tail(), body(), dot("lower")),
        ]
        for strokes in combos:
            word = generate(GlyphSpec(strokes))
            assert extracted_of(word) == expected_of(word), strokes

    def test_corpus_words_extract_exactly(self):
        for profile in (ARABIC, LATIN):
            for word in generate_corpus(profile, 40, seed=17):
                assert extracted_of(word) == expected_of(word)

    def test_degradation_keeps_dot_and_loop_counts(self):
        for word in generate_corpus(ARABIC, 30, seed=23):
            grown = dilate(word.raster, 1)
            fs = extract_features(grown, word.band, dilation_radius=1)
            for kind in ("P", "Q", "B"):
                assert fs.counts[kind] == word.expected.counts[kind]


class TestGenerateCorpus:
    def test_single_word(self):
        (word,) = generate_corpus(ARABIC, 1, seed=2)
        assert word.expected.nb_paws >= 1

    def test_arabic_corpus_carries_lower_dots(self):
        words = generate_corpus(ARABIC, 100, seed=5)
        assert sum(w.expected.counts["Q"] for w in words) > 0

    def test_latin_corpus_never_draws_lower_dots(self):
        words = generate_corpus(LATIN, 100, seed=5)
        assert sum(w.expected.counts["Q"] for w in words) == 0

    def test_aggregate_frequencies_track_profile(self):
        for profile in (ARABIC, LATIN):
            words = generate_corpus(profile, 120, seed=11)
            paws = sum(w.expected.nb_paws for w in words)
            for kind in FEATURE_KINDS:
                agg = sum(w.expected.counts[kind] for w in words) / paws
                rel = profile.rel[kind]
                if rel == 0:
                    assert agg == 0
                else:
                    assert abs(agg - rel) <= 0.1 * rel

    def test_deterministic_per_seed(self):
        a = generate_corpus(ARABIC, 10, seed=3)
        b = generate_corpus(ARABIC, 10, seed=3)
        assert all(x.raster == y.raster and x.expected == y.expected for x, y in zip(a, b))

    def test_seeds_differ(self):
        a = generate_corpus(ARABIC, 10, seed=3)
        b = generate_corpus(ARABIC, 10, seed=4)
        assert any(x.raster != y.raster for x, y in zip(a, b))

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError):
            generate_corpus(ARABIC, 0)

    @pytest.mark.parametrize("min_paws, max_paws", [(0, 4), (3, 2), (-1, 0)])
    def test_rejects_bad_part_range(self, min_paws, max_paws):
        with pytest.raises(ValueError, match="min_paws"):
            generate_corpus(ARABIC, 3, min_paws=min_paws, max_paws=max_paws)


class TestGeneratePage:
    def test_page_analysis_matches_expectation(self):
        page = generate_page(ARABIC, seed=7)
        analysis = analyze_page(page.raster)
        assert analysis.features.counts == page.expected.counts
        assert analysis.features.nb_paws == page.expected.nb_paws

    def test_page_line_count(self):
        page = generate_page(LATIN, seed=7, n_lines=5)
        assert len(analyze_page(page.raster).lines) == 5

    def test_deterministic(self):
        assert generate_page(ARABIC, seed=9).raster == generate_page(ARABIC, seed=9).raster

    @pytest.mark.parametrize("n_lines", [0, -1])
    def test_rejects_no_lines(self, n_lines):
        with pytest.raises(ValueError, match="n_lines"):
            generate_page(ARABIC, n_lines=n_lines)

    @pytest.mark.parametrize("min_paws, max_paws", [(0, 8), (9, 8), (0, 0)])
    def test_rejects_bad_part_range(self, min_paws, max_paws):
        # Checked before any draw, so every seed rejects the range alike.
        for seed in range(3):
            with pytest.raises(ValueError, match="min_paws"):
                generate_page(ARABIC, seed=seed, min_paws=min_paws, max_paws=max_paws)


class TestApplySalt:
    def test_fraction_zero_is_identity(self):
        page = generate_page(ARABIC, seed=1)
        assert apply_salt(page.raster, 0.0) == page.raster

    def test_salt_only_removes_ink(self):
        page = generate_page(ARABIC, seed=1)
        salted = apply_salt(page.raster, 0.01, seed=2)
        assert salted.ink_count() <= page.raster.ink_count()
        assert not (salted.pixels & ~page.raster.pixels).any()

    def test_deterministic(self):
        page = generate_page(ARABIC, seed=1)
        assert apply_salt(page.raster, 0.005, seed=3) == apply_salt(page.raster, 0.005, seed=3)

    def test_fraction_validated(self):
        page = generate_page(ARABIC, seed=1)
        with pytest.raises(ValueError):
            apply_salt(page.raster, 1.5)


class TestSaveCorpus:
    def test_round_trip_through_files_and_scoring(self, tmp_path):
        words = generate_corpus(ARABIC, 6, seed=13)
        image_paths, truth_path = save_corpus(words, tmp_path)
        assert len(image_paths) == 6
        truth = load_ground_truth(truth_path)
        predictions = []
        for path, word in zip(image_paths, words):
            raster = load(path)
            assert raster == word.raster
            analysis = analyze_page(raster)
            predictions.append((path.stem, analysis.features))
        report = score(predictions, truth)
        for row in report.per_feature.values():
            assert row.error_rate == 0.0
        assert report.paw_mismatch == 0

    def test_pages_carry_script_field(self, tmp_path):
        pages = [generate_page(LATIN, seed=i) for i in range(2)]
        _, truth_path = save_corpus(pages, tmp_path)
        records = load_ground_truth(truth_path)
        assert all(r.script == "Latin" for r in records)

    @pytest.mark.parametrize("name", ["My Script", "A#B", "", "Tab\tName", "No\u00a0Break", "\ud800x"])
    def test_script_that_would_not_read_back_is_refused_before_any_file(self, tmp_path, name):
        # "SCRIPT=My Script" reads back as two tokens and "SCRIPT=A#B" as A;
        # a lone surrogate has no UTF-8 encoding at all.
        profile = ScriptProfile(name, LATIN.form_count, LATIN.raw)
        out = tmp_path / "out"
        with pytest.raises(GroundTruthError, match="cannot be written"):
            save_corpus([generate_page(LATIN, seed=0), generate_page(profile, seed=1)], out)
        assert not out.exists()

    def test_script_with_inner_punctuation_reads_back(self, tmp_path):
        pages = [generate_page(ScriptProfile("Old-Latin_2=x", LATIN.form_count, LATIN.raw), seed=1)]
        _, truth_path = save_corpus(iter(pages), tmp_path)
        assert [r.script for r in load_ground_truth(truth_path)] == ["Old-Latin_2=x"]

    @pytest.mark.parametrize("stale", ["img_0003.pbm", "scan.PGM", "other.pnm"])
    def test_image_the_corpus_would_not_overwrite_is_refused_before_any_file(self, tmp_path, stale):
        # A directory read would take the left-over image for one of the
        # corpus's own and find no ground truth for it.
        (tmp_path / stale).write_bytes(b"P4 1 1 ")
        truth = tmp_path / "truth.txt"
        truth.write_text("old\n")
        with pytest.raises(FileExistsError, match=re.escape(repr(stale))):
            save_corpus(generate_corpus(ARABIC, 3, seed=2), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([stale, "truth.txt"])
        assert truth.read_text() == "old\n"

    def test_rewriting_the_same_names_over_other_files_works(self, tmp_path):
        save_corpus(generate_corpus(ARABIC, 3, seed=1), tmp_path)
        (tmp_path / "report.json").write_text("{}")
        words = generate_corpus(LATIN, 3, seed=2)
        image_paths, truth_path = save_corpus(words, tmp_path)
        assert [load(path) for path in image_paths] == [word.raster for word in words]
        assert len(load_ground_truth(truth_path)) == 3


def _digest(items):
    """sha256 over each item's pixels, shape, band and expected counts."""
    h = hashlib.sha256()
    for item in items:
        band = getattr(item, "band", None)
        rows = None if band is None else (band.upper_row, band.lower_row)
        counts = tuple(item.expected.counts[k] for k in FEATURE_KINDS)
        h.update(repr((item.raster.pixels.shape, rows, counts, item.expected.nb_paws)).encode())
        h.update(item.raster.pixels.tobytes())
    return h.hexdigest()


class TestGeneratorPin:
    """Generated rasters, bands and counts, pinned byte for byte."""

    SPECS = [
        (bar(5),),
        (bar(13), dot("upper")),  # the bar already bridges the upper zone
        (bar(19), tail(5)),
        (bar(22), tail(11), dot("lower")),  # the tail already bridges the lower zone
        (tail(13), dot("upper")),
        (dot("upper"), dot("lower")),  # whiskers above and below
        (ring(7), ring(8), ring(9)),
        (ring(7, "upper"), ring(11, "lower")),
        (ring(11, "upper"), ring(7, "lower"), bar(5), tail(5)),
        (body(), bar(5), body(), dot("upper"), body(), ring(7, "upper")),
        (body(), body(), dot("lower")),
        (tail(), body(), dot("lower"), body(40), ring(), bar()),  # a stroke before the first body
    ]
    DIGEST = "5b5b3d91a8e89464562ab7ca6d920a3bf7dfe0ad48ff116235d637bb47d49559"

    def test_outputs_match_pinned_digest(self):
        items = [
            generate(GlyphSpec(strokes, seed=seed))
            for strokes in self.SPECS
            for seed in range(5)
        ]
        for profile in (ARABIC, LATIN):
            items += [generate_page(profile, seed=s) for s in range(10)]
            items += [generate_page(profile, seed=s, min_paws=20, max_paws=28) for s in range(2)]
            items += generate_corpus(profile, 20, seed=5)
        assert _digest(items) == self.DIGEST
