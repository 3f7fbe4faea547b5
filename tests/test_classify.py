import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scriptid.classify import (
    ProfileFormatError,
    ScriptProfile,
    builtin_profiles,
    classify,
    load_profiles,
    normalize,
    save_profiles,
)
from scriptid.features import FEATURE_KINDS, FeatureSet


def fs(counts, nb_paws):
    full = {k: 0 for k in FEATURE_KINDS}
    full.update(counts)
    return FeatureSet(counts=full, nb_paws=nb_paws)


class TestBuiltinProfiles:
    def test_arabic_cells(self):
        arabic = builtin_profiles()[0]
        assert arabic.name == "Arabic"
        assert arabic.form_count == 120
        assert arabic.raw == {"H": 29, "J": 28, "P": 30, "Q": 11, "B": 22}

    def test_latin_cells(self):
        latin = builtin_profiles()[1]
        assert latin.name == "Latin"
        assert latin.form_count == 103
        assert latin.raw == {"H": 29, "J": 12, "P": 28, "Q": 0, "B": 34}

    def test_latin_lacks_lower_dots(self):
        latin = builtin_profiles()[1]
        assert latin.rel["Q"] == 0

    def test_rel_in_unit_interval(self):
        for profile in builtin_profiles():
            assert all(0 <= v <= 1 for v in profile.rel.values())


class TestNormalize:
    def test_division(self):
        freq = normalize(fs({"H": 4, "J": 2, "P": 2, "Q": 1, "B": 3}, 10))
        assert freq == {"H": 0.4, "J": 0.2, "P": 0.2, "Q": 0.1, "B": 0.3}

    def test_zero_counts(self):
        assert normalize(fs({}, 5)) == {k: 0.0 for k in FEATURE_KINDS}

    def test_profile_raw_over_forms_reproduces_rel(self):
        arabic = builtin_profiles()[0]
        freq = normalize(fs(arabic.raw, arabic.form_count))
        assert freq == arabic.rel

    def test_no_parts_is_degenerate(self):
        with pytest.raises(ValueError):
            normalize(fs({"H": 1}, 0))


class TestClassify:
    def test_arabic_profile_classifies_as_itself(self):
        arabic = builtin_profiles()[0]
        verdict = classify(fs(arabic.raw, arabic.form_count))
        assert verdict.label == "Arabic"
        assert verdict.scores["Arabic"] == 0.0

    def test_latin_profile_classifies_as_itself(self):
        latin = builtin_profiles()[1]
        verdict = classify(fs(latin.raw, latin.form_count))
        assert verdict.label == "Latin"
        assert verdict.scores["Latin"] == 0.0

    def test_blank_page_is_unknown(self):
        assert classify(fs({}, 0)).label == "Unknown"

    def test_latin_shaped_counts(self):
        # L1 distances computed by hand: 0.4500 to Arabic, 0.0932 to Latin
        verdict = classify(fs({"H": 3, "B": 3, "P": 3, "J": 1, "Q": 0}, 10))
        assert verdict.label == "Latin"
        assert verdict.scores["Arabic"] == pytest.approx(0.45, abs=1e-4)
        assert verdict.scores["Latin"] == pytest.approx(0.0932, abs=1e-4)

    def test_lower_dots_rule_out_latin(self):
        # Q frequency at the q_min threshold pushes Latin to infinity
        verdict = classify(fs({"H": 3, "B": 3, "P": 3, "J": 1, "Q": 1}, 10))
        assert verdict.label == "Arabic"
        assert math.isinf(verdict.scores["Latin"])

    def test_q_rule_threshold(self):
        just_below = classify(fs({"H": 30, "B": 30, "P": 30, "J": 10, "Q": 1}, 100))
        assert not math.isinf(just_below.scores["Latin"])
        at_threshold = classify(fs({"H": 30, "B": 30, "P": 30, "J": 10, "Q": 2}, 100))
        assert math.isinf(at_threshold.scores["Latin"])

    def test_scale_invariance(self):
        base = {"H": 3, "B": 2, "P": 4, "J": 2, "Q": 1}
        v1 = classify(fs(base, 10))
        v7 = classify(fs({k: 7 * v for k, v in base.items()}, 70))
        assert v1.label == v7.label

    def test_below_mass_is_unknown(self):
        assert classify(fs({"H": 2}, 4)).label == "Unknown"

    def test_narrow_margin_is_unknown(self):
        # halfway between the two profiles in L1
        arabic, latin = builtin_profiles()
        mid = {k: (arabic.rel[k] + latin.rel[k]) / 2 for k in FEATURE_KINDS}
        counts = {k: round(mid[k] * 1000) for k in FEATURE_KINDS}
        counts["Q"] = 0  # keep the Q rule out of the picture
        verdict = classify(fs(counts, 1000), min_margin=0.2)
        assert verdict.label == "Unknown"

    def test_determinism(self):
        sample = fs({"H": 5, "B": 4, "P": 6, "J": 5, "Q": 2}, 20)
        assert classify(sample) == classify(sample)

    def test_needs_two_profiles(self):
        with pytest.raises(ValueError):
            classify(fs({"H": 5}, 5), profiles=builtin_profiles()[:1])

    # One feature set clears min_mass and one falls under it, where the
    # verdict would otherwise be Unknown before the names are compared.
    @pytest.mark.parametrize("counts", [{"H": 5, "Q": 2}, {"H": 1}])
    def test_repeated_profile_names_are_rejected(self, counts):
        arabic, latin = builtin_profiles()
        twins = [arabic, ScriptProfile("Arabic", 103, latin.raw)]
        with pytest.raises(ValueError, match="distinct names"):
            classify(fs(counts, 5), profiles=twins)


class TestProfileFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "profiles.txt"
        save_profiles(builtin_profiles(), path)
        loaded = load_profiles(path)
        assert loaded == builtin_profiles()

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(
            "# custom script\nname Greek\nform_count 50\n"
            "H 10\nJ 5\nP 3\nQ 1\nB 12  # loops\n"
        )
        (profile,) = load_profiles(path)
        assert profile == ScriptProfile("Greek", 50, {"H": 10, "J": 5, "P": 3, "Q": 1, "B": 12})

    def test_missing_key(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("name X\nform_count 10\nH 1\nJ 1\nP 1\nQ 1\n")
        with pytest.raises(ProfileFormatError):
            load_profiles(path)

    def test_bad_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("name\n")
        with pytest.raises(ProfileFormatError):
            load_profiles(path)

    def test_non_integer_count(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("name X\nform_count 10\nH one\nJ 1\nP 1\nQ 1\nB 1\n")
        with pytest.raises(ProfileFormatError):
            load_profiles(path)

    def test_repeated_name(self, tmp_path):
        path = tmp_path / "p.txt"
        save_profiles([builtin_profiles()[0]] * 2, path)
        with pytest.raises(ProfileFormatError, match="line 9 repeats the name 'Arabic'"):
            load_profiles(path)

    # Counts ScriptProfile itself rejects are format errors too.
    @pytest.mark.parametrize("form_count, h", [("0", "1"), ("-3", "1"), ("10", "-1")])
    def test_rejected_count_names_the_file_and_block(self, tmp_path, form_count, h):
        path = tmp_path / "p.txt"
        path.write_text(
            f"# header\n\nname X\nform_count {form_count}\nH {h}\nJ 1\nP 1\nQ 1\nB 1\n"
        )
        prefix = re.escape(f"{path}: profile starting at line 3: ")
        with pytest.raises(ProfileFormatError, match=prefix):
            load_profiles(path)

    # int() alone reads these as 10, 3, 3 and 3.
    @pytest.mark.parametrize("count", ["1_0", "\u0663", "\uff13", "+3"])
    def test_counts_are_ascii_digits(self, tmp_path, count):
        path = tmp_path / "p.txt"
        path.write_text(f"name X\nform_count 10\nH {count}\nJ 1\nP 1\nQ 1\nB 1\n", encoding="utf-8")
        with pytest.raises(ProfileFormatError, match=re.escape(f"{path}: profile starting at line 1: ")):
            load_profiles(path)

    # Each would load back as another name, or not load at all; UTF-8
    # cannot encode the last.
    @pytest.mark.parametrize("name", ["Farsi#2", " Lead", "", "Two\nLines", "Lone\ud800"])
    def test_unsaveable_name_is_refused_before_writing(self, tmp_path, name):
        path = tmp_path / "p.txt"
        with pytest.raises(ValueError):
            save_profiles([builtin_profiles()[0], ScriptProfile(name, 10, builtin_profiles()[1].raw)], path)
        assert not path.exists()


# Names save_profiles accepts: no '#', no line break, no outer whitespace.
saveable_names = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="#"), min_size=1
).filter(lambda name: name == name.strip() and len(name.splitlines()) == 1)


@settings(max_examples=200, deadline=None)
@given(saveable_names)
def test_saved_names_load_back(tmp_path_factory, name):
    path = tmp_path_factory.mktemp("profiles") / "p.txt"
    profiles = [ScriptProfile(name, 7, {"H": 1, "J": 0, "P": 2, "Q": 0, "B": 3})]
    save_profiles(profiles, path)
    assert load_profiles(path) == profiles
