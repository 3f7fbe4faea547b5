import pytest

from scriptid.evaluate import (
    GroundTruth,
    GroundTruthError,
    error_rate,
    format_report,
    load_ground_truth,
    score,
)
from scriptid.features import FEATURE_KINDS, FeatureSet


def fs(counts, nb_paws):
    full = {k: 0 for k in FEATURE_KINDS}
    full.update(counts)
    return FeatureSet(counts=full, nb_paws=nb_paws)


def gt(image_id, counts, paws, script=None):
    full = {k: 0 for k in FEATURE_KINDS}
    full.update(counts)
    return GroundTruth(image_id, full, paws, script)


class TestLoadGroundTruth:
    def test_single_record(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text("img001 H=2 J=1 P=3 Q=0 B=1 PAW=4\n")
        (record,) = load_ground_truth(path)
        assert record.image_id == "img001"
        assert record.expected == {"H": 2, "J": 1, "P": 3, "Q": 0, "B": 1}
        assert record.expected_paws == 4
        assert record.script is None

    def test_script_field_and_comments(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text("# header\nimg H=0 J=0 P=0 Q=0 B=0 PAW=1 SCRIPT=Latin\n\n")
        (record,) = load_ground_truth(path)
        assert record.script == "Latin"

    def test_empty_script_field(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text("img H=0 J=0 P=0 Q=0 B=0 PAW=1 SCRIPT=\n")
        with pytest.raises(GroundTruthError, match="SCRIPT"):
            load_ground_truth(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text("")
        assert load_ground_truth(path) == []

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text(
            "a H=0 J=0 P=0 Q=0 B=0 PAW=1\n"
            "b H=0 J=0 P=0 Q=0 B=0 PAW=1\n"
            "a H=1 J=0 P=0 Q=0 B=0 PAW=1\n"
        )
        with pytest.raises(GroundTruthError, match=r"lines 1 and 3"):
            load_ground_truth(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text("a H=0 J=0 P=0 Q=0 B=0 PAW=1\nbroken line here\n")
        with pytest.raises(GroundTruthError, match=r":2:"):
            load_ground_truth(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text("a H=0 J=0 P=0 Q=0 B=0\n")
        with pytest.raises(GroundTruthError, match="PAW"):
            load_ground_truth(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_ground_truth(tmp_path / "nope.txt")

    # int() alone reads these as 10, 3, 3 and 3.
    @pytest.mark.parametrize("key, value", [("H", "1_0"), ("PAW", "\u0663"), ("Q", "\uff13"), ("B", "+3")])
    def test_counts_are_ascii_digits(self, tmp_path, key, value):
        fields = {"H": "0", "J": "0", "P": "0", "Q": "0", "B": "0", "PAW": "1", key: value}
        path = tmp_path / "truth.txt"
        path.write_text("a " + " ".join(f"{k}={v}" for k, v in fields.items()) + "\n", encoding="utf-8")
        with pytest.raises(GroundTruthError, match=r":1: counts must be integers"):
            load_ground_truth(path)


class TestErrorRate:
    # published per-feature pairs and the rates they must reproduce
    PUBLISHED = [
        ("H", 16440, 10852, 33.99),
        ("J", 12632, 8352, 33.88),
        ("P", 12444, 10165, 18.31),
        ("Q", 7514, 5957, 20.72),
        ("B", 13149, 9021, 31.39),
    ]

    @pytest.mark.parametrize("kind,total,correct,percent", PUBLISHED)
    def test_published_pairs(self, kind, total, correct, percent):
        assert round(error_rate(total, correct) * 100, 2) == percent

    def test_zero_total_is_zero(self):
        assert error_rate(0, 0) == 0.0


class TestScore:
    def test_published_pairs_via_single_documents(self):
        truth = [
            gt("d", {"H": 16440, "J": 12632, "P": 12444, "Q": 7514, "B": 13149}, 28312)
        ]
        prediction = fs(
            {"H": 10852, "J": 8352, "P": 10165, "Q": 5957, "B": 9021}, 26746
        )
        report = score([("d", prediction)], truth)
        rates = {
            k: round(report.per_feature[k].error_rate * 100, 2) for k in FEATURE_KINDS
        }
        assert rates == {"H": 33.99, "J": 33.88, "P": 18.31, "Q": 20.72, "B": 31.39}

    def test_perfect_predictions(self):
        truth = [gt("a", {"H": 2, "P": 1}, 3), gt("b", {"J": 1, "B": 2}, 2)]
        preds = [("a", fs({"H": 2, "P": 1}, 3)), ("b", fs({"J": 1, "B": 2}, 2))]
        report = score(preds, truth)
        assert all(row.error_rate == 0.0 for row in report.per_feature.values())
        assert report.paw_mismatch == 0

    def test_overprediction_is_not_rewarded(self):
        truth = [gt("a", {"H": 3}, 1)]
        report = score([("a", fs({"H": 10}, 1))], truth)
        assert report.per_feature["H"].correct == 3
        assert report.per_feature["H"].error_rate == 0.0

    def test_clamped_counting_per_document(self):
        # one document over-, one under-predicts; min() on each side
        truth = [gt("a", {"H": 3}, 1), gt("b", {"H": 3}, 1)]
        preds = [("a", fs({"H": 5}, 1)), ("b", fs({"H": 1}, 1))]
        report = score(preds, truth)
        assert report.per_feature["H"].total == 6
        assert report.per_feature["H"].correct == 4

    def test_permutation_invariance(self):
        truth = [gt("a", {"H": 1}, 1), gt("b", {"H": 2}, 2)]
        preds = [("a", fs({"H": 1}, 1)), ("b", fs({"H": 1}, 2))]
        fwd = score(preds, truth)
        rev = score(list(reversed(preds)), list(reversed(truth)))
        assert fwd.per_feature == rev.per_feature

    def test_unmatched_id_is_an_error(self):
        with pytest.raises(GroundTruthError, match="mystery"):
            score([("mystery", fs({}, 1))], [gt("a", {}, 1)])

    def test_repeated_prediction_id_is_an_error(self):
        # Two images with one stem would otherwise count one truth record twice.
        with pytest.raises(GroundTruthError, match="'a'"):
            score([("a", fs({}, 1)), ("a", fs({}, 1))], [gt("a", {"H": 3}, 1)])

    def test_extra_truth_records_are_ignored(self):
        truth = [gt("a", {"H": 1}, 1), gt("unused", {"H": 9}, 9)]
        report = score([("a", fs({"H": 1}, 1))], truth)
        assert report.per_feature["H"].total == 1

    def test_zero_total_flagged(self):
        report = score([("a", fs({}, 1))], [gt("a", {}, 1)])
        assert report.per_feature["H"].undefined
        assert report.per_feature["H"].error_rate == 0.0

    def test_paw_dual_convention(self):
        truth = [gt("a", {}, 4)]
        report = score([("a", fs({}, 6))], truth)
        assert report.per_feature["nbPAWs"].correct == 4  # clamped convention
        assert report.paw_mismatch == 2  # |predicted - expected| convention
        assert report.paw_mismatch_rate == pytest.approx(0.5)

    def test_verdict_flag_when_script_known(self):
        truth = [gt("a", {"H": 3, "B": 3, "P": 3, "J": 1}, 10, script="Latin")]
        report = score([("a", fs({"H": 3, "B": 3, "P": 3, "J": 1}, 10))], truth)
        assert report.per_document[0].verdict_ok is True

    def test_verdict_flag_absent_without_script(self):
        report = score([("a", fs({"H": 3}, 1))], [gt("a", {"H": 3}, 1)])
        assert report.per_document[0].verdict_ok is None


class TestFormatReport:
    def test_table_layout(self):
        truth = [
            gt("d", {"H": 16440, "J": 12632, "P": 12444, "Q": 7514, "B": 13149}, 28312)
        ]
        prediction = fs(
            {"H": 10852, "J": 8352, "P": 10165, "Q": 5957, "B": 9021}, 26746
        )
        text = format_report(score([("d", prediction)], truth))
        lines = text.splitlines()
        assert "Feature" in lines[0]
        assert "Total" in lines[0]
        assert "Correctly extracted" in lines[0]
        assert "Error rate" in lines[0]
        assert any("33.99 %" in line for line in lines)
        assert any(line.startswith("nbPAWs") for line in lines)
