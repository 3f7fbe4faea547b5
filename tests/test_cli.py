import copy
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scriptid.classify import ScriptProfile, builtin_profiles, save_profiles
from scriptid import cli, pipeline
from scriptid.cli import EXIT_CEILING, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from scriptid.evaluate import DocumentResult, EvalReport, FeatureScore
from scriptid.raster import BinaryRaster, dilate, load, save
from scriptid.synthgen import apply_salt, generate_corpus, generate_page, save_corpus

from oracles import reference_report_json


@pytest.fixture()
def corpus(tmp_path):
    out = tmp_path / "corpus"
    rc = main(
        ["generate", "--output-dir", str(out), "--script", "Arabic", "--words", "5",
         "--seed", "41", "--output", str(tmp_path / "gen.json")]
    )
    assert rc == EXIT_OK
    return out


def run_to_file(args, path):
    rc = main(args + ["--output", str(path)])
    return rc, path.read_bytes()


class TestGenerate:
    def test_writes_images_and_truth(self, corpus):
        images = sorted(p.name for p in corpus.glob("*.pbm"))
        assert len(images) == 5
        assert (corpus / "truth.txt").exists()

    def test_pages_mode(self, tmp_path):
        out = tmp_path / "pages"
        rc = main(
            ["generate", "--output-dir", str(out), "--script", "Latin", "--pages", "2",
             "--seed", "1", "--output", str(tmp_path / "g.json")]
        )
        assert rc == EXIT_OK
        assert "SCRIPT=Latin" in (out / "truth.txt").read_text()

    def test_unknown_script_is_usage_error(self, tmp_path):
        rc = main(["generate", "--output-dir", str(tmp_path / "x"), "--script", "Klingon"])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("values", [
        ["--pages", "1", "--words", "3"],  # --words would be ignored
        ["--words", "0"],
        ["--words", "-1"],
        ["--pages", "-2"],
        ["--seed", "-1"],
    ])
    def test_bad_values_are_usage_errors_and_write_nothing(self, tmp_path, capsys, values):
        out, report = tmp_path / "out", tmp_path / "r.json"
        capsys.readouterr()
        assert main(["generate", "--output-dir", str(out), "--output", str(report)] + values) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()
        assert not report.exists()

    def test_smaller_corpus_over_a_larger_one_is_io_error_and_writes_nothing(self, corpus, capsys):
        # img_0003 and img_0004 would be left behind, with no ground truth.
        before = {p.name: p.read_bytes() for p in corpus.iterdir()}
        capsys.readouterr()
        assert main(["generate", "--output-dir", str(corpus), "--words", "3", "--seed", "2"]) == EXIT_IO
        assert "img_0003.pbm" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in corpus.iterdir()} == before
        # A corpus of the same names is rewritten, reports beside it.
        generate = ["generate", "--output-dir", str(corpus), "--words", "5", "--seed", "2"]
        assert main(generate + ["--output", str(corpus / "g.json")]) == EXIT_OK
        assert main(["evaluate", "--input", str(corpus), "--ceiling", "0", "--output", str(corpus / "e.json")]) == EXIT_OK

    def test_pages_of_nearby_seeds_share_no_image(self, tmp_path):
        images = set()
        for seed in ("0", "1"):
            out = tmp_path / seed
            assert main(["generate", "--output-dir", str(out), "--pages", "2", "--seed", seed,
                         "--output", str(tmp_path / f"{seed}.json")]) == EXIT_OK
            images |= {p.read_bytes() for p in out.glob("*.pbm")}
        assert len(images) == 4


class TestFeatures:
    def test_directory_entries_in_filename_order(self, corpus, tmp_path):
        rc, raw = run_to_file(["features", "--input", str(corpus)], tmp_path / "f.json")
        assert rc == EXIT_OK
        report = json.loads(raw)
        assert report["schema"] == "scriptid-report/1"
        names = [e["image"] for e in report["images"]]
        assert names == sorted(names)
        assert len(names) == 5

    def test_blank_image_reported_and_run_continues(self, corpus, tmp_path):
        save(BinaryRaster.blank(20, 20), corpus / "aa_blank.pbm")
        rc, raw = run_to_file(["features", "--input", str(corpus)], tmp_path / "f.json")
        assert rc == EXIT_OK
        report = json.loads(raw)
        blank_entry = report["images"][0]
        assert blank_entry["image"] == "aa_blank.pbm"
        assert blank_entry["error"] == "blank image"
        assert all("counts" in e for e in report["images"][1:])

    def test_unreadable_image_reported_per_file(self, corpus, tmp_path):
        (corpus / "bad.pbm").write_bytes(b"not a bitmap")
        rc, raw = run_to_file(["features", "--input", str(corpus)], tmp_path / "f.json")
        assert rc == EXIT_OK
        entry = next(e for e in json.loads(raw)["images"] if e["image"] == "bad.pbm")
        assert "error" in entry

    def test_overlong_header_integer_reported_per_file(self, corpus, tmp_path):
        (corpus / "huge.pbm").write_bytes(b"P1 " + b"9" * 5000 + b" 1\n1")
        rc, raw = run_to_file(["features", "--input", str(corpus)], tmp_path / "f.json")
        assert rc == EXIT_OK
        entries = {e["image"]: e for e in json.loads(raw)["images"]}
        assert "error" in entries.pop("huge.pbm")
        assert len(entries) == 5
        assert all("counts" in e for e in entries.values())

    def test_missing_input_is_io_error(self, tmp_path):
        rc = main(["features", "--input", str(tmp_path / "nowhere")])
        assert rc == EXIT_IO

    def test_single_file_input(self, corpus, tmp_path):
        target = sorted(corpus.glob("*.pbm"))[0]
        rc, raw = run_to_file(["features", "--input", str(target)], tmp_path / "one.json")
        assert rc == EXIT_OK
        assert len(json.loads(raw)["images"]) == 1


class TestClassify:
    def test_page_labels(self, tmp_path):
        for script in ("Arabic", "Latin"):
            out = tmp_path / script.lower()
            main(["generate", "--output-dir", str(out), "--script", script,
                  "--pages", "2", "--seed", "5", "--output", str(tmp_path / "g.json")])
            rc, raw = run_to_file(["classify", "--input", str(out)], tmp_path / "c.json")
            assert rc == EXIT_OK
            labels = [e["label"] for e in json.loads(raw)["images"]]
            assert labels == [script, script]

    def test_blank_page_is_unknown(self, tmp_path):
        save(BinaryRaster.blank(40, 40), tmp_path / "blank.pbm")
        rc, raw = run_to_file(
            ["classify", "--input", str(tmp_path / "blank.pbm")], tmp_path / "c.json"
        )
        assert rc == EXIT_OK
        assert json.loads(raw)["images"][0]["label"] == "Unknown"


class TestBatches:
    """A directory's images are analysed together, in runs of at most
    pipeline._GATHER stacked pixels, with reports as if each ran alone."""

    COMMANDS = ("features", "classify", "evaluate")

    @pytest.fixture()
    def mixed(self, tmp_path):
        arabic, latin = builtin_profiles()
        items = [
            *generate_corpus(arabic, 3, seed=7),
            generate_page(latin, seed=8),
            *generate_corpus(latin, 3, seed=9),
            generate_page(arabic, seed=10),
        ]
        folder = tmp_path / "mixed"
        save_corpus(items, folder)
        # Sorted between img_0002 and img_0003, and between img_0005 and img_0006.
        (folder / "img_0002a.pbm").write_bytes(b"P4\n16 16\n\x00\x01")
        save(BinaryRaster.blank(12, 30), folder / "img_0005a.pbm")
        with (folder / "truth.txt").open("a", encoding="utf-8") as fh:
            fh.write("img_0002a H=0 J=0 P=0 Q=0 B=0 PAW=0\nimg_0005a H=0 J=0 P=0 Q=0 B=0 PAW=0\n")
        return folder

    def _reports(self, folder, tmp_path, capsys):
        """Each command's exit code, report bytes and stdout on the folder."""
        out = {}
        for command in self.COMMANDS:
            capsys.readouterr()
            rc, raw = run_to_file([command, "--input", str(folder)], tmp_path / f"{command}.json")
            out[command] = (rc, raw, capsys.readouterr().out)
        return out

    @pytest.mark.parametrize("command", ["features", "classify"])
    def test_entries_match_each_file_alone(self, mixed, tmp_path, command):
        rc, raw = run_to_file([command, "--input", str(mixed)], tmp_path / "all.json")
        alone = []
        for i, path in enumerate(sorted(mixed.glob("*.pbm"))):
            assert run_to_file([command, "--input", str(path)], tmp_path / f"{i}.json")[0] == EXIT_OK
            alone.extend(json.loads((tmp_path / f"{i}.json").read_bytes())["images"])
        assert rc == EXIT_OK
        assert json.loads(raw)["images"] == alone
        entries = {e["image"]: e for e in alone}
        assert len(entries) == 10
        assert entries["img_0002a.pbm"]["error"].startswith("truncated payload")
        blank = entries["img_0005a.pbm"]
        assert blank.get("error") == "blank image" if command == "features" else blank["label"] == "Unknown"

    def test_evaluation_matches_each_file_alone(self, mixed, tmp_path):
        rc, raw = run_to_file(["evaluate", "--input", str(mixed)], tmp_path / "all.json")
        assert rc == EXIT_OK
        documents, errors, rows = [], [], {}
        for i, path in enumerate(sorted(mixed.glob("*.pbm"))):
            args = ["evaluate", "--input", str(path), "--truth", str(mixed / "truth.txt")]
            assert run_to_file(args, tmp_path / f"{i}.json")[0] == EXIT_OK
            one = json.loads((tmp_path / f"{i}.json").read_bytes())
            documents.extend(one["report"]["per_document"])
            errors.extend(one.get("errors", []))
            for k, row in one["report"]["per_feature"].items():
                total, correct = rows.get(k, (0, 0))
                rows[k] = (total + row["total"], correct + row["correct"])
        together = json.loads(raw)
        assert together["report"]["per_document"] == documents
        assert together["errors"] == errors and [e["image"] for e in errors] == ["img_0002a.pbm"]
        assert {k: (r["total"], r["correct"]) for k, r in together["report"]["per_feature"].items()} == rows

    def test_reports_do_not_depend_on_the_budget(self, mixed, tmp_path, capsys, monkeypatch):
        runs = []
        original = pipeline.extract_features

        def counting(pages, *args, **kwargs):
            runs[-1].append(len(pages))
            return original(pages, *args, **kwargs)

        monkeypatch.setattr(pipeline, "extract_features", counting)
        reports = []
        for budget in (pipeline._GATHER, 5000, 1):
            monkeypatch.setattr(pipeline, "_GATHER", budget)
            runs.append([])
            reports.append(self._reports(mixed, tmp_path, capsys))
        assert all(report == reports[0] for report in reports)
        assert all(rc == EXIT_OK for rc, _, _ in reports[0].values())
        # Per command, 9 images load. At the default budget a run reaches
        # past the corrupt file and the blank one, and at budget 1 each
        # image runs alone.
        assert sum(runs[0]) == sum(runs[1]) == sum(runs[2]) == 27
        assert len(runs[0]) < len(runs[1]) < len(runs[2]) == 27
        assert max(runs[0]) >= 7


class TestEvaluate:
    def test_clean_round_trip_is_exact(self, corpus, tmp_path, capsys):
        rc, raw = run_to_file(["evaluate", "--input", str(corpus)], tmp_path / "e.json")
        assert rc == EXIT_OK
        report = json.loads(raw)["report"]
        for row in report["per_feature"].values():
            assert row["error_rate"] == 0.0
        table = capsys.readouterr().out
        assert "Feature" in table and "Error rate" in table

    def test_ceiling_breach_exits_3(self, corpus, tmp_path):
        # inflate the expected pole counts so extraction under-counts badly
        truth = corpus / "truth.txt"
        doctored = []
        for line in truth.read_text().splitlines():
            fields = line.split()
            fields[1] = "H=9"
            doctored.append(" ".join(fields))
        truth.write_text("\n".join(doctored) + "\n")
        rc = main(["evaluate", "--input", str(corpus), "--ceiling", "10"])
        assert rc == EXIT_CEILING

    def test_missing_truth_is_io_error(self, corpus):
        (corpus / "truth.txt").unlink()
        rc = main(["evaluate", "--input", str(corpus)])
        assert rc == EXIT_IO

    def test_non_utf8_truth_is_ground_truth_error(self, corpus, tmp_path, capsys):
        truth = tmp_path / "truth.txt"
        truth.write_bytes((corpus / "truth.txt").read_bytes() + b"# \xff\n")
        report = tmp_path / "e.json"
        capsys.readouterr()
        rc = main(["evaluate", "--input", str(corpus), "--truth", str(truth), "--output", str(report)])
        assert rc == EXIT_IO
        assert capsys.readouterr().err.startswith(f"ground truth error: {truth}")
        assert not report.exists()

    def test_truth_with_a_byte_order_mark_reads_as_without(self, corpus, tmp_path):
        marked = tmp_path / "bom.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + (corpus / "truth.txt").read_bytes())
        rc, plain = run_to_file(["evaluate", "--input", str(corpus), "--ceiling", "0"], tmp_path / "e.json")
        assert rc == EXIT_OK
        args = ["evaluate", "--input", str(corpus), "--ceiling", "0", "--truth", str(marked)]
        assert run_to_file(args, tmp_path / "bom.json") == (EXIT_OK, plain)

    def test_explicit_truth_path(self, corpus, tmp_path):
        moved = tmp_path / "elsewhere.txt"
        moved.write_text((corpus / "truth.txt").read_text())
        rc = main(["evaluate", "--input", str(corpus), "--truth", str(moved)])
        assert rc == EXIT_OK

    def test_single_file_input_reads_the_truth_beside_it(self, corpus, tmp_path):
        target = sorted(corpus.glob("*.pbm"))[0]
        rc, raw = run_to_file(["evaluate", "--input", str(target)], tmp_path / "e.json")
        assert rc == EXIT_OK
        [document] = json.loads(raw)["report"]["per_document"]
        assert document["image_id"] == target.stem

    def test_two_images_with_one_stem_are_a_ground_truth_error(self, corpus, tmp_path, capsys):
        target = sorted(corpus.glob("*.pbm"))[0]
        target.with_suffix(".pnm").write_bytes(target.read_bytes())
        report = tmp_path / "e.json"
        capsys.readouterr()
        rc = main(["evaluate", "--input", str(corpus), "--output", str(report)])
        assert rc == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("ground truth error: ") and repr(target.stem) in err
        assert not report.exists()

    def test_truncated_image_is_scored_as_blank_and_run_continues(self, corpus, tmp_path, capsys):
        target = sorted(corpus.glob("*.pbm"))[1]
        image = target.read_bytes()
        target.write_bytes(image[: len(image) // 2])
        capsys.readouterr()
        rc, raw = run_to_file(["evaluate", "--input", str(corpus)], tmp_path / "t.json")
        assert rc == EXIT_OK
        assert f"{target.name}: error: " in capsys.readouterr().err
        truncated = json.loads(raw)
        [error] = truncated["errors"]
        assert error["image"] == target.name and error["error"]

        # The same report as with a blank page in its place: nothing predicted,
        # every expected feature of that image missed.
        save(BinaryRaster.blank(20, 20), target)
        rc, raw = run_to_file(["evaluate", "--input", str(corpus)], tmp_path / "b.json")
        assert rc == EXIT_OK
        blank = json.loads(raw)
        assert "errors" not in blank
        assert truncated["report"] == blank["report"]
        missed = next(d for d in blank["report"]["per_document"] if d["image_id"] == target.stem)
        assert set(missed["predicted"].values()) == {0} and sum(missed["expected"].values()) > 0

    def test_truncated_image_counts_against_the_ceiling(self, corpus, tmp_path):
        assert main(["evaluate", "--input", str(corpus), "--ceiling", "0"]) == EXIT_OK
        target = sorted(corpus.glob("*.pbm"))[0]
        target.write_bytes(target.read_bytes()[:-3])
        assert main(["evaluate", "--input", str(corpus), "--ceiling", "0"]) == EXIT_CEILING

    @pytest.mark.parametrize("script, qmin, expected_label", [
        ("Farsi", "0.02", "Farsi"),  # a SCRIPT named by the profile file
        ("Latin", "0", "Farsi"),  # q_min 0 rules out every profile without lower dots
    ])
    def test_verdicts_use_profile_file_and_qmin(self, tmp_path, script, qmin, expected_label):
        arabic, latin = builtin_profiles()
        profiles = tmp_path / "profiles.txt"
        save_profiles([ScriptProfile("Farsi", arabic.form_count, arabic.raw), latin], profiles)
        flags = ["--profile-file", str(profiles), "--qmin", qmin]
        pages = tmp_path / "pages"
        assert main(["generate", "--output-dir", str(pages), "--script", script, "--pages", "3",
                     "--seed", "2", "--output", str(tmp_path / "g.json"),
                     "--profile-file", str(profiles)]) == EXIT_OK

        rc, raw = run_to_file(["classify", "--input", str(pages)] + flags, tmp_path / "c.json")
        assert rc == EXIT_OK
        labels = [e["label"] for e in json.loads(raw)["images"]]
        assert labels == [expected_label] * 3
        rc, raw = run_to_file(["evaluate", "--input", str(pages)] + flags, tmp_path / "e.json")
        assert rc == EXIT_OK
        verdicts = [d["verdict_ok"] for d in json.loads(raw)["report"]["per_document"]]
        assert verdicts == [label == script for label in labels]


class TestProfileFile:
    # A profile file with one defect each; both scoring commands need two profiles.
    @pytest.mark.parametrize("command, text", [
        ("classify", "name X\nform_count 10\nH 1\nJ 1\nP 1\nQ 1\n"),  # no B
        ("evaluate", "name X\nform_count 10\nH 1\nJ 1\nP 1\nQ 1\n"),
        ("generate", "name X\nform_count 10\nH 1\nJ 1\nP 1\nQ 1\n"),
        ("classify", "name X\nform_count 0\nH 1\nJ 1\nP 1\nQ 1\nB 1\n"),
        ("evaluate", "name X\nform_count 10\nH 1\nJ 1\nP -2\nQ 1\nB 1\n"),
        ("classify", "name Arabic\nform_count 120\nH 29\nJ 28\nP 30\nQ 11\nB 22\n"),
        ("evaluate", "name Arabic\nform_count 120\nH 29\nJ 28\nP 30\nQ 11\nB 22\n"),
    ])
    def test_bad_profile_file_is_profile_error_and_writes_nothing(
        self, corpus, tmp_path, capsys, command, text
    ):
        profiles = tmp_path / "profiles.txt"
        profiles.write_text(text)
        report = tmp_path / "r.json"
        if command == "generate":
            args = [command, "--output-dir", str(tmp_path / "out"), "--script", "X"]
        else:
            args = [command, "--input", str(corpus)]
        capsys.readouterr()
        rc = main(args + ["--profile-file", str(profiles), "--output", str(report)])
        assert rc == EXIT_IO
        assert capsys.readouterr().err.startswith(f"profile error: {profiles}")
        assert not report.exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["classify", "evaluate"])
    def test_non_utf8_profile_file_is_profile_error(self, corpus, tmp_path, capsys, command):
        profiles = tmp_path / "profiles.txt"
        save_profiles(builtin_profiles(), profiles)
        profiles.write_bytes(profiles.read_bytes() + b"# \xff\n")
        report = tmp_path / "r.json"
        capsys.readouterr()
        rc = main([command, "--input", str(corpus), "--profile-file", str(profiles), "--output", str(report)])
        assert rc == EXIT_IO
        assert capsys.readouterr().err.startswith(f"profile error: {profiles}")
        assert not report.exists()

    @pytest.mark.parametrize("command", ["classify", "evaluate"])
    def test_profile_file_with_a_byte_order_mark_reads_as_without(self, corpus, tmp_path, command):
        profiles = tmp_path / "profiles.txt"
        save_profiles(builtin_profiles(), profiles)
        rc, plain = run_to_file([command, "--input", str(corpus), "--profile-file", str(profiles)], tmp_path / "p.json")
        assert rc == EXIT_OK
        profiles.write_bytes(b"\xef\xbb\xbf" + profiles.read_bytes())
        assert run_to_file([command, "--input", str(corpus), "--profile-file", str(profiles)],
                           tmp_path / "bom.json") == (EXIT_OK, plain)

    def test_generate_refuses_a_script_the_truth_file_cannot_hold(self, tmp_path, capsys):
        profiles = tmp_path / "profiles.txt"
        latin = builtin_profiles()[1]
        save_profiles([ScriptProfile("My Script", latin.form_count, latin.raw), latin], profiles)
        out = tmp_path / "out"
        capsys.readouterr()
        rc = main(["generate", "--output-dir", str(out), "--pages", "2", "--script", "My Script",
                   "--profile-file", str(profiles)])
        assert rc == EXIT_IO
        assert capsys.readouterr().err.startswith("ground truth error: script 'My Script'")
        assert not out.exists()

    def test_generate_refuses_a_library_script_holding_a_comment_mark(self, tmp_path, monkeypatch):
        # A profile file cannot name "A#B" ('#' starts a comment), but a library profile can.
        latin = builtin_profiles()[1]
        monkeypatch.setattr(cli, "builtin_profiles", lambda: [ScriptProfile("A#B", latin.form_count, latin.raw), latin])
        out = tmp_path / "out"
        rc = main(["generate", "--output-dir", str(out), "--pages", "1", "--script", "A#B"])
        assert rc == EXIT_IO
        assert not out.exists()

    def test_generate_accepts_one_profile(self, tmp_path):
        profiles = tmp_path / "profiles.txt"
        save_profiles(builtin_profiles()[1:], profiles)
        out = tmp_path / "out"
        assert main(["generate", "--output-dir", str(out), "--script", "Latin", "--words", "2",
                     "--profile-file", str(profiles), "--output", str(tmp_path / "g.json")]) == EXIT_OK
        assert len(list(out.glob("*.pbm"))) == 2


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self):
        assert main(["features"]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["features", "classify", "evaluate"])
    @pytest.mark.parametrize("flag, value", [
        ("--dilate", "-1"),
        ("--contour-max", "0"),
        ("--contour-max", str(2**63)),  # the page pass holds the cap in an int64
        ("--contour-max", str(10**23)),
        ("--alpha", "0"),
        ("--alpha", "nan"),
        ("--merge-gap", "-1"),
        ("--alpha", "1.5"),
        ("--dilate", "1.5"),
    ])
    def test_out_of_range_parameter_is_usage_error(self, corpus, capsys, command, flag, value):
        capsys.readouterr()
        assert main([command, "--input", str(corpus), flag, value]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error")

    @pytest.mark.parametrize("command", ["features", "classify", "evaluate"])
    def test_bad_number_is_rejected_before_the_input_is_read(self, tmp_path, capsys, command):
        capsys.readouterr()
        assert main([command, "--input", str(tmp_path / "missing"), "--dilate", "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error:")

    # --qmin and --ceiling take a finite number >= 0; --qmin 0 stays valid.
    @pytest.mark.parametrize("command, flag, value", [
        ("classify", "--qmin", "-1"),
        ("classify", "--qmin", "nan"),
        ("classify", "--qmin", "inf"),
        ("evaluate", "--qmin", "-1"),
        ("evaluate", "--qmin", "nan"),
        ("evaluate", "--ceiling", "-1"),
        ("evaluate", "--ceiling", "nan"),
        ("evaluate", "--ceiling", "inf"),
    ])
    def test_out_of_range_classifier_value_is_usage_error(self, corpus, tmp_path, capsys, command, flag, value):
        report = tmp_path / "r.json"
        capsys.readouterr()
        assert main([command, "--input", str(corpus), flag, value, "--output", str(report)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error:")
        assert not report.exists()

    # Flags every command accepted before each got its own set; each belongs
    # to some other command.
    @pytest.mark.parametrize("command, flag, value", [
        ("features", "--qmin", "0.1"),
        ("features", "--profile-file", "profiles.txt"),
        ("features", "--ceiling", "3"),
        ("features", "--seed", "1"),
        ("classify", "--seed", "1"),
        ("classify", "--ceiling", "3"),
        ("evaluate", "--seed", "1"),
        ("generate", "--dilate", "2"),
        ("generate", "--alpha", "0.5"),
        ("generate", "--contour-max", "9"),
        ("generate", "--merge-gap", "1"),
        ("generate", "--qmin", "0.1"),
        ("generate", "--ceiling", "3"),
    ])
    def test_foreign_flag_is_usage_error(self, corpus, tmp_path, capsys, command, flag, value):
        save_profiles(builtin_profiles(), tmp_path / "profiles.txt")
        if command == "generate":
            args = [command, "--output-dir", str(tmp_path / "out")]
        else:
            args = [command, "--input", str(corpus)]
        value = str(tmp_path / value) if flag == "--profile-file" else value
        capsys.readouterr()
        assert main(args + [flag, value, "--output", str(tmp_path / "r.json")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error:")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["features", "evaluate"])
    def test_merge_gap_help_states_the_split_rule(self, capsys, command):
        code, out, _ = _own_main([command, "--help"], capsys)
        assert code == EXIT_OK
        assert "a blank run shorter than this many rows does not split a line; 0 acts as 1" in " ".join(out.split())

    def test_own_flags_at_their_defaults_change_no_report(self, corpus, tmp_path):
        profiles = tmp_path / "profiles.txt"
        save_profiles(builtin_profiles(), profiles)
        pipeline = ["--dilate", "1", "--alpha", "0.5", "--contour-max", "60", "--merge-gap", "2"]
        classifier = ["--qmin", "0.02", "--profile-file", str(profiles)]
        for command, own in [
            ("features", pipeline),
            ("classify", pipeline + classifier),
            ("evaluate", pipeline + classifier + ["--truth", str(corpus / "truth.txt"), "--ceiling", "100"]),
        ]:
            base = [command, "--input", str(corpus), "--format", "json"]
            assert run_to_file(base + own, tmp_path / "a.json") == run_to_file(base, tmp_path / "b.json")
        for out, extra in [("g1", []), ("g2", ["--script", "Arabic", "--words", "50", "--pages", "0",
                                               "--seed", "0", "--profile-file", str(profiles),
                                               "--format", "text"])]:
            assert main(["generate", "--output-dir", str(tmp_path / out), "--words", "50",
                         "--output", str(tmp_path / f"{out}.txt")] + extra) == EXIT_OK
        images = [{p.name: p.read_bytes() for p in sorted((tmp_path / out).iterdir())} for out in ("g1", "g2")]
        assert images[0] == images[1]


class TestGraymapMaxval:
    def test_picture_reads_the_same_at_any_maxval(self, tmp_path):
        # The same picture, white at maxval and ink at 0, in P2 and P5 at three maxvals.
        ink = generate_corpus(builtin_profiles()[0], 1, seed=12)[0].raster.pixels
        pixels, reports = [], []
        for maxval in (1, 15, 255):
            gray = np.where(ink, 0, maxval).astype(np.uint8)
            header = b"%d %d\n%d\n" % (gray.shape[1], gray.shape[0], maxval)
            for magic, body in [
                (b"P2", b"\n".join(b" ".join(b"%d" % v for v in row) for row in gray) + b"\n"),
                (b"P5", gray.tobytes()),
            ]:
                folder = tmp_path / f"{magic.decode()}_{maxval}"
                folder.mkdir()
                (folder / "word.pgm").write_bytes(magic + b"\n" + header + body)
                pixels.append(load(folder / "word.pgm").pixels)
                reports.append(run_to_file(["features", "--input", str(folder)], tmp_path / "f.json"))
        assert all(np.array_equal(p, pixels[-1]) for p in pixels)
        assert set(np.unique(pixels[-1]).tolist()) == {0, 255}
        assert all(r == reports[-1] for r in reports)
        assert reports[-1][0] == EXIT_OK and json.loads(reports[-1][1])["images"][0]["nb_paws"] > 0


class TestDeterminism:
    def test_reports_are_byte_identical(self, corpus, tmp_path):
        for command, extra in [
            (["features", "--input", str(corpus)], []),
            (["classify", "--input", str(corpus)], []),
            (["evaluate", "--input", str(corpus)], []),
        ]:
            _, first = run_to_file(command + extra, tmp_path / "a.json")
            _, second = run_to_file(command + extra, tmp_path / "b.json")
            assert first == second, command[0]

    # sha256 of the reports on the corpus below; any change to a count, hit,
    # word-part index, position, score or verdict changes them.
    PINNED = {
        "features": "1970fe97469034b08326db42569d4c89d8f31bc3a6e5a3a2c5a7e2afb0dfd119",
        "classify": "a79f5d23370c02fa39b1427a49d9b32f452c022b3137f3027481ffe0c6f4e9be",
        "evaluate": "83e4aca9fd4e4022cd26dbf534931949e0e92a317b356805f8366a21b48e3d93",
    }

    def test_reports_match_pinned_hashes(self, tmp_path):
        arabic, latin = builtin_profiles()
        degraded = generate_page(arabic, seed=9)
        degraded = dataclasses.replace(
            degraded, raster=apply_salt(dilate(degraded.raster, 1), 0.001, seed=10_009)
        )
        items = [
            *generate_corpus(arabic, 6, seed=3),
            *generate_corpus(latin, 6, seed=4),
            generate_page(arabic, seed=5),
            generate_page(latin, seed=6),
            degraded,
        ]
        save_corpus(items, tmp_path / "corpus")
        digests = {}
        for command in self.PINNED:
            rc, raw = run_to_file(
                [command, "--input", str(tmp_path / "corpus")], tmp_path / f"{command}.json"
            )
            assert rc == EXIT_OK
            digests[command] = hashlib.sha256(raw).hexdigest()
        assert digests == self.PINNED

    # sha256 of the reports on two wide pages of 20-28 parts per line, where
    # each line carries dozens of detached marks for the part grouping. At
    # --contour-max 20 both pages drop oversize loops, which no other pin
    # exercises.
    PINNED_WIDE = {
        ("features", "--dilate", "1"): "2049891e9f2ff3544dc6d313d33ddf186d20672eb7a163ee0893c05b684630e7",
        ("classify", "--dilate", "1"): "6a1879210fb93c0be16aed728540e76a2377cd983a1e263649bc26ae2c76e344",
        ("features", "--dilate", "0"): "af50408037bae96a51269a52dcbf2acfdf52567ef8b6cb5f65b3a2cec6385d78",
        ("classify", "--dilate", "0"): "86af12eb1c2ae9988d63a85b683f848a339913406226413ff69946e2d391a01f",
        ("features", "--dilate", "0", "--contour-max", "20"):
            "a4fc0e786173df629b9491be925ae18f470f2ac83672a21228e728df7bfd14c8",
        ("features", "--dilate", "2"): "97751d6ce462d6f79e6bb4882fa048ce294801d9f32a46c42bfdc3bbbca84327",
    }

    def test_wide_page_reports_match_pinned_hashes(self, tmp_path):
        arabic, latin = builtin_profiles()
        items = [
            generate_page(arabic, seed=21, min_paws=20, max_paws=28),
            generate_page(latin, seed=22, min_paws=20, max_paws=28),
        ]
        save_corpus(items, tmp_path / "corpus")
        digests = {}
        for i, (command, *flags) in enumerate(self.PINNED_WIDE):
            rc, raw = run_to_file(
                [command, "--input", str(tmp_path / "corpus"), *flags], tmp_path / f"{i}.json"
            )
            assert rc == EXIT_OK
            if "--contour-max" in flags:
                assert all(e["dropped_oversize_loops"] > 0 for e in json.loads(raw)["images"])
            digests[(command, *flags)] = hashlib.sha256(raw).hexdigest()
        assert digests == self.PINNED_WIDE

    # sha256 of the features and classify reports, as JSON and as text, on a
    # few words, a blank image and a truncated file, so the text lines and the
    # error entries are pinned too.
    PINNED_ENTRIES = {
        ("features", "json"): "6576ebab93adbdf6800292defde563f4b291b12c545062b51e059adc7688b357",
        ("features", "text"): "603137a560894fdb78b77c8e44454e1a225da65e13244f4c48d54b1de7f1b1b4",
        ("classify", "json"): "b81bb501b58552f8233acf5156f34b7c4f82a77797847724f5437352ab72cc72",
        ("classify", "text"): "a31f959ff02b2f7981cc54eed6c1dd0ba94b7c107709618ac28b1b6edf7c7e43",
    }

    def test_entry_reports_match_pinned_hashes(self, tmp_path):
        arabic, latin = builtin_profiles()
        folder = tmp_path / "corpus"
        save_corpus([*generate_corpus(arabic, 3, seed=7), *generate_corpus(latin, 3, seed=8)], folder)
        save(BinaryRaster.blank(12, 20), folder / "blank.pbm")
        (folder / "truncated.pbm").write_bytes(b"P4\n10 10\n")
        digests = {}
        for command, form in self.PINNED_ENTRIES:
            rc, raw = run_to_file([command, "--input", str(folder), "--format", form], tmp_path / "r")
            assert rc == EXIT_OK
            digests[(command, form)] = hashlib.sha256(raw).hexdigest()
        assert digests == self.PINNED_ENTRIES

    # sha256 of the generate report, written from the working directory so
    # its "wrote ... to c" line is stable, and of the evaluate report written
    # with --output on a folder that holds a truncated file, so the errors
    # key after report and the text table are pinned too.
    PINNED_REPORTS = {
        ("generate", "json"): "e9853a8db2695301b15b93327fe84b512b10e54505dc8db0cd02976f84d9228e",
        ("generate", "text"): "231ec993151331e54394b8224cccbfdb850fd290a9ba3407d89395c0d0b8f0ee",
        ("evaluate", "json"): "7180cee975bdbbbe6884b85878d0025290aace220f10036bccd0d55a5857af7a",
        ("evaluate", "text"): "7cd9d3e039e209e59d2e9eb1e148fef375ce9f7f5f847913e75d9577ec309c3d",
    }

    def test_generate_and_evaluate_reports_match_pinned_hashes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        digests = {}
        for command, form in self.PINNED_REPORTS:
            if command == "generate":
                argv = ["generate", "--output-dir", "c", "--words", "3", "--seed", "1"]
            else:
                Path("c/img_0001.pbm").write_bytes(b"P4\n16 16\n\x00\x01")
                argv = ["evaluate", "--input", "c"]
            rc, raw = run_to_file(argv + ["--format", form], tmp_path / f"{command}.{form}")
            assert rc == EXIT_OK
            digests[(command, form)] = hashlib.sha256(raw).hexdigest()
        assert list(json.loads((tmp_path / "evaluate.json").read_bytes()))[-2:] == ["report", "errors"]
        assert digests == self.PINNED_REPORTS

    def test_every_report_opens_with_schema_and_command(self, corpus, tmp_path):
        for argv in (
            ["generate", "--output-dir", str(tmp_path / "g"), "--words", "1"],
            ["features", "--input", str(corpus)],
            ["classify", "--input", str(corpus)],
            ["evaluate", "--input", str(corpus)],
        ):
            rc, raw = run_to_file(argv, tmp_path / "r.json")
            assert rc == EXIT_OK
            assert list(json.loads(raw).items())[:2] == [("schema", "scriptid-report/1"), ("command", argv[0])]

    def test_generate_is_byte_identical(self, tmp_path):
        for count in (["--words", "4"], ["--pages", "2"]):
            blobs = []
            for name in ("g1", "g2"):
                out = tmp_path / count[0].strip("-") / name
                main(["generate", "--output-dir", str(out), "--script", "Latin",
                      *count, "--seed", "77", "--output", str(tmp_path / f"{name}.json")])
                blobs.append(
                    {p.name: p.read_bytes() for p in sorted(out.iterdir())}
                )
            assert blobs[0] == blobs[1]


# Report trees for the encoder: strings with quotes, backslashes, control
# characters and non-ASCII; ints past 64 bits; floats at the edges of the
# rounding and of repr's formats; empty and nested containers; and the
# evaluation report's dataclasses, holding any of these.
_TEXT = st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\t\u00e9\u0628\u2028\U0001f600'), max_size=6) | st.text(max_size=6)
_FLOATS = (
    st.floats()
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-5, -1e-5, 1e16, 1e-300, 0.00005, 0.99995, 2.5e-5])
    | st.integers(-10**8, 10**8).map(lambda n: n / 10**4 + 0.00005)
)
_INTS = st.integers() | st.sampled_from([2**63, -(2**63) - 1, 2**64 + 7, -(2**70)])


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, children, max_size=4)
        | st.builds(FeatureScore, children, children, children, children)
        | st.builds(DocumentResult, _TEXT, st.dictionaries(_TEXT, children, max_size=3), children, children)
        | st.builds(
            EvalReport,
            st.dictionaries(_TEXT, st.builds(FeatureScore, _INTS, _INTS, _FLOATS, st.booleans()), max_size=3),
            children,
            children,
            st.lists(children, max_size=3).map(tuple),
        )
    )


_REPORT_TREES = st.recursive(_TEXT | _INTS | _FLOATS | st.booleans() | st.none(), _containers, max_leaves=30)


class TestReportEncoder:
    @settings(max_examples=400, deadline=None)
    @given(_REPORT_TREES)
    def test_writes_the_bytes_of_the_reference_path(self, tree):
        assert cli._json(tree) == reference_report_json(tree)

    @pytest.mark.parametrize(
        "tree", [{1: "one"}, {"a": [{None: 0}]}, [object()], {"a": {1, 2}}, b"bytes", np.int64(3), FeatureScore]
    )
    def test_refuses_what_no_report_holds(self, tree):
        with pytest.raises(TypeError):
            cli._json(tree)

    def test_reports_take_neither_the_python_encoder_nor_a_deep_copy(self, tmp_path, monkeypatch):
        # json.dumps(indent=2) writes through json.encoder._make_iterencode,
        # the pure-Python encoder, and dataclasses.asdict deep-copies every
        # leaf; a report is written with neither, in the same bytes.
        arabic, latin = builtin_profiles()
        save_corpus([*generate_corpus(arabic, 3, seed=3), generate_page(latin, seed=6)], tmp_path / "c")
        argvs = [[command, "--input", str(tmp_path / "c")] for command in ("features", "classify", "evaluate")]
        plain = [run_to_file(argv, tmp_path / f"plain{i}.json") for i, argv in enumerate(argvs)]

        def refuse(*args, **kwargs):
            raise AssertionError("the report took the pure-Python encoder or a deep copy")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        monkeypatch.setattr(copy, "deepcopy", refuse)
        patched = [run_to_file(argv, tmp_path / f"patched{i}.json") for i, argv in enumerate(argvs)]
        assert [rc for rc, _ in patched] == [EXIT_OK] * 3
        assert patched == plain


def _fresh_main(argv, cwd):
    """Exit code, stdout and stderr of scriptid run with argv in a new
    interpreter, with scipy blocked from importing."""
    child = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from scriptid.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "COLUMNS": "80"}
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


def _own_main(argv, capsys):
    """Exit code, stdout and stderr of cli.main(argv) in this process."""
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestProcesses:
    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys, monkeypatch):
        # The parser is built once per process, so each call must leave
        # nothing behind that changes the next one.
        calls = [
            ["generate", "--output-dir", "c", "--words", "3", "--seed", "1"],
            ["features", "--input", "c", "--format", "text"],
            ["classify", "--input", "c"],
            ["classify", "--input", "c", "--qmin", "-1"],
            ["--help"],
        ]
        (tmp_path / "fresh").mkdir()
        (tmp_path / "own").mkdir()
        fresh = [_fresh_main(argv, tmp_path / "fresh") for argv in calls]
        monkeypatch.chdir(tmp_path / "own")
        monkeypatch.setenv("COLUMNS", "80")
        own = [_own_main(argv, capsys) for argv in calls]
        assert [code for code, _, _ in own] == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK]
        assert own == fresh

    def test_reports_need_no_scipy(self, tmp_path):
        # The same reports, byte for byte, from a process that cannot import
        # scipy and from this one, which has it.
        arabic, latin = builtin_profiles()
        items = [*generate_corpus(arabic, 3, seed=3), generate_page(latin, seed=6)]
        save_corpus(items, tmp_path / "corpus")
        for command in ("features", "classify"):
            argv = [command, "--input", "corpus", "--output", f"{command}-fresh.json"]
            assert _fresh_main(argv, tmp_path)[0] == EXIT_OK
            _, own = run_to_file([command, "--input", str(tmp_path / "corpus")], tmp_path / f"{command}.json")
            assert (tmp_path / f"{command}-fresh.json").read_bytes() == own
