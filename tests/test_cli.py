import dataclasses
import hashlib
import json

import numpy as np
import pytest

from scriptid.classify import ScriptProfile, builtin_profiles, save_profiles
from scriptid.cli import EXIT_CEILING, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from scriptid.raster import BinaryRaster, dilate, load, save
from scriptid.synthgen import apply_salt, generate_corpus, generate_page, save_corpus


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

    def test_explicit_truth_path(self, corpus, tmp_path):
        moved = tmp_path / "elsewhere.txt"
        moved.write_text((corpus / "truth.txt").read_text())
        rc = main(["evaluate", "--input", str(corpus), "--truth", str(moved)])
        assert rc == EXIT_OK

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


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self):
        assert main(["features"]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["features", "classify", "evaluate"])
    @pytest.mark.parametrize("flag, value", [
        ("--dilate", "-1"),
        ("--contour-max", "0"),
        ("--alpha", "0"),
        ("--alpha", "nan"),
        ("--merge-gap", "-1"),
    ])
    def test_out_of_range_parameter_is_usage_error(self, corpus, capsys, command, flag, value):
        capsys.readouterr()
        assert main([command, "--input", str(corpus), flag, value]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error")

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
    # word-part index or position changes them.
    PINNED = {
        "features": "1970fe97469034b08326db42569d4c89d8f31bc3a6e5a3a2c5a7e2afb0dfd119",
        "classify": "a79f5d23370c02fa39b1427a49d9b32f452c022b3137f3027481ffe0c6f4e9be",
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
