"""Command line front end: features, classify, evaluate, generate.

Reports are deterministic: keys are emitted in a fixed order, floats are
rounded to 4 decimals, infinities become the string "inf", and directory
inputs are processed in filename order, so identical inputs always produce
byte-identical output. Exit codes: 0 success, 1 usage error, 2 I/O error,
3 evaluation ceiling breach.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import evaluate as evalmod
from .classify import builtin_profiles, load_profiles
from .features import FEATURE_KINDS, FeatureSet
from .pipeline import DEFAULT_PARAMS, PipelineParams, analyze_page, classify_page
from .raster import BinaryRaster, GrayRaster, PnmError, binarize, load
from .synthgen import generate_corpus, generate_page, save_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CEILING = 3

SCHEMA = "scriptid-report/1"
_IMAGE_SUFFIXES = (".pbm", ".pgm", ".pnm")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _round_floats(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf"
        return round(obj, 4)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(payload, args):
    if args.format == "json":
        clean = {k: v for k, v in payload.items() if k != "_text"}
        text = json.dumps(_round_floats(clean), indent=2) + "\n"
    else:
        text = payload["_text"] + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _input_paths(raw: str) -> list[Path]:
    path = Path(raw)
    if path.is_file():
        return [path]
    if path.is_dir():
        found = sorted(
            (p for p in path.iterdir() if p.suffix.lower() in _IMAGE_SUFFIXES),
            key=lambda p: p.name,
        )
        if not found:
            raise FileNotFoundError(f"no portable-map images in {path}")
        return found
    raise FileNotFoundError(f"input path {path} does not exist")


def _load_binary(path: Path) -> BinaryRaster:
    img = load(path)
    if isinstance(img, GrayRaster):
        return binarize(img, 128)
    return img


def _params(args) -> PipelineParams:
    """Pipeline parameters from the flags, rejecting values no stage accepts."""
    if args.dilate < 0:
        raise _UsageError(f"--dilate must be >= 0, not {args.dilate}")
    if args.contour_max <= 0:
        raise _UsageError(f"--contour-max must be positive, not {args.contour_max}")
    if not 0 < args.alpha <= 1:
        raise _UsageError(f"--alpha must lie in (0, 1], not {args.alpha}")
    if args.merge_gap < 0:
        raise _UsageError(f"--merge-gap must be >= 0, not {args.merge_gap}")
    return PipelineParams(
        dilation_radius=args.dilate,
        alpha=args.alpha,
        merge_gap=args.merge_gap,
        diacritic_max_contour=args.contour_max,
    )


def _check_nonnegative(flag: str, value: float):
    """Reject a flag value that is not a finite number >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise _UsageError(f"{flag} must be a finite number >= 0, not {value}")


def _profiles(args):
    if args.profile_file:
        return load_profiles(args.profile_file)
    return builtin_profiles()


def _hit_dict(hit) -> dict:
    return {
        "kind": hit.kind,
        "row": hit.location[0],
        "col": hit.location[1],
        "paw": hit.paw_index,
        "position": hit.position,
    }


def _paw_tokens(fs) -> list[dict]:
    per_paw: dict[int, list] = {}
    for hit in fs.hits:
        per_paw.setdefault(hit.paw_index, []).append(hit.kind + hit.position)
    return [
        {"index": i, "features": per_paw.get(i, [])} for i in range(fs.nb_paws)
    ]


def _feature_entry(path: Path, params: PipelineParams) -> dict:
    page = _load_binary(path)
    if page.ink_count() == 0:
        return {"image": path.name, "error": "blank image"}
    analysis = analyze_page(page, params)
    fs = analysis.features
    return {
        "image": path.name,
        "counts": {k: fs.counts[k] for k in FEATURE_KINDS},
        "nb_paws": fs.nb_paws,
        "dropped_oversize_loops": fs.dropped_oversize_loops,
        "hits": [_hit_dict(h) for h in fs.hits],
        "paws": _paw_tokens(fs),
    }


def _features_text(entries) -> str:
    lines = []
    for e in entries:
        if "error" in e:
            lines.append(f"{e['image']}: error: {e['error']}")
            continue
        counts = " ".join(f"{k}={e['counts'][k]}" for k in FEATURE_KINDS)
        lines.append(f"{e['image']}: {counts} PAW={e['nb_paws']}")
        for paw in e["paws"]:
            tokens = " ".join(paw["features"]) or "-"
            lines.append(f"  paw {paw['index']}: {tokens}")
    return "\n".join(lines)


def cmd_features(args) -> int:
    paths = _input_paths(args.input)
    params = _params(args)
    entries = []
    for path in paths:
        try:
            entries.append(_feature_entry(path, params))
        except (PnmError, OSError) as exc:
            entries.append({"image": path.name, "error": str(exc)})
    payload = {
        "schema": SCHEMA,
        "command": "features",
        "parameters": asdict(params),
        "images": entries,
        "_text": _features_text(entries),
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_classify(args) -> int:
    _check_nonnegative("--qmin", args.qmin)
    paths = _input_paths(args.input)
    params = _params(args)
    profiles = _profiles(args)
    entries = []
    for path in paths:
        try:
            page = _load_binary(path)
        except (PnmError, OSError) as exc:
            entries.append({"image": path.name, "error": str(exc)})
            continue
        verdict, analysis = classify_page(
            page, profiles, params, q_min=args.qmin
        )
        fs = analysis.features
        entries.append(
            {
                "image": path.name,
                "label": verdict.label,
                "scores": dict(verdict.scores),
                "margin": verdict.margin,
                "counts": {k: fs.counts[k] for k in FEATURE_KINDS},
                "nb_paws": fs.nb_paws,
            }
        )
    text_lines = []
    for e in entries:
        if "error" in e:
            text_lines.append(f"{e['image']}: error: {e['error']}")
        else:
            text_lines.append(f"{e['image']}: {e['label']}")
    payload = {
        "schema": SCHEMA,
        "command": "classify",
        "parameters": {**asdict(params), "q_min": args.qmin},
        "images": entries,
        "_text": "\n".join(text_lines),
    }
    _emit(payload, args)
    return EXIT_OK


def _report_dict(report) -> dict:
    return {
        "per_feature": {
            k: {
                "total": row.total,
                "correct": row.correct,
                "error_rate": row.error_rate,
                "undefined": row.undefined,
            }
            for k, row in report.per_feature.items()
        },
        "paw_mismatch": report.paw_mismatch,
        "paw_mismatch_rate": report.paw_mismatch_rate,
        "per_document": [
            {
                "image_id": doc.image_id,
                "predicted": doc.predicted,
                "expected": doc.expected,
                "verdict_ok": doc.verdict_ok,
            }
            for doc in report.per_document
        ],
    }


def cmd_evaluate(args) -> int:
    _check_nonnegative("--qmin", args.qmin)
    if args.ceiling is not None:
        _check_nonnegative("--ceiling", args.ceiling)
    paths = _input_paths(args.input)
    truth_path = Path(args.truth) if args.truth else Path(args.input) / "truth.txt"
    truth = evalmod.load_ground_truth(truth_path)
    params = _params(args)

    predictions = []
    errors = []
    for path in paths:
        try:
            page = _load_binary(path)
        except (PnmError, OSError) as exc:
            # Scored like a blank page, so its truth still counts as missed.
            sys.stderr.write(f"{path.name}: error: {exc}\n")
            errors.append({"image": path.name, "error": str(exc)})
            predictions.append((path.stem, FeatureSet.empty()))
            continue
        analysis = analyze_page(page, params)
        predictions.append((path.stem, analysis.features))
    report = evalmod.score(predictions, truth, _profiles(args), q_min=args.qmin)

    table = evalmod.format_report(report)
    sys.stdout.write(table + "\n")
    if args.output:
        payload = {
            "schema": SCHEMA,
            "command": "evaluate",
            "parameters": asdict(params),
            "report": _report_dict(report),
            "_text": table,
        }
        if errors:
            payload["errors"] = errors
        _emit(payload, args)

    if args.ceiling is not None:
        for k, row in report.per_feature.items():
            if row.error_rate * 100 > args.ceiling:
                sys.stderr.write(
                    f"error rate for {k} ({row.error_rate * 100:.2f} %) exceeds ceiling {args.ceiling}\n"
                )
                return EXIT_CEILING
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.pages < 0:
        raise _UsageError(f"--pages must be >= 0, not {args.pages}")
    if args.pages and args.words is not None:
        raise _UsageError("--words does not apply with --pages above 0")
    words = 50 if args.words is None else args.words
    if words <= 0:
        raise _UsageError(f"--words must be positive, not {words}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, not {args.seed}")
    profiles = _profiles(args)
    wanted = {p.name: p for p in profiles}
    if args.script not in wanted:
        raise _UsageError(f"unknown script {args.script!r}; choices: {sorted(wanted)}")
    profile = wanted[args.script]

    if args.pages:
        # One seed stream, as generate_corpus draws its word seeds, so the
        # pages of nearby seeds never coincide.
        rng = np.random.default_rng(args.seed)
        items = [generate_page(profile, seed=int(rng.integers(2**31))) for _ in range(args.pages)]
    else:
        items = generate_corpus(profile, words, seed=args.seed)
    image_paths, truth_path = save_corpus(items, args.output_dir)
    payload = {
        "schema": SCHEMA,
        "command": "generate",
        "script": profile.name,
        "seed": args.seed,
        "count": len(image_paths),
        "images": [p.name for p in image_paths],
        "truth": truth_path.name,
        "_text": f"wrote {len(image_paths)} images and {truth_path.name} to {args.output_dir}",
    }
    _emit(payload, args)
    return EXIT_OK


def _add_report(parser):
    parser.add_argument("--output", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "text"), default="json")


def _add_profiles(parser):
    parser.add_argument("--profile-file", dest="profile_file",
                        help="script profiles to use instead of the built-ins")


def _add_features(parser):
    """The features command's flags: input, report, and pipeline parameters."""
    parser.add_argument("--input", required=True, help="image file or directory")
    _add_report(parser)
    parser.add_argument("--dilate", type=int, default=DEFAULT_PARAMS.dilation_radius,
                        help="contour expansion radius")
    parser.add_argument("--alpha", type=float, default=DEFAULT_PARAMS.alpha,
                        help="baseline band density fraction")
    parser.add_argument("--contour-max", type=int, default=DEFAULT_PARAMS.diacritic_max_contour,
                        dest="contour_max", help="diacritic/loop contour point cap")
    parser.add_argument("--merge-gap", type=int, default=DEFAULT_PARAMS.merge_gap, dest="merge_gap",
                        help="blank rows tolerated inside a line")


def _add_classify(parser):
    """The classify command's flags: the features flags plus the classifier's."""
    _add_features(parser)
    parser.add_argument("--qmin", type=float, default=0.02,
                        help="lower-dot frequency that rules out dot-free scripts")
    _add_profiles(parser)


def build_parser() -> _Parser:
    parser = _Parser(prog="scriptid", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", help="extract structural features per image")
    _add_features(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("classify", help="label each page Arabic, Latin, or Unknown")
    _add_classify(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="score extracted features against ground truth")
    _add_classify(p)
    p.add_argument("--truth", help="ground-truth file (default: <input>/truth.txt)")
    p.add_argument("--ceiling", type=float, default=None,
                   help="fail (exit 3) if any feature error rate exceeds this percentage")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("generate", help="write a synthetic corpus with ground truth")
    p.add_argument("--output-dir", required=True, help="directory for images and truth file")
    p.add_argument("--script", default="Arabic", help="profile name to draw from")
    p.add_argument("--words", type=int, default=None,
                   help="number of word images (default 50); not with --pages")
    p.add_argument("--pages", type=int, default=0, help="generate multi-line pages instead")
    p.add_argument("--seed", type=int, default=0)
    _add_profiles(p)
    _add_report(p)
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except evalmod.GroundTruthError as exc:
        sys.stderr.write(f"ground truth error: {exc}\n")
        return EXIT_IO
    except (PnmError, OSError) as exc:
        sys.stderr.write(f"I/O error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
