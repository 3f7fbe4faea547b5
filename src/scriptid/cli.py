"""Command line front end: features, classify, evaluate, generate.

Reports are deterministic: keys are emitted in a fixed order, floats are
rounded to 4 decimals, infinities become the string "inf", and directory
inputs are processed in filename order, so identical inputs always produce
byte-identical output. Exit codes: 0 success, 1 usage error, 2 I/O, ground
truth or profile error, 3 evaluation ceiling breach.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import evaluate as evalmod
from .classify import DEFAULT_Q_MIN, ProfileFormatError, builtin_profiles, classify, load_profiles
from .features import FEATURE_KINDS, FeatureSet
from .pipeline import DEFAULT_PARAMS, PageAnalysis, PipelineParams, analyze_pages
from .raster import _IMAGE_SUFFIXES, PnmError, load
from .synthgen import generate_corpus, generate_page, save_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CEILING = 3

SCHEMA = "scriptid-report/1"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _ranged(parse, accept, rule):
    """An argparse type that parses a flag's value and rejects it unless
    accept(value) holds, so a bad number is a usage error at parse time."""
    def convert(text):
        value = parse(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, not {text}")
        return value

    convert.__name__ = parse.__name__  # argparse names it in "invalid int value"
    return convert


_COUNT = _ranged(int, lambda v: v >= 0, ">= 0")
_POSITIVE = _ranged(int, lambda v: v >= 1, ">= 1")
_CAP = _ranged(int, lambda v: 1 <= v < 2**63, "from 1 to 2**63 - 1")  # an int64 in the page pass
_FRACTION = _ranged(float, lambda v: 0 < v <= 1, "in (0, 1]")
_RATE = _ranged(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")


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


def _emit(args, fields, text):
    """Write the report, to --output or stdout: in JSON, the schema and
    command then the command's fields; in text, the text."""
    if args.format == "json":
        text = json.dumps(_round_floats({"schema": SCHEMA, "command": args.command, **fields}), indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        sys.stdout.write(text + "\n")


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


def _analyses(paths, params: PipelineParams) -> list:
    """Each path's PageAnalysis, or the PnmError or OSError that loading it
    raised, in path order; analyze_pages reads the images as they load."""
    errors = {}

    def pages():
        for i, path in enumerate(paths):
            try:
                yield load(path)
            except (PnmError, OSError) as exc:
                errors[i] = exc

    analyses = iter(analyze_pages(pages(), params))
    return [errors[i] if i in errors else next(analyses) for i in range(len(paths))]


def _params(args) -> PipelineParams:
    """Pipeline parameters from the flags, each range-checked by its argparse type."""
    return PipelineParams(
        dilation_radius=args.dilate,
        alpha=args.alpha,
        merge_gap=args.merge_gap,
        diacritic_max_contour=args.contour_max,
    )


def _profiles(args, needed=1):
    """The --profile-file profiles, or the built-ins; fewer than needed is a profile error."""
    if not args.profile_file:
        return builtin_profiles()
    profiles = load_profiles(args.profile_file)
    if len(profiles) < needed:
        raise ProfileFormatError(
            f"{args.profile_file}: {args.command} needs at least {needed} profiles, found {len(profiles)}"
        )
    return profiles


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


def _error_entry(path, error) -> tuple[dict, str]:
    """The report entry and the text line of an image with no result: one
    that failed to load, with its load error, or a blank one."""
    return {"image": path.name, "error": str(error)}, f"{path.name}: error: {error}"


def _report_images(args, paths, params, entry, text, **parameters) -> int:
    """Emit a report of one entry and one text line per image, in path order.

    entry(analysis) gives a loaded image's fields, or {"error": reason};
    text(fields) gives the text after "<image>: " for fields without one.
    An image that failed to load gets its load error.
    """
    entries, lines = [], []
    for path, analysis in zip(paths, _analyses(paths, params)):
        fields = entry(analysis) if isinstance(analysis, PageAnalysis) else {"error": analysis}
        if "error" in fields:
            item, line = _error_entry(path, fields["error"])
        else:
            item, line = {"image": path.name, **fields}, f"{path.name}: {text(fields)}"
        entries.append(item)
        lines.append(line)
    _emit(args, {"parameters": {**asdict(params), **parameters}, "images": entries}, "\n".join(lines))
    return EXIT_OK


def _feature_entry(analysis) -> dict:
    if not analysis.lines:
        return {"error": "blank image"}
    fs = analysis.features
    return {
        "counts": {k: fs.counts[k] for k in FEATURE_KINDS},
        "nb_paws": fs.nb_paws,
        "dropped_oversize_loops": fs.dropped_oversize_loops,
        "hits": [_hit_dict(h) for h in fs.hits],
        "paws": _paw_tokens(fs),
    }


def _feature_text(fields) -> str:
    counts = " ".join(f"{k}={fields['counts'][k]}" for k in FEATURE_KINDS)
    paws = "".join(f"\n  paw {paw['index']}: {' '.join(paw['features']) or '-'}" for paw in fields["paws"])
    return f"{counts} PAW={fields['nb_paws']}{paws}"


def cmd_features(args) -> int:
    return _report_images(args, _input_paths(args.input), _params(args), _feature_entry, _feature_text)


def cmd_classify(args) -> int:
    paths = _input_paths(args.input)
    params = _params(args)
    profiles = _profiles(args, needed=2)

    def entry(analysis) -> dict:
        fs = analysis.features
        verdict = classify(fs, profiles, q_min=args.qmin)
        return {
            "label": verdict.label,
            "scores": dict(verdict.scores),
            "margin": verdict.margin,
            "counts": {k: fs.counts[k] for k in FEATURE_KINDS},
            "nb_paws": fs.nb_paws,
        }

    return _report_images(args, paths, params, entry, lambda fields: fields["label"], q_min=args.qmin)


def cmd_evaluate(args) -> int:
    paths = _input_paths(args.input)
    # By default, truth.txt beside the images, where generate writes it.
    truth_path = Path(args.truth) if args.truth else paths[0].parent / "truth.txt"
    truth = evalmod.load_ground_truth(truth_path)
    params = _params(args)
    profiles = _profiles(args, needed=2)

    predictions = []
    errors = []
    for path, analysis in zip(paths, _analyses(paths, params)):
        if not isinstance(analysis, PageAnalysis):
            # Scored like a blank page, so its truth still counts as missed.
            error, line = _error_entry(path, analysis)
            sys.stderr.write(line + "\n")
            errors.append(error)
            predictions.append((path.stem, FeatureSet.empty()))
            continue
        predictions.append((path.stem, analysis.features))
    report = evalmod.score(predictions, truth, profiles, q_min=args.qmin)

    table = evalmod.format_report(report)
    sys.stdout.write(table + "\n")
    if args.output:
        fields = {"parameters": asdict(params), "report": asdict(report)}
        _emit(args, {**fields, "errors": errors} if errors else fields, table)

    if args.ceiling is not None:
        for k, row in report.per_feature.items():
            if row.error_rate * 100 > args.ceiling:
                sys.stderr.write(
                    f"error rate for {k} ({row.error_rate * 100:.2f} %) exceeds ceiling {args.ceiling}\n"
                )
                return EXIT_CEILING
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.pages and args.words is not None:
        raise _UsageError("--words does not apply with --pages above 0")
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
        items = generate_corpus(profile, 50 if args.words is None else args.words, seed=args.seed)
    image_paths, truth_path = save_corpus(items, args.output_dir)
    fields = {
        "script": profile.name,
        "seed": args.seed,
        "count": len(image_paths),
        "images": [p.name for p in image_paths],
        "truth": truth_path.name,
    }
    _emit(args, fields, f"wrote {len(image_paths)} images and {truth_path.name} to {args.output_dir}")
    return EXIT_OK


def _add_report(parser):
    parser.add_argument("--output", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "text"), default="json")


def _add_profiles(parser):
    parser.add_argument("--profile-file", help="script profiles to use instead of the built-ins")


def _add_features(parser):
    """The features command's flags: input, report, and pipeline parameters."""
    parser.add_argument("--input", required=True, help="image file or directory")
    _add_report(parser)
    parser.add_argument("--dilate", type=_COUNT, default=DEFAULT_PARAMS.dilation_radius,
                        help="contour expansion radius")
    parser.add_argument("--alpha", type=_FRACTION, default=DEFAULT_PARAMS.alpha,
                        help="baseline band density fraction")
    parser.add_argument("--contour-max", type=_CAP, default=DEFAULT_PARAMS.diacritic_max_contour,
                        help="diacritic/loop contour point cap")
    parser.add_argument("--merge-gap", type=_COUNT, default=DEFAULT_PARAMS.merge_gap,
                        help="a blank run shorter than this many rows does not split a line; 0 acts as 1")


def _add_classify(parser):
    """The classify command's flags: the features flags plus the classifier's."""
    _add_features(parser)
    parser.add_argument("--qmin", type=_RATE, default=DEFAULT_Q_MIN,
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
    p.add_argument("--truth",
                   help="ground-truth file (default: truth.txt in the input directory or beside the input file)")
    p.add_argument("--ceiling", type=_RATE, default=None,
                   help="fail (exit 3) if any feature error rate exceeds this percentage")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("generate", help="write a synthetic corpus with ground truth")
    p.add_argument("--output-dir", required=True, help="directory for images and truth file")
    p.add_argument("--script", default="Arabic", help="profile name to draw from")
    p.add_argument("--words", type=_POSITIVE, default=None,
                   help="number of word images (default 50); not with --pages")
    p.add_argument("--pages", type=_COUNT, default=0, help="generate multi-line pages instead")
    p.add_argument("--seed", type=_COUNT, default=0)
    _add_profiles(p)
    _add_report(p)
    p.set_defaults(func=cmd_generate)
    return parser


@lru_cache(maxsize=1)
def _parser() -> _Parser:
    """The parser, built on the first call of a process and reused after."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except evalmod.GroundTruthError as exc:
        sys.stderr.write(f"ground truth error: {exc}\n")
        return EXIT_IO
    except ProfileFormatError as exc:
        sys.stderr.write(f"profile error: {exc}\n")
        return EXIT_IO
    except (PnmError, OSError) as exc:
        sys.stderr.write(f"I/O error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
