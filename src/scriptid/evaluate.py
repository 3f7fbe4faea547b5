"""Ground-truth comparison harness for extraction quality.

Ground truth is a plain text file, one record per line:

    image_id H=<n> J=<n> P=<n> Q=<n> B=<n> PAW=<n> [SCRIPT=<profile name>]

with '#' comments, UTF-8. Scoring clamps per document: a feature's correct
count is min(predicted, expected), so over-detection is never rewarded and
no spatial alignment is required. The word-part row is additionally reported
as a plain mismatch count, |predicted - expected| summed over documents,
since per-part scoring is read in both conventions in practice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import DEFAULT_Q_MIN, _count, _text_lines, classify
from .features import FEATURE_KINDS, FeatureSet

__all__ = [
    "GroundTruth",
    "GroundTruthError",
    "FeatureScore",
    "DocumentResult",
    "EvalReport",
    "error_rate",
    "load_ground_truth",
    "score",
    "format_report",
]

_REPORT_ROWS = FEATURE_KINDS + ("nbPAWs",)
# The truth file's key for each report row, in the same order.
_REQUIRED_KEYS = FEATURE_KINDS + ("PAW",)


class GroundTruthError(ValueError):
    """Missing, malformed, or inconsistent ground-truth data."""


@dataclass(frozen=True)
class GroundTruth:
    """Expected feature counts for one image."""

    image_id: str
    expected: dict[str, int]
    expected_paws: int
    script: str | None = None


@dataclass(frozen=True)
class FeatureScore:
    """One report row: totals, clamped correct count, and the error rate.

    undefined flags the degenerate 0/0 case, where the rate is reported as 0.
    """

    total: int
    correct: int
    error_rate: float
    undefined: bool = False


@dataclass(frozen=True)
class DocumentResult:
    """Per-image comparison; verdict_ok is None when truth names no script."""

    image_id: str
    predicted: dict[str, int]
    expected: dict[str, int]
    verdict_ok: bool | None


@dataclass(frozen=True)
class EvalReport:
    """Scoring outcome; the fields are in the order the JSON report lists them."""

    per_feature: dict[str, FeatureScore]
    paw_mismatch: int
    paw_mismatch_rate: float
    per_document: tuple[DocumentResult, ...]


def error_rate(total: int, correct: int) -> float:
    """1 - correct/total, with the empty 0/0 case pinned to 0."""
    if total == 0:
        return 0.0
    return 1.0 - correct / total


def load_ground_truth(path) -> list[GroundTruth]:
    """Parse a ground-truth file; malformed lines are reported by number."""
    records = []
    seen: dict[str, int] = {}
    for lineno, text in _text_lines(path, GroundTruthError):
        if not text:
            continue
        tokens = text.split()
        image_id = tokens[0]
        if image_id in seen:
            raise GroundTruthError(
                f"{path}: duplicate image id {image_id!r} on lines {seen[image_id]} and {lineno}"
            )
        fields: dict[str, str] = {}
        for token in tokens[1:]:
            if "=" not in token:
                raise GroundTruthError(f"{path}:{lineno}: expected KEY=VALUE, got {token!r}")
            key, value = token.split("=", 1)
            if key in fields:
                raise GroundTruthError(f"{path}:{lineno}: duplicate field {key!r}")
            fields[key] = value
        missing = [k for k in _REQUIRED_KEYS if k not in fields]
        if missing:
            raise GroundTruthError(f"{path}:{lineno}: missing fields {missing}")
        try:
            counts = {k: _count(fields[k]) for k in FEATURE_KINDS}
            paws = _count(fields["PAW"])
        except ValueError:
            raise GroundTruthError(f"{path}:{lineno}: counts must be integers") from None
        if any(v < 0 for v in counts.values()) or paws < 0:
            raise GroundTruthError(f"{path}:{lineno}: counts must be non-negative")
        script = fields.get("SCRIPT")
        if script == "":
            raise GroundTruthError(f"{path}:{lineno}: SCRIPT must name a profile")
        seen[image_id] = lineno
        records.append(GroundTruth(image_id, counts, paws, script))
    return records


def score(predictions, truth, profiles=None, q_min: float = DEFAULT_Q_MIN) -> EvalReport:
    """Compare (image_id, FeatureSet) predictions against ground truth.

    Every prediction id must appear in the truth, and only once; extra truth
    records are ignored. Totals and correct counts accumulate per feature
    over matched documents, so scoring shards separately and summing the
    pairs gives the same report. Verdicts use classify with the given profiles and q_min.
    """
    by_id = {gt.image_id: gt for gt in truth}
    totals = {k: 0 for k in _REPORT_ROWS}
    corrects = {k: 0 for k in _REPORT_ROWS}
    paw_mismatch = 0
    documents = []
    scored = set()

    for image_id, fs in predictions:
        if image_id not in by_id:
            raise GroundTruthError(f"no ground truth for image id {image_id!r}")
        if image_id in scored:
            raise GroundTruthError(f"image id {image_id!r} is predicted more than once")
        scored.add(image_id)
        gt = by_id[image_id]
        predicted = {k: fs.counts[k] for k in FEATURE_KINDS} | {"PAW": fs.nb_paws}
        expected = gt.expected | {"PAW": gt.expected_paws}
        for row, key in zip(_REPORT_ROWS, _REQUIRED_KEYS):
            totals[row] += expected[key]
            corrects[row] += min(predicted[key], expected[key])
        paw_mismatch += abs(fs.nb_paws - gt.expected_paws)
        verdict_ok = None
        if gt.script is not None:
            verdict_ok = classify(fs, profiles, q_min=q_min).label == gt.script
        documents.append(DocumentResult(image_id, predicted, expected, verdict_ok))

    per_feature = {}
    for k in _REPORT_ROWS:
        per_feature[k] = FeatureScore(
            total=totals[k],
            correct=corrects[k],
            error_rate=error_rate(totals[k], corrects[k]),
            undefined=totals[k] == 0,
        )
    paw_total = totals["nbPAWs"]
    return EvalReport(
        per_feature=per_feature,
        paw_mismatch=paw_mismatch,
        paw_mismatch_rate=paw_mismatch / paw_total if paw_total else 0.0,
        per_document=tuple(documents),
    )


def format_report(report: EvalReport) -> str:
    """Render the per-feature table as plain text."""
    lines = [
        f"{'Feature':<10}{'Total':>8}  {'Correctly extracted':>20}  {'Error rate':>10}"
    ]
    for k in _REPORT_ROWS:
        row = report.per_feature[k]
        rate = f"{row.error_rate * 100:.2f} %"
        if row.undefined:
            rate += " (no truth)"
        lines.append(f"{k:<10}{row.total:>8}  {row.correct:>20}  {rate:>10}")
    lines.append(
        f"nbPAWs mismatches (|predicted - expected|): {report.paw_mismatch}"
        f" ({report.paw_mismatch_rate * 100:.2f} % of expected parts)"
    )
    return "\n".join(lines)
