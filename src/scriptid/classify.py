"""Script verdicts from structural feature frequencies.

Two reference profiles ship with the package: how often each primitive
appears across the letter forms of the Arabic alphabet (120 forms) and the
Latin alphabet (103 forms). A measured feature set is normalized per word
part, compared to each profile by L1 distance on relative frequencies, and
labeled with the nearest profile. Lower diacritic dots are decisive on their
own: a script whose profile never shows them is ruled out as soon as the
measurement carries a noticeable amount, which is exactly what separates
Latin from Arabic. Verdicts degrade to Unknown when there is too little
feature mass or the two profiles are nearly equidistant.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .features import FEATURE_KINDS, FeatureSet
from .raster import _require_integers

__all__ = [
    "ScriptProfile",
    "Verdict",
    "ProfileFormatError",
    "builtin_profiles",
    "normalize",
    "classify",
    "load_profiles",
    "save_profiles",
]

# Normalized lower-dot frequency at which a script without lower dots is ruled out.
DEFAULT_Q_MIN = 0.02


class ProfileFormatError(ValueError):
    """Malformed script profile file."""


@dataclass(frozen=True)
class ScriptProfile:
    """Per-letter-form occurrence counts of the five primitives for one script."""

    name: str
    form_count: int
    raw: dict[str, int]

    def __post_init__(self):
        missing = [k for k in FEATURE_KINDS if k not in self.raw]
        if missing:
            raise ValueError(f"profile {self.name!r} missing counts for {missing}")
        _require_integers({"form_count": self.form_count, **{f"count {k}": self.raw[k] for k in FEATURE_KINDS}})
        if self.form_count <= 0:
            raise ValueError("form_count must be positive")
        if any(self.raw[k] < 0 for k in FEATURE_KINDS):
            raise ValueError("raw counts must be non-negative")

    @property
    def rel(self) -> dict[str, float]:
        """Relative frequency of each primitive across the letter forms."""
        return {k: self.raw[k] / self.form_count for k in FEATURE_KINDS}


@dataclass(frozen=True)
class Verdict:
    """Classification outcome: best label, per-profile distances, and margin."""

    label: str
    scores: dict[str, float]
    margin: float


def builtin_profiles() -> list[ScriptProfile]:
    """The two built-in alphabet profiles."""
    return [
        ScriptProfile("Arabic", 120, {"H": 29, "J": 28, "P": 30, "Q": 11, "B": 22}),
        ScriptProfile("Latin", 103, {"H": 29, "J": 12, "P": 28, "Q": 0, "B": 34}),
    ]


def normalize(fs: FeatureSet) -> dict[str, float]:
    """Per-part frequencies: each count divided by the word-part count."""
    if fs.nb_paws < 1:
        raise ValueError("cannot normalize a feature set with no word parts")
    return {k: fs.counts[k] / fs.nb_paws for k in FEATURE_KINDS}


def classify(
    fs: FeatureSet,
    profiles=None,
    q_min: float = DEFAULT_Q_MIN,
    min_mass: int = 3,
    min_margin: float = 0.05,
) -> Verdict:
    """Label a feature set with the nearest script profile.

    Distance is L1 between the per-part frequencies and each profile's
    relative frequencies. Profiles without lower diacritic dots are pushed
    to infinite distance whenever the normalized Q frequency reaches q_min.
    The verdict is Unknown when fewer than min_mass primitives were seen in
    total or when the best two distances differ by less than min_margin.
    Raises ValueError unless there are at least two profiles, all with
    distinct names.
    """
    if profiles is None:
        profiles = builtin_profiles()
    if len(profiles) < 2:
        raise ValueError("classification needs at least two profiles")
    if len({profile.name for profile in profiles}) < len(profiles):
        raise ValueError("classification needs profiles with distinct names")

    if fs.total_hits() < min_mass:
        return Verdict("Unknown", {}, 0.0)

    freq = normalize(fs)
    scores = {}
    for profile in profiles:
        rel = profile.rel
        if freq["Q"] >= q_min and rel["Q"] == 0:
            scores[profile.name] = math.inf
        else:
            scores[profile.name] = sum(abs(freq[k] - rel[k]) for k in FEATURE_KINDS)

    ranked = sorted(scores.items(), key=lambda kv: (kv[1], kv[0]))
    best_name, best = ranked[0]
    second = ranked[1][1]
    if math.isinf(best):
        return Verdict("Unknown", scores, 0.0)
    margin = math.inf if math.isinf(second) else second - best
    label = best_name if margin >= min_margin else "Unknown"
    return Verdict(label, scores, margin)


_PROFILE_KEYS = ("name", "form_count") + FEATURE_KINDS


def _count(text: str) -> int:
    """The integer a count field spells: ASCII digits after an optional
    minus, where int() alone would also take underscores, a plus sign and
    the digits of other scripts. Raises ValueError for anything else."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"count {text!r} is not an integer")
    return int(text)


def _text_lines(path, error):
    """(line number, text) of each line of a UTF-8 file, a leading byte-order
    mark accepted, the text stripped of its '#' comment and surrounding
    whitespace; error(message) is raised when the file is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None
    return [(lineno, line.split("#", 1)[0].strip()) for lineno, line in enumerate(lines, start=1)]


def load_profiles(path) -> list[ScriptProfile]:
    """Read script profiles from a plain key/value text file.

    Each profile is a block of "key value" lines (name, form_count, H, J, P,
    Q, B); blank lines separate blocks and '#' starts a comment.
    """
    profiles = []
    block: dict[str, str] = {}
    block_start = 0

    def finish():
        if not block:
            return
        missing = [k for k in _PROFILE_KEYS if k not in block]
        if missing:
            raise ProfileFormatError(
                f"{path}: profile starting at line {block_start} missing {missing}"
            )
        if any(p.name == block["name"] for p in profiles):
            raise ProfileFormatError(
                f"{path}: profile starting at line {block_start} repeats the name {block['name']!r}"
            )
        try:
            counts = {k: _count(block[k]) for k in FEATURE_KINDS}
            profiles.append(ScriptProfile(block["name"], _count(block["form_count"]), counts))
        except ValueError as exc:  # a non-integer, or a count ScriptProfile rejects
            raise ProfileFormatError(
                f"{path}: profile starting at line {block_start}: {exc}"
            ) from None
        block.clear()

    for lineno, text in _text_lines(path, ProfileFormatError):
        if not text:
            finish()
            continue
        parts = text.split(None, 1)
        if len(parts) != 2:
            raise ProfileFormatError(f"{path}:{lineno}: expected 'key value', got {text!r}")
        key, value = parts
        if key not in _PROFILE_KEYS:
            raise ProfileFormatError(f"{path}:{lineno}: unknown key {key!r}")
        if not block:
            block_start = lineno
        if key in block:
            raise ProfileFormatError(f"{path}:{lineno}: duplicate key {key!r}")
        block[key] = value
    finish()
    if not profiles:
        raise ProfileFormatError(f"{path}: no profiles found")
    return profiles


def save_profiles(profiles, path):
    """Write script profiles in the same key/value format load_profiles reads.

    Raises ValueError, before the file is opened, for a name that would not
    read back as itself: an empty one, one holding '#' or a line break, one
    with leading or trailing whitespace, or one UTF-8 cannot encode.
    """
    lines = []
    for profile in profiles:
        name = profile.name
        if not name or name != name.strip() or "#" in name or len(name.splitlines()) > 1:
            raise ValueError(f"profile name {name!r} cannot be saved")
        lines.append(f"name {name}")
        lines.append(f"form_count {profile.form_count}")
        for k in FEATURE_KINDS:
            lines.append(f"{k} {profile.raw[k]}")
        lines.append("")
    data = "\n".join(lines).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
