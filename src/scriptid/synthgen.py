"""Deterministic synthetic word and page generator with known feature counts.

Every stroke primitive contributes a fixed, known number of structural
features, so the expected counts of a generated image come from its spec,
never from measuring pixels. Layout keeps generous spacing between
primitives (at least 5 columns, well above the guaranteed 4-pixel minimum)
and keeps dots and floating rings clear of the baselines, so a contour
expansion of radius 1, or even 2, never merges primitives or moves one into
another zone. Generation is pure and seed-deterministic; corpora can be
produced in parallel by partitioning seeds.

Word geometry is built on a fixed band height of 8 rows: the body is a
solid bar spanning the band, ascenders and descenders are 3-wide strokes
rooted in it, dots are 4x4 squares floating 7 rows outside the band, loops
are holes carved into the body, and floating rings are 1-pixel-thick
hollow squares in an outer zone.

Each primitive is described once, by the feature it contributes and the
rectangles it paints: ink for a bar, tail or dot, a square then its inset
cleared for a floating ring, one cleared rectangle for a band ring. Zone
extents, slot widths and painting all read those rectangles. A part with
a floating mark in a zone that no bar or tail of the word already spans
gets one internal 1-pixel whisker between the band and the mark; specs
cannot name whiskers themselves.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classify import ScriptProfile
from .evaluate import GroundTruthError
from .features import FEATURE_KINDS, FeatureSet, combine_feature_sets
from .layout import Baselines
from .raster import BinaryRaster, save

__all__ = [
    "BAND_HEIGHT",
    "GlyphSpecError",
    "Stroke",
    "GlyphSpec",
    "SyntheticWord",
    "SyntheticPage",
    "body",
    "bar",
    "tail",
    "dot",
    "ring",
    "generate",
    "generate_corpus",
    "generate_page",
    "apply_salt",
    "save_corpus",
]

BAND_HEIGHT = 8
# Defaults clear their margins by enough that re-estimated baselines on an
# expanded image (band grown by one row each way) still leave them past it.
_ASCENDER = 2 * BAND_HEIGHT + 6
_TAIL = BAND_HEIGHT + 5
_DOT_SIDE = 4
_ZONE_GAP = 7  # rows between the band edge and a floating dot or ring
_SLOT_GAP = 5
_PAW_GAP = 8
_MARGIN = 4
_LINE_GAP = 12


class GlyphSpecError(ValueError):
    """Invalid or ambiguous stroke parameters."""


@dataclass(frozen=True)
class Stroke:
    """One parameterized primitive; use the factory functions below."""

    kind: str
    height: int = 0
    depth: int = 0
    zone: str = ""
    diameter: int = 0
    width: int = 0


def body(width: int = 0) -> Stroke:
    """Start a new word part; width 0 sizes the body to its primitives."""
    return Stroke("body", width=width)


def bar(height: int = _ASCENDER) -> Stroke:
    """Vertical stroke rising height rows above the upper baseline."""
    return Stroke("bar", height=height)


def tail(depth: int = _TAIL) -> Stroke:
    """Vertical stroke dropping depth rows below the lower baseline."""
    return Stroke("tail", depth=depth)


def dot(zone: str) -> Stroke:
    """Detached 4x4 square in the 'upper' or 'lower' zone."""
    return Stroke("dot", zone=zone)


def ring(diameter: int = 9, zone: str = "band") -> Stroke:
    """Enclosed hole: carved into the body for zone 'band' (diameter 7..9),
    or a floating 1-pixel-thick hollow square for 'upper'/'lower' (7..11)."""
    return Stroke("ring", diameter=diameter, zone=zone)


@dataclass(frozen=True)
class GlyphSpec:
    """Stroke list plus a seed controlling slot order within each part; the
    canvas fits its content with at least 4 blank pixels on every side."""

    strokes: tuple[Stroke, ...]
    seed: int = 0


@dataclass(eq=False)
class SyntheticWord:
    raster: BinaryRaster
    expected: FeatureSet
    band: Baselines


@dataclass(eq=False)
class SyntheticPage:
    raster: BinaryRaster
    expected: FeatureSet
    script: str


def _shape(stroke: Stroke):
    """The feature one primitive contributes, by construction, or None, and
    the rectangles (top, bottom, left, right, ink) it paints, in order.

    Rows count from the upper baseline and columns from the primitive's
    slot; bottom and right are exclusive. Heights and depths within 2 rows
    of a margin are rejected: the pipeline's contour expansion would make
    their outcome depend on the radius, and the whole point of the
    generator is an exact expectation.
    """
    below = BAND_HEIGHT + 1  # first row under the lower baseline

    def floating(side):
        top = -_ZONE_GAP - side if stroke.zone == "upper" else below + _ZONE_GAP
        return "P" if stroke.zone == "upper" else "Q", [(top, top + side, 0, side, True)]

    if stroke.kind == "bar":
        h = stroke.height
        if not (1 <= h <= 2 * BAND_HEIGHT - 3 or h >= 2 * BAND_HEIGHT + 3):
            raise GlyphSpecError(
                f"bar height {h} is ambiguous near the pole margin {2 * BAND_HEIGHT}"
            )
        return "H" if h > 2 * BAND_HEIGHT else None, [(-h, 0, 0, 3, True)]
    if stroke.kind == "tail":
        d = stroke.depth
        if not (1 <= d <= BAND_HEIGHT - 3 or d >= BAND_HEIGHT + 3):
            raise GlyphSpecError(
                f"tail depth {d} is ambiguous near the jamb margin {BAND_HEIGHT}"
            )
        return "J" if d > BAND_HEIGHT else None, [(below, below + d, 0, 3, True)]
    if stroke.kind == "dot":
        if stroke.zone not in ("upper", "lower"):
            raise GlyphSpecError(f"dot zone must be 'upper' or 'lower', not {stroke.zone!r}")
        return floating(_DOT_SIDE)
    if stroke.kind == "ring":
        d = stroke.diameter
        if stroke.zone == "band":
            if not 7 <= d <= 9:
                raise GlyphSpecError("band ring diameter must lie in 7..9")
            hole = d - 4
            wall = (below - hole) // 2
            return "B", [(wall, wall + hole, 0, hole, False)]
        if stroke.zone in ("upper", "lower"):
            if not 7 <= d <= 11:
                raise GlyphSpecError("floating ring diameter must lie in 7..11")
            feature, rects = floating(d)
            top = rects[0][0]
            return feature, rects + [(top + 1, top + d - 1, 1, d - 1, False)]
        raise GlyphSpecError(f"ring zone must be 'band', 'upper' or 'lower', not {stroke.zone!r}")
    raise GlyphSpecError(f"unknown stroke kind {stroke.kind!r}")


# The whisker bridging each outer zone, keyed by the mark that floats there.
_WHISKERS = (
    ("P", (-_ZONE_GAP, 0, 0, 1, True)),
    ("Q", (BAND_HEIGHT + 1, BAND_HEIGHT + 1 + _ZONE_GAP, 0, 1, True)),
)


def _inject_bridges(paws):
    """Keep floating marks on the same projection band as their body.

    A detached dot sits 7 rows outside the band; without ink in between,
    row-projection line finding would break the word into two bands. A bar
    or tail long enough already paints those rows. Otherwise a 1-pixel
    whisker is grown from the body in the first part with a mark in that
    zone: 7 rows tall, far below the pole margin (16) and at, not past,
    the jamb margin (8), so it never reads as a feature.
    """
    for mark, whisker in _WHISKERS:
        top, bottom = whisker[:2]
        ink = [r for _, part in paws for _, rects in part for r in rects if r[4]]
        first = next((part for _, part in paws if any(f == mark for f, _ in part)), None)
        if first is not None and not any(r[0] <= top and r[1] >= bottom for r in ink):
            first.append((None, [whisker]))


def _split_paws(strokes):
    paws = []
    for stroke in strokes:
        if stroke.kind == "body" or not paws:
            if stroke.kind == "body":
                paws.append([stroke.width, []])
                continue
            paws.append([0, []])
        paws[-1][1].append(stroke)
    if not paws:
        raise GlyphSpecError("a glyph spec needs at least one stroke")
    return paws


def generate(spec: GlyphSpec) -> SyntheticWord:
    """Render a spec to a word raster with its by-construction feature set."""
    paws = [(width, [_shape(s) for s in prims]) for width, prims in _split_paws(spec.strokes)]
    rng = np.random.default_rng(spec.seed)

    found = Counter(feature for _, part in paws for feature, _ in part)
    counts = {k: found[k] for k in FEATURE_KINDS}
    _inject_bridges(paws)

    painted = [r for _, part in paws for _, rects in part for r in rects]
    above = max([12] + [-r[0] for r in painted])
    below = max([12] + [r[1] - BAND_HEIGHT - 1 for r in painted])
    paw_layouts = []
    for explicit_width, part in paws:
        widths = [max(r[3] for r in rects) for _, rects in part]
        needed = sum(widths) + _SLOT_GAP * (len(widths) - 1) + 6 if widths else 12
        if explicit_width and explicit_width < needed:
            raise GlyphSpecError(
                f"body width {explicit_width} cannot hold its primitives (needs {needed})"
            )
        paw_layouts.append((max(explicit_width, needed), part, widths))

    upper = above + _MARGIN
    lower = upper + BAND_HEIGHT
    height = lower + 1 + below + _MARGIN
    width = 2 * _MARGIN + sum(w for w, _, _ in paw_layouts) + _PAW_GAP * (len(paw_layouts) - 1)

    canvas = np.zeros((height, width), dtype=bool)
    x = _MARGIN
    for body_width, part, widths in paw_layouts:
        canvas[upper : lower + 1, x : x + body_width] = True
        order = list(range(len(part)))
        rng.shuffle(order)
        anchor = x + 3
        for idx in order:
            for top, bottom, left, right, ink in part[idx][1]:
                canvas[upper + top : upper + bottom, anchor + left : anchor + right] = ink
            anchor += widths[idx] + _SLOT_GAP
        x += body_width + _PAW_GAP

    expected = FeatureSet(counts=counts, nb_paws=len(paw_layouts))
    return SyntheticWord(BinaryRaster(canvas), expected, Baselines(upper, lower))


_PRIMITIVE_FOR = {
    "H": bar,
    "J": tail,
    "P": lambda: dot("upper"),
    "Q": lambda: dot("lower"),
    "B": ring,
}


def _place_groups(rng, counts: dict[str, int], n_paws: int):
    """Spread the given primitive counts over n_paws parts, one per part each."""
    chosen: dict[str, set[int]] = {}
    for kind in FEATURE_KINDS:
        count = min(counts.get(kind, 0), n_paws)
        picks = rng.choice(n_paws, size=count, replace=False) if count else []
        chosen[kind] = {int(i) for i in picks}
    groups = []
    for i in range(n_paws):
        group = [body()]
        for kind in FEATURE_KINDS:
            if i in chosen[kind]:
                group.append(_PRIMITIVE_FOR[kind]())
        groups.append(tuple(group))
    return groups


def _check_sizes(name: str, count: int, min_paws: int, max_paws: int):
    if count < 1:
        raise ValueError(f"{name} must be positive")
    if not 1 <= min_paws <= max_paws:
        raise ValueError(f"need 1 <= min_paws <= max_paws, got min_paws={min_paws}, max_paws={max_paws}")


def _stochastic_round(rng, target: float) -> int:
    base = int(target)
    return base + (1 if rng.random() < target - base else 0)


def generate_corpus(
    profile: ScriptProfile,
    n_words: int,
    seed: int = 0,
    min_paws: int = 1,
    max_paws: int = 4,
) -> list[SyntheticWord]:
    """Words whose aggregate feature frequencies approach the profile's.

    Fractional per-word targets are carried over between words, so a
    corpus's total count of each primitive lands within one of
    rel * total_parts and the relative error shrinks like 1/n.
    """
    _check_sizes("n_words", n_words, min_paws, max_paws)
    rng = np.random.default_rng(seed)
    rel = profile.rel
    carry = {k: 0.0 for k in FEATURE_KINDS}
    words = []
    for _ in range(n_words):
        n_paws = int(rng.integers(min_paws, max_paws + 1))
        counts = {}
        for kind in FEATURE_KINDS:
            carry[kind] += rel[kind] * n_paws
            counts[kind] = min(int(carry[kind] + 1e-9), n_paws)
            carry[kind] -= counts[kind]
        groups = _place_groups(rng, counts, n_paws)
        strokes = tuple(s for group in groups for s in group)
        words.append(generate(GlyphSpec(strokes, seed=int(rng.integers(2**31)))))
    return words


def generate_page(
    profile: ScriptProfile,
    seed: int = 0,
    n_lines: int = 4,
    min_paws: int = 5,
    max_paws: int = 8,
) -> SyntheticPage:
    """Stack generated lines into a page raster.

    Primitive quotas are drawn page-wide before being split across lines,
    so every page's feature frequencies hug its profile; per-line draws
    would let a short page miss a rare primitive entirely.
    """
    _check_sizes("n_lines", n_lines, min_paws, max_paws)
    rng = np.random.default_rng(seed)
    per_line = [int(rng.integers(min_paws, max_paws + 1)) for _ in range(n_lines)]
    total = sum(per_line)
    counts = {k: _stochastic_round(rng, profile.rel[k] * total) for k in FEATURE_KINDS}
    groups = _place_groups(rng, counts, total)
    lines = []
    start = 0
    for n_paws in per_line:
        strokes = tuple(s for group in groups[start : start + n_paws] for s in group)
        start += n_paws
        lines.append(generate(GlyphSpec(strokes, seed=int(rng.integers(2**31)))))

    width = max(w.raster.width for w in lines)
    height = sum(w.raster.height for w in lines) + _LINE_GAP * (len(lines) - 1)
    canvas = np.zeros((height, width), dtype=bool)
    y = 0
    for w in lines:
        canvas[y : y + w.raster.height, : w.raster.width] = w.raster.pixels
        y += w.raster.height + _LINE_GAP

    return SyntheticPage(BinaryRaster(canvas), combine_feature_sets(w.expected for w in lines), profile.name)


def apply_salt(raster: BinaryRaster, fraction: float, seed: int = 0) -> BinaryRaster:
    """Bleach a random fraction of all pixels to background (white specks)."""
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must lie in [0, 1]")
    n = int(round(fraction * raster.width * raster.height))
    if n == 0:
        return raster
    rng = np.random.default_rng(seed)
    flat = rng.choice(raster.width * raster.height, size=n, replace=False)
    pixels = raster.pixels.copy()
    pixels[np.unravel_index(flat, pixels.shape)] = False
    return BinaryRaster(pixels)


def save_corpus(items, out_dir):
    """Write items as P4 bitmaps named img_0000.pbm, img_0001.pbm, ... plus a
    matching ground-truth file.

    Returns (image paths, truth path). Page items carry their script into
    the SCRIPT field; the evaluation harness reads the file back as-is. A
    script that is empty, holds whitespace or holds '#' would not read back
    as written, and raises GroundTruthError before any file is written.
    """
    out = Path(out_dir)
    rasters, lines = [], []
    for i, item in enumerate(items):
        exp, script = item.expected, getattr(item, "script", None)
        fields = " ".join(f"{k}={exp.counts[k]}" for k in FEATURE_KINDS)
        lines.append(f"img_{i:04d} {fields} PAW={exp.nb_paws}")
        if script is not None:
            if script.split() != [script] or "#" in script:
                raise GroundTruthError(f"script {script!r} cannot be written as one SCRIPT field")
            lines[-1] += f" SCRIPT={script}"
        rasters.append(item.raster)
    out.mkdir(parents=True, exist_ok=True)
    image_paths = [out / f"img_{i:04d}.pbm" for i in range(len(rasters))]
    for raster, path in zip(rasters, image_paths):
        save(raster, path, "p4")
    truth_path = out / "truth.txt"
    truth_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return image_paths, truth_path
