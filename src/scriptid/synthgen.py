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
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classify import ScriptProfile
from .features import FEATURE_KINDS, FeatureSet
from .layout import Baselines
from .raster import BinaryRaster, save

__all__ = [
    "BAND_HEIGHT",
    "GlyphSpecError",
    "CanvasFitError",
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


class CanvasFitError(GlyphSpecError):
    """Explicit canvas too small for the primitives it must hold."""


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
    """Stroke list plus a seed controlling slot order within each part."""

    strokes: tuple[Stroke, ...]
    seed: int = 0
    canvas_height: int | None = None
    canvas_width: int | None = None


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


def _contribution(stroke: Stroke) -> dict[str, int]:
    """Expected feature counts implied by one primitive, by construction.

    Heights and depths within 2 pixels of a margin are rejected: the
    pipeline's contour expansion would make their outcome depend on the
    radius, and the whole point of the generator is an exact expectation.
    """
    zero = {k: 0 for k in FEATURE_KINDS}
    if stroke.kind == "body":
        if stroke.width < 0:
            raise GlyphSpecError("body width must be >= 0")
        return zero
    if stroke.kind == "bar":
        h = stroke.height
        if h >= 2 * BAND_HEIGHT + 3:
            return {**zero, "H": 1}
        if 1 <= h <= 2 * BAND_HEIGHT - 3:
            return zero
        raise GlyphSpecError(
            f"bar height {h} is ambiguous near the pole margin {2 * BAND_HEIGHT}"
        )
    if stroke.kind == "tail":
        d = stroke.depth
        if d >= BAND_HEIGHT + 3:
            return {**zero, "J": 1}
        if 1 <= d <= BAND_HEIGHT - 3:
            return zero
        raise GlyphSpecError(
            f"tail depth {d} is ambiguous near the jamb margin {BAND_HEIGHT}"
        )
    if stroke.kind == "dot":
        if stroke.zone == "upper":
            return {**zero, "P": 1}
        if stroke.zone == "lower":
            return {**zero, "Q": 1}
        raise GlyphSpecError(f"dot zone must be 'upper' or 'lower', not {stroke.zone!r}")
    if stroke.kind == "ring":
        d = stroke.diameter
        if stroke.zone == "band":
            if not 7 <= d <= 9:
                raise GlyphSpecError("band ring diameter must lie in 7..9")
            return {**zero, "B": 1}
        if stroke.zone in ("upper", "lower"):
            if not 7 <= d <= 11:
                raise GlyphSpecError("floating ring diameter must lie in 7..11")
            return {**zero, "P" if stroke.zone == "upper" else "Q": 1}
        raise GlyphSpecError(f"ring zone must be 'band', 'upper' or 'lower', not {stroke.zone!r}")
    raise GlyphSpecError(f"unknown stroke kind {stroke.kind!r}")


def _painted_width(stroke: Stroke) -> int:
    if stroke.kind == "bar" or stroke.kind == "tail":
        return 3
    if stroke.kind == "dot":
        return _DOT_SIDE
    if stroke.kind == "ring":
        return stroke.diameter - 4 if stroke.zone == "band" else stroke.diameter
    if stroke.kind in ("riser", "sinker"):
        return 1
    raise GlyphSpecError(f"unknown stroke kind {stroke.kind!r}")


def _inject_bridges(paws):
    """Keep floating marks on the same projection band as their body.

    A detached dot sits 7 rows outside the band; without ink in between,
    row-projection line finding would break the word into two bands. A bar
    or tail long enough already bridges those rows. Otherwise a 1-pixel
    whisker is grown from the body toward the first floating mark: 7 rows
    tall, far below the pole margin (16) and at, not past, the jamb margin
    (8), so it never reads as a feature.
    """
    has_upper_float = any(
        s.zone == "upper" for _, prims in paws for s in prims if s.kind in ("dot", "ring")
    )
    has_lower_float = any(
        s.zone == "lower" for _, prims in paws for s in prims if s.kind in ("dot", "ring")
    )
    bridged_above = any(
        s.kind == "bar" and s.height >= _ZONE_GAP for _, prims in paws for s in prims
    )
    bridged_below = any(
        s.kind == "tail" and s.depth >= _ZONE_GAP for _, prims in paws for s in prims
    )

    def first_paw_with(zone):
        for _, prims in paws:
            if any(s.kind in ("dot", "ring") and s.zone == zone for s in prims):
                return prims
        raise AssertionError("float zone without a float")

    if has_upper_float and not bridged_above:
        first_paw_with("upper").append(Stroke("riser"))
    if has_lower_float and not bridged_below:
        first_paw_with("lower").append(Stroke("sinker"))


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
    paws = _split_paws(spec.strokes)
    rng = np.random.default_rng(spec.seed)

    counts = {k: 0 for k in FEATURE_KINDS}
    for _, prims in paws:
        for stroke in prims:
            for k, v in _contribution(stroke).items():
                counts[k] += v
    _inject_bridges(paws)

    above = 12
    below = 12
    paw_layouts = []
    for explicit_width, prims in paws:
        for stroke in prims:
            if stroke.kind == "bar":
                above = max(above, stroke.height)
            elif stroke.kind == "tail":
                below = max(below, stroke.depth)
            elif stroke.kind == "dot":
                above_or_below = _ZONE_GAP + _DOT_SIDE
                if stroke.zone == "upper":
                    above = max(above, above_or_below)
                else:
                    below = max(below, above_or_below)
            elif stroke.kind == "ring" and stroke.zone != "band":
                extent = _ZONE_GAP + stroke.diameter
                if stroke.zone == "upper":
                    above = max(above, extent)
                else:
                    below = max(below, extent)
        widths = [_painted_width(s) for s in prims]
        needed = sum(widths) + _SLOT_GAP * (len(widths) - 1) + 6 if widths else 12
        if explicit_width and explicit_width < needed:
            raise GlyphSpecError(
                f"body width {explicit_width} cannot hold its primitives (needs {needed})"
            )
        paw_layouts.append((max(explicit_width, needed), list(prims)))

    upper = above + _MARGIN
    lower = upper + BAND_HEIGHT
    height = lower + 1 + below + _MARGIN
    width = 2 * _MARGIN + sum(w for w, _ in paw_layouts) + _PAW_GAP * (len(paw_layouts) - 1)

    if spec.canvas_height is not None or spec.canvas_width is not None:
        ch = spec.canvas_height if spec.canvas_height is not None else height
        cw = spec.canvas_width if spec.canvas_width is not None else width
        if ch < height or cw < width:
            raise CanvasFitError(
                f"canvas {cw}x{ch} cannot hold content of {width}x{height}"
            )
        height, width = ch, cw

    canvas = np.zeros((height, width), dtype=bool)
    x = _MARGIN
    for body_width, prims in paw_layouts:
        canvas[upper : lower + 1, x : x + body_width] = True
        order = list(range(len(prims)))
        rng.shuffle(order)
        anchor = x + 3
        for idx in order:
            stroke = prims[idx]
            w = _painted_width(stroke)
            if stroke.kind == "bar":
                canvas[upper - stroke.height : upper, anchor : anchor + 3] = True
            elif stroke.kind == "tail":
                canvas[lower + 1 : lower + 1 + stroke.depth, anchor : anchor + 3] = True
            elif stroke.kind == "dot":
                if stroke.zone == "upper":
                    top = upper - _ZONE_GAP - _DOT_SIDE
                else:
                    top = lower + 1 + _ZONE_GAP
                canvas[top : top + _DOT_SIDE, anchor : anchor + _DOT_SIDE] = True
            elif stroke.kind == "ring" and stroke.zone == "band":
                hole = stroke.diameter - 4
                wall = (BAND_HEIGHT + 1 - hole) // 2
                canvas[upper + wall : upper + wall + hole, anchor : anchor + hole] = False
            elif stroke.kind == "riser":
                canvas[upper - _ZONE_GAP : upper, anchor : anchor + 1] = True
            elif stroke.kind == "sinker":
                canvas[lower + 1 : lower + 1 + _ZONE_GAP, anchor : anchor + 1] = True
            else:  # floating ring
                d = stroke.diameter
                if stroke.zone == "upper":
                    top = upper - _ZONE_GAP - d
                else:
                    top = lower + 1 + _ZONE_GAP
                canvas[top : top + d, anchor : anchor + d] = True
                canvas[top + 1 : top + d - 1, anchor + 1 : anchor + d - 1] = False
            anchor += w + _SLOT_GAP
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
    if n_words <= 0:
        raise ValueError("n_words must be positive")
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

    counts = {k: sum(w.expected.counts[k] for w in lines) for k in FEATURE_KINDS}
    expected = FeatureSet(counts=counts, nb_paws=sum(w.expected.nb_paws for w in lines))
    return SyntheticPage(BinaryRaster(canvas), expected, profile.name)


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
    the SCRIPT field; the evaluation harness reads the file back as-is.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    image_paths = []
    lines = []
    for i, item in enumerate(items):
        stem = f"img_{i:04d}"
        path = out / f"{stem}.pbm"
        save(item.raster, path, "p4")
        image_paths.append(path)
        exp = item.expected
        fields = " ".join(f"{k}={exp.counts[k]}" for k in FEATURE_KINDS)
        line = f"{stem} {fields} PAW={exp.nb_paws}"
        script = getattr(item, "script", None)
        if script:
            line += f" SCRIPT={script}"
        lines.append(line)
    truth_path = out / "truth.txt"
    truth_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return image_paths, truth_path
