"""The equivalence grid: one sha256 per family of results a refactor must keep.

    python tests/equivalence.py

prints the digest of each family on the full grid and exits 1 when one
differs from its pinned value in FULL_DIGESTS. tests/test_equivalence.py
pins the same families on the smaller SUBSET grid. A digest that moves
means a result moved; declare it with its cause when that is intended.

Families:

- pages: analyze_pages on generated pages (both scripts; 2-4, 5-8 and
  20-28 parts per line; clean, 3% salt and dilated by 1), on batches of
  ten generated words and on noise rasters, at every dilation radius and
  contour cap of the grid. Each page is hashed as a canonical projection,
  not its repr: bands, baselines, counts, parts, dropped loops, hits (kind,
  location, part, position) and the verdict, per line and for the page,
  so a new field leaves the digest where it is.
- large_radii: analyze_pages at dilation radii of 5 and more, where a
  pass stacks more gap rows than page rows and each nearest-part window
  spans hundreds of pixels, on 4-line and wide pages of both scripts and
  one batch of ten words per script, at the default contour cap, hashed as
  the pages family is.
- hostile: analyze_pages on rasters the generator never draws, at the
  hostile radii and every contour cap of the grid, hashed as the pages
  family is: random ink at 3, 5 and 8% on 200x300 (one line of many
  marks); every other row inked, a checkerboard and all ink on 100x150;
  1x600, 600x1 and one pixel of ink; then per seed and script a 4-line
  page rebuilt from its line crops with 0, 1 and 2 blank rows between
  them, and the page with 0.2% ink specks added and 1% of its pixels
  bleached.
- contours: trace_contours on the HOLE_CASES rasters and on random ones,
  whole and with a band given as a pair of rows, as a row and a per-row
  array, and as two per-row arrays; each chain hashed as its points,
  closure and polarity.
- reports: the exit code and report bytes of features, classify and
  evaluate, as JSON and as text, on folders of words, pages and wide
  pages at default and other settings, plus generate's report and the
  entries of a blank and a truncated image.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from scriptid import (
    FEATURE_KINDS,
    BinaryRaster,
    PipelineParams,
    analyze_pages,
    apply_salt,
    builtin_profiles,
    classify,
    dilate,
    extract_lines,
    generate_corpus,
    generate_page,
    save,
    save_corpus,
    trace_contours,
)
from scriptid.cli import main as cli_main

from oracles import HOLE_CASES, raster_of


@dataclass(frozen=True)
class Grid:
    """The inputs of every family; FULL and SUBSET below are the two in use."""

    seeds: tuple[int, ...]
    parts: tuple[tuple[int, int], ...]
    radii: tuple[int, ...]
    caps: tuple[int, ...]
    large_seeds: tuple[int, ...]
    large_radii: tuple[int, ...]
    hostile_seeds: tuple[int, ...]
    hostile_radii: tuple[int, ...]
    word_batches: int
    noise_rasters: int
    random_rasters: int
    report_flags: tuple[tuple[str, ...], ...]


FULL = Grid(
    seeds=tuple(range(12)),
    parts=((2, 4), (5, 8), (20, 28)),
    radii=(0, 1, 2),
    caps=(20, 60, 200),
    large_seeds=tuple(range(4)),
    large_radii=(5, 40, 155),
    hostile_seeds=tuple(range(4)),
    hostile_radii=(0, 1, 2),
    word_batches=6,
    noise_rasters=12,
    random_rasters=600,
    report_flags=((), ("--dilate", "0"), ("--dilate", "2"), ("--contour-max", "20"), ("--merge-gap", "0")),
)
SUBSET = Grid(
    seeds=(0,),
    parts=((2, 4), (20, 28)),
    radii=(0, 1, 2),
    caps=(20, 60),
    large_seeds=(0,),
    large_radii=(5, 40, 155),
    hostile_seeds=(0,),
    hostile_radii=(1,),
    word_batches=1,
    noise_rasters=3,
    random_rasters=120,
    report_flags=((), ("--dilate", "0")),
)

FULL_DIGESTS = {
    "pages": "830dea2ed7bfd0802def5b47927941c1ddcdb9112f1c5675e1ae076352c27481",
    "large_radii": "f829cb112f2ce7f7f9a2aae3b5fccd6d1cdf7b94fc7858338735733f67e2b20e",
    "hostile": "9c6d771842553627fad2fdb4b4b5b0d85067494c14867688723e25d4e68918f5",
    "contours": "3e0c88e65b3f784ff937558dee1d5b48a33cae8eb1626a736d723428a79c2ba3",
    "reports": "3fadeb9e593cb8d136e0543fa4bba0ba07356c0cdae8a1a1c07b87c3144ec444",
}

def _json(value) -> bytes:
    return json.dumps(value, default=int).encode() + b"\n"


def _feature_set(fs):
    hits = [[hit.kind, *hit.location, hit.paw_index, hit.position] for hit in fs.hits]
    return [[fs.counts[k] for k in FEATURE_KINDS], fs.nb_paws, fs.dropped_oversize_loops, hits]


def _projection(analysis):
    lines = [
        [[line.band.top_row, line.band.bottom_row], [line.baselines.upper_row, line.baselines.lower_row],
         _feature_set(line.features)]
        for line in analysis.lines
    ]
    return [lines, _feature_set(analysis.features), classify(analysis.features).label]


def _noise(rng):
    shape = (int(rng.integers(20, 80)), int(rng.integers(20, 120)))
    return BinaryRaster(rng.random(shape) < rng.uniform(0.02, 0.3))


def grid_pages(grid: Grid) -> list[BinaryRaster]:
    """The pages of the grid, in the order analyze_pages is given them."""
    pages = []
    for seed in grid.seeds:
        for profile in builtin_profiles():
            for low, high in grid.parts:
                page = generate_page(profile, seed=seed, min_paws=low, max_paws=high).raster
                pages += [page, apply_salt(page, 0.03, seed=seed), dilate(page, 1)]
    rng = np.random.default_rng(7)
    pages += [_noise(rng) for _ in range(grid.noise_rasters)]
    for batch in range(grid.word_batches):
        for profile in builtin_profiles():
            pages += [word.raster for word in generate_corpus(profile, 10, seed=100 + batch)]
    return pages


def pages_digest(grid: Grid) -> str:
    h = hashlib.sha256()
    pages = grid_pages(grid)
    for radius in grid.radii:
        for cap in grid.caps:
            params = PipelineParams(dilation_radius=radius, diacritic_max_contour=cap)
            for analysis in analyze_pages(pages, params):
                h.update(_json([radius, cap, _projection(analysis)]))
    return h.hexdigest()


def large_radius_pages(grid: Grid) -> list[BinaryRaster]:
    """4-line and wide pages of both scripts, then ten words of each."""
    pages = []
    for seed in grid.large_seeds:
        for profile in builtin_profiles():
            for low, high in ((5, 8), (20, 28)):
                pages.append(generate_page(profile, seed=seed, min_paws=low, max_paws=high).raster)
    for profile in builtin_profiles():
        pages += [word.raster for word in generate_corpus(profile, 10, seed=100)]
    return pages


def large_radii_digest(grid: Grid) -> str:
    h = hashlib.sha256()
    pages = large_radius_pages(grid)
    for radius in grid.large_radii:
        for analysis in analyze_pages(pages, PipelineParams(dilation_radius=radius)):
            h.update(_json([radius, _projection(analysis)]))
    return h.hexdigest()


def hostile_pages(grid: Grid) -> list[BinaryRaster]:
    """The hostile family's rasters, in the order analyze_pages is given them."""
    rng = np.random.default_rng(17)
    pages = [BinaryRaster(rng.random((200, 300)) < ink) for ink in (0.03, 0.05, 0.08)]
    rows = np.zeros((100, 150), dtype=bool)
    rows[::2] = True
    pages += [BinaryRaster(rows), BinaryRaster(np.indices((100, 150)).sum(axis=0) % 2 == 0)]
    pages += [BinaryRaster(np.ones(shape, dtype=bool)) for shape in ((1, 600), (600, 1), (1, 1), (100, 150))]
    for seed in grid.hostile_seeds:
        for profile in builtin_profiles():
            page = generate_page(profile, seed=seed).raster
            crops = [page.pixels[band.top_row : band.bottom_row + 1] for band in extract_lines(page)]
            for gap in (0, 1, 2):
                blank = np.zeros((gap, page.width), dtype=bool)
                pages.append(BinaryRaster(np.vstack([part for crop in crops for part in (blank, crop)][1:])))
            specked = BinaryRaster(page.pixels | (rng.random(page.pixels.shape) < 0.002))
            pages.append(apply_salt(specked, 0.01, seed=seed))
    return pages


def hostile_digest(grid: Grid) -> str:
    h = hashlib.sha256()
    pages = hostile_pages(grid)
    for radius in grid.hostile_radii:
        for cap in grid.caps:
            params = PipelineParams(dilation_radius=radius, diacritic_max_contour=cap)
            for analysis in analyze_pages(pages, params):
                h.update(_json([radius, cap, _projection(analysis)]))
    return h.hexdigest()


def contour_rasters(grid: Grid) -> list[BinaryRaster]:
    rng = np.random.default_rng(11)
    rasters = [raster_of(rows) for rows in HOLE_CASES]
    for _ in range(grid.random_rasters):
        shape = tuple(int(n) for n in rng.integers(1, 25, size=2))
        rasters.append(BinaryRaster(rng.random(shape) < rng.uniform(0.05, 0.9)))
    return rasters


def contours_digest(grid: Grid) -> str:
    h = hashlib.sha256()
    rng = np.random.default_rng(13)
    for img in contour_rasters(grid):
        upper, lower = img.height // 3, 2 * img.height // 3
        per_row = np.sort(rng.integers(0, img.height, size=(2, img.height)), axis=0)
        bands = (None, (upper, lower), (np.full(img.height, upper), lower), (per_row[0], per_row[1]))
        for band in bands:
            chains = trace_contours(img, band=band)
            h.update(_json([[chain.points, chain.closed, chain.polarity] for chain in chains]))
    return h.hexdigest()


def _report(h, argv):
    """Hash one CLI call's argv, exit code and report file."""
    report = Path("report")
    report.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main([*argv, "--output", str(report)])
    h.update(_json([argv, rc]))
    if report.exists():
        h.update(report.read_bytes())


def _write_folders(grid: Grid):
    arabic, latin = builtin_profiles()
    save_corpus([*generate_corpus(arabic, 6, seed=3), *generate_corpus(latin, 6, seed=4)], "words")
    pages = [generate_page(p, seed=s) for s in grid.seeds for p in (arabic, latin)]
    degraded = [replace(page, raster=apply_salt(dilate(page.raster, 1), 0.001, seed=9)) for page in pages]
    save_corpus(pages + degraded, "pages")
    save_corpus([generate_page(p, seed=21, min_paws=20, max_paws=28) for p in (arabic, latin)], "wide")
    save_corpus(generate_corpus(arabic, 2, seed=7), "entries")
    save(BinaryRaster.blank(12, 20), "entries/blank.pbm")
    Path("entries/truncated.pbm").write_bytes(b"P4\n10 10\n")


def reports_digest(grid: Grid) -> str:
    h = hashlib.sha256()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # Reports name their folders as given, so every call runs from here.
        os.chdir(tmp)
        try:
            _write_folders(grid)
            for form in ("json", "text"):
                _report(h, ["generate", "--output-dir", "generated", "--words", "3", "--seed", "1", "--format", form])
                for folder in ("words", "pages", "wide", "entries"):
                    for flags in grid.report_flags:
                        for command in ("features", "classify", "evaluate"):
                            _report(h, [command, "--input", folder, *flags, "--format", form])
        finally:
            os.chdir(here)
    return h.hexdigest()


FAMILIES = {
    "pages": pages_digest,
    "large_radii": large_radii_digest,
    "hostile": hostile_digest,
    "contours": contours_digest,
    "reports": reports_digest,
}


def digests(grid: Grid) -> dict[str, str]:
    return {family: digest(grid) for family, digest in FAMILIES.items()}


def main() -> int:
    moved = []
    for family, digest in digests(FULL).items():
        print(f"{family} {digest}")
        if digest != FULL_DIGESTS[family]:
            moved.append(family)
    if moved:
        print(f"moved from the pinned digests: {', '.join(moved)}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
