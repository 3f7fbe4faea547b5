"""Binary and grayscale raster images: portable-map I/O, thresholding, dilation.

Pixel (0, 0) is the top-left corner; rows grow downward. Ink follows the
scanned-document convention: dark pixels are foreground. Rasters are
immutable after construction and every operation returns a new value, so
distinct images can be processed concurrently without locking.

Supported file formats are the plain and raw portable bitmap (P1/P4) and
portable graymap (P2/P5). Payloads are row-major, top to bottom; P4 rows are
padded to a byte boundary with the most significant bit first. Whitespace
and '#' comments, which run to the end of their line, may separate header
fields and plain cells, and P1 digits may also be packed; one whitespace
byte ends a raw header. Bytes after the last cell are ignored. Graymap
samples are rescaled from [0, maxval] to [0, 255] on decoding, rounding to
nearest, which is the identity at maxval 255; graymaps are saved at maxval
255, so save/load round-trips losslessly.
"""

from __future__ import annotations

import itertools
import operator
import re

import numpy as np

__all__ = [
    "BinaryRaster",
    "GrayRaster",
    "PnmError",
    "PnmHeaderError",
    "PnmPayloadError",
    "load",
    "save",
    "binarize",
    "dilate",
]

# The portable-map token rule: a comment runs from '#' to the end of its
# line, a cell is a run of digits or one other non-whitespace byte, and
# whitespace only separates. Bytes patterns read \d and \s as ASCII, the
# same whitespace as bytes.isspace().
_TOKEN = re.compile(rb"#[^\r\n]*|\d+|\S")
# Longest decimal run read as a number: 2**64 has 20 digits, and int() of a
# run thousands of digits long is slow and raises once past the
# interpreter's digit limit.
_MAX_DIGITS = 20
# The decimal bytes of every graymap sample, for plain (P2) encoding.
_DIGITS = tuple(b"%d" % v for v in range(256))
# File suffixes, in lower case, of the images a directory of inputs holds.
_IMAGE_SUFFIXES = (".pbm", ".pgm", ".pnm")


class PnmError(ValueError):
    """Problem decoding or encoding a portable-map file."""


class PnmHeaderError(PnmError):
    """Missing, unsupported, or malformed portable-map header."""


class PnmPayloadError(PnmError):
    """Pixel payload shorter than the header promises, or carrying bad data."""


class _Raster:
    """Immutable 2-D pixel grid shared by both raster kinds."""

    __slots__ = ("pixels",)

    def __init__(self, pixels):
        arr = self._coerce(pixels)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("raster needs a non-empty 2-D pixel grid")
        arr.flags.writeable = False
        self.pixels = arr

    @classmethod
    def _wrap(cls, pixels: np.ndarray):
        """A raster over a read-only view of pixels, uncopied and unchecked:
        for a non-empty 2-D array of the raster's dtype that nothing writes
        while the raster is in use."""
        raster = cls.__new__(cls)
        raster.pixels = pixels.view()
        raster.pixels.flags.writeable = False
        return raster

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def __eq__(self, other):
        return type(other) is type(self) and np.array_equal(self.pixels, other.pixels)

    def __repr__(self):
        return f"{type(self).__name__}({self.width}x{self.height})"


class BinaryRaster(_Raster):
    """Rectangular grid of ink (True) / background (False) pixels."""

    @staticmethod
    def _coerce(pixels):
        return np.array(pixels, dtype=bool, copy=True)

    def ink_count(self) -> int:
        return int(self.pixels.sum())

    @classmethod
    def blank(cls, height: int, width: int) -> "BinaryRaster":
        return cls(np.zeros((height, width), dtype=bool))


class GrayRaster(_Raster):
    """Rectangular grid of intensities in [0, 255]."""

    @staticmethod
    def _coerce(pixels):
        arr = np.array(pixels, copy=True)
        # Written so that NaN, which fails every comparison, is rejected too.
        if not ((arr >= 0) & (arr <= 255)).all():
            raise ValueError("intensities must lie in [0, 255]")
        return arr.astype(np.uint8)


def _header_int(cells):
    """The next cell as a header integer, and the file position past it."""
    cell = next(cells, None)
    digits = cell[0] if cell else b""
    if not digits.isdigit():
        raise PnmHeaderError("malformed header: expected an unsigned integer")
    if len(digits) > _MAX_DIGITS:
        raise PnmHeaderError(f"malformed header: integer longer than {_MAX_DIGITS} digits")
    return int(digits), cell.end()


def _plain_bits(cells, count: int) -> np.ndarray:
    # Digits may be packed, so the bits are the cells' bytes run together;
    # every cell holds at least one, so the first count cells hold them all.
    bits = b"".join(cell[0] for cell in itertools.islice(cells, count))[:count]
    stray = bits.translate(None, b"01")
    if stray:
        raise PnmPayloadError(f"unexpected byte {stray[:1]!r} in plain bitmap payload")
    if len(bits) < count:
        raise PnmPayloadError(
            f"truncated payload: header promises {count} cells, file carries {len(bits)}"
        )
    return np.frombuffer(bits, dtype=np.uint8) == ord("1")


def _plain_samples(cells, count: int, maxval: int) -> np.ndarray:
    samples = []
    for cell in itertools.islice(cells, count):
        token = cell[0]
        if not token.isdigit():
            raise PnmPayloadError(f"unexpected byte {token!r} in plain graymap payload")
        if len(token) > _MAX_DIGITS:
            raise PnmPayloadError(f"sample longer than {_MAX_DIGITS} digits in plain graymap payload")
        v = int(token)
        if v > maxval:
            raise PnmPayloadError(f"sample {v} exceeds declared maxval {maxval}")
        samples.append(v)
    if len(samples) < count:
        raise PnmPayloadError(
            f"truncated payload: header promises {count} samples, file carries {len(samples)}"
        )
    return np.array(samples, dtype=np.uint8)


def _scale_samples(samples: np.ndarray, maxval: int) -> np.ndarray:
    """Graymap samples rescaled from [0, maxval] to [0, 255], rounding to nearest.

    The identity at maxval 255, so thresholds always read the 0..255 scale.
    """
    return ((samples.astype(np.uint32) * 255 + maxval // 2) // maxval).astype(np.uint8)


def _decode(data: bytes):
    if len(data) < 2:
        raise PnmHeaderError("empty or truncated file: no magic number")
    magic = data[:2]
    if magic not in (b"P1", b"P2", b"P4", b"P5"):
        raise PnmHeaderError(f"unsupported magic {magic!r} (P1/P2/P4/P5 expected)")

    # Header fields, then plain cells, in file order; comments are dropped.
    cells = (m for m in _TOKEN.finditer(data, 2) if not m[0].startswith(b"#"))
    width, pos = _header_int(cells)
    height, pos = _header_int(cells)
    if width < 1 or height < 1:
        raise PnmHeaderError(f"invalid dimensions {width}x{height}")
    count = width * height
    # Every plain cell or sample takes at least one byte, so a plain header
    # that promises more cells than bytes remain is rejected before allocating.
    if magic in (b"P1", b"P2") and count > len(data) - pos:
        raise PnmPayloadError(
            f"truncated payload: header promises {count} cells, file carries {len(data) - pos} bytes"
        )
    if magic in (b"P2", b"P5"):
        maxval, pos = _header_int(cells)
        if not 1 <= maxval <= 255:
            raise PnmHeaderError(f"unsupported maxval {maxval} (1..255 expected)")

    if magic == b"P1":
        return BinaryRaster(_plain_bits(cells, count).reshape(height, width))
    if magic == b"P2":
        samples = _plain_samples(cells, count, maxval)
        return GrayRaster(_scale_samples(samples, maxval).reshape(height, width))

    # Raw formats: exactly one whitespace byte separates header and payload.
    if not data[pos : pos + 1].isspace():
        raise PnmHeaderError("malformed header: missing whitespace before raw payload")
    row_bytes = (width + 7) // 8 if magic == b"P4" else width
    need = row_bytes * height
    payload = data[pos + 1 : pos + 1 + need]
    if len(payload) < need:
        raise PnmPayloadError(f"truncated payload: need {need} bytes, file carries {len(payload)}")
    rows = np.frombuffer(payload, dtype=np.uint8).reshape(height, row_bytes)
    if magic == b"P4":
        return BinaryRaster(np.unpackbits(rows, axis=1)[:, :width].astype(bool))
    if rows.max() > maxval:
        raise PnmPayloadError(f"sample {rows.max()} exceeds declared maxval {maxval}")
    return GrayRaster(_scale_samples(rows, maxval))


def load(path):
    """Load a portable bitmap/graymap file into the matching raster type.

    Raises OSError when the file cannot be read, PnmHeaderError for a bad
    header, and PnmPayloadError for a short or corrupt payload.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    return _decode(data)


def _encode(raster, fmt: str) -> bytes:
    if fmt in ("p1", "p4"):
        if not isinstance(raster, BinaryRaster):
            raise ValueError(f"format {fmt} stores binary rasters only")
        if fmt == "p1":
            digits = np.where(raster.pixels, ord("1"), ord("0")).astype(np.uint8)
            body = b"\n".join(row.tobytes() for row in digits)
            return b"P1\n%d %d\n" % (raster.width, raster.height) + body + b"\n"
        packed = np.packbits(raster.pixels, axis=1)
        return b"P4\n%d %d\n" % (raster.width, raster.height) + packed.tobytes()
    if fmt in ("p2", "p5"):
        if not isinstance(raster, GrayRaster):
            raise ValueError(f"format {fmt} stores grayscale rasters only")
        if fmt == "p2":
            body = b"\n".join(b" ".join(map(_DIGITS.__getitem__, row)) for row in raster.pixels.tolist())
            return b"P2\n%d %d\n255\n" % (raster.width, raster.height) + body + b"\n"
        return b"P5\n%d %d\n255\n" % (raster.width, raster.height) + raster.pixels.tobytes()
    raise ValueError(f"unknown portable-map format {fmt!r}")


def save(raster, path, fmt: str | None = None):
    """Write a raster to disk; binary rasters default to raw P4, gray to P5."""
    if fmt is None:
        fmt = "p4" if isinstance(raster, BinaryRaster) else "p5"
    data = _encode(raster, fmt.lower())
    with open(path, "wb") as fh:
        fh.write(data)


def _require_integers(fields: dict) -> None:
    """Raise TypeError naming the first of fields, a name-to-value dict,
    whose value is not an integer; numpy integers are integers."""
    for name, value in fields.items():
        try:
            operator.index(value)
        except TypeError:
            raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _require_binary(img, name: str) -> None:
    """Raise TypeError unless img is a BinaryRaster. A graymap's cells are
    intensities, and read as ink its white would be ink, so only the page
    entry points of the pipeline take one, and they threshold it first."""
    if not isinstance(img, BinaryRaster):
        raise TypeError(f"{name} expects a BinaryRaster")


def binarize(img: GrayRaster, threshold: int = 128) -> BinaryRaster:
    """Threshold a grayscale image; a cell is ink iff intensity < threshold."""
    if not isinstance(img, GrayRaster):
        raise TypeError("binarize expects a GrayRaster")
    if not 0 <= threshold <= 255:
        raise ValueError(f"threshold {threshold} outside [0, 255]")
    return BinaryRaster(img.pixels < threshold)


DEFAULT_DILATION_RADIUS = 1  # one pass closes diagonal contour gaps; see dilate


def dilate(img: BinaryRaster, radius: int = DEFAULT_DILATION_RADIUS) -> BinaryRaster:
    """Expand ink by a square (Chebyshev) structuring element of given radius.

    The output is the union of the input ink with every cell at Chebyshev
    distance <= radius of an ink cell; dimensions are unchanged. Radius 0 is
    the identity. A single pass with the square element closes diagonal
    contour gaps, which is why it is the preprocessing default.

    The square element is separable, so each of the radius passes ORs the
    raster with itself shifted one column each way, then one row each way.
    After max(height, width) passes every cell is within reach of any ink
    cell, so further passes change nothing and are skipped. A radius that
    is not an integer raises TypeError, a negative one ValueError.
    """
    _require_binary(img, "dilate")
    _require_integers({"radius": radius})
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if radius == 0:
        return img
    grown, inner = img.pixels, min(1, img.width - 1)
    for _ in range(min(radius, max(img.height, img.width))):
        # Shifted over the rows laid end to end, a row's end reaches the next
        # row's start, so the first and last columns are redone on their own.
        wide = grown.copy()
        wide.reshape(-1)[1:] |= grown.reshape(-1)[:-1]
        wide.reshape(-1)[:-1] |= grown.reshape(-1)[1:]
        np.logical_or(grown[:, 0], grown[:, inner], out=wide[:, 0])
        np.logical_or(grown[:, -1], grown[:, -1 - inner], out=wide[:, -1])
        grown = wide.copy()
        grown[1:] |= wide[:-1]
        grown[:-1] |= wide[1:]
    return BinaryRaster._wrap(grown)
