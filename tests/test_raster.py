import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scriptid.raster import (
    BinaryRaster,
    GrayRaster,
    PnmError,
    PnmHeaderError,
    PnmPayloadError,
    _decode,
    _encode,
    binarize,
    dilate,
    load,
    save,
)

from oracles import brute_dilate, raster_of, reference_decode, reference_encode_p2, scipy_dilate


def write(tmp_path, data, name="img.pbm"):
    path = tmp_path / name
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return path


class TestLoad:
    def test_plain_bitmap(self, tmp_path):
        img = load(write(tmp_path, "P1\n3 2\n1 0 1\n0 1 0\n"))
        assert isinstance(img, BinaryRaster)
        assert (img.width, img.height) == (3, 2)
        assert {tuple(p) for p in np.argwhere(img.pixels)} == {(0, 0), (0, 2), (1, 1)}

    def test_plain_bitmap_packed_digits(self, tmp_path):
        img = load(write(tmp_path, "P1 3 2 101010"))
        assert {tuple(p) for p in np.argwhere(img.pixels)} == {(0, 0), (0, 2), (1, 1)}

    def test_comments_in_header(self, tmp_path):
        img = load(write(tmp_path, "P1 # comment\n# another\n2 1\n10\n"))
        assert img.ink_count() == 1

    def test_empty_file_is_header_error(self, tmp_path):
        with pytest.raises(PnmHeaderError):
            load(write(tmp_path, ""))

    def test_bad_magic(self, tmp_path):
        with pytest.raises(PnmHeaderError):
            load(write(tmp_path, "P7\n1 1\n0\n"))

    def test_truncated_plain_payload(self, tmp_path):
        with pytest.raises(PnmPayloadError):
            load(write(tmp_path, "P1\n4 4\n1 0 1 0 1 0 1 0\n"))

    def test_truncated_raw_payload(self, tmp_path):
        with pytest.raises(PnmPayloadError):
            load(write(tmp_path, b"P4\n16 4\n" + b"\xff" * 3))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load(tmp_path / "nope.pbm")

    def test_raw_bitmap_bit_order(self, tmp_path):
        # row '101' packs into one byte, most significant bit first: 0xA0
        img = load(write(tmp_path, b"P4\n3 2\n\xa0\x40"))
        assert {tuple(p) for p in np.argwhere(img.pixels)} == {(0, 0), (0, 2), (1, 1)}

    def test_plain_graymap(self, tmp_path):
        img = load(write(tmp_path, "P2\n2 2\n255\n0 64\n128 255\n"))
        assert isinstance(img, GrayRaster)
        assert img.pixels.tolist() == [[0, 64], [128, 255]]

    def test_raw_graymap(self, tmp_path):
        img = load(write(tmp_path, b"P5\n2 1\n255\n\x07\xff"))
        assert img.pixels.tolist() == [[7, 255]]

    def test_graymap_sample_above_maxval(self, tmp_path):
        with pytest.raises(PnmPayloadError):
            load(write(tmp_path, "P2\n1 1\n100\n101\n"))

    def test_raw_graymap_sample_above_maxval(self, tmp_path):
        with pytest.raises(PnmPayloadError):
            load(write(tmp_path, b"P5\n2 1\n100\n\x64\x65"))

    @pytest.mark.parametrize("magic, payload", [(b"P2", b"0 7 8 15\n"), (b"P5", b"\x00\x07\x08\x0f")])
    def test_graymap_samples_scale_to_255(self, tmp_path, magic, payload):
        # v -> (255 v + maxval // 2) // maxval: 7/15 and 8/15 of 255 round to 119 and 136.
        img = load(write(tmp_path, magic + b"\n4 1\n15\n" + payload))
        assert img.pixels.tolist() == [[0, 119, 136, 255]]

    @pytest.mark.parametrize("data", [b"P1 1000000 1000000\n1", b"P2 1000000 1000000 255\n1"])
    def test_oversized_plain_header_is_payload_error(self, tmp_path, data):
        # Rejected from the byte count alone, before any cell is allocated.
        with pytest.raises(PnmPayloadError):
            load(write(tmp_path, data))

    @pytest.mark.parametrize("data, error", [
        (b"P1 " + b"9" * 5000 + b" 1\n1", PnmHeaderError),
        (b"P1 1 " + b"0" * 20 + b"1\n1", PnmHeaderError),
        (b"P2 1 1 " + b"9" * 5000 + b"\n1", PnmHeaderError),
        (b"P5 1 1 " + b"9" * 5000 + b"\n\x00", PnmHeaderError),
        (b"P2 1 1 255\n" + b"9" * 5000, PnmPayloadError),
    ])
    def test_overlong_integer_is_pnm_error(self, tmp_path, data, error):
        # int() of an unbounded digit run is slow and, past the interpreter's
        # digit limit, raises a plain ValueError.
        with pytest.raises(error):
            load(write(tmp_path, data))

    def test_twenty_digit_integers_parse(self, tmp_path):
        img = load(write(tmp_path, b"P2 " + b"0" * 19 + b"1 1 255\n" + b"0" * 18 + b"42"))
        assert img.pixels.tolist() == [[42]]


@st.composite
def mutated_pnm(draw):
    """A small valid P1/P2/P4/P5 file, perhaps with a comment at each line
    end, with a few bytes after the magic number replaced, inserted or
    deleted, and perhaps cut short."""
    fmt = draw(st.sampled_from(["p1", "p2", "p4", "p5"]))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if fmt in ("p1", "p4"):
        cells = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
        raster = BinaryRaster(np.array(cells).reshape(h, w))
    else:
        cells = draw(st.lists(st.integers(0, 255), min_size=h * w, max_size=h * w))
        raster = GrayRaster(np.array(cells).reshape(h, w))
    data = _encode(raster, fmt)
    if draw(st.booleans()):
        data = data.replace(b"\n", draw(st.sampled_from([b" # c\n", b"#\r", b"\t#1 2\n"])))
    data = bytearray(data)
    byte = st.one_of(st.sampled_from(b"0123456789 \n#"), st.integers(0, 255))
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(2, len(data) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "digits", "delete"]))
        if edit == "replace":
            data[at] = draw(byte)
        elif edit == "insert":
            data[at:at] = bytes(draw(st.lists(byte, min_size=1, max_size=8)))
        elif edit == "digits":
            # Longer than any number the decoder reads, once joined to one.
            data[at:at] = b"7" * draw(st.integers(16, 24))
        else:
            del data[at : at + draw(st.integers(1, 3))]
        if len(data) < 3:
            break
    if len(data) > 2 and draw(st.booleans()):
        del data[len(data) - draw(st.integers(1, len(data) - 2)):]
    return bytes(data)


def decode_outcome(decode, data):
    """What decoding gives: the raster, or the exception's class and message."""
    try:
        return decode(data)
    except PnmError as exc:
        return type(exc), str(exc)


@settings(max_examples=1000, deadline=None)
@given(mutated_pnm())
def test_mutated_file_decodes_or_raises_pnm_error(data):
    got = decode_outcome(_decode, data)
    assert got == decode_outcome(reference_decode, data)


@pytest.mark.parametrize("data, expected", [
    # Bytes after the last sample are never read.
    (b"P2 2 1 255\n7 12x", [[7, 12]]),
    # A comment is not a stray byte, even where the payload ends early.
    (b"P2 2 1 255\n7 #c", (PnmPayloadError, "truncated payload: header promises 2 samples, file carries 1")),
    # A comment may sit between two cells of a plain bitmap.
    (b"P1 3 1\n1#c\n0 1", [[1, 0, 1]]),
    # Samples are checked in file order, so the first failing one is reported.
    (b"P2 3 1 9\n12 x 1", (PnmPayloadError, "sample 12 exceeds declared maxval 9")),
])
def test_plain_payload_edge_cases_match_reference(data, expected):
    got = decode_outcome(_decode, data)
    assert got == decode_outcome(reference_decode, data)
    if isinstance(got, tuple):
        assert got == expected
    else:
        assert got.pixels.tolist() == expected


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["p1", "p2", "p4", "p5"]), st.integers(1, 9), st.integers(1, 17), st.data())
def test_save_then_load_round_trips(tmp_path_factory, fmt, h, w, data):
    # Widths 1-17 cover P4 rows that end mid-byte and rows of whole bytes.
    if fmt in ("p1", "p4"):
        cells = data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
        img = BinaryRaster(np.array(cells).reshape(h, w))
    else:
        cells = data.draw(st.lists(st.integers(0, 255), min_size=h * w, max_size=h * w))
        img = GrayRaster(np.array(cells).reshape(h, w))
    path = tmp_path_factory.mktemp("rt") / f"img.{fmt}"
    save(img, path, fmt)
    assert load(path) == img


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 40), st.data())
def test_plain_graymap_bytes_match_sample_by_sample_encoding(h, w, data):
    cells = data.draw(st.lists(st.integers(0, 255), min_size=h * w, max_size=h * w))
    img = GrayRaster(np.array(cells).reshape(h, w))
    assert _encode(img, "p2") == reference_encode_p2(img)


def test_plain_graymap_encodes_every_sample_value():
    img = GrayRaster(np.arange(256).reshape(16, 16))
    assert _encode(img, "p2") == reference_encode_p2(img)


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["p1", "p4"])
    def test_binary_round_trip(self, tmp_path, fmt):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h, w = rng.integers(1, 40, size=2)
            img = BinaryRaster(rng.random((h, w)) < 0.4)
            path = tmp_path / f"rt.{fmt}.pbm"
            save(img, path, fmt)
            assert load(path) == img

    @pytest.mark.parametrize("fmt", ["p2", "p5"])
    def test_gray_round_trip(self, tmp_path, fmt):
        rng = np.random.default_rng(8)
        for _ in range(20):
            h, w = rng.integers(1, 40, size=2)
            img = GrayRaster(rng.integers(0, 256, size=(h, w)))
            path = tmp_path / f"rt.{fmt}.pgm"
            save(img, path, fmt)
            assert load(path) == img

    def test_default_format_binary_is_raw(self, tmp_path):
        img = raster_of(["10", "01"])
        path = tmp_path / "d.pbm"
        save(img, path)
        assert path.read_bytes().startswith(b"P4")

    def test_format_type_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            save(raster_of(["1"]), tmp_path / "x.pgm", "p5")


class TestBinarize:
    def test_all_white_has_no_ink(self):
        img = GrayRaster(np.full((4, 5), 255))
        assert binarize(img, 128).ink_count() == 0

    def test_all_black_is_all_ink(self):
        img = GrayRaster(np.zeros((4, 5), dtype=int))
        assert binarize(img, 128).ink_count() == 20

    def test_checkerboard_counts_dark_cells(self):
        for h, w in [(4, 4), (3, 5), (5, 3)]:
            grid = np.indices((h, w)).sum(axis=0) % 2 * 255
            expected = int((grid < 128).sum())  # direct count of dark cells
            assert binarize(GrayRaster(grid), 128).ink_count() == expected

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        img = GrayRaster(rng.integers(0, 256, size=(16, 16)))
        counts = [binarize(img, t).ink_count() for t in range(0, 256, 17)]
        assert counts == sorted(counts)

    def test_threshold_range_checked(self):
        with pytest.raises(ValueError):
            binarize(GrayRaster([[0]]), 256)


class TestDilate:
    def test_radius_zero_is_identity(self):
        img = raster_of(["101", "010"])
        assert dilate(img, 0) == img

    def test_single_pixel_grows_to_block(self):
        img = BinaryRaster.blank(11, 11).pixels.copy()
        img[5, 5] = True
        out = dilate(BinaryRaster(img), 1)
        expected = {(r, c) for r in (4, 5, 6) for c in (4, 5, 6)}
        assert {tuple(p) for p in np.argwhere(out.pixels)} == expected

    def test_gap_of_two_closes_at_radius_one(self):
        img = raster_of(["1001"])
        out = dilate(img, 1)
        # hand enumeration: each pixel becomes a 1x.. block, union covers the row
        assert out.ink_count() == 4
        assert out.pixels.all()

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            h, w = rng.integers(1, 24, size=2)
            mask = rng.random((h, w)) < 0.2
            radius = int(rng.integers(0, 4))
            got = dilate(BinaryRaster(mask), radius)
            assert np.array_equal(got.pixels, brute_dilate(mask, radius))

    def test_monotone(self):
        rng = np.random.default_rng(12)
        mask = rng.random((20, 20)) < 0.1
        img = BinaryRaster(mask)
        grown = dilate(img, 2)
        assert (grown.pixels | mask).sum() == grown.ink_count()

    def test_radius_composition(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            mask = rng.random((18, 22)) < 0.1
            img = BinaryRaster(mask)
            a, b = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            assert dilate(dilate(img, a), b) == dilate(img, a + b)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            dilate(raster_of(["1"]), -1)

    def test_type_checked(self):
        with pytest.raises(TypeError):
            dilate(GrayRaster([[0]]), 1)

    @pytest.mark.parametrize("radius", [1.5, 1.0, float("nan"), "1", None])
    def test_non_integer_radius_is_refused(self, radius):
        with pytest.raises(TypeError, match="radius"):
            dilate(raster_of(["010", "000"]), radius)

    def test_numpy_integer_radius_is_an_integer(self):
        img = raster_of(["010", "000", "000"])
        assert dilate(img, np.int64(1)) == dilate(img, 1)
        with pytest.raises(ValueError, match="radius"):
            dilate(img, np.int64(-1))

    def test_huge_radius_stops_once_every_cell_is_inked(self):
        img = raster_of(["0000000", "0000000", "0000001"])
        start = time.perf_counter()
        out = dilate(img, 10**6)
        # A million passes take seconds; the seven that can change anything
        # take well under a millisecond.
        assert time.perf_counter() - start < 1
        assert out.pixels.all() and out.pixels.shape == (3, 7)


@st.composite
def dilation_cases(draw):
    """Random ink on blank, 1x1, single-row, single-column and general
    rasters, sometimes with ink forced onto the border."""
    shape = draw(st.sampled_from(["any", "1x1", "row", "column"]))
    h = 1 if shape in ("1x1", "row") else draw(st.integers(1, 14))
    w = 1 if shape in ("1x1", "column") else draw(st.integers(1, 14))
    cells = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    mask = np.array(cells).reshape(h, w) & draw(st.booleans())
    if draw(st.booleans()):
        r, c = draw(st.sampled_from([(0, 0), (h - 1, w - 1), (0, w - 1), (h - 1, 0)]))
        mask[r, c] = True
    return mask, draw(st.integers(0, 3))


@settings(max_examples=400, deadline=None)
@given(dilation_cases())
def test_dilate_matches_scipy_reference(case):
    mask, radius = case
    assert np.array_equal(dilate(BinaryRaster(mask), radius).pixels, scipy_dilate(mask, radius))


class TestRasterTypes:
    def test_immutable(self):
        img = raster_of(["10"])
        with pytest.raises(ValueError):
            img.pixels[0, 0] = False

    def test_gray_range_checked(self):
        # NaN fails both bound comparisons, so it must be rejected explicitly.
        for pixels in ([[300]], [[-1]], [[np.nan]]):
            with pytest.raises(ValueError):
                GrayRaster(pixels)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            BinaryRaster(np.zeros((0, 3), dtype=bool))
