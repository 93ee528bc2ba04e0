import io
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

import c2f.imageio as iio
from c2f.errors import ContractViolation, FormatError


def rand_img(h, w, seed=0):
    return np.random.default_rng(seed).integers(0, 256, (h, w, 3), dtype=np.uint8)


def test_png_roundtrip(tmp_path):
    img = rand_img(13, 17)
    p = tmp_path / "x.png"
    iio.write_image(p, img)
    np.testing.assert_array_equal(iio.read_image(p), img)


def test_ppm_roundtrip(tmp_path):
    img = rand_img(9, 5, seed=1)
    p = tmp_path / "x.ppm"
    iio.write_image(p, img)
    np.testing.assert_array_equal(iio.read_image(p), img)


def test_ppm_with_comments():
    img = rand_img(2, 3, seed=2)
    data = b"P6\n# a comment\n3 # inline\n2\n255\n" + img.tobytes()
    np.testing.assert_array_equal(iio.decode_ppm(data), img)


def test_png_grayscale_replicates_channels(tmp_path):
    gray = np.arange(12, dtype=np.uint8).reshape(3, 4)
    ihdr = struct.pack(">IIBBBBB", 4, 3, 8, 0, 0, 0, 0)
    rows = np.zeros((3, 5), np.uint8)
    rows[:, 1:] = gray
    raw = zlib.compress(rows.tobytes())
    data = (b"\x89PNG\r\n\x1a\n" + iio._chunk(b"IHDR", ihdr)
            + iio._chunk(b"IDAT", raw) + iio._chunk(b"IEND", b""))
    out = iio.decode_png(data)
    assert out.shape == (3, 4, 3)
    np.testing.assert_array_equal(out[..., 0], gray)
    np.testing.assert_array_equal(out[..., 2], gray)


def test_png_rgba_drops_alpha():
    rng = np.random.default_rng(3)
    rgba = rng.integers(0, 256, (4, 4, 4), dtype=np.uint8)
    ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 6, 0, 0, 0)
    rows = np.zeros((4, 17), np.uint8)
    rows[:, 1:] = rgba.reshape(4, 16)
    data = (b"\x89PNG\r\n\x1a\n" + iio._chunk(b"IHDR", ihdr)
            + iio._chunk(b"IDAT", zlib.compress(rows.tobytes()))
            + iio._chunk(b"IEND", b""))
    np.testing.assert_array_equal(iio.decode_png(data), rgba[..., :3])


@pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
def test_png_all_filter_types_decode(ftype):
    """Encode rows manually with one filter type and check recovery, for
    every colour type: 1, 3, 2 and 4 bytes per pixel."""
    rng = np.random.default_rng(10 + ftype)
    for color, nch in ((0, 1), (2, 3), (4, 2), (6, 4)):
        img = rng.integers(0, 256, (6, 7, nch), dtype=np.uint8)
        h, w, _ = img.shape
        flat = img.reshape(h, w * nch).astype(np.int64)
        rows = np.zeros((h, w * nch + 1), np.uint8)
        prev = np.zeros(w * nch, dtype=np.int64)
        none = np.zeros(nch, dtype=np.int64)
        for y in range(h):
            cur = flat[y]
            left = np.concatenate([none, cur[:-nch]])
            upleft = np.concatenate([none, prev[:-nch]])
            if ftype == 0:
                filt = cur
            elif ftype == 1:
                filt = cur - left
            elif ftype == 2:
                filt = cur - prev
            elif ftype == 3:
                filt = cur - (left + prev) // 2
            else:
                p = left + prev - upleft
                pa, pb, pc = np.abs(p - left), np.abs(p - prev), np.abs(p - upleft)
                pred = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, prev, upleft))
                filt = cur - pred
            rows[y, 0] = ftype
            rows[y, 1:] = (filt % 256).astype(np.uint8)
            prev = cur
        ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
        data = (b"\x89PNG\r\n\x1a\n" + iio._chunk(b"IHDR", ihdr)
                + iio._chunk(b"IDAT", zlib.compress(rows.tobytes()))
                + iio._chunk(b"IEND", b""))
        # gray (and gray+alpha) is replicated to RGB, alpha is dropped
        want = np.repeat(img[..., :1], 3, axis=2) if nch < 3 else img[..., :3]
        np.testing.assert_array_equal(iio.decode_png(data), want, err_msg=f"color {color}")


def test_not_an_image(tmp_path):
    p = tmp_path / "junk.png"
    p.write_bytes(b"hello world")
    with pytest.raises(FormatError):
        iio.read_image(p)


def test_truncated_ppm():
    with pytest.raises(FormatError):
        iio.decode_ppm(b"P6\n4 4\n255\nshort")


def png_of(ihdr: bytes, idat: bytes = b"") -> bytes:
    return (iio._PNG_SIG + iio._chunk(b"IHDR", ihdr) + iio._chunk(b"IDAT", idat)
            + iio._chunk(b"IEND", b""))


@pytest.mark.parametrize("data", [
    b"P6\nabc 2\n255\n" + bytes(12),                   # size field not a number
    b"P6\n-1 2\n255\n" + bytes(12),                    # nor a signed one
    b"P6\n# x",                                         # comment with no newline
    b"P6\n0 2\n255\n",                                 # zero width
    png_of(struct.pack(">IIB", 1, 1, 8)),               # IHDR of 9 bytes, not 13
    # sizes outside 1..MAX_SIDE, each with the pixel rows it claims
    png_of(struct.pack(">IIBBBBB", 0, 1, 8, 2, 0, 0, 0), zlib.compress(bytes(1))),
    png_of(struct.pack(">IIBBBBB", 1, (1 << 15) + 1, 8, 2, 0, 0, 0),
           zlib.compress(bytes(((1 << 15) + 1) * 4))),
], ids=["ppm-size-text", "ppm-size-signed", "ppm-comment-no-newline", "ppm-zero-width",
        "png-short-ihdr", "png-zero-width", "png-too-tall"])
def test_malformed_header_is_a_format_error(data):
    with pytest.raises(FormatError):
        iio.decode_png(data) if data[:8] == iio._PNG_SIG else iio.decode_ppm(data)


def test_png_inflate_is_bounded_by_its_header():
    # a 1x1 RGB image needs 4 bytes; its IDAT inflates to 64 MiB of zeros
    deflater = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    idat = b"".join([deflater.compress(zeros) for _ in range(64)] + [deflater.flush()])
    data = png_of(struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 0), idat)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError):
            iio.decode_png(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"decode_png peaked at {peak / 2 ** 20:.1f} MiB"


def test_writer_rejects_float():
    with pytest.raises(ContractViolation):
        iio.encode_png(np.zeros((4, 4, 3), np.float32))


def test_pad_to_multiple_shapes_and_crop():
    img = rand_img(50, 70, seed=4)
    padded = iio.pad_to_multiple(img, 64)
    assert padded.shape == (64, 128, 3)
    np.testing.assert_array_equal(padded[:50, :70], img)


def test_pad_reflects_content():
    img = np.arange(12, dtype=np.uint8).reshape(3, 4, 1)
    padded = iio.pad_to_multiple(img, 4)
    assert padded.shape == (4, 4, 1)
    np.testing.assert_array_equal(padded[3], padded[1])  # mirror of row 1


def test_pad_tiny_image():
    img = rand_img(2, 3, seed=5)
    padded = iio.pad_to_multiple(img, 64)
    assert padded.shape == (64, 64, 3)


def test_pad_one_pixel_image():
    img = rand_img(1, 1, seed=6)
    padded = iio.pad_to_multiple(img, 64)
    assert padded.shape == (64, 64, 3)
    assert np.all(padded == img[0, 0])
