import hashlib
import math
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import c2f.autodiff as ad
import c2f.codec as codec
import c2f.rangecoder as rc
import c2f.transforms as transforms
import c2f.weights as wts
from c2f.cli import main as cli_main
from c2f.container import (HEADER_SIZE, MAX_SIDE, ContainerHeader, read_container,
                           write_container)
from c2f.entropy import ROW_FREQ_MAX
from c2f.errors import (ContractViolation, CorruptStreamError, FormatError,
                        ModelIdMismatchError, NumericError)
from c2f.evaluation import bpp, psnr
from c2f.training import synthetic_patch
from c2f.transforms import ArchConfig, CodecModel

from zoo import ZOO_LAMBDAS, heldout_images

ARCH = ArchConfig(n_main=8, c_y=8, c_z=4)


@pytest.fixture(scope="module")
def model():
    return CodecModel(ARCH, lambda_tag=100, seed=1)


def rand_img(h, w, seed=0):
    rng = np.random.default_rng(seed)
    base = np.linspace(0, 255, w, dtype=np.float64)[None, :, None]
    noise = rng.normal(0, 12, (h, w, 3))
    return np.clip(base + noise, 0, 255).astype(np.uint8)


def assert_rate_bound(res):
    assert res.stream_bits <= res.modeled_bits + 256 + 0.001 * res.modeled_bits


def test_roundtrip_latents_bit_exact(model):
    img = rand_img(64, 64)
    res = codec.encode_array(model, img)
    out = codec.decode_array(model, res.data)
    assert out.latent_digest == res.latent_digest
    assert out.image.shape == img.shape
    assert_rate_bound(res)


def test_roundtrip_nonaligned_dims(model):
    img = rand_img(50, 70, seed=1)
    res = codec.encode_array(model, img)
    out = codec.decode_array(model, res.data)
    assert out.image.shape == (50, 70, 3)
    assert out.latent_digest == res.latent_digest
    assert_rate_bound(res)
    assert (out.header.pad_h, out.header.pad_w) == (64, 128)


def test_decode_is_deterministic(model):
    img = rand_img(64, 64, seed=2)
    res = codec.encode_array(model, img)
    a = codec.decode_array(model, res.data)
    b = codec.decode_array(model, res.data)
    np.testing.assert_array_equal(a.image, b.image)


def test_encode_is_deterministic(model):
    img = rand_img(64, 64, seed=3)
    assert codec.encode_array(model, img).data == codec.encode_array(model, img).data


def test_psnr_finite_on_roundtrip(model):
    img = rand_img(64, 64, seed=4)
    out = codec.decode_array(model, codec.encode_array(model, img).data)
    value = psnr(img, out.image)
    assert np.isfinite(value)


def test_wrong_model_refused(model):
    img = rand_img(64, 64, seed=5)
    res = codec.encode_array(model, img)
    other = CodecModel(ARCH, lambda_tag=999, seed=77)
    with pytest.raises(ModelIdMismatchError):
        codec.decode_array(other, res.data)


def test_bpp_accounts_for_whole_file(model):
    img = rand_img(64, 64, seed=6)
    res = codec.encode_array(model, img)
    assert bpp(len(res.data), 64, 64) == pytest.approx(8 * len(res.data) / (64 * 64))


def test_encoder_input_contract(model):
    with pytest.raises(ContractViolation):
        codec.encode_array(model, np.zeros((4, 4, 3), np.float32))
    with pytest.raises(ContractViolation):
        codec.encode_array(model, np.zeros((4, 4), np.uint8))


def test_rate_bound_various_images(model):
    for seed in range(5):
        img = rand_img(64, 96, seed=10 + seed)
        assert_rate_bound(codec.encode_array(model, img))


def test_saved_model_roundtrips_container(tmp_path, model):
    """A fresh model loaded from disk decodes containers from the original."""
    path = tmp_path / "m.c2fw"
    wts.save_model(model, path)
    loaded = wts.load_model(path)
    img = rand_img(64, 64, seed=7)
    res = codec.encode_array(model, img)
    out = codec.decode_array(loaded, res.data)
    assert out.latent_digest == res.latent_digest
    reference = codec.decode_array(model, res.data)
    np.testing.assert_array_equal(out.image, reference.image)


def test_latent_beyond_int32_is_a_numeric_error():
    # no escape carries it: the model overflowed on its input (exit 1)
    top = np.float32(2 ** 31 - 128)  # the largest float32 below 2**31
    plane = np.array([-top, top], np.float32).reshape(1, 1, 2, 1)
    assert codec._symbols(ad.Tensor(plane)).tolist() == [-top, top]
    for value in (2.0 ** 31, -2.0 ** 31, 1e30):
        plane = np.array([0.0, value], np.float32).reshape(1, 1, 2, 1)
        with pytest.raises(NumericError, match="beyond the coder's int32 range"):
            codec._symbols(ad.Tensor(plane))


@pytest.mark.parametrize("version", [1, 2])
def test_version_1_container_refused(model, version):
    # version 1 coded one exact table per element and version 2 range-coded
    # the grid's bins with no latent check; neither decodes as version 3
    data = bytearray(codec.encode_array(model, rand_img(64, 64, seed=9)).data)
    struct.pack_into("<H", data, 4, version)
    with pytest.raises(CorruptStreamError):
        codec.decode_array(model, bytes(data))


# sha-256 over the 40 latent digests (4 zoo models x 10 held-out images, in
# ZOO_LAMBDAS then image order).  The per-element coder tables of container
# version 1 gave the same latents as the grid: it changes only the stream
# bytes.  Pinned on the RECIPE_REV 3 zoo.
ZOO_LATENTS_SHA = "7069568f7c628933a99f7c9711d3005bfd426a5e3ae62884c42749b6dbb7e9ba"
# sha-256 over the same 40 container byte strings, in the same order, as
# container version 3 writes them (rANS streams, latent check in the
# header): pins the coded streams, not just latents
ZOO_CONTAINERS_SHA = "2822aba51ac7a499b44bc48ad10aa3d137b18cc13777991c01d33cb0a093c9b7"


def test_zoo_rate_bound_and_latents_unchanged_by_grid(toy_zoo):
    latents, containers = hashlib.sha256(), hashlib.sha256()
    for lam in ZOO_LAMBDAS:
        zoo_model = toy_zoo.load(lam)
        for img in heldout_images(10):
            res = codec.encode_array(zoo_model, img)
            assert_rate_bound(res)
            out = codec.decode_array(zoo_model, res.data)
            assert out.latent_digest == res.latent_digest
            latents.update(res.latent_digest.encode())
            containers.update(res.data)
    assert latents.hexdigest() == ZOO_LATENTS_SHA
    assert containers.hexdigest() == ZOO_CONTAINERS_SHA


# ---------------------------------------------------------------------------
# a wide image: maps of many row bands

def traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak it reached, in MiB."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def wide_image():
    rng = np.random.default_rng(1)
    return np.concatenate([np.concatenate([synthetic_patch(rng, 64) for _ in range(16)],
                                          axis=1) for _ in range(16)], axis=0)


@pytest.fixture(scope="module")
def wide_roundtrip():
    """A random-init n_main=16 model codes a 1024x1024 image of 256 seeded
    synthetic tiles; encode and decode each run under tracemalloc, after a
    64x64 warm-up has built the shared coder-table grid.

    At h/2 a map has 262,144 pixel rows, which GDN and the conv engine cut
    into 32 bands of 8,192: unlike the 64x64 zoo, a band-edge error shows
    here."""
    model = CodecModel(ArchConfig(n_main=16), seed=0)
    img = wide_image()
    codec.encode_array(model, img[:64, :64])
    res, enc_peak = traced_peak(codec.encode_array, model, img)
    out, dec_peak = traced_peak(codec.decode_array, model, res.data)
    return res, out, enc_peak, dec_peak


def test_wide_container_and_pixels_are_pinned(wide_roundtrip):
    # computed with every layer epilogue and the synthesis join allocating
    # a fresh map per op; writing in place must give the same bits.  The
    # container hash is container version 3's; the pixels predate it
    res, out, _, _ = wide_roundtrip
    assert out.latent_digest == res.latent_digest
    assert hashlib.sha256(res.data).hexdigest() == \
        "fa945d3bdf9cba626cdc0a1b28f874f68f265dadffdde3d4a1f83b09fc64dbf2"
    assert hashlib.sha256(out.image.tobytes()).hexdigest() == \
        "f428d3fb29c432eebb6f6d681e6ff478b4d170b21501a7ac4347aed245cb789e"


# encode's peak on the wide fixture, where an h/2 map is 512 x 512 x 16
# float32 = 16 MiB: with a fresh array per epilogue op (bias, then the
# five GDN ops) it was 60.0 MiB, in analysis layer 0; written in place,
# with GDN scratch of one band, 38.2 MiB (41.4 on 16 CPUs); with the
# analysis streamed through windows of rows, 11.7 MiB on either
ENCODE_PEAK_MIB = 15


def test_encode_peak_is_bounded(wide_roundtrip):
    assert wide_roundtrip[2] < ENCODE_PEAK_MIB, f"encode peaked at {wide_roundtrip[2]:.1f} MiB"


# decode's peak on the wide fixture: with the three synthesis paths and
# their concatenation alive at once (4 maps of 16 MiB) it was 65.3 MiB;
# written path by path into one buffer, 51.4 MiB; streamed through windows
# of rows, 11.7 MiB (13.2 on 16 CPUs), the most of it the image, the
# decoded planes and the coder tables of X; with int32 coder rows and
# block-sized conv and GDN scratch, 11.6 MiB (13.0 on 16 CPUs)
DECODE_PEAK_MIB = 14


def test_decode_peak_is_bounded(wide_roundtrip):
    assert wide_roundtrip[3] < DECODE_PEAK_MIB, f"decode peaked at {wide_roundtrip[3]:.1f} MiB"


def test_peaks_and_bits_do_not_grow_with_the_cpu_count(wide_roundtrip, workers):
    # every band worker holds one band's scratch, and the engine runs two
    # at most: as on a host of 16 CPUs, encode and decode make the
    # fixture's bits under its bounds
    res, out, _, _ = wide_roundtrip
    workers(16)
    model = CodecModel(ArchConfig(n_main=16), seed=0)
    again, enc_peak = traced_peak(codec.encode_array, model, wide_image())
    assert enc_peak < ENCODE_PEAK_MIB, f"encode peaked at {enc_peak:.1f} MiB"
    assert again.data == res.data
    dec, dec_peak = traced_peak(codec.decode_array, model, res.data)
    assert dec_peak < DECODE_PEAK_MIB, f"decode peaked at {dec_peak:.1f} MiB"
    assert dec.image.tobytes() == out.image.tobytes()


def whole_map_pixels(model, res) -> bytes:
    """The decoded image of an encode, from the synthesis of whole maps
    (a tape records it), turned into pixels as decode does."""
    lat = res.latents
    recon = model.synthesize(lat.x, lat.side1, lat.side2)
    assert recon.requires_grad
    return np.round(np.clip(recon.data[0], 0.0, 1.0) * 255.0).astype(np.uint8).tobytes()


def test_decodes_in_small_windows_give_the_whole_map_pixels(toy_zoo, wide_roundtrip,
                                                            monkeypatch):
    # windows of 1024 pixels cut the zoo tile's 64x96 half-resolution maps
    # into 8 windows of 8 rows, and windows of 2048 the wide fixture's
    # 512x512 ones into 128 of 4 rows; both give the pixels of whole maps
    model = toy_zoo.load(0.03)
    res = codec.encode_array(model, np.tile(heldout_images(1)[0], (2, 3, 1)))
    windows = []
    real = ad.conv2d
    monkeypatch.setattr(ad, "conv2d", lambda *a, **k: windows.append(k["rows"]) or real(*a, **k))
    monkeypatch.setattr(transforms, "_WINDOW_PIXELS", 1024)
    assert codec.decode_array(model, res.data).image.tobytes() == whole_map_pixels(model, res)
    # fuse_in, res_a, res_b and fuse_out; the predictor heads' and the
    # whole maps' convs have no rows
    assert sum(rows is not None for rows in windows) == 4 * 8
    wide_res, wide_out, _, _ = wide_roundtrip
    monkeypatch.setattr(transforms, "_WINDOW_PIXELS", 2048)
    wide = codec.decode_array(CodecModel(ArchConfig(n_main=16), seed=0), wide_res.data)
    assert wide.image.tobytes() == wide_out.image.tobytes()


def test_streamed_analysis_gives_the_taped_latent(wide_roundtrip):
    # the encode's analysis streams the pixels through windows of rows; a
    # tape makes it compute whole maps from the float image
    model = CodecModel(ArchConfig(n_main=16), seed=0)
    taped = model.analysis(ad.Tensor((wide_image().astype(np.float32) / 255.0)[None]))
    assert taped.requires_grad
    assert taped.data.tobytes() == wide_roundtrip[0].latents.x_cont.data.tobytes()


def test_analysis_in_small_windows_gives_the_taped_latent(toy_zoo, monkeypatch):
    # windows of 3000 pixels cut each of two 320x192 images into 36
    # windows: 23 of 7 or 6 rows of layer 0's 160, then 10, 2 and 1
    model = toy_zoo.load(0.03)
    rng = np.random.default_rng(5)
    images = np.stack([np.concatenate([np.concatenate([synthetic_patch(rng, 64) for _ in range(3)],
                                                      axis=1) for _ in range(5)])
                       for _ in range(2)])
    windows = []
    real = ad.conv2d
    monkeypatch.setattr(ad, "conv2d", lambda *a, **k: windows.append(k["rows"]) or real(*a, **k))
    monkeypatch.setattr(transforms, "_WINDOW_PIXELS", 3000)
    with ad.no_grad():
        streamed = model.analysis(images)
    assert len(windows) == 2 * 36 and None not in windows
    monkeypatch.setattr(ad, "conv2d", real)
    taped = model.analysis(ad.Tensor(images.astype(np.float32) / 255.0))
    assert taped.requires_grad and taped.shape == (2, 20, 12, 32)
    assert streamed.data.tobytes() == taped.data.tobytes()


def test_analysis_memory_does_not_grow_with_the_image_height(monkeypatch):
    # what an encode's analysis allocates beyond its input and its output,
    # for the wide fixture and its top half (2.63 and 2.50 MiB): windows of
    # rows follow the image's width, not its height.  Whole maps nearly
    # doubled it (23.0 and 13.1 MiB)
    model = CodecModel(ArchConfig(n_main=16), seed=0)
    used = []
    real = CodecModel.analysis

    def analysis(self, *args, **kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = real(self, *args, **kwargs)
        used.append((tracemalloc.get_traced_memory()[1] - base - out.data.nbytes) / 2 ** 20)
        return out

    monkeypatch.setattr(CodecModel, "analysis", analysis)
    traced_peak(codec.encode_array, model, wide_image()[:512])
    traced_peak(codec.encode_array, model, wide_image())
    assert used[1] < 1.1 * used[0], f"analysis took {used[0]:.2f} then {used[1]:.2f} MiB"


def test_streamed_tail_convs_run_two_bands(workers, monkeypatch):
    # every window of the four convs at h/2 is cut into two bands, so each
    # starts one helper thread: a 512x1024 image's 256x512 maps are 16
    # windows of 16 rows
    workers(2)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    helpers = []
    real = ad.conv2d

    def conv(*args, **kwargs):
        before = len(started)
        out = real(*args, **kwargs)
        if kwargs["rows"] is not None:  # not the predictor heads' 1x1 convs
            helpers.append(len(started) - before)
        return out

    monkeypatch.setattr(ad, "conv2d", conv)
    model = CodecModel(ArchConfig(n_main=16), seed=0)
    res = codec.encode_array(model, wide_image()[:512])
    helpers.clear()
    codec.decode_array(model, res.data)
    assert helpers == [1] * 4 * 16


def test_zoo_image_round_trip_starts_no_thread(toy_zoo, workers, monkeypatch):
    # a 64x64 image's windows are cut into two bands, but no half holds
    # the work that pays for a helper thread (_HELPER_MACS)
    workers(2)
    model = toy_zoo.load(0.03)
    bands = []
    real = ad._bands
    monkeypatch.setattr(ad, "_bands", lambda *a: bands.append(real(*a)) or bands[-1])
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    res = codec.encode_array(model, heldout_images(1)[0])
    assert codec.decode_array(model, res.data).latent_digest == res.latent_digest
    assert max(map(len, bands)) == 2 and started == []


def test_synthesis_memory_does_not_grow_with_the_image_height(wide_roundtrip, monkeypatch):
    # what a decode's synthesis allocates beyond its inputs, for the wide
    # fixture and its top half (8.1 and 8.0 MiB): windows of rows follow
    # the image's width, not its height.  Whole maps doubled it (the
    # decode peaked at 51.4 MiB on the whole fixture)
    model = CodecModel(ArchConfig(n_main=16), seed=0)
    half = codec.encode_array(model, wide_image()[:512])
    used = []
    real = CodecModel.synthesize

    def synthesize(self, *args, **kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        real(self, *args, **kwargs)
        used.append((tracemalloc.get_traced_memory()[1] - base) / 2 ** 20)

    monkeypatch.setattr(CodecModel, "synthesize", synthesize)
    traced_peak(codec.decode_array, model, half.data)
    traced_peak(codec.decode_array, model, wide_roundtrip[0].data)
    assert used[1] < 1.1 * used[0], f"synthesis took {used[0]:.2f} then {used[1]:.2f} MiB"


def test_two_threads_decoding_at_once_get_the_serial_pixels(toy_zoo, workers, monkeypatch):
    # the decode's streamed windows of this 128x192 tile are cut into two
    # bands, and a call of two bands runs the helper thread, so both
    # decodes run helper threads at the same time
    model = toy_zoo.load(0.03)
    workers(1)
    res = codec.encode_array(model, np.tile(heldout_images(1)[0], (2, 3, 1)))
    bands = []
    real = ad._bands
    monkeypatch.setattr(ad, "_bands", lambda *a: bands.append(real(*a)) or bands[-1])
    serial = codec.decode_array(model, res.data).image.tobytes()
    monkeypatch.setattr(ad, "_bands", real)
    assert max(map(len, bands)) >= 2
    workers(2)
    images, errors = [], []

    def decode():
        try:
            images.append(codec.decode_array(model, res.data).image.tobytes())
        except Exception as exc:  # reported below, in the test thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=decode) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "a decode hung"
    assert not errors, errors
    assert images == [serial, serial]


# ---------------------------------------------------------------------------
# corrupt input

@pytest.fixture(scope="module")
def zoo_stream(toy_zoo):
    """The lambda=0.03 zoo model and the encode of held-out image 0 tiled
    2x3 (128x192)."""
    model = toy_zoo.load(0.03)
    img = np.tile(heldout_images(1)[0], (2, 3, 1))
    return model, codec.encode_array(model, img)


def test_bit_flips_decode_or_fail_as_corrupt_stream(zoo_stream):
    # 60 seeded single-bit flips cycling over the Z, Y and X streams.  The
    # coder refuses most; the header's latent check refuses the rest, so
    # none decodes to latents the encoder did not write
    model, res = zoo_stream
    data = res.data
    _, *streams = read_container(data)
    starts = np.cumsum([HEADER_SIZE] + [len(s) for s in streams])
    rng = np.random.default_rng(0)
    silent = 0
    for k in range(60):
        i = k % 3
        bad = bytearray(data)
        bad[int(starts[i] + rng.integers(len(streams[i])))] ^= 1 << int(rng.integers(8))
        try:
            out = codec.decode_array(model, bytes(bad))
        except CorruptStreamError:
            continue
        silent += out.latent_digest != res.latent_digest
    assert silent == 0


@pytest.mark.parametrize("coretype", ["Prescott", "Nehalem", "Haswell"])
def test_decode_under_other_blas_kernels_gives_latents_or_exits_4(
        toy_zoo, zoo_stream, tmp_path, coretype):
    # the side path's float32 BLAS may pick other table rows on another
    # kernel; a child process forced onto that kernel must then fail the
    # latent check, not decode to other latents
    _, res = zoo_stream
    (tmp_path / "tile.c2f").write_bytes(res.data)
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               PYTHONPATH=os.pathsep.join([str(Path(codec.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run(
        [sys.executable, "-m", "c2f.cli", "decode", "--model", toy_zoo.model_path(0.03),
         "--input", tmp_path / "tile.c2f", "--output", tmp_path / "tile.png", "--debug"],
        env=env, capture_output=True, text=True, timeout=300)
    if child.returncode == 4:
        return
    assert child.returncode == 0, child.stderr
    assert f"latent_digest={res.latent_digest}" in child.stdout.splitlines()


@pytest.fixture(scope="module")
def zoo_container_64(toy_zoo):
    """The lambda=0.03 zoo model and a container of held-out image 0 (64x64)."""
    model = toy_zoo.load(0.03)
    return model, codec.encode_array(model, heldout_images(1)[0]).data


@settings(max_examples=80, deadline=None)
@given(short=st.integers(0, 8), cut=st.none() | st.integers(0),
       edits=st.lists(st.tuples(st.integers(0), st.integers(0, 255)), max_size=6))
def test_fuzzed_container_decodes_or_fails_as_corrupt(zoo_container_64, short, cut, edits):
    # shorten the X stream, with the header's x length following so the
    # coder meets the short stream; overwrite bytes anywhere; then
    # optionally cut the file short
    model, data = zoo_container_64
    bad = bytearray(data[:len(data) - short])
    x_len = struct.unpack_from("<Q", bad, 72)[0]
    struct.pack_into("<Q", bad, 72, x_len - short)
    for pos, value in edits:
        bad[pos % len(bad)] = value
    if cut is not None:
        del bad[cut % (len(bad) + 1):]
    if len(bad) >= HEADER_SIZE:
        orig_w, orig_h = struct.unpack_from("<II", bad, 38)
        assume(orig_w <= 256 and orig_h <= 256)  # bounds what a decode allocates
    try:
        out = codec.decode_array(model, bytes(bad))
    except (CorruptStreamError, FormatError):
        return
    assert out.image.shape == (out.header.orig_h, out.header.orig_w, 3)
    assert out.image.dtype == np.uint8


def test_hostile_padded_size_refused_before_decoding(model, monkeypatch):
    # a 64x64 image whose header claims a (2**32 - 64)-wide padded plane
    data = bytearray(codec.encode_array(model, rand_img(64, 64, seed=8)).data)
    struct.pack_into("<I", data, 46, 2 ** 32 - 64)

    def no_decode(*args):
        raise AssertionError("decoder sized latent planes from a hostile header")

    monkeypatch.setattr(CodecModel, "latent_shapes", no_decode)
    with pytest.raises(CorruptStreamError):
        codec.decode_array(model, bytes(data))


def test_hostile_stream_lengths_refused_before_any_plane(toy_zoo, tmp_path, capsys):
    # a valid header for a 32768x32768 image and three 8-byte streams: 108
    # bytes.  The Z stream alone would need 1.5 kB for its 4.2 million
    # symbols, so decode exits 4 before building anything per symbol (it
    # exited 4 after 0.59 s at 446 MB of RSS, running out of words)
    model = toy_zoo.load(0.03)
    header = ContainerHeader(model_id=wts.model_digest(model), orig_w=MAX_SIDE,
                             orig_h=MAX_SIDE, pad_w=MAX_SIDE, pad_h=MAX_SIDE,
                             lambda_tag=model.lambda_tag)
    path = tmp_path / "hostile.c2f"
    path.write_bytes(write_container(header, *[bytes([0, 1, 0, 0, 0, 0, 0, 0])] * 3))
    assert path.stat().st_size == 108
    args = ["decode", "--model", str(toy_zoo.model_path(0.03)), "--input", str(path),
            "--output", str(tmp_path / "out.png")]
    assert cli_main(args) == 4  # warm-up: imports
    t0 = time.perf_counter()
    code = cli_main(args)
    elapsed = time.perf_counter() - t0
    traced_code, peak = traced_peak(cli_main, args)
    assert code == traced_code == 4
    assert "Z stream is too short" in capsys.readouterr().err
    assert elapsed < 0.1, f"refused after {elapsed:.3f} s"
    assert peak < 10, f"refused at a {peak:.1f} MiB peak"


def stream_margins(model, data: bytes) -> list[int]:
    """Each stream's bytes beyond rangecoder.shortest_stream's bound."""
    header, *streams = read_container(data)
    x, y, z = model.latent_shapes(header.pad_h, header.pad_w)
    f_z = int(np.diff(codec._z_rows(model.fz.sigma_values())).max())
    return [len(s) - rc.shortest_stream(math.prod(shape), f_max)
            for s, shape, f_max in zip(streams, (z, y, x), (f_z, ROW_FREQ_MAX, ROW_FREQ_MAX))]


def test_pinned_and_zoo_streams_pass_the_length_bound(toy_zoo, wide_roundtrip):
    margins = stream_margins(CodecModel(ArchConfig(n_main=16), seed=0), wide_roundtrip[0].data)
    for lam in ZOO_LAMBDAS:
        zoo_model = toy_zoo.load(lam)
        for img in heldout_images(10):
            margins += stream_margins(zoo_model, codec.encode_array(zoo_model, img).data)
    assert len(margins) == 123 and min(margins) >= 0


@pytest.mark.parametrize("field", [38, 42])  # orig_w, orig_h
def test_oversized_image_header_refused_before_decoding(model, monkeypatch, field):
    # a consistent header (padded side = original side, a multiple of 64)
    # for a side of 2**16, twice the documented cap
    data = bytearray(codec.encode_array(model, rand_img(64, 64, seed=8)).data)
    struct.pack_into("<I", data, field, 2 ** 16)
    struct.pack_into("<I", data, field + 8, 2 ** 16)

    def no_decode(*args):
        raise AssertionError("decoder sized latent planes from an oversized header")

    monkeypatch.setattr(CodecModel, "latent_shapes", no_decode)
    with pytest.raises(CorruptStreamError, match="outside 1..32768"):
        codec.decode_array(model, bytes(data))


@pytest.mark.parametrize("h,w", [(1, MAX_SIDE + 1), (MAX_SIDE + 1, 1), (0, 64)])
def test_encoder_refuses_image_outside_the_side_cap(model, h, w):
    with pytest.raises(ContractViolation, match="outside 1..32768"):
        codec.encode_array(model, np.zeros((h, w, 3), np.uint8))
