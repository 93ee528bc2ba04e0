import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import c2f.autodiff as ad
from c2f.autodiff import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Adam, GdnParams, Tensor
from c2f.errors import ContractViolation, NumericError

from gradcheck import assert_grads_close, probe_gradcheck


def randt(shape, seed, scale=1.0, requires_grad=True):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(0, scale, shape).astype(np.float32), requires_grad)


# ---------------------------------------------------------------------------
# tensor basics

def test_tensor_rank_enforced():
    with pytest.raises(ContractViolation):
        Tensor(np.zeros((2, 3)))


def test_non_finite_input_rejected():
    bad = np.zeros((1, 1, 1, 2), dtype=np.float32)
    bad[0, 0, 0, 0] = np.inf
    with pytest.raises(NumericError):
        Tensor(bad)


def test_non_finite_forward_rejected():
    a = Tensor(np.zeros((1, 1, 1, 1), np.float32))
    with pytest.raises(NumericError):
        ad.log(a)  # log(0) = -inf


@pytest.mark.parametrize("op, value, name", [
    (ad.sqrt, -1.0, "sqrt"),  # NaN
    (ad.exp, 100.0, "exp"),   # +inf
    (ad.log, 0.0, "log"),     # -inf
])
def test_non_finite_forward_names_the_op(op, value, name):
    x = np.full((1, 2, 3, 4), 0.5, np.float32)
    x[0, 1, 1, 2] = value
    with pytest.raises(NumericError, match=f"non-finite values produced by op '{name}'"):
        op(Tensor(x))


def test_non_finite_gradient_names_the_op():
    x = Tensor(np.zeros((1, 1, 2, 2), np.float32), requires_grad=True)
    loss = ad.sum_all(ad.sqrt(x))  # d sqrt(x)/dx = +inf at 0
    with np.errstate(divide="ignore"), \
            pytest.raises(NumericError, match="non-finite gradient out of op 'sqrt'"):
        loss.backward()


def test_finiteness_check_makes_no_temporary():
    data = np.ones((1, 384, 256, 128), np.float32)  # a 48 MiB full-resolution map
    tracemalloc.start()
    try:
        ad._check_finite(data, "probe")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# conv2d

def test_conv2d_identity_kernel():
    x = randt((1, 5, 6, 3), seed=0)
    k = np.zeros((1, 1, 3, 3), dtype=np.float32)
    np.fill_diagonal(k[0, 0], 1.0)
    out = ad.conv2d(x, Tensor(k), stride=1, padding="same")
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_ones_counting():
    x = Tensor(np.ones((1, 4, 4, 1), dtype=np.float32))
    k = Tensor(np.ones((3, 3, 1, 1), dtype=np.float32))
    out = ad.conv2d(x, k, stride=1, padding="same")
    assert out.data[0, 1, 1, 0] == 9.0   # fully overlapped tap count
    assert out.data[0, 0, 0, 0] == 4.0   # corner sees a 2x2 window


def test_conv2d_shapes_stride2():
    x = randt((2, 9, 8, 3), seed=1)
    k = randt((3, 3, 3, 5), seed=2)
    out = ad.conv2d(x, k, stride=2, padding="same")
    assert out.shape == (2, 5, 4, 5)
    out_v = ad.conv2d(x, k, stride=2, padding="valid")
    assert out_v.shape == (2, 4, 3, 5)


def test_conv2d_channel_mismatch():
    with pytest.raises(ContractViolation):
        ad.conv2d(randt((1, 4, 4, 2), 0), randt((3, 3, 3, 4), 1))


@pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid"), (2, "valid")])
def test_conv2d_gradcheck(stride, padding):
    x = randt((1, 8, 8, 2), seed=10 + stride, scale=0.5)
    k = randt((3, 3, 2, 3), seed=20 + stride, scale=0.3)
    probe_gradcheck(lambda: ad.conv2d(x, k, stride, padding), [x, k])


# ---------------------------------------------------------------------------
# deconv2d

def test_deconv2d_identity():
    x = randt((1, 4, 5, 2), seed=3)
    k = np.zeros((1, 1, 2, 2), dtype=np.float32)
    np.fill_diagonal(k[0, 0], 1.0)
    out = ad.deconv2d(x, Tensor(k), stride=1, padding="same")
    np.testing.assert_array_equal(out.data, x.data)


def test_deconv2d_upsamples():
    y = randt((1, 3, 4, 6), seed=4)
    k = randt((5, 5, 2, 6), seed=5)
    out = ad.deconv2d(y, k, stride=2, padding="same")
    assert out.shape == (1, 6, 8, 2)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_deconv_adjoint(stride):
    # <conv2d(a), b> == <a, deconv2d(b)> with a shared kernel
    rng = np.random.default_rng(6 + stride)
    a = Tensor(rng.normal(size=(1, 4, 4, 2)).astype(np.float32))
    k = Tensor(rng.normal(size=(3, 3, 2, 5)).astype(np.float32))
    conv_a = ad.conv2d(a, k, stride, "same")
    b = Tensor(rng.normal(size=conv_a.shape).astype(np.float32))
    lhs = float(np.sum(conv_a.data.astype(np.float64) * b.data))
    back = ad.deconv2d(b, k, stride, "same")
    assert back.shape == a.shape
    rhs = float(np.sum(a.data.astype(np.float64) * back.data))
    assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-4


@pytest.mark.parametrize("stride", [1, 2])
def test_deconv2d_gradcheck(stride):
    y = randt((1, 3, 3, 2), seed=30 + stride, scale=0.5)
    k = randt((3, 3, 4, 2), seed=40 + stride, scale=0.3)
    probe_gradcheck(lambda: ad.deconv2d(y, k, stride), [y, k])


# ---------------------------------------------------------------------------
# banded conv engine against the unbanded one it replaced, bit for bit

def _ref_gather(xp, kern, stride, oh, ow):
    # the whole padded input, one strided copy and one full product per tap
    b = xp.shape[0]
    kh, kw, ci, co = kern.shape
    out = np.zeros((b * oh * ow, co), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            sl = xp[:, i:i + (oh - 1) * stride + 1:stride,
                    j:j + (ow - 1) * stride + 1:stride, :]
            out += sl.reshape(b * oh * ow, ci) @ kern[i, j]
    return out.reshape(b, oh, ow, co)


def _ref_scatter_crop(y, kern, stride, pads, out_h, out_w):
    # scatter into the whole padded plane, then crop it
    pt, pb, pl, pr = pads
    b, oh, ow, co = y.shape
    kh, kw, ci, _ = kern.shape
    xp = np.zeros((b, out_h + pt + pb, out_w + pl + pr, ci), dtype=np.float32)
    yf = y.reshape(b * oh * ow, co)
    for i in range(kh):
        for j in range(kw):
            xp[:, i:i + (oh - 1) * stride + 1:stride,
               j:j + (ow - 1) * stride + 1:stride, :] += \
                (yf @ kern[i, j].T).reshape(b, oh, ow, ci)
    return xp[:, pt:pt + out_h, pl:pl + out_w, :]


def _ref_phase_scatter(y, kern, stride, pads, out_h, out_w):
    # per output phase (a, c) of the padded plane: the zero-padded input,
    # one product per tap over all of the phase's outputs, taps added in
    # the per-tap scatter's row-major order; then cropped
    pt, pb, pl, pr = pads
    s = stride
    b, h, w, co = y.shape
    kh, kw, ci, _ = kern.shape
    ph, pw = out_h + pt + pb, out_w + pl + pr
    yp = np.pad(y, ((0, 0), (kh, ph), (kw, pw), (0, 0)))
    plane = np.zeros((b, ph, pw, ci), dtype=np.float32)
    for a in range(s):
        for c in range(s):
            m, n = len(range(a, ph, s)), len(range(c, pw, s))
            acc = np.zeros((b * m * n, ci), dtype=np.float32)
            for i in range(a, kh, s):
                for j in range(c, kw, s):
                    # output a + s*r takes tap i from input r - (i - a) / s
                    r0, c0 = kh - (i - a) // s, kw - (j - c) // s
                    acc += yp[:, r0:r0 + m, c0:c0 + n].reshape(-1, co) @ kern[i, j].T
            plane[:, a::s, c::s] = acc.reshape(b, m, n, ci)
    return plane[:, pt:pt + out_h, pl:pl + out_w]


def _pads(h, w, k, stride, padding):
    oh, pt, pb = ad._out_and_pad(h, k, stride, padding)
    ow, pl, pr = ad._out_and_pad(w, k, stride, padding)
    return oh, ow, (pt, pb, pl, pr)


@pytest.mark.parametrize("band", [None, 16, 64])
@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("stride", [1, 2])
def test_banded_conv_engine_is_bit_exact(monkeypatch, stride, k, padding, band):
    bands = []
    if band is not None:
        # 16 flattened rows is 1-3 output rows here, so images are cut
        # into pieces; 64 often puts several whole images in one band
        monkeypatch.setattr(ad, "_BAND_ROWS", band)
        real = ad._bands
        monkeypatch.setattr(ad, "_bands", lambda *a: bands.append(real(*a)) or bands[-1])
    rng = np.random.default_rng(100 * stride + 10 * k + (padding == "same"))
    for b in (1, 3):
        for h, w in ((13, 9), (7, 10), (5, 6)):
            x = rng.normal(size=(b, h, w, 4)).astype(np.float32)
            kern = rng.normal(size=(k, k, 4, 6)).astype(np.float32)
            oh, ow, pads = _pads(h, w, k, stride, padding)
            xp = np.pad(x, ((0, 0), pads[:2], pads[2:], (0, 0)))
            xt = Tensor(x, True)
            conv = ad.conv2d(xt, Tensor(kern), stride, padding)
            assert np.array_equal(conv.data, _ref_gather(xp, kern, stride, oh, ow))
            g = rng.normal(size=conv.shape).astype(np.float32)
            dx = conv._vjp(g)[0]
            assert np.array_equal(dx, _ref_phase_scatter(g, kern, stride, pads, h, w))
            if conv.shape[1:3] != (1, 1):
                # a 1x1 gradient makes the per-tap reference's products one
                # row, which numpy runs as sgemv and rounds differently
                assert np.array_equal(dx, _ref_scatter_crop(g, kern, stride, pads, h, w))

            y = Tensor(rng.normal(size=(b, h, w, 6)).astype(np.float32), True)
            dec = ad.deconv2d(y, Tensor(kern), stride, padding)
            big_h, big_w = dec.shape[1:3]
            _, _, dpads = _pads(big_h, big_w, k, stride, padding)
            assert np.array_equal(
                dec.data, _ref_scatter_crop(y.data, kern, stride, dpads, big_h, big_w))
            assert np.array_equal(
                dec.data, _ref_phase_scatter(y.data, kern, stride, dpads, big_h, big_w))
            g = rng.normal(size=dec.shape).astype(np.float32)
            gp = np.pad(g, ((0, 0), dpads[:2], dpads[2:], (0, 0)))
            assert np.array_equal(dec._vjp(g)[0], _ref_gather(gp, kern, stride, h, w))
    if band == 16:
        assert any(len(bd) >= 3 and any(r0 > 0 for _, _, r0, _ in bd) for bd in bands)
    if band == 64:
        assert any(len(bd) >= 2 for bd in bands)


def test_bands_hold_whole_images_or_even_pieces_of_one():
    # 3 images of 4 rows, at most 9 rows a band: one image, then two
    assert ad._bands(3, 4, 9) == [(0, 1, 0, 4), (1, 3, 0, 4)]
    # 10 rows, at most 4 a band: 3 pieces of each image, 3 or 4 rows
    assert ad._bands(2, 10, 4) == [(n, n + 1, r0, r1) for n in range(2)
                                   for r0, r1 in ((0, 3), (3, 6), (6, 10))]
    assert ad._bands(1, 7, 0) == [(0, 1, r, r + 1) for r in range(7)]


# the outputs of the two-row thin cases, by (shape, stride, padding), at
# every band (see the test).  Computed with OpenBLAS 0.3.31's SkylakeX
# kernels: another sgemm kernel may round these small products otherwise
_THIN_PINS = {
    ((2, 1, 1), 1, "same"):
        "edce4411a5755651c076027b968ded7be5595df9d5c938378b53eb01dd05c7f4",
    ((2, 1, 1), 1, "valid"):
        "fede526c97ff703ebd44722c25fb410d57b9eab11234678b3f5f22db43c1b6cc",
    ((2, 1, 1), 2, "same"):
        "ae5fc957177c8c56b06c8ba30bd1298e6db152edb9ec0bfb7ac3b0773056d24a",
    ((2, 1, 1), 2, "valid"):
        "112de2b92e6b0d98cf41437ad0a09252d6dc0c172da432b9daf680b6e3e93a71",
}


@pytest.mark.parametrize("band", [None, 96])
@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("shape", [(1, 16, 48), (1, 1, 640), (2, 1, 1)],
                         ids=["16x48", "1x640", "2x1x1"])
def test_thin_deconv_takes_one_product_bit_exact(monkeypatch, shape, stride, padding, band):
    # final_up's kernel, 128 -> 3 channels over 5x5 taps: each output
    # phase is one stride-1 gather whose taps (at most 3x3, 27 stacked
    # columns) fit in the 128 input channels, so every band takes all its
    # taps in one product.  The inputs have 640 or more pixels, as any
    # final_up input of the codec has (1024 at the smallest image):
    # smaller ones send the reference's 3-column per-tap products to
    # OpenBLAS's small-matrix sgemm, which rounds differently.
    #
    # Pinned instead: a two-row input gives the phase products 2-18 rows,
    # which OpenBLAS's SkylakeX kernels run through the small-matrix sgemm
    # as well; they stay within 1.5e-6 of the per-tap reference.
    bands = []
    if band is not None:
        # 96 rows of 50 padded columns is one output row, under a stride-1
        # band's floor of 2 * kh rows, so each phase is cut at that floor
        monkeypatch.setattr(ad, "_BAND_ROWS", band)
    real = ad._bands
    monkeypatch.setattr(ad, "_bands", lambda *a: bands.append(real(*a)) or bands[-1])
    rng = np.random.default_rng(sum(shape) + 10 * stride + (padding == "same"))
    y = rng.normal(size=(*shape, 128)).astype(np.float32)
    kern = (rng.normal(size=(5, 5, 3, 128)) * 0.05).astype(np.float32)
    dec = ad.deconv2d(Tensor(y), Tensor(kern), stride, padding)
    big_h, big_w = dec.shape[1:3]
    _, _, pads = _pads(big_h, big_w, 5, stride, padding)
    pin = _THIN_PINS.get((shape, stride, padding))
    if pin is None:
        assert np.array_equal(dec.data, _ref_scatter_crop(y, kern, stride, pads, big_h, big_w))
    else:
        assert hashlib.sha256(dec.data.tobytes()).hexdigest() == pin
        ref = _ref_scatter_crop(y, kern, stride, pads, big_h, big_w)
        assert np.abs(dec.data - ref).max() <= 1.5e-6
    # one banded gather per phase
    assert len(bands) == stride ** 2
    if band is not None and shape == (1, 16, 48):
        assert all(len(bd) >= 2 for bd in bands)


@pytest.mark.parametrize("k, stride, c_in, c_out, h, w", [
    (5, 2, 128, 128, 32, 48), (3, 2, 64, 64, 64, 96), (3, 1, 128, 512, 16, 24),
    (3, 1, 512, 128, 16, 24), (2, 2, 128, 128, 32, 48)],
    ids=["5x5s2-128", "3x3s2-64", "3x3s1-128-512", "3x3s1-512-128", "2x2s2-128"])
def test_codec_width_deconvs_match_per_tap_scatter(k, stride, c_in, c_out, h, w):
    # deconvs at the channel widths of an n_main=128 codec (the main
    # synthesis, the side paths, the hyper synthesis' 3x3 layer either way
    # round, info_proj), from an (h, w, c_in) input.  Equal on OpenBLAS's
    # SkylakeX kernels; on its Haswell kernels a row's sgemm result depends
    # on the row's place in the product, so the phase products differ there
    rng = np.random.default_rng(k * 1000 + c_out)
    y = rng.normal(size=(1, h, w, c_in)).astype(np.float32)
    kern = (rng.normal(size=(k, k, c_out, c_in)) * 0.05).astype(np.float32)
    dec = ad.deconv2d(Tensor(y), Tensor(kern), stride, "same")
    _, _, pads = _pads(h * stride, w * stride, k, stride, "same")
    assert np.array_equal(
        dec.data, _ref_scatter_crop(y, kern, stride, pads, h * stride, w * stride))


@pytest.mark.parametrize("b, h, w, c_in, c_out, k", [
    (1, 64, 96, 3, 128, 5), (1, 32, 48, 128, 128, 5), (4, 64, 64, 3, 32, 5),
    (4, 32, 32, 32, 32, 5), (1, 16, 24, 128, 128, 2)],
    ids=["5x5s2-3-128", "5x5s2-128", "5x5s2-3-32-batch4", "5x5s2-32-batch4", "2x2s2-128"])
def test_codec_width_convs_match_per_tap_gather(b, h, w, c_in, c_out, k):
    # stride-2 gathers at the widths of an n_main=128 codec's analysis and
    # the zoo recipe's training batch: conv2d's forward pass, and deconv2d's
    # dy (final_up's at 3 -> 128), from a (b, h, w, c_in) plane.  Equal on
    # OpenBLAS's SkylakeX kernels
    rng = np.random.default_rng(k * 1000 + c_in + b)
    x = rng.normal(size=(b, h, w, c_in)).astype(np.float32)
    kern = (rng.normal(size=(k, k, c_in, c_out)) * 0.05).astype(np.float32)
    oh, ow, pads = _pads(h, w, k, 2, "same")
    xp = np.pad(x, ((0, 0), pads[:2], pads[2:], (0, 0)))
    ref = _ref_gather(xp, kern, 2, oh, ow)
    assert np.array_equal(ad.conv2d(Tensor(x), Tensor(kern), 2).data, ref)
    dec = ad.deconv2d(Tensor(np.zeros((b, oh, ow, c_out), np.float32), True), Tensor(kern), 2)
    assert np.array_equal(dec._vjp(x)[0], ref)


# ---------------------------------------------------------------------------
# bands over workers

def _per_workers(workers, fn, counts=(1, 2, 16)):
    """fn()'s arrays as bytes, run on each CPU count in turn (16 CPUs run
    the engine's two threads, as 2 do)."""
    out = []
    for n in counts:
        workers(n)
        out.append([a.tobytes() for a in fn()])
    return out


def _conv_arrays(stride, k, ci, co, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(2, 24, 20, ci)).astype(np.float32), True)
    y = Tensor(rng.normal(size=(2, 24, 20, co)).astype(np.float32), True)
    kern = Tensor((rng.normal(size=(k, k, ci, co)) * 0.1).astype(np.float32), True)
    conv, dec = ad.conv2d(x, kern, stride), ad.deconv2d(y, kern, stride)
    with ad.no_grad():
        untaped = [ad.conv2d(x, kern, stride).data, ad.deconv2d(y, kern, stride).data]
    return [conv.data, *conv._vjp(rng.normal(size=conv.shape).astype(np.float32)),
            dec.data, *dec._vjp(rng.normal(size=dec.shape).astype(np.float32)), *untaped]


@pytest.mark.parametrize("stride, k, ci, co", [
    (1, 3, 8, 6), (2, 5, 8, 6), (1, 3, 32, 2), (2, 5, 3, 32)],
    ids=["s1", "s2", "s1-thin-conv", "s2-thin-deconv"])
def test_conv_engine_bits_do_not_depend_on_the_worker_count(
        workers, monkeypatch, stride, k, ci, co):
    # taped and untaped forward outputs of conv2d and deconv2d and both
    # backward outputs of each; the thin cases take all taps in one product
    # in conv2d's forward and deconv2d's dy, or in deconv2d's forward and
    # conv2d's dx
    monkeypatch.setattr(ad, "_BAND_ROWS", 64)
    bands = []
    real = ad._bands
    monkeypatch.setattr(ad, "_bands", lambda *a: bands.append(real(*a)) or bands[-1])
    serial, *rest = _per_workers(workers, lambda: _conv_arrays(stride, k, ci, co, 7 * k + ci))
    assert all(r == serial for r in rest)
    assert max(map(len, bands)) >= 4


@pytest.mark.parametrize("inverse", [False, True])
def test_gdn_in_place_bits_do_not_depend_on_the_worker_count(workers, monkeypatch, inverse):
    monkeypatch.setattr(ad, "_BAND_ROWS", 64)  # 640 pixels: 10 bands
    x = randt((2, 16, 20, 8), seed=70, requires_grad=False)
    p = GdnParams.create(8, beta_init=0.7, gamma_init=0.2)

    def run():
        with ad.no_grad():
            return [ad.gdn_(Tensor(x.data.copy()), p, inverse).data]

    serial, *rest = _per_workers(workers, run)
    assert all(r == serial for r in rest)


def test_gdn_in_place_raises_what_the_serial_bands_raise(workers, monkeypatch):
    # 10 bands of 64 pixels.  gamma 10 makes 1e19 overflow in the channel
    # product ('cmatmul'), and an inf overflows 'square'.  With two
    # threads the helper's half holds bands 5-9
    monkeypatch.setattr(ad, "_BAND_ROWS", 64)
    p = GdnParams.create(8, gamma_init=10.0)
    clean = randt((2, 16, 20, 8), seed=71, requires_grad=False).data

    def gdn_with(*bad):
        x = Tensor(clean.copy())
        for pixel, value in bad:
            x.data.reshape(-1, 8)[pixel, 0] = value
        # the helper runs under this thread's errstate, so the overflow
        # warns nowhere, and a warning would fail the test
        with ad.no_grad(), np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            return ad.gdn_(x, p).data.tobytes()

    workers(1)
    serial = gdn_with()
    for n in (1, 2, 16):
        workers(n)
        with pytest.raises(NumericError, match="op 'square'"):
            gdn_with((639, np.inf))  # only the last band
        with pytest.raises(NumericError, match="op 'cmatmul'"):
            gdn_with((4 * 64, 1e19), (639, np.inf))
        # the next call runs as if nothing had failed
        assert gdn_with() == serial


def test_bands_call_ends_every_chunk_before_it_raises(workers):
    workers(2)
    ended = []

    def run(chunk, scratch):
        if chunk == [0]:
            raise NumericError("first band")
        time.sleep(0.2)
        ended.append(chunk)

    with pytest.raises(NumericError, match="first band"):
        ad._over_bands([0, 1], lambda chunk: None, run, ())
    assert ended == [[1]]


def _helper_starts(monkeypatch):
    """The threads started from now on, in the order they start."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or start(self))
    return started


def test_one_band_call_starts_no_helper_thread(workers, monkeypatch):
    workers(2)
    started = _helper_starts(monkeypatch)
    rng = np.random.default_rng(72)
    x = Tensor(rng.normal(size=(1, 8, 8, 4)).astype(np.float32), True)
    kern = Tensor(rng.normal(size=(3, 3, 4, 4)).astype(np.float32), True)
    for stride in (1, 2):
        for out in (ad.conv2d(x, kern, stride), ad.deconv2d(x, kern, stride)):
            out._vjp(np.ones(out.shape, np.float32))
    with ad.no_grad():
        ad.gdn_(Tensor(x.data.copy()), GdnParams.create(4))
    assert started == []
    monkeypatch.setattr(ad, "_BAND_ROWS", 16)
    with ad.no_grad():
        ad.gdn_(Tensor(x.data.copy()), GdnParams.create(4))
    assert len(started) == 1


def test_threaded_blas_keeps_the_bands_in_the_calling_thread(workers, monkeypatch):
    # a threaded sgemm already spreads each product over the cores
    workers(2)
    started = _helper_starts(monkeypatch)
    monkeypatch.setattr(ad, "_BAND_ROWS", 16)
    x = randt((1, 8, 8, 4), seed=74, requires_grad=False)
    with ad.no_grad():
        ad.gdn_(Tensor(x.data.copy()), GdnParams.create(4))
    assert len(started) == 1
    monkeypatch.setattr(ad, "_openblas_threads", lambda: 2)
    with ad.no_grad():
        ad.gdn_(Tensor(x.data.copy()), GdnParams.create(4))
        ad.conv2d(x, randt((3, 3, 4, 4), seed=75, requires_grad=False))
    assert len(started) == 1


def test_no_thread_outlives_a_call(workers, monkeypatch):
    # a multi-band conv (6 bands), a multi-band gdn_ (10 bands) and a gdn_
    # that fails in its last band, on the helper's half
    monkeypatch.setattr(ad, "_BAND_ROWS", 64)
    workers(2)
    x = randt((2, 16, 20, 8), seed=77, requires_grad=False)
    kern = randt((3, 3, 8, 8), seed=78, requires_grad=False)
    bad = Tensor(x.data.copy())
    bad.data.reshape(-1, 8)[639, 0] = np.inf
    before = threading.enumerate()
    started = _helper_starts(monkeypatch)
    with ad.no_grad():
        ad.conv2d(x, kern)
        assert threading.enumerate() == before
        ad.gdn_(Tensor(x.data.copy()), GdnParams.create(8))
        assert threading.enumerate() == before
        with pytest.raises(NumericError, match="op 'square'"):
            ad.gdn_(bad, GdnParams.create(8))
        assert threading.enumerate() == before
    assert len(started) == 3


def _gdn_in_ten_bands():
    # 10 bands of 64 pixels under _BAND_ROWS 64; the child process of the
    # next test runs the same lines
    x = np.random.default_rng(76).normal(size=(2, 16, 20, 8)).astype(np.float32)
    with ad.no_grad():
        return ad.gdn_(Tensor(x), GdnParams.create(8)).data.tobytes()


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_band_workers_follow_numpys_openblas_thread_count(blas_threads, workers, monkeypatch):
    # a child under OPENBLAS_NUM_THREADS runs a multi-band gdn_: a helper
    # starts under one BLAS thread (where the host has two CPUs) and none
    # under two, and either way the bytes are this process's serial ones
    if "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    code = "\n".join([
        "import hashlib, threading, numpy as np, c2f.autodiff as ad",
        "from c2f.autodiff import GdnParams, Tensor",
        "started, start = [], threading.Thread.start",
        "threading.Thread.start = lambda self: started.append(self) or start(self)",
        "ad._BAND_ROWS = 64",
        "x = np.random.default_rng(76).normal(size=(2, 16, 20, 8)).astype(np.float32)",
        "with ad.no_grad():",
        "    out = ad.gdn_(Tensor(x), GdnParams.create(8)).data.tobytes()",
        "print(ad._openblas_threads(), len(started), hashlib.sha256(out).hexdigest())"])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join([str(Path(ad.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    helpers = int(blas_threads == 1 and ad._CPUS > 1)
    monkeypatch.setattr(ad, "_BAND_ROWS", 64)
    workers(1)
    serial = hashlib.sha256(_gdn_in_ten_bands()).hexdigest()
    assert child.stdout.split() == [str(blas_threads), str(helpers), serial]


def test_forked_child_runs_multi_band_calls(workers, monkeypatch):
    # a child forked after multi-band calls starts helpers of its own and
    # gets the parent's bits
    monkeypatch.setattr(ad, "_BAND_ROWS", 64)
    workers(2)
    expected = _gdn_in_ten_bands()
    child = multiprocessing.get_context("fork").Process(
        target=lambda: os._exit(0 if _gdn_in_ten_bands() == expected else 1))
    child.start()
    try:
        child.join(timeout=60)
        assert child.exitcode == 0
    finally:
        child.kill()


# ---------------------------------------------------------------------------
# GDN

def test_gdn_identity_when_beta_one_gamma_zero():
    x = randt((1, 3, 3, 4), seed=7)
    p = GdnParams.create(4, beta_init=1.0, gamma_init=0.0)
    out = ad.gdn(x, p)
    np.testing.assert_allclose(out.data, x.data, rtol=2e-6)


def test_gdn_formula_matches_direct_computation():
    x = randt((2, 3, 3, 3), seed=8)
    p = GdnParams.create(3, beta_init=0.7, gamma_init=0.2)
    out = ad.gdn(x, p)
    beta = p.beta_values()
    gamma = p.gamma_values()
    den = np.sqrt(beta + np.einsum("ij,bhwj->bhwi", gamma, x.data.astype(np.float64) ** 2))
    np.testing.assert_allclose(out.data, x.data / den, rtol=1e-5)


def test_gdn_igdn_recovers_at_fixed_divisor():
    # with gamma = 0 the divisor is input-independent, so igdn(gdn(x)) == x
    x = randt((1, 2, 2, 5), seed=9)
    p = GdnParams.create(5, beta_init=2.5, gamma_init=0.0)
    back = ad.gdn(ad.gdn(x, p), p, inverse=True)
    np.testing.assert_allclose(back.data, x.data, rtol=1e-5)


def test_gdn_gradcheck():
    x = randt((1, 2, 2, 3), seed=11, scale=0.8)
    p = GdnParams.create(3)
    probe_gradcheck(lambda: ad.gdn(x, p), [x, p.beta_u, p.gamma_v])


def test_igdn_gradcheck():
    x = randt((1, 2, 2, 3), seed=12, scale=0.8)
    p = GdnParams.create(3)
    probe_gradcheck(lambda: ad.gdn(x, p, inverse=True), [x, p.beta_u, p.gamma_v])


def test_gdn_invariants_survive_optimizer_steps():
    x = randt((1, 4, 4, 3), seed=13)
    p = GdnParams.create(3)
    opt = Adam([p.beta_u, p.gamma_v], lr=0.05)
    for _ in range(25):
        opt.zero_grad()
        ad.sum_all(ad.square(ad.gdn(x, p))).backward()
        opt.step()
        assert np.all(p.beta_values() >= GdnParams.BETA_FLOOR)
        assert np.all(p.gamma_values() >= 0.0)


# ---------------------------------------------------------------------------
# space/depth

def test_space_to_depth_shape():
    x = randt((1, 4, 4, 2), seed=14)
    assert ad.space_to_depth(x).shape == (1, 2, 2, 8)


def test_space_to_depth_roundtrip_bitexact():
    x = randt((2, 6, 4, 3), seed=15)
    back = ad.depth_to_space(ad.space_to_depth(x))
    np.testing.assert_array_equal(back.data, x.data)


def test_depth_to_space_roundtrip_bitexact():
    x = randt((1, 3, 5, 8), seed=16)
    back = ad.space_to_depth(ad.depth_to_space(x))
    np.testing.assert_array_equal(back.data, x.data)


def test_space_to_depth_table_chain():
    # a 2c-channel map halves spatially into 8c channels
    c = 5
    x = randt((1, 8, 8, 2 * c), seed=17)
    out = ad.space_to_depth(x)
    assert out.shape == (1, 4, 4, 8 * c)


def test_space_to_depth_rejects_odd_dims():
    with pytest.raises(ContractViolation):
        ad.space_to_depth(randt((1, 3, 4, 2), 18))


def test_space_to_depth_gradcheck():
    x = randt((1, 4, 4, 2), seed=19)
    probe_gradcheck(lambda: ad.space_to_depth(x), [x])


# ---------------------------------------------------------------------------
# elementwise suite

def test_relu_values():
    x = Tensor(np.array([-1.0, 2.0, 0.0]).reshape(1, 1, 1, 3).astype(np.float32))
    np.testing.assert_array_equal(ad.relu(x).data.reshape(-1), [0.0, 2.0, 0.0])


def test_relu_in_place_gives_relu_bits():
    # maximum keeps -0.0; relu gives +0.0 there
    vals = np.array([-1.0, -0.0, 0.0, 2.5, -3e-38, 7.0], np.float32)
    x = Tensor(vals.reshape(1, 1, 2, 3))
    with ad.no_grad():
        out = ad.relu_(Tensor(x.data.copy()))
    assert out.data.tobytes() == ad.relu(x).data.tobytes()


def test_in_place_ops_refuse_a_recorded_op():
    a, b = randt((1, 2, 2, 3), 1), randt((1, 1, 1, 3), 2)
    p = GdnParams.create(3)
    for call in (lambda: ad.add_(a, b), lambda: ad.relu_(a), lambda: ad.gdn_(a, p)):
        with pytest.raises(ContractViolation, match="no tape"):
            call()
    with ad.no_grad():
        before = a.data.copy()
        assert ad.add_(a, b) is a
        assert np.array_equal(a.data, before + b.data)


def test_concat_from_an_iterator_drops_untaped_maps():
    a, b = randt((1, 2, 2, 3), 21), randt((1, 2, 2, 5), 22)
    with ad.no_grad():
        out = ad.concat_channels(iter([a, b]), 8)
    assert not out.requires_grad and out._parents == ()
    assert np.array_equal(out.data, np.concatenate([a.data, b.data], axis=3))
    taped = ad.concat_channels(iter([a, b]), 8)
    assert taped._parents == (a, b)
    with pytest.raises(ContractViolation):
        ad.concat_channels(iter([a, b]), 9)
    with pytest.raises(ContractViolation):
        ad.concat_channels(iter([a, b]), 7)


def test_mse_zero_on_identical():
    x = randt((1, 3, 3, 2), seed=20)
    assert ad.mse(x, x).item() == 0.0


def test_concat_shapes():
    a, b = randt((1, 2, 2, 3), 21), randt((1, 2, 2, 5), 22)
    assert ad.concat_channels([a, b]).shape == (1, 2, 2, 8)


def test_concat_mismatch():
    with pytest.raises(ContractViolation):
        ad.concat_channels([randt((1, 2, 2, 3), 0), randt((1, 3, 2, 5), 1)])


def test_l2_norm_value():
    x = Tensor(np.full((1, 1, 1, 4), 2.0, dtype=np.float32))
    assert ad.l2_norm(x).item() == pytest.approx(4.0, rel=1e-6)


@pytest.mark.parametrize("op,args,seed,scale", [
    (ad.relu, (), 30, 1.0),     # values away from the kink with this seed
    (ad.exp, (), 31, 0.5),
    (ad.sqrt, (), 32, 0.0),     # positive shift applied below
    (ad.ndtr, (), 33, 1.0),
    (lambda t: ad.powc(t, 3.0), (), 34, 0.5),
    (lambda t: ad.clamp(t, -0.4, 0.4), (), 35, 1.0),
])
def test_elementwise_gradcheck(op, args, seed, scale):
    x = randt((1, 2, 2, 3), seed=seed, scale=scale or 1.0)
    if op is ad.sqrt:
        x = Tensor(np.abs(x.data) + 1.0, requires_grad=True)
    if op is ad.relu or (hasattr(op, "__name__") and op.__name__ == "<lambda>"):
        # keep entries away from non-differentiable points
        d = x.data.copy()
        d[np.abs(d) < 0.05] += 0.2
        d[np.abs(np.abs(d) - 0.4) < 0.05] += 0.15
        x = Tensor(d, requires_grad=True)
    probe_gradcheck(lambda: op(x, *args), [x])


def test_ndtr64_equals_scipy_ndtr_bit_for_bit():
    rng = np.random.default_rng(40)
    seeded = np.concatenate([rng.normal(0, 1, 100000), rng.normal(0, 10, 100000),
                             rng.uniform(-40, 40, 100000)])
    # each side of every branch edge: |a| = 1 (erf / erfc), sqrt2 (erfc's own
    # 1 - erf below 1), 8 sqrt2 (the second rational form) and the underflow
    edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * ad._MAXLOG)]
    steps = np.arange(-16, 17)
    near = np.concatenate([e + steps * np.spacing(e) for e in edges])
    a = np.concatenate([seeded, near, -near, [0.0, -0.0, np.inf, -np.inf, 1e300, -1e300]])
    np.testing.assert_array_equal(ad.ndtr64(a).view(np.int64), special.ndtr(a).view(np.int64))
    below = ad.ndtr64(-near[-steps.size:])
    assert (below == 0.0).any() and (below > 0.0).any()  # the underflow edge is straddled


def test_ndtr64_nan_is_nan_and_the_op_refuses_it():
    assert np.isnan(ad.ndtr64(np.array([0.5, np.nan]))).tolist() == [False, True]
    x = Tensor(np.zeros((1, 1, 1, 2), np.float32))
    x.data[0, 0, 0, 1] = np.nan
    with pytest.raises(NumericError, match="op 'ndtr'"):
        ad.ndtr(x)


def test_binary_ops_gradcheck():
    a = randt((1, 2, 2, 3), seed=36)
    b = Tensor(np.abs(randt((1, 2, 2, 3), 37).data) + 1.0, requires_grad=True)
    probe_gradcheck(lambda: ad.add(ad.mul(a, b), ad.div(a, b)), [a, b])
    probe_gradcheck(lambda: ad.sub(ad.neg(a), ad.div(b, ad.add_const(a, 4.0))), [a, b])


def test_broadcast_bias_gradcheck():
    x = randt((2, 3, 3, 4), seed=38)
    bias = randt((1, 1, 1, 4), seed=39)
    probe_gradcheck(lambda: ad.add(x, bias), [x, bias])


def test_mse_l2_gradcheck():
    a = randt((1, 2, 2, 2), seed=40)
    b = randt((1, 2, 2, 2), seed=41)
    assert_grads_close(lambda: ad.mse(a, b), [a, b], rtol=1e-3)
    assert_grads_close(lambda: ad.l2_norm(ad.sub(a, b)), [a, b], rtol=1e-3)


def test_avg_pool2_gradcheck():
    x = randt((1, 5, 4, 2), seed=42)
    probe_gradcheck(lambda: ad.avg_pool2(x), [x])


# ---------------------------------------------------------------------------
# backward pass

def test_backward_sum_gives_ones():
    x = randt((2, 3, 3, 2), seed=50)
    ad.sum_all(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones_like(x.data))


def test_backward_composite_conv_gdn_mse():
    x = randt((1, 4, 4, 2), seed=51, scale=0.7)
    k = randt((3, 3, 2, 3), seed=52, scale=0.4)
    p = GdnParams.create(3)
    target = randt((1, 4, 4, 3), seed=53, requires_grad=False)

    def f():
        return ad.mse(ad.gdn(ad.conv2d(x, k), p), target)

    assert_grads_close(f, [x, k, p.beta_u, p.gamma_v], rtol=1e-3)


def test_backward_deterministic_bitwise():
    def run():
        x = randt((1, 4, 4, 2), seed=54)
        k = randt((3, 3, 2, 3), seed=55, scale=0.4)
        p = GdnParams.create(3)
        ad.sum_all(ad.square(ad.gdn(ad.conv2d(x, k, 2), p))).backward()
        return [t.grad.copy() for t in (x, k, p.beta_u, p.gamma_v)]

    for a, b in zip(run(), run()):
        np.testing.assert_array_equal(a, b)


def test_backward_requires_scalar():
    x = randt((1, 2, 2, 2), seed=56)
    with pytest.raises(ContractViolation):
        ad.square(x).backward()


def test_shared_subgraph_accumulates():
    x = randt((1, 1, 1, 3), seed=57)
    y = ad.add(x, x)
    ad.sum_all(y).backward()
    np.testing.assert_allclose(x.grad, 2 * np.ones_like(x.data))


# ---------------------------------------------------------------------------
# no_grad across threads

def _records(x: Tensor) -> bool:
    return ad.square(x).requires_grad


def _in_thread(target):
    errors = []

    def run():
        try:
            target()
        except Exception as exc:  # reported by _join in the test thread
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    return thread, errors


def _join(*pairs):
    for thread, errors in pairs:
        thread.join(timeout=10)
        assert not thread.is_alive(), "worker thread hung"
        assert not errors, errors


def test_no_grad_disables_recording_and_nests():
    x = randt((1, 1, 1, 2), seed=58)
    with ad.no_grad():
        with ad.no_grad():
            assert not _records(x)
        assert not _records(x)
    assert _records(x)


def test_no_grad_overlapping_threads_leave_recording_on():
    # enter A, enter B, exit A, exit B: with a process-wide flag B would
    # restore the False it saved and recording would stay off for good
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()

    def thread_a():
        with ad.no_grad():
            a_in.set()
            assert b_in.wait(10)
        a_out.set()

    def thread_b():
        assert a_in.wait(10)
        with ad.no_grad():
            b_in.set()
            assert a_out.wait(10)

    _join(_in_thread(thread_a), _in_thread(thread_b))
    assert _records(randt((1, 1, 1, 2), seed=59))


def test_no_grad_in_one_thread_does_not_stop_another():
    inside, release = threading.Event(), threading.Event()
    seen = []

    def worker():
        with ad.no_grad():
            seen.append(_records(randt((1, 1, 1, 2), seed=61)))
            inside.set()
            assert release.wait(10)

    pair = _in_thread(worker)
    try:
        assert inside.wait(10)
        assert _records(randt((1, 1, 1, 2), seed=62))
    finally:
        release.set()
        _join(pair)
    assert seen == [False]


# ---------------------------------------------------------------------------
# adam

def test_adam_zero_grad_no_move():
    p = randt((1, 1, 1, 3), seed=60)
    before = p.data.copy()
    opt = Adam([p], lr=0.1)
    p.grad = np.zeros_like(p.data)
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_adam_first_step_bias_corrected():
    p = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32), requires_grad=True)
    opt = Adam([p], lr=0.1)
    p.grad = np.ones_like(p.data)
    opt.step()
    # mhat = 1, vhat = 1 -> step = -lr / (1 + eps)
    assert p.item() == pytest.approx(-0.1 / (1.0 + 1e-8), rel=1e-6)


def test_adam_two_steps_match_closed_form():
    lr, b1, b2, eps = 0.05, ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    g1, g2 = 1.0, -0.5
    p = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32), requires_grad=True)
    opt = Adam([p], lr=lr)
    for g in (g1, g2):
        p.grad = np.full_like(p.data, g)
        opt.step()

    # independent closed-form recurrence in float64
    m = v = 0.0
    x = 0.0
    for t, g in enumerate((g1, g2), start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    assert p.item() == pytest.approx(x, rel=1e-5)
    st = opt.state[0]
    assert st["m"][0, 0, 0, 0] == pytest.approx(m, rel=1e-5)
    assert st["v"][0, 0, 0, 0] == pytest.approx(v, rel=1e-5)


# ---------------------------------------------------------------------------
# property tests

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_space_depth_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    b, h, w, c = (int(rng.integers(1, 3)), 2 * int(rng.integers(1, 4)),
                  2 * int(rng.integers(1, 4)), int(rng.integers(1, 5)))
    x = Tensor(rng.normal(size=(b, h, w, c)).astype(np.float32))
    np.testing.assert_array_equal(ad.depth_to_space(ad.space_to_depth(x)).data, x.data)


@pytest.mark.parametrize("seed", range(5))
def test_gradcheck_seed_sweep_conv_chain(seed):
    x = randt((1, 4, 4, 2), seed=100 + seed, scale=0.6)
    k1 = randt((3, 3, 2, 4), seed=200 + seed, scale=0.4)
    k2 = randt((3, 3, 4, 2), seed=300 + seed, scale=0.4)

    probe_gradcheck(lambda: ad.conv2d(ad.relu(ad.conv2d(x, k1, 2)), k2),
                    [x, k1, k2], probe_seed=400 + seed)
