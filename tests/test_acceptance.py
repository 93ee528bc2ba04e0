"""Acceptance gate: one test per criterion, each printing a PASS line.

The trained-model criteria (5-7) share the cached toy zoo session fixture;
the first run trains it (several minutes per model), later runs reuse it.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

import c2f.autodiff as ad
import c2f.codec as codec
import c2f.entropy as ent
import c2f.evaluation as ev
import c2f.rangecoder as rc
import c2f.training as tr
from c2f.autodiff import GdnParams, Tensor
from c2f.evaluation import RdCurve, RdPoint
from c2f.transforms import FINAL_UP_INIT_GAIN, ArchConfig, CodecModel

from gradcheck import probe_gradcheck, rel_error
from zoo import ZOO_LAMBDAS, heldout_images

pytestmark = pytest.mark.acceptance


def report(num, name):
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


def encode_checked(model, img):
    """Every acceptance encode asserts the rate bound (criterion 2)."""
    res = codec.encode_array(model, img)
    assert res.stream_bits <= res.modeled_bits + 256 + 0.001 * res.modeled_bits, (
        f"coder output {res.stream_bits} bits exceeds modeled "
        f"{res.modeled_bits:.1f} + 256 + 0.1%")
    return res


# ---------------------------------------------------------------------------

def test_criterion_01_lossless_coding_property_suite():
    """10^4 randomized (symbols, tables) roundtrips, zero mismatches, <60s.

    Every row has the coder's one form: the 256 alphabet bins, then the
    escape bin.  Symbols are uniform over the alphabet, and one in ten is
    an int32 drawn uniformly, which almost always escapes."""
    rng = np.random.default_rng(0xC2F)
    i32 = np.iinfo(np.int32)
    nbins = rc.ALPHABET_MAX - rc.ALPHABET_MIN + 2
    t0 = time.monotonic()
    cases = 0
    for i in range(10_000):
        kind = i % 10
        if kind < 2:  # extreme skew: one bin, perhaps the escape, holds all but 256 counts
            freqs = np.ones(nbins, dtype=np.int64)
            freqs[int(rng.integers(nbins))] = rc.CDF_TOTAL - (nbins - 1)
            cum = np.concatenate([[0], np.cumsum(freqs)])[None]
            index = [0] * int(rng.integers(0, 40))  # one row for every symbol
        else:
            cum = np.full((int(rng.integers(0, 18)), nbins + 1), rc.CDF_TOTAL)
            cum[:, 0] = 0
            for row in cum:
                row[1:-1] = np.sort(rng.choice(rc.CDF_TOTAL - 1, nbins - 1, replace=False) + 1)
            index = range(len(cum))  # a row of its own for each symbol
        tables = rc.TableRows(cum, index)
        values = rng.integers(rc.ALPHABET_MIN, rc.ALPHABET_MAX + 1, len(tables))
        escape = rng.random(values.size) < 0.1
        values[escape] = rng.integers(i32.min, i32.max, escape.sum(), endpoint=True)
        symbols = values.tolist()
        data = rc.encode(symbols, tables)
        assert rc.decode(data, tables, len(symbols)).tolist() == symbols
        cases += 1
    elapsed = time.monotonic() - t0
    assert cases == 10_000
    assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"
    report(1, f"lossless coding ({cases} cases in {elapsed:.1f}s)")


def test_criterion_02_rate_bound_on_encodes():
    """Coder output <= modeled cross-entropy + 256 bits + 0.1%."""
    rng = np.random.default_rng(7)
    checked = 0
    for seed in range(3):
        model = CodecModel(ArchConfig(n_main=8, c_y=8, c_z=4),
                           lambda_tag=seed, seed=seed)
        for size in ((64, 64), (64, 128), (50, 70)):
            base = np.linspace(0, 255, size[1])[None, :, None]
            img = np.clip(base + rng.normal(0, 20, size + (3,)), 0, 255).astype(np.uint8)
            encode_checked(model, img)
            checked += 1
    report(2, f"rate bound held on {checked} encodes")


def test_criterion_03_likelihood_correctness():
    center = ent.gaussian_bin_prob(0.0, 0.0, 1.0)
    oracle = math.erf(0.5 / math.sqrt(2.0))  # independent high-precision erf
    assert abs(float(center) - 0.3829249) < 1e-6
    assert abs(float(center) - oracle) < 1e-12
    k = np.arange(-1000, 1001, dtype=np.float64)
    for sigma in (0.05, 1.0, 64.0):
        total = float(ent.gaussian_bin_prob(k, 0.0, sigma).sum())
        assert abs(total - 1.0) < 1e-9, f"sigma={sigma}: sum {total}"
    report(3, "discretized Gaussian likelihoods")


def test_criterion_04_gradient_suite():
    """Every op passes FD checks at 1e-3; the full loss probe at 1e-2."""
    rng = np.random.default_rng(1)

    def t(shape, scale=0.5, shift=0.0):
        return Tensor((rng.normal(0, scale, shape) + shift).astype(np.float32),
                      requires_grad=True)

    x = t((1, 8, 8, 2))
    k = t((3, 3, 2, 3), 0.3)
    probe_gradcheck(lambda: ad.conv2d(x, k, 2, "same"), [x, k])
    y = t((1, 3, 3, 2))
    dk = t((3, 3, 4, 2), 0.3)
    probe_gradcheck(lambda: ad.deconv2d(y, dk, 2, "same"), [y, dk])
    g = t((1, 2, 2, 3), 0.8)
    gp = GdnParams.create(3)
    probe_gradcheck(lambda: ad.gdn(g, gp), [g, gp.beta_u, gp.gamma_v])
    probe_gradcheck(lambda: ad.gdn(g, gp, inverse=True), [g, gp.beta_u, gp.gamma_v])
    s = t((1, 4, 4, 2))
    probe_gradcheck(lambda: ad.space_to_depth(s), [s])
    d8 = t((1, 2, 2, 8))
    probe_gradcheck(lambda: ad.depth_to_space(d8), [d8])
    a = t((1, 2, 2, 3), shift=0.7)
    b = t((1, 2, 2, 3), shift=2.0)
    probe_gradcheck(lambda: ad.add(ad.mul(a, b), ad.div(a, b)), [a, b])
    probe_gradcheck(lambda: ad.relu(t((1, 2, 2, 4), shift=0.4)), [])
    p = t((1, 2, 2, 3), 0.4, shift=2.0)
    probe_gradcheck(lambda: ad.exp(ad.mul_const(p, 0.5)), [p])
    probe_gradcheck(lambda: ad.log(p), [p])
    probe_gradcheck(lambda: ad.sqrt(p), [p])
    probe_gradcheck(lambda: ad.powc(p, 1.7), [p])
    probe_gradcheck(lambda: ad.ndtr(a), [a])
    probe_gradcheck(lambda: ad.clamp(b, 0.5, 10.0), [b])
    probe_gradcheck(lambda: ad.concat_channels([a, b]), [a, b])
    probe_gradcheck(lambda: ad.channel_slice(b, 1, 3), [b])
    probe_gradcheck(lambda: ad.avg_pool2(t((1, 4, 4, 2))), [])
    m = t((1, 1, 3, 3), 0.5)
    probe_gradcheck(lambda: ad.cmatmul(a, m), [a, m])
    from gradcheck import assert_grads_close
    q = t((1, 2, 2, 2))
    r = t((1, 2, 2, 2))
    assert_grads_close(lambda: ad.mse(q, r), [q, r])
    assert_grads_close(lambda: ad.l2_norm(ad.sub(q, r)), [q, r])

    # composed R + lambda*D loss: directional probe over 5 random parameter
    # tensors at 1e-2, quantization noise replayed from its seed
    model = CodecModel(ArchConfig(n_main=8, c_y=8, c_z=4), seed=2)
    # probe where the decoder output responds at plain fan-in scale: at the
    # mid-gray init the loss is nearly flat in the decoder-side tensors, so
    # the float32 secant below cannot resolve their derivative to 1e-2
    model.final_up.kernel.data /= FINAL_UP_INIT_GAIN
    batch = (tr.synthetic_patch(np.random.default_rng(2024), 64)
             .astype(np.float32) / 255.0)[None]
    seed = [11, 22]

    def loss_value():
        return tr.rd_loss(model, batch, 0.01, np.random.default_rng(seed),
                          lif_weight=0.05).loss_value

    out = tr.rd_loss(model, batch, 0.01, np.random.default_rng(seed), lif_weight=0.05)
    for param in model.param_list():
        param.grad = None
    out.loss.backward()
    named = sorted(model.named_params().items())
    pick_rng = np.random.default_rng(33)
    chosen = [named[int(i)] for i in pick_rng.choice(len(named), size=5, replace=False)]
    dirs = [pick_rng.normal(size=t.data.shape).astype(np.float32) for _, t in chosen]
    dirs = [d / np.linalg.norm(d) for d in dirs]
    analytic = sum(float(np.sum(t.grad * d)) for (_, t), d in zip(chosen, dirs))
    # epsilon large enough that the float32 ulp of the loss value is
    # negligible against the secant difference
    eps = 1e-2
    for (_, t), d in zip(chosen, dirs):
        t.data += eps * d
    hi = loss_value()
    for (_, t), d in zip(chosen, dirs):
        t.data -= 2 * eps * d
    lo = loss_value()
    for (_, t), d in zip(chosen, dirs):
        t.data += eps * d
    fd = (hi - lo) / (2 * eps)
    err = abs(fd - analytic) / max(abs(fd), abs(analytic))
    assert err <= 1e-2, f"full-loss probe mismatch {err:.2e}"
    report(4, "gradient suite (ops at 1e-3, full loss at 1e-2)")


# ---------------------------------------------------------------------------
# trained-model criteria

def test_criterion_05_end_to_end_codec_integrity(toy_zoo, tmp_path):
    model = toy_zoo.load(0.03)
    model_path = toy_zoo.model_path(0.03)
    images = heldout_images(10)
    psnrs = []
    for i, img in enumerate(images):
        res = encode_checked(model, img)
        out = codec.decode_array(model, res.data)
        assert out.latent_digest == res.latent_digest, f"image {i}: latents differ"
        value = ev.psnr(img, out.image)
        assert math.isfinite(value)
        psnrs.append(value)

    # a fresh process reading the container reproduces the image exactly
    from c2f.imageio import read_image, write_image
    img = images[0]
    img_path = tmp_path / "held0.png"
    write_image(img_path, img)
    container = tmp_path / "held0.c2f"
    container.write_bytes(encode_checked(model, img).data)
    in_process = codec.decode_array(model, container.read_bytes()).image
    out_png = tmp_path / "held0_fresh.png"
    proc = subprocess.run(
        [sys.executable, "-m", "c2f.cli", "decode", "--model", str(model_path),
         "--input", str(container), "--output", str(out_png)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    np.testing.assert_array_equal(read_image(out_png), in_process)
    report(5, f"codec integrity on 10 images (mean psnr {np.mean(psnrs):.1f} dB)")


def test_criterion_06_rd_monotonicity(toy_zoo):
    images = heldout_images(10)
    points = []
    for lam in ZOO_LAMBDAS:
        model = toy_zoo.load(lam)
        bpps, psnrs = [], []
        for img in images:
            res = encode_checked(model, img)
            out = codec.decode_array(model, res.data)
            bpps.append(ev.bpp(len(res.data), img.shape[1], img.shape[0]))
            psnrs.append(ev.psnr(img, out.image))
        points.append((lam, float(np.mean(bpps)), float(np.mean(psnrs))))
    inversions = 0
    for (_, b0, p0), (_, b1, p1) in zip(points, points[1:]):
        if b1 < b0 or p1 < p0:
            inversions += 1
    detail = "  ".join(f"l={lam}: {b:.3f}bpp/{p:.1f}dB" for lam, b, p in points)
    assert inversions <= 1, f"{inversions} inversions across {detail}"
    report(6, f"R-D monotonicity ({detail}; {inversions} inversion(s))")


def test_criterion_07_compression_beats_identity(toy_zoo):
    model = toy_zoo.load(0.03)
    images = heldout_images(10)
    bpps, psnrs = [], []
    for img in images:
        res = encode_checked(model, img)
        out = codec.decode_array(model, res.data)
        bpps.append(ev.bpp(len(res.data), img.shape[1], img.shape[0]))
        psnrs.append(ev.psnr(img, out.image))
    mean_bpp, mean_psnr = float(np.mean(bpps)), float(np.mean(psnrs))
    assert mean_bpp < 2.4, f"bpp {mean_bpp:.3f} not under 2.4"
    assert mean_psnr > 25.0, f"psnr {mean_psnr:.2f} not above 25 dB"
    report(7, f"compression floor (bpp {mean_bpp:.3f} < 2.4, psnr {mean_psnr:.1f} > 25)")


# ---------------------------------------------------------------------------

def test_criterion_08_bd_rate_engine():
    anchor = RdCurve("anchor", [RdPoint(b, d) for b, d in
                                [(0.25, 30.0), (0.5, 33.0), (0.8, 35.0),
                                 (1.2, 36.8), (1.8, 38.5)]])
    assert ev.bd_rate(anchor, anchor, (0.4, 1.15)) == 0.0
    doubled = RdCurve("double", [RdPoint(2 * p.bpp, p.distortion)
                                 for p in anchor.points])
    assert abs(ev.bd_rate(anchor, doubled, (0.4, 1.15)) - 100.0) < 1e-9

    # quadrature oracle on the same interpolant
    from scipy.interpolate import PchipInterpolator
    test_c = RdCurve("t", [RdPoint(b, d) for b, d in
                           [(0.3, 30.5), (0.55, 33.2), (0.9, 35.4),
                            (1.3, 37.0), (1.9, 38.6)]])
    got = ev.bd_rate(anchor, test_c, (0.4, 1.15))
    ra, da = anchor.arrays()
    rt, dt = test_c.arrays()
    fa = PchipInterpolator(da, np.log2(ra))
    ft = PchipInterpolator(dt, np.log2(rt))
    inv_a = PchipInterpolator(np.log2(ra), da)
    inv_t = PchipInterpolator(np.log2(rt), dt)
    d_lo = max(float(inv_a(math.log2(0.4))), float(inv_t(math.log2(0.4))))
    d_hi = min(float(inv_a(math.log2(1.15))), float(inv_t(math.log2(1.15))))
    grid = np.linspace(d_lo, d_hi, 40001)
    expected = (2.0 ** ((np.trapezoid(ft(grid), grid) - np.trapezoid(fa(grid), grid))
                        / (d_hi - d_lo)) - 1.0) * 100.0
    assert abs(got - expected) < 0.1

    # digitized published-figure fixture
    bpg = RdCurve("bpg", [RdPoint(b, d) for b, d in
                          [(0.25, 29.9), (0.40, 31.8), (0.62, 33.6),
                           (0.93, 35.5), (1.20, 36.7), (1.55, 38.1)]])
    ours = RdCurve("ours", [RdPoint(b, d) for b, d in
                            [(0.2275, 29.9), (0.3654, 31.8), (0.5592, 33.6),
                             (0.8420, 35.5), (1.0898, 36.7), (1.4122, 38.1)]])
    value = ev.bd_rate(bpg, ours, (0.4, 1.15))
    assert abs(value - (-9.38)) < 2.0, f"fixture BD-rate {value:.2f} vs -9.38 +- 2"
    report(8, f"BD-rate engine (fixture {value:+.2f}% vs published -9.38%)")


def test_criterion_09_architecture_audit():
    arch = ArchConfig(n_main=8, c_y=8, c_z=4)
    model = CodecModel(arch, seed=3)
    rng = np.random.default_rng(4)

    def tuples(descs):
        return [(d["kind"], d["kernel"], d["stride"], d["in_ch"], d["out_ch"],
                 d["activation"]) for d in descs]

    for net, c, cp in ((model.hyper_analysis_1, 8, 8),
                       (model.hyper_analysis_2, 8, 4)):
        assert tuples(net.describe()) == [
            ("conv", 3, 1, c, 2 * c, "linear"),
            ("space_to_depth", None, None, 2 * c, 8 * c, None),
            ("conv", 1, 1, 8 * c, 4 * c, "relu"),
            ("conv", 1, 1, 4 * c, 4 * c, "relu"),
            ("conv", 1, 1, 4 * c, cp, "linear")]
    for net, c, cp in ((model.hyper_synthesis_1, 8, 8),
                       (model.hyper_synthesis_2, 8, 4)):
        assert tuples(net.describe()) == [
            ("deconv", 1, 1, cp, 4 * c, "linear"),
            ("depth_to_space", None, None, 4 * c, c, None),
            ("deconv", 1, 1, c, 4 * c, "relu"),
            ("deconv", 1, 1, 4 * c, 4 * c, "relu"),
            ("deconv", 3, 1, 4 * c, c, "linear")]

    sizes = set()
    while len(sizes) < 5:
        sizes.add((int(rng.integers(1, 5)) * 64, int(rng.integers(1, 5)) * 64))
    for h, w in sizes:
        img = Tensor(rng.uniform(0, 1, (1, h, w, 3)).astype(np.float32))
        with ad.no_grad():
            x = model.analysis(img)
            y = model.hyper_analysis(x, 1)
            z = model.hyper_analysis(y, 2)
        assert x.shape == (1, h // 16, w // 16, 8)
        assert y.shape == (1, h // 32, w // 32, 8)
        assert z.shape == (1, h // 64, w // 64, 4)
    report(9, f"architecture audit (hyper tables + ladder on {len(sizes)} sizes)")


def test_criterion_10_ms_ssim_reference():
    assert ev.ms_ssim_db(0.9) == 10.0
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    from test_evaluation import reference_ms_ssim, smooth_pair
    worst = 0.0
    for seed, noise in ((30, 4.0), (31, 12.0), (32, 25.0), (33, 45.0), (34, 80.0)):
        a, b = smooth_pair(seed, noise=noise)
        ours = ev.ms_ssim(a, b)
        ref = reference_ms_ssim(a, b)
        worst = max(worst, abs(ours - ref))
        assert abs(ours - ref) < 1e-4
    report(10, f"MS-SSIM vs reference (max |diff| {worst:.2e})")
