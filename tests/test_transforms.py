import hashlib
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import c2f.autodiff as ad
import c2f.weights as wts
from c2f.autodiff import Tensor
from c2f.entropy import SIGMA_MIN
from c2f.errors import ContractViolation, FormatError
from c2f.transforms import ArchConfig, CodecModel, ConvLayer

from gradcheck import assert_grads_close

ARCH = ArchConfig(n_main=8, c_y=8, c_z=4)


@pytest.fixture(scope="module")
def model():
    return CodecModel(ARCH, lambda_tag=300, seed=0)


def image(h, w, seed=0, b=1):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(0, 1, (b, h, w, 3)).astype(np.float32))


# ---------------------------------------------------------------------------
# shape ladder

def test_analysis_shape(model):
    out = model.analysis(image(64, 64))
    assert out.shape == (1, 4, 4, ARCH.n_main)


def test_analysis_rejects_unpadded(model):
    with pytest.raises(ContractViolation):
        model.analysis(image(60, 64))


def test_analysis_pixels_contract(model):
    # uint8 pixels are read as float32 / 255, and only where no tape records
    pixels = np.random.default_rng(1).integers(0, 256, (1, 64, 128, 3), dtype=np.uint8)
    with ad.no_grad():
        out = model.analysis(pixels)
        assert out.data.tobytes() == \
            model.analysis(Tensor(pixels.astype(np.float32) / 255.0)).data.tobytes()
        for bad in (pixels.astype(np.float32), pixels[0], pixels[:, :60]):
            with pytest.raises(ContractViolation):
                model.analysis(bad)
    with pytest.raises(ContractViolation, match="tape"):
        model.analysis(pixels)


def test_zero_image_finite(model):
    out = model.analysis(Tensor(np.zeros((1, 64, 64, 3), np.float32)))
    assert np.all(np.isfinite(out.data))


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (3, 2), (2, 3)])
def test_full_ladder_shapes(model, m, n):
    img = image(64 * m, 64 * n, seed=m * 7 + n)
    x = model.analysis(img)
    y = model.hyper_analysis(x, 1)
    z = model.hyper_analysis(y, 2)
    assert x.shape == (1, 4 * m, 4 * n, ARCH.n_main)
    assert y.shape == (1, 2 * m, 2 * n, ARCH.c_y)
    assert z.shape == (1, m, n, ARCH.c_z)
    assert model.latent_shapes(64 * m, 64 * n) == (x.shape, y.shape, z.shape)


def test_hyper_synthesis_shapes(model):
    y = Tensor(np.random.default_rng(1).normal(size=(1, 2, 2, ARCH.c_y)).astype(np.float32))
    z = Tensor(np.random.default_rng(2).normal(size=(1, 1, 1, ARCH.c_z)).astype(np.float32))
    assert model.hyper_synthesis(y, 1).shape == (1, 4, 4, ARCH.n_main)
    assert model.hyper_synthesis(z, 2).shape == (1, 2, 2, ARCH.c_y)


@pytest.mark.parametrize("stage, level", [
    ("hyper_analysis", 1), ("hyper_analysis", 2),
    ("hyper_synthesis", 1), ("hyper_synthesis", 2),
    ("predict_params", "x"), ("predict_params", "y")])
def test_hyper_channel_contract(model, stage, level):
    # 5 channels is no stage's width (8 or 4); the stage's first layer refuses it
    bad = Tensor(np.zeros((1, 4, 4, 5), np.float32))
    with pytest.raises(ContractViolation):
        getattr(model, stage)(bad, level)


# ---------------------------------------------------------------------------
# signal-preserving hyper transform structure

def expected_hyper_analysis(c, cp):
    return [
        ("conv", 3, 1, c, 2 * c, "linear"),
        ("space_to_depth", None, None, 2 * c, 8 * c, None),
        ("conv", 1, 1, 8 * c, 4 * c, "relu"),
        ("conv", 1, 1, 4 * c, 4 * c, "relu"),
        ("conv", 1, 1, 4 * c, cp, "linear"),
    ]


def expected_hyper_synthesis(c, cp):
    return [
        ("deconv", 1, 1, cp, 4 * c, "linear"),
        ("depth_to_space", None, None, 4 * c, c, None),
        ("deconv", 1, 1, c, 4 * c, "relu"),
        ("deconv", 1, 1, 4 * c, 4 * c, "relu"),
        ("deconv", 3, 1, 4 * c, c, "linear"),
    ]


def as_tuples(descs):
    return [(d["kind"], d["kernel"], d["stride"], d["in_ch"], d["out_ch"], d["activation"])
            for d in descs]


@pytest.mark.parametrize("level,c,cp", [(1, ARCH.n_main, ARCH.c_y), (2, ARCH.c_y, ARCH.c_z)])
def test_hyper_analysis_layer_table(model, level, c, cp):
    net = model.hyper_analysis_1 if level == 1 else model.hyper_analysis_2
    assert as_tuples(net.describe()) == expected_hyper_analysis(c, cp)


@pytest.mark.parametrize("level,c,cp", [(1, ARCH.n_main, ARCH.c_y), (2, ARCH.c_y, ARCH.c_z)])
def test_hyper_synthesis_layer_table(model, level, c, cp):
    net = model.hyper_synthesis_1 if level == 1 else model.hyper_synthesis_2
    assert as_tuples(net.describe()) == expected_hyper_synthesis(c, cp)


def test_main_transform_structure(model):
    descs = model.analysis_t.describe()
    assert len(descs) == 4
    assert all(d["kind"] == "conv" and d["kernel"] == 5 and d["stride"] == 2
               and d["activation"] == "gdn" for d in descs)
    descs = model.synthesis_main.describe()
    assert len(descs) == 3
    assert all(d["kind"] == "deconv" and d["stride"] == 2 and d["activation"] == "igdn"
               for d in descs)


def test_intermediate_8c_after_space_to_depth(model):
    x = Tensor(np.random.default_rng(3).normal(size=(1, 4, 4, ARCH.n_main)).astype(np.float32))
    first = model.hyper_analysis_1.layers[0](x)
    assert first.shape == (1, 4, 4, 2 * ARCH.n_main)
    mid = model.hyper_analysis_1.layers[1](first)
    assert mid.shape == (1, 2, 2, 8 * ARCH.n_main)


# ---------------------------------------------------------------------------
# predictor heads

def test_predictor_shapes_and_sigma_default():
    model = CodecModel(ARCH, seed=21)
    head = model.predictor_x
    head.net.layers[-1].bias.data[:] = 0.0
    side = Tensor(np.zeros((1, 4, 4, ARCH.n_main), np.float32))
    mu, sigma = model.predict_params(side, "x")
    assert mu.shape == sigma.shape == (1, 4, 4, ARCH.n_main)
    # raw sigma output 0 -> exp(0) = 1, inside the clamp
    np.testing.assert_allclose(sigma.data, 1.0, atol=1e-6)


def test_predictor_sigma_clamp_floor():
    # force the raw-scale path to a very negative value via the bias
    model = CodecModel(ARCH, seed=3)
    head = model.predictor_y
    head.net.layers[1].bias.data[..., ARCH.c_y:] = -100.0
    side = Tensor(np.zeros((1, 2, 2, ARCH.c_y), np.float32))
    _, sigma = head(side)
    np.testing.assert_array_equal(sigma.data, np.full_like(sigma.data, SIGMA_MIN))


# ---------------------------------------------------------------------------
# synthesis / aggregation

def synth_inputs(model, seed=4, m=1, n=1):
    rng = np.random.default_rng(seed)
    xhat = Tensor(rng.normal(size=(1, 4 * m, 4 * n, ARCH.n_main)).astype(np.float32))
    s1 = Tensor(rng.normal(size=(1, 4 * m, 4 * n, ARCH.n_main)).astype(np.float32))
    s2 = Tensor(rng.normal(size=(1, 2 * m, 2 * n, ARCH.c_y)).astype(np.float32))
    return xhat, s1, s2


def test_synthesize_shape(model):
    xhat, s1, s2 = synth_inputs(model)
    assert model.synthesize(xhat, s1, s2).shape == (1, 64, 64, 3)


def test_synthesize_uses_all_inputs(model):
    xhat, s1, s2 = synth_inputs(model, seed=5)
    base = model.synthesize(xhat, s1, s2).data
    zero2 = Tensor(np.zeros_like(s2.data))
    assert not np.allclose(base, model.synthesize(xhat, s1, zero2).data)
    zero1 = Tensor(np.zeros_like(s1.data))
    assert not np.allclose(base, model.synthesize(xhat, zero1, s2).data)


def test_synthesize_grid_mismatch(model):
    xhat, s1, s2 = synth_inputs(model)
    bad = Tensor(np.zeros((1, 8, 8, ARCH.c_y), np.float32))
    with pytest.raises(ContractViolation):
        model.synthesize(xhat, s1, bad)


def test_synthesize_scratch_is_bounded():
    # n_main=32 on a 512x512 padded input: the fused half-resolution plane
    # (fuse_in's input) is 256 x 256 x 64 float32 = 16 MiB.  Streamed
    # through windows of rows, synthesize peaks at 18.1 MiB, 3 MiB of it
    # the returned image; on whole maps the banded conv engine peaked at
    # 36 MiB, and the unbanded one before it (a padded copy of each conv
    # input, a strided copy and a full product per tap, every path alive
    # until the fuse) at 80 MiB.
    model = CodecModel(ArchConfig(n_main=32), seed=0)
    rng = np.random.default_rng(0)
    xhat = Tensor(np.round(rng.normal(0, 2, (1, 32, 32, 32))).astype(np.float32))
    s1 = Tensor(rng.normal(size=(1, 32, 32, 32)).astype(np.float32))
    s2 = Tensor(rng.normal(size=(1, 16, 16, 32)).astype(np.float32))
    with ad.no_grad():
        tracemalloc.start()
        try:
            out = model.synthesize(xhat, s1, s2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert out.shape == (1, 512, 512, 3)
    assert peak < 22 * 2 ** 20, f"synthesize peaked at {peak / 2 ** 20:.1f} MiB"


@pytest.mark.parametrize("activation", ["linear", "relu", "gdn", "igdn"])
@pytest.mark.parametrize("transpose", [False, True])
def test_layer_epilogue_in_place_is_bit_exact(transpose, activation):
    # a 5x5 stride-2 layer with a 96 x 192 x 16 output: 18,432 pixel rows,
    # which GDN cuts into 3 bands.  Random bias and GDN weights, so every
    # epilogue op moves the values
    rng = np.random.default_rng(7)
    layer = ConvLayer(rng, 16, 16, 5, 2, activation, transpose=transpose)
    layer.bias.data = rng.normal(0, 0.5, layer.bias.shape).astype(np.float32)
    if layer.gdn is not None:
        layer.gdn.beta_u.data = rng.uniform(0.5, 1.5, (1, 1, 1, 16)).astype(np.float32)
        layer.gdn.gamma_v.data = rng.uniform(0, 0.4, (1, 1, 16, 16)).astype(np.float32)
    shape = (1, 48, 96, 16) if transpose else (1, 192, 384, 16)
    x = Tensor(rng.normal(0, 2, shape).astype(np.float32))
    taped = layer(x)
    with ad.no_grad():
        untaped = layer(x)
    assert taped.requires_grad and untaped.op == ("deconv2d" if transpose else "conv2d")
    assert taped.shape == untaped.shape == (1, 96, 192, 16)
    assert np.array_equal(taped.data, untaped.data)
    assert taped.data.tobytes() == untaped.data.tobytes()  # signed zeros too


def test_synthesize_without_tape_is_bit_exact():
    # n_main=16 to a 512x512 output: 65,536 pixel rows at h/2 (8 bands)
    model = CodecModel(ArchConfig(n_main=16), seed=3)
    rng = np.random.default_rng(3)
    xhat = Tensor(np.round(rng.normal(0, 2, (1, 32, 32, 16))).astype(np.float32))
    s1 = Tensor(rng.normal(size=(1, 32, 32, 16)).astype(np.float32))
    s2 = Tensor(rng.normal(size=(1, 16, 16, 16)).astype(np.float32))
    taped = model.synthesize(xhat, s1, s2)
    with ad.no_grad():
        untaped = model.synthesize(xhat, s1, s2)
    assert taped.requires_grad and not untaped.requires_grad
    assert np.array_equal(taped.data, untaped.data)
    assert taped.data.tobytes() == untaped.data.tobytes()


def test_gradients_reach_encoder_params(model):
    for p in model.param_list():
        p.grad = None
    img = image(64, 64, seed=6)
    x = model.analysis(img)
    ad.sum_all(x).backward()
    for name, t in model.named_params().items():
        if name.startswith("analysis"):
            assert t.grad is not None, f"no grad to {name}"


def test_gradients_reach_decoder_params(model):
    for p in model.param_list():
        p.grad = None
    xhat, s1, s2 = synth_inputs(model, seed=7)
    target = image(64, 64, seed=8)
    ad.mse(model.synthesize(xhat, s1, s2), target).backward()
    hit = [name for name, t in model.named_params().items() if t.grad is not None]
    for prefix in ("synthesis_main", "side1_up", "side2_up", "fuse_in",
                   "res_a", "res_b", "fuse_out", "final_up"):
        assert any(h.startswith(prefix) for h in hit), f"no grad into {prefix}"


def test_hyper_stack_gradcheck():
    small = CodecModel(ArchConfig(n_main=2, c_y=2, c_z=2), seed=9)
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(0, 0.5, (1, 4, 4, 2)).astype(np.float32), requires_grad=True)

    def f():
        y = small.hyper_analysis(x, 1)
        return ad.mean_all(ad.square(small.hyper_synthesis(y, 1)))

    params = [x,
              small.hyper_analysis_1.layers[0].kernel,
              small.hyper_synthesis_1.layers[4].kernel]
    assert_grads_close(f, params, rtol=1e-3)


# ---------------------------------------------------------------------------
# info-fidelity projection

def test_info_projection_shape(model):
    y = Tensor(np.random.default_rng(11).normal(size=(1, 2, 2, ARCH.c_y)).astype(np.float32))
    out = model.info_proj(y)
    assert out.shape == (1, 4, 4, ARCH.n_main)


def test_info_projection_zero_kernel_gives_x_norm(model):
    y = Tensor(np.random.default_rng(12).normal(size=(1, 2, 2, ARCH.c_y)).astype(np.float32))
    x = Tensor(np.random.default_rng(13).normal(size=(1, 4, 4, ARCH.n_main)).astype(np.float32))
    saved = model.info_proj.kernel.data.copy()
    model.info_proj.kernel.data = np.zeros_like(saved)
    try:
        lif = ad.l2_norm(ad.sub(model.info_proj(y), x)).item()
        expected = float(np.linalg.norm(x.data.astype(np.float64)))
        assert lif == pytest.approx(expected, rel=1e-5)
    finally:
        model.info_proj.kernel.data = saved


# ---------------------------------------------------------------------------
# serialization

def test_save_load_forward_bit_identical(tmp_path, model):
    path = tmp_path / "m.c2fw"
    digest = wts.save_model(model, path)
    assert digest == wts.model_digest(model)
    loaded = wts.load_model(path)
    assert loaded.lambda_tag == model.lambda_tag
    assert loaded.arch == model.arch
    img = image(64, 64, seed=14)
    np.testing.assert_array_equal(model.analysis(img).data,
                                  loaded.analysis(img).data)
    assert wts.model_digest(loaded) == digest


def test_digest_changes_with_weights(model, tmp_path):
    d0 = wts.model_digest(model)
    k = model.analysis_t.layers[0].kernel
    k.data = k.data + np.float32(1e-3)
    try:
        assert wts.model_digest(model) != d0
    finally:
        k.data = k.data - np.float32(1e-3)


def test_loaded_model_digest_is_cached_and_tracks_rebinding(tmp_path, model, monkeypatch):
    path = tmp_path / "m.c2fw"
    wts.save_model(model, path)
    serialized = []
    real = wts.model_chunks
    monkeypatch.setattr(wts, "model_chunks",
                        lambda m, *a: serialized.append(m) or real(m, *a))
    loaded = wts.load_model(path)
    assert serialized == []  # hashed lazily, not at load
    d0 = wts.model_digest(loaded)
    assert d0 == wts.model_digest(loaded) == hashlib.sha256(b"".join(real(loaded))).digest()
    assert len(serialized) == 1
    # the weights are read-only, so the cache cannot go stale in place
    k = loaded.analysis_t.layers[0].kernel
    with pytest.raises(ValueError):
        k.data += np.float32(1e-3)
    # a rebound array is seen, and the live weights are hashed
    k.data = k.data + np.float32(1e-3)
    d1 = wts.model_digest(loaded)
    assert d1 != d0 and d1 == hashlib.sha256(b"".join(real(loaded))).digest()
    # a fresh model is hashed on every call
    wts.model_digest(model)
    wts.model_digest(model)
    assert serialized.count(model) == 2


TOY_MODELS = sorted((Path(__file__).resolve().parent / "_toy_models").glob("model_*.c2fw"))


@pytest.mark.parametrize("path", TOY_MODELS, ids=lambda p: p.stem)
def test_serialization_reproduces_committed_weights_files(path):
    data = path.read_bytes()
    loaded = wts.load_model(path)
    assert wts.model_bytes(loaded) == data
    assert wts.model_digest(loaded) == hashlib.sha256(data).digest()


def test_committed_weights_files_are_the_four_zoo_models():
    assert len(TOY_MODELS) == 4


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    model = CodecModel(ARCH, lambda_tag=300, seed=4)
    opt = ad.Adam(model.param_list(), lr=1e-3)
    opt.zero_grad()
    ad.sum_all(model.analysis(image(64, 64, seed=16))).backward()
    opt.step()
    first, second = tmp_path / "a.c2fw", tmp_path / "b.c2fw"
    wts.save_checkpoint(model, opt, step=5, path=first)
    model2, opt_arrays, step = wts.load_checkpoint(first)
    opt2 = ad.Adam(model2.param_list(), lr=1e-3)
    opt2.load_state_arrays(opt_arrays)
    wts.save_checkpoint(model2, opt2, step=step, path=second)
    assert second.read_bytes() == first.read_bytes()


def _records(path):
    """Every record of a weights or checkpoint file, by name, parsed
    here from the byte layout alone."""
    data = path.read_bytes()
    pos, out = struct.calcsize(wts._HEAD_FMT), {}
    for _ in range(struct.unpack_from("<I", data, pos - 4)[0]):
        (n,) = struct.unpack_from("<H", data, pos)
        name = data[pos + 2:pos + 2 + n].decode()
        pos += 2 + n
        ndim = data[pos]
        dims = struct.unpack_from(f"<{ndim}I", data, pos + 1)
        pos += 1 + 4 * ndim
        count = int(np.prod(dims))
        out[name] = np.frombuffer(data, "<f4", count, pos).reshape(dims)
        pos += 4 * count
    assert pos == len(data)
    return out


def test_loading_draws_no_random_init(tmp_path, model, monkeypatch):
    weights_path, ck_path = tmp_path / "m.c2fw", tmp_path / "ck.c2fw"
    wts.save_model(model, weights_path)
    wts.save_checkpoint(model, ad.Adam(model.param_list()), 2, ck_path)

    def refuse(*args, **kwargs):
        raise AssertionError("loading drew a random init")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    loaded = wts.load_model(weights_path)
    resumed = wts.load_checkpoint(ck_path)[0]
    for path, got in ((weights_path, loaded), (ck_path, resumed)):
        records = _records(path)
        params = got.named_params()
        assert params and set(params) <= set(records)
        for name, tensor in params.items():
            assert tensor.data.dtype == np.float32
            assert tensor.data.tobytes() == records[name].tobytes(), name
    # a file missing one parameter still fails, naming the file
    chunks = list(wts.model_chunks(model))
    kept = [b"".join(rec) for rec in zip(chunks[1::2], chunks[2::2])
            if b"res_a.kernel" not in rec[0]]
    head = bytearray(chunks[0])
    struct.pack_into("<I", head, len(head) - 4, len(kept))
    short = tmp_path / "short.c2fw"
    short.write_bytes(bytes(head) + b"".join(kept))
    with pytest.raises(FormatError, match=r"short\.c2fw: .*missing parameters.*res_a\.kernel"):
        wts.load_model(short)


def test_load_holds_one_copy_of_the_records(tmp_path):
    # each record is read into an array of its own, which the parameter
    # then holds: an n_main=32 model of 1.96 MiB loads at a 2.20 MiB peak
    # (reading the whole file and copying every record out of it peaked
    # at 4.04 MiB)
    model = CodecModel(ArchConfig(n_main=32), seed=0)
    path = tmp_path / "m.c2fw"
    wts.save_model(model, path)
    nbytes = sum(t.data.nbytes for t in model.param_list())
    del model
    tracemalloc.start()
    try:
        wts.load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * nbytes, f"a load of {nbytes} parameter bytes peaked at {peak}"


def test_load_rejects_wrong_shape(tmp_path, model):
    path = tmp_path / "m.c2fw"
    wts.save_model(model, path)
    data = bytearray(path.read_bytes())
    # truncate one record's payload
    path.write_bytes(bytes(data[:-8]))
    with pytest.raises(FormatError):
        wts.load_model(path)


@pytest.mark.parametrize("offset, value", [(18, 5), (18, 0), (6, 0), (10, 0), (14, 0)])
def test_load_refuses_bad_depth_or_zero_channels(tmp_path, model, offset, value):
    # header u32 fields: n_main at 6, c_y at 10, c_z at 14, main_depth at 18
    path = tmp_path / "m.c2fw"
    wts.save_model(model, path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, offset, value)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        wts.load_model(path)


def test_checkpoint_refuses_wrong_shape(tmp_path):
    # the same record checks as load_model: a (1, 1, 1, 7) output bias on
    # a 3-channel output layer is refused
    bad = CodecModel(ARCH, seed=1)
    opt = ad.Adam(bad.param_list(), lr=1e-3)
    bad.final_up.bias.data = np.zeros((1, 1, 1, 7), np.float32)
    path = tmp_path / "ck.c2fw"
    wts.save_checkpoint(bad, opt, step=3, path=path)
    with pytest.raises(FormatError, match="final_up.bias"):
        wts.load_checkpoint(path)


def test_checkpoint_roundtrip(tmp_path, model):
    opt = ad.Adam(model.param_list(), lr=1e-3)
    img = image(64, 64, seed=15)
    opt.zero_grad()
    ad.sum_all(model.analysis(img)).backward()
    opt.step()
    path = tmp_path / "ck.c2fw"
    wts.save_checkpoint(model, opt, step=17, path=path)
    model2, opt_arrays, step = wts.load_checkpoint(path)
    assert step == 17
    opt2 = ad.Adam(model2.param_list(), lr=1e-3)
    opt2.load_state_arrays(opt_arrays)
    for a, b in zip(opt.state, opt2.state):
        np.testing.assert_array_equal(a["m"], b["m"])
        np.testing.assert_array_equal(a["v"], b["v"])
        assert a["t"] == b["t"]
    assert wts.model_digest(model2) == wts.model_digest(model)
