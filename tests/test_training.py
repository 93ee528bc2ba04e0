import csv
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

import c2f.autodiff as ad
import c2f.training as tr
from c2f.autodiff import Adam, Tensor
from c2f.errors import ConfigError
from c2f.training import PIXEL_SCALE_SQ, PatchLoader, TrainConfig, rd_loss
from c2f.transforms import ArchConfig, CodecModel

from gradcheck import rel_error
from zoo import (ZOO_BATCH, ZOO_C_Y, ZOO_C_Z, ZOO_LR, ZOO_N_MAIN, ZOO_PATCH,
                 ZOO_SEED, ZOO_STEPS)

TINY = ArchConfig(n_main=8, c_y=8, c_z=4)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("toydata")
    return tr.make_synthetic_dataset(root, 60, size=64, seed=11)


@pytest.fixture(scope="module")
def loader(dataset):
    return PatchLoader(dataset, 64, seed=5, batch=2)


# ---------------------------------------------------------------------------
# config

def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lambda_=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(lambda_=0.1, patch=100)
    with pytest.raises(ConfigError):
        TrainConfig(lambda_=0.1, distortion="vgg")
    with pytest.raises(ConfigError):
        TrainConfig(lambda_=0.1, steps=0)


def test_lr_schedule_halves():
    cfg = TrainConfig(lambda_=0.1, steps=1000, lr=1e-3)
    assert cfg.lr_at(0) == 1e-3
    assert cfg.lr_at(699) == 1e-3
    assert cfg.lr_at(700) == pytest.approx(5e-4)
    assert cfg.lr_at(900) == pytest.approx(2.5e-4)


def test_lif_schedule_holds_then_decays_to_zero():
    cfg = TrainConfig(lambda_=0.1, steps=1000)
    assert cfg.lif_at(0) == pytest.approx(0.1)
    assert cfg.lif_at(199) == pytest.approx(0.1)
    assert cfg.lif_at(350) == pytest.approx(0.05)
    assert cfg.lif_at(500) == 0.0
    assert cfg.lif_at(900) == 0.0


# ---------------------------------------------------------------------------
# patches

def test_patch_equals_image_when_same_size(dataset):
    loader = PatchLoader(dataset[:3], 64, seed=0, batch=1)
    batch = loader.batch(0)
    assert batch.shape == (1, 64, 64, 3)
    sources = [img.astype(np.float32) / 255.0 for img in loader.images]
    # the crop of a same-size image is the (possibly flipped) image itself
    candidates = []
    for s in sources:
        for fv in (s, s[::-1]):
            for fh in (fv, fv[:, ::-1]):
                candidates.append(fh)
    assert any(np.array_equal(batch[0], c) for c in candidates)


def test_first_batch_reproducible(dataset):
    a = PatchLoader(dataset, 64, seed=9, batch=3).batch(0)
    b = PatchLoader(dataset, 64, seed=9, batch=3).batch(0)
    np.testing.assert_array_equal(a, b)
    c = PatchLoader(dataset, 64, seed=10, batch=3).batch(0)
    assert not np.array_equal(a, c)


def test_small_images_excluded_with_warning(tmp_path, dataset):
    from c2f.imageio import write_image
    small = tmp_path / "small.png"
    write_image(small, np.zeros((16, 16, 3), np.uint8))
    with pytest.warns(UserWarning, match="smaller than patch"):
        loader = PatchLoader([small, dataset[0]], 64, seed=0)
    assert len(loader.images) == 1


def test_all_images_unusable_is_config_error(tmp_path):
    bad = tmp_path / "bad.png"
    bad.write_bytes(b"not an image")
    with pytest.warns(UserWarning):
        with pytest.raises(ConfigError):
            PatchLoader([bad], 64, seed=0)


# ---------------------------------------------------------------------------
# rd_loss

def test_rd_loss_composition(loader):
    model = CodecModel(TINY, seed=0)
    batch = loader.batch(0)
    out = rd_loss(model, batch, 0.01, np.random.default_rng([1, 2]),
                  lif_weight=0.1)
    assert out.lif > 0.0
    expected = (np.float32(out.r_bpp)
                + np.float32(0.01 * PIXEL_SCALE_SQ) * np.float32(out.d)
                + np.float32(0.1) * np.float32(out.lif))
    assert out.loss_value == pytest.approx(float(expected), rel=1e-5)


def test_rd_loss_reports_lif_at_zero_weight_without_adding_it(loader):
    model = CodecModel(TINY, seed=0)
    out = rd_loss(model, loader.batch(0), 0.01, np.random.default_rng([1, 2]))
    assert out.lif > 0.0
    expected = (np.float32(out.r_bpp)
                + np.float32(0.01 * PIXEL_SCALE_SQ) * np.float32(out.d))
    assert out.loss_value == float(expected)


def test_rd_loss_doubling_lambda_doubles_d_contribution(loader):
    model = CodecModel(TINY, seed=0)
    batch = loader.batch(1)
    a = rd_loss(model, batch, 0.01, np.random.default_rng([3, 4]))
    b = rd_loss(model, batch, 0.02, np.random.default_rng([3, 4]))
    assert a.d == b.d and a.r_bpp == b.r_bpp
    assert (b.loss_value - a.loss_value) == pytest.approx(
        0.01 * PIXEL_SCALE_SQ * a.d, rel=1e-4)


def test_rd_loss_noise_replay_is_exact(loader):
    model = CodecModel(TINY, seed=0)
    batch = loader.batch(2)
    a = rd_loss(model, batch, 0.03, np.random.default_rng([7, 8]))
    b = rd_loss(model, batch, 0.03, np.random.default_rng([7, 8]))
    assert a.loss_value == b.loss_value
    assert a.r_bpp == b.r_bpp and a.d == b.d


def test_fresh_zoo_model_starts_near_mid_gray():
    # the zoo recipe's first training batch: a fresh model's distortion must
    # sit near that of a flat mid-gray image, or the first Adam steps blow up
    paths = sorted((Path(__file__).resolve().parent
                    / "_toy_models" / "dataset").glob("*.png"))
    batch = PatchLoader(paths, ZOO_PATCH, ZOO_SEED, ZOO_BATCH).batch(0)
    model = CodecModel(ArchConfig(n_main=ZOO_N_MAIN, c_y=ZOO_C_Y, c_z=ZOO_C_Z),
                       seed=ZOO_SEED)
    out = rd_loss(model, batch, 0.03, np.random.default_rng([ZOO_SEED, 0, 1]))
    mid_gray = float(np.mean((batch - 0.5) ** 2))
    assert mid_gray / 2 <= out.d <= 2 * mid_gray


class _Stop(Exception):
    pass


# sha-256 of every parameter and its Adam moments after steps 0-4 of the
# lambda=0.03 zoo recipe.  A change to this hash is a change to training
# numerics: bump RECIPE_REV, rebuild the zoo and re-pin it (tests/zoo.py).
# Computed with OpenBLAS 0.3.31's SkylakeX kernels, as the zoo was trained:
# on another sgemm kernel the products, and so this hash, may differ.
ZOO_FIRST_STEPS_STATE_SHA = "33f547ac780bb0039ff5888af0772fefdfd4749e2b4cb43f7fc3ab95647e3872"


def test_zoo_recipe_first_steps_match_committed_train_log(monkeypatch):
    # the committed zoo pins training numerics: a change that moves them
    # must bump RECIPE_REV and rebuild the zoo (tests/zoo.py), so steps 0-4
    # of the lambda=0.03 run must replay its train_log.csv
    root = Path(__file__).resolve().parent / "_toy_models"
    with open(root / "run_0.03" / "train_log.csv", newline="") as fh:
        want = list(csv.DictReader(fh))[:5]
    got = []
    opts = []

    class RecordedAdam(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opts.append(self)

    monkeypatch.setattr(tr, "Adam", RecordedAdam)

    def progress(row):
        got.append(row)
        if row["step"] == 4:
            raise _Stop

    config = TrainConfig(lambda_=0.03, steps=ZOO_STEPS, batch=ZOO_BATCH,
                         patch=ZOO_PATCH, seed=ZOO_SEED, lr=ZOO_LR)
    with pytest.raises(_Stop):
        tr.train(config, sorted((root / "dataset").glob("*.png")),
                 arch=ArchConfig(n_main=ZOO_N_MAIN, c_y=ZOO_C_Y, c_z=ZOO_C_Z),
                 progress=progress)
    for row, ref in zip(got, want, strict=True):
        for name in ("r_bpp", "d", "lif", "loss"):
            value = float(ref[name])
            assert abs(row[name] - value) <= 1e-5 * abs(value) + 1e-6, (
                f"step {row['step']}: {name}={row[name]!r}, train_log.csv has {value!r}")
    # the replay tolerance hides last-bit moves; the state hash does not
    digest = hashlib.sha256()
    for param, state in zip(opts[0].params, opts[0].state, strict=True):
        for arr in (param.data, state["m"], state["v"]):
            digest.update(arr.tobytes())
    assert digest.hexdigest() == ZOO_FIRST_STEPS_STATE_SHA


def test_identity_stub_decoder_gives_zero_distortion(loader):
    model = CodecModel(TINY, seed=0)
    batch = loader.batch(3)
    target = Tensor(batch)
    model.synthesize = lambda xhat, s1, s2: target
    out = rd_loss(model, target, 0.05, np.random.default_rng([5, 6]))
    assert out.d == 0.0


def test_rd_loss_msssim_distortion(loader):
    model = CodecModel(TINY, seed=0)
    batch = loader.batch(4)
    out = rd_loss(model, batch, 0.05, np.random.default_rng([9, 1]),
                  distortion="msssim")
    assert 0.0 <= out.d <= 1.0
    assert math.isfinite(out.loss_value)


def test_msssim_loss_identical_is_one(loader):
    x = Tensor(loader.batch(5))
    value = tr.msssim_loss_value(x, x)
    assert value.item() == pytest.approx(1.0, abs=1e-5)


def test_msssim_loss_differentiable(loader):
    batch = loader.batch(6)
    x = Tensor(batch)
    recon = Tensor(np.clip(batch + np.random.default_rng(0)
                           .normal(0, 0.05, batch.shape), 0, 1).astype(np.float32),
                   requires_grad=True)
    value = tr.msssim_loss_value(recon, x)
    assert 0.0 < value.item() < 1.0
    value.backward()
    assert recon.grad is not None
    assert np.all(np.isfinite(recon.grad))


# ---------------------------------------------------------------------------
# training dynamics

def test_rate_only_objective_drives_rate_down(loader):
    # lambda = 0 probe: pure rate minimization, smoothed over 200 steps
    model = CodecModel(TINY, seed=1)
    opt = Adam(model.param_list(), lr=1e-3)
    rates = []
    for step in range(200):
        out = rd_loss(model, loader.batch(step), 0.0,
                      np.random.default_rng([1234, step]))
        opt.zero_grad()
        out.loss.backward()
        opt.step()
        rates.append(out.r_bpp)
    assert np.mean(rates[-50:]) < 0.5 * np.mean(rates[:50])


def test_full_loss_gradient_probe_matches_finite_differences(loader):
    """Directional derivative across 5 randomly-chosen parameter tensors,
    with the quantization noise replayed from its seed."""
    model = CodecModel(TINY, seed=2)
    batch = loader.batch(7)
    seed = [55, 66]

    def loss_value():
        return rd_loss(model, batch, 0.01, np.random.default_rng(seed),
                       lif_weight=0.05).loss_value

    out = rd_loss(model, batch, 0.01, np.random.default_rng(seed), lif_weight=0.05)
    for p in model.param_list():
        p.grad = None
    out.loss.backward()

    rng = np.random.default_rng(99)
    named = sorted(model.named_params().items())
    chosen = [named[int(i)] for i in rng.choice(len(named), size=5, replace=False)]
    dirs = [rng.normal(size=t.data.shape).astype(np.float32) for _, t in chosen]
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
    assert abs(fd - analytic) / max(abs(fd), abs(analytic)) <= 1e-2


def test_train_writes_log_and_model(tmp_path, dataset):
    cfg = TrainConfig(lambda_=0.01, steps=6, batch=1, patch=64, seed=3,
                      checkpoint_every=0)
    model, metrics = tr.train(cfg, dataset, out_dir=tmp_path, arch=TINY)
    assert (tmp_path / "model.c2fw").exists()
    log = (tmp_path / "train_log.csv").read_text().strip().splitlines()
    assert log[0] == "step,r_bpp,d,lif,loss"
    assert len(log) == 7
    assert len(metrics) == 6
    assert model.lambda_tag == 100


def test_resume_reproduces_next_loss_bitexactly(tmp_path, dataset):
    cfg = TrainConfig(lambda_=0.01, steps=8, batch=1, patch=64, seed=4,
                      checkpoint_every=4)
    _, full = tr.train(cfg, dataset, out_dir=tmp_path / "full", arch=TINY)
    ckpt = tmp_path / "full" / "checkpoint_000004.c2fw"
    assert ckpt.exists()
    _, resumed = tr.train(cfg, dataset, out_dir=tmp_path / "resumed",
                          arch=TINY, resume=ckpt)
    tail_full = [m for m in full if m["step"] >= 4]
    assert len(resumed) == len(tail_full)
    for a, b in zip(tail_full, resumed):
        assert a["loss"] == b["loss"]
        assert a["r_bpp"] == b["r_bpp"]
        assert a["d"] == b["d"]


def test_deterministic_training_runs(dataset):
    cfg = TrainConfig(lambda_=0.01, steps=4, batch=1, patch=64, seed=6)
    _, m1 = tr.train(cfg, dataset, arch=TINY)
    _, m2 = tr.train(cfg, dataset, arch=TINY)
    assert [m["loss"] for m in m1] == [m["loss"] for m in m2]
