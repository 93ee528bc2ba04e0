"""The codec network.

Main analysis/synthesis transforms (stride-2 convs with GDN / iGDN),
two signal-preserving hyper transform levels (3x3 linear expansion,
space-to-depth, 1x1 conv stack), mean/scale predictor heads, the linear
information-fidelity projector, and the information-aggregation
reconstruction decoder that fuses the main latent with both hyper-level
side representations at half resolution.

Latent shape ladder for a padded (b, 64m, 64n, 3) input:
    X (b, 4m, 4n, n_main)   spatial /16
    Y (b, 2m, 2n, c_y)      spatial /32
    Z (b,  m,  n, c_z)      spatial /64
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import GdnParams, Tensor
from .entropy import SIGMA_MAX, SIGMA_MIN, FactorizedZ, QuantizerMode, quantize
from .errors import ContractViolation

MAIN_DEPTH = 4   # stride-2 stages of the main analysis transform
DOWNSAMPLE = 64  # 16 (main) * 2 (hyper level 1) * 2 (hyper level 2)

# scale on the output deconv's random kernel at init (see CodecModel)
FINAL_UP_INIT_GAIN = 0.01

# pixels (rows x columns) per window of a streamed synthesis map
_WINDOW_PIXELS = 8192


@dataclass(frozen=True)
class ArchConfig:
    """Channel widths; spatial structure is fixed by the shape ladder."""

    n_main: int = 128
    c_y: int = 0    # 0 means "same as n_main"
    c_z: int = 0    # 0 means "n_main // 2"

    def __post_init__(self):
        if self.c_y == 0:
            object.__setattr__(self, "c_y", self.n_main)
        if self.c_z == 0:
            object.__setattr__(self, "c_z", max(self.n_main // 2, 1))
        if min(self.n_main, self.c_y, self.c_z) < 1:
            raise ContractViolation("channel counts must be >= 1")


@dataclass
class LatentTriple:
    """Quantized latent planes plus their predicted Gaussian parameters,
    the continuous main latent and both hyper-synthesis outputs."""

    x: Tensor
    y: Tensor
    z: Tensor
    mu_x: Tensor
    sigma_x: Tensor
    mu_y: Tensor
    sigma_y: Tensor
    sigma_z: np.ndarray  # per-channel vector
    x_cont: Tensor       # analysis output before quantization
    side1: Tensor        # hyper synthesis of y (feeds predictor_x)
    side2: Tensor        # hyper synthesis of z (feeds predictor_y)


# ---------------------------------------------------------------------------
# layers

def _kernel_init(rng: np.random.Generator | None, kh: int, kw: int, cin_eff: float,
                 shape: tuple[int, ...]) -> np.ndarray:
    if rng is None:
        return np.zeros(shape, np.float32)
    std = float(np.sqrt(1.0 / (kh * kw * cin_eff)))
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def _smooth_upsample_init(rng: np.random.Generator | None, k: int, out_ch: int,
                          in_ch: int) -> np.ndarray:
    """Deconv kernel that starts as a channelwise smooth 2x upsampler.

    The composed decoder then begins life as "upsample the latents", so
    only the final color mapping has to be learned from scratch; this
    cuts hundreds of steps off desk-scale training runs.
    """
    if rng is None:
        return np.zeros((k, k, out_ch, in_ch), np.float32)
    taps = np.array([0.125, 0.5, 0.75, 0.5, 0.125], dtype=np.float64)[:k]
    w = np.outer(taps, taps)
    kern = rng.normal(0.0, 0.01, (k, k, out_ch, in_ch)).astype(np.float32)
    for c in range(min(out_ch, in_ch)):
        kern[:, :, c, c] += w.astype(np.float32)
    return kern


class ConvLayer:
    """Conv, or with `transpose` the deconv (its adjoint), plus bias and
    activation.  A deconv kernel is laid out (kh, kw, out, in), the
    adjoint-convention layout, and its init std counts in_ch / stride**2
    inputs per output, since a stride-s deconv spreads each input over
    s*s outputs.

    When the conv output records no tape entry (inference), it is this
    call's own map: the bias, ReLU and GDN/iGDN are written into it in
    place (autodiff's add_, relu_, gdn_), with the bits of the taped ops.
    With `rows` (an autodiff.Rows) the call computes only those output
    rows, into `out` if given, and its epilogue runs on them alone."""

    def __init__(self, rng, in_ch: int, out_ch: int, kernel: int, stride: int,
                 activation: str, bias: bool = True,
                 gdn_init: tuple[float, float] = (1.0, 0.1), transpose: bool = False):
        self.kind = "deconv" if transpose else "conv"
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel_size, self.stride = kernel, stride
        self.activation = activation
        self.transpose = transpose
        cin_eff, layout = ((in_ch / stride ** 2, (out_ch, in_ch)) if transpose
                           else (in_ch, (in_ch, out_ch)))
        self.kernel = Tensor(_kernel_init(rng, kernel, kernel, cin_eff,
                                          (kernel, kernel, *layout)), True)
        self.bias = Tensor(np.zeros((1, 1, 1, out_ch), np.float32), True) if bias else None
        self.gdn = (GdnParams.create(out_ch, *gdn_init)
                    if activation in ("gdn", "igdn") else None)

    def __call__(self, x: Tensor, rows: ad.Rows | None = None,
                 out: np.ndarray | None = None) -> Tensor:
        # looked up per call, so a wrapper installed on the module sees it
        op = ad.deconv2d if self.transpose else ad.conv2d
        y = op(x, self.kernel, self.stride, "same", rows=rows, out=out)
        inplace = not y.requires_grad
        if self.bias is not None:
            y = (ad.add_ if inplace else ad.add)(y, self.bias)
        return _activate(y, self.activation, self.gdn, inplace, rows is not None)

    def params(self, prefix: str):
        yield f"{prefix}.kernel", self.kernel
        if self.bias is not None:
            yield f"{prefix}.bias", self.bias
        if self.gdn is not None:
            yield f"{prefix}.gdn.beta_u", self.gdn.beta_u
            yield f"{prefix}.gdn.gamma_v", self.gdn.gamma_v

    def describe(self) -> dict:
        return _describe(self)


class SpaceToDepthLayer:
    """2x2 space-to-depth, or with `inverse` depth-to-space; no parameters."""

    def __init__(self, in_ch: int, inverse: bool = False):
        self.kind = "depth_to_space" if inverse else "space_to_depth"
        self.inverse = inverse
        self.in_ch, self.out_ch = in_ch, in_ch // 4 if inverse else 4 * in_ch
        self.kernel_size, self.stride, self.activation = None, None, None

    def __call__(self, x: Tensor) -> Tensor:
        return ad.depth_to_space(x) if self.inverse else ad.space_to_depth(x)

    def params(self, prefix: str):
        return iter(())

    def describe(self) -> dict:
        return _describe(self)


def _activate(out: Tensor, activation: str, gdn_params, inplace: bool,
              window: bool) -> Tensor:
    if activation == "linear":
        return out
    if activation == "relu":
        return (ad.relu_ if inplace else ad.relu)(out)
    if activation in ("gdn", "igdn"):
        inverse = activation == "igdn"
        if inplace:
            return ad.gdn_(out, gdn_params, inverse, window)
        return ad.gdn(out, gdn_params, inverse)
    raise ContractViolation(f"unknown activation {activation!r}")


def _describe(layer) -> dict:
    return {"kind": layer.kind, "kernel": layer.kernel_size,
            "stride": layer.stride, "in_ch": layer.in_ch,
            "out_ch": layer.out_ch, "activation": layer.activation}


class Sequential:
    def __init__(self, layers: list):
        self.layers = layers

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def params(self, prefix: str):
        for i, layer in enumerate(self.layers):
            yield from layer.params(f"{prefix}.{i}")

    def describe(self) -> list[dict]:
        return [layer.describe() for layer in self.layers]


# ---------------------------------------------------------------------------
# streamed maps: the untaped analysis and synthesis compute every map in
# windows of rows, top to bottom, by pull.  A consumer asks its producer
# for the producer's next window whenever its own next window reads rows
# not yet computed, so each row is computed once, and keeps only the input
# rows that its later windows read (a sliding window with storage
# folding: Ragan-Kelley et al., "Halide", PLDI 2013; Alwani et al.,
# "Fused-Layer CNN Accelerators", MICRO 2016).  The windows are planned
# from the output down: each layer's windows end where its consumer's
# windows stop reading, merged until each has about _WINDOW_PIXELS
# pixels, so a consumer holds its window's rows and at most one window of
# its producer beyond them.  A downsampling conv instead ends its windows
# at any row: its consumer, downsampling too, is half as tall, and held to
# that consumer's read ends it would get no more windows than it.  Every
# map class below has height, width, channels, plan(stops), which sets
# the end rows of its windows, and write(dest, r0, r1), which computes its
# window r0..r1-1 into dest.

def _merge(stops: list[int], least: int) -> list[int]:
    """Windows ending at some of stops: ceil(height / least) of them, as
    even as the stops allow, so no window is a short leftover and none is
    much longer than `least` rows."""
    height = stops[-1]
    n = -(-height // least)
    out = []
    for k in range(1, n):
        stop = stops[bisect_left(stops, -(-height * k // n))]
        if stop < height and (not out or stop > out[-1]):
            out.append(stop)
    return out + [height]


def _windows(m) -> zip:
    """The (r0, r1) of each window of a planned map, top to bottom."""
    return zip([0] + m.stops[:-1], m.stops)


class _Held:
    """A map already in memory, handed out window by window; uint8 pixels
    are handed out as float32 / 255, the bits of the whole image's."""

    def __init__(self, data: np.ndarray):
        self.data = data
        _, self.height, self.width, self.channels = data.shape

    def plan(self, stops: list[int]) -> None:
        self.stops = stops

    def write(self, dest: np.ndarray, r0: int, r1: int) -> None:
        dest[...] = self.data[:, r0:r1]
        if self.data.dtype == np.uint8:
            dest /= 255.0


class _Streamed:
    """A ConvLayer's output map over the map `src`, window by window.

    `buf` holds rows lo..hi-1 of src: the rows that this and later windows
    read, and none below `hold` is dropped while a second reader (the
    residual) still needs it.  src writes its windows straight into buf."""

    def __init__(self, layer: ConvLayer, src):
        s = layer.stride
        self.layer, self.src, self.channels = layer, src, layer.out_ch
        if layer.transpose:
            self.height, self.width = src.height * s, src.width * s
        else:
            self.height, self.width = -(-src.height // s), -(-src.width // s)
        self.buf = np.empty((1, 0, src.width, src.channels), np.float32)
        self.lo = self.hi = 0
        self.hold: int | None = None

    def _reads(self, r0: int, r1: int) -> tuple[int, int]:
        layer = self.layer
        return ad.input_rows(self.src.height, layer.kernel_size, layer.stride, r0, r1,
                             layer.transpose)

    def plan(self, stops: list[int], by_input: bool = False) -> None:
        """Windows of about _WINDOW_PIXELS pixels of the output map (with
        by_input, or for a downsampling conv, of the input map), in eighths
        of rows where the stops allow, so that halves are even and the
        longest window does not depend on the map's height.  A downsampling
        conv may end a window at any row."""
        down = self.layer.stride > 1 and not self.layer.transpose
        per_row = (self.src.width * self.src.height / self.height if by_input or down
                   else self.width)
        least = max(int(_WINDOW_PIXELS // per_row), 1)
        if down:
            stops = list(range(1, self.height + 1))
        self.stops = _merge(stops, least - least % 8 if least >= 8 else least)
        ends = {self._reads(r0, r1)[1] for r0, r1 in _windows(self)}
        self.src.plan(sorted(ends | {self.src.height}))

    def write(self, dest: np.ndarray, r0: int, r1: int) -> None:
        a, b = self._reads(r0, r1)
        self._drop(a if self.hold is None else min(a, self.hold))
        self._pull(b)
        # only the rows the window reads, so a tracer that sizes a call by
        # its input sees no rows kept for later windows
        self.layer(Tensor(self.buf[:, a - self.lo:b - self.lo]),
                   ad.Rows(r0, r1, a, self.src.height), dest)

    def held(self, r0: int, r1: int) -> np.ndarray:
        """Rows r0..r1-1 of src, which `hold` has kept."""
        return self.buf[:, r0 - self.lo:r1 - self.lo]

    def _drop(self, a: int) -> None:
        """Move rows a..hi-1 to the front of buf, in runs that do not overlap."""
        a = min(a, self.hi)
        if a <= self.lo:
            return
        shift, keep = a - self.lo, self.hi - a
        for i in range(0, keep, shift):
            n = min(shift, keep - i)
            self.buf[:, i:i + n] = self.buf[:, i + shift:i + shift + n]
        self.lo = a

    def _pull(self, b: int) -> None:
        """Have src write its next windows into buf until rows below b are in."""
        while self.hi < b:
            stop = self.src.stops[bisect_right(self.src.stops, self.hi)]
            if stop - self.lo > self.buf.shape[1]:
                grown = np.empty((1, stop - self.lo, *self.buf.shape[2:]), np.float32)
                grown[:, :self.hi - self.lo] = self.buf[:, :self.hi - self.lo]
                self.buf = grown
            self.src.write(self.buf[:, self.hi - self.lo:stop - self.lo], self.hi, stop)
            self.hi = stop


class _Joined:
    """Maps of one grid joined along channels, each window by each map in turn."""

    def __init__(self, srcs: list):
        self.srcs = srcs
        self.height, self.width = srcs[0].height, srcs[0].width
        if any((m.height, m.width) != (self.height, self.width) for m in srcs):
            raise ContractViolation(
                f"concat over (h,w) of {[(m.height, m.width) for m in srcs]}")
        self.channels = sum(m.channels for m in srcs)

    def plan(self, stops: list[int]) -> None:
        self.stops = stops
        for m in self.srcs:
            m.plan(stops)

    def write(self, dest: np.ndarray, r0: int, r1: int) -> None:
        lo = 0
        for m in self.srcs:
            part = np.empty((1, r1 - r0, self.width, m.channels), np.float32)
            m.write(part, r0, r1)
            dest[..., lo:lo + m.channels] = part
            lo += m.channels


class _Residual:
    """last's map plus first's input map, where last reads first's output:
    res_b(res_a(fused)) + fused, with fused's rows kept in res_a's buf."""

    def __init__(self, first: _Streamed, last: _Streamed):
        self.first, self.last = first, last
        self.height, self.width, self.channels = last.height, last.width, last.channels
        first.hold = 0

    def plan(self, stops: list[int]) -> None:
        self.last.plan(stops)
        self.stops = self.last.stops

    def write(self, dest: np.ndarray, r0: int, r1: int) -> None:
        self.last.write(dest, r0, r1)
        ad.add_(Tensor(dest), Tensor(self.first.held(r0, r1)))
        self.first.hold = r1


def _chain(net: Sequential, data: np.ndarray) -> _Streamed:
    """net's layers as streamed maps, the first over the map `data` held
    in memory."""
    m = _Held(data)
    for layer in net.layers:
        m = _Streamed(layer, m)
    return m


def _hyper_analysis(rng, c: int, c_prime: int) -> Sequential:
    """Signal-preserving hyper analysis: 3x3 linear expansion to 2c,
    space-to-depth, two 1x1 ReLU stages at 4c, 1x1 linear to c'."""
    return Sequential([
        ConvLayer(rng, c, 2 * c, 3, 1, "linear"),
        SpaceToDepthLayer(2 * c),
        ConvLayer(rng, 8 * c, 4 * c, 1, 1, "relu"),
        ConvLayer(rng, 4 * c, 4 * c, 1, 1, "relu"),
        ConvLayer(rng, 4 * c, c_prime, 1, 1, "linear"),
    ])


def _hyper_synthesis(rng, c: int, c_prime: int) -> Sequential:
    """Mirror of the hyper analysis: 1x1 linear to 4c, depth-to-space,
    two 1x1 ReLU stages at 4c, 3x3 linear back to c."""
    return Sequential([
        ConvLayer(rng, c_prime, 4 * c, 1, 1, "linear", transpose=True),
        SpaceToDepthLayer(4 * c, inverse=True),
        ConvLayer(rng, c, 4 * c, 1, 1, "relu", transpose=True),
        ConvLayer(rng, 4 * c, 4 * c, 1, 1, "relu", transpose=True),
        ConvLayer(rng, 4 * c, c, 3, 1, "linear", transpose=True),
    ])


class PredictorHead:
    """Two 1x1 convs with a ReLU between; output splits into mu and raw
    scale, with sigma = clamp(exp(raw), SIGMA_MIN, SIGMA_MAX).

    The raw-scale bias starts at log(sigma_init) so the predicted scales
    begin near the actual latent magnitudes instead of deep inside the
    likelihood floor."""

    def __init__(self, rng, channels: int, sigma_init: float = 1.0):
        self.channels = channels
        self.net = Sequential([
            ConvLayer(rng, channels, 2 * channels, 1, 1, "relu"),
            ConvLayer(rng, 2 * channels, 2 * channels, 1, 1, "linear"),
        ])
        # damp the output layer so exp(raw) starts concentrated near
        # sigma_init instead of slamming into the clamp bounds
        self.net.layers[-1].kernel.data *= 0.05
        self.net.layers[-1].bias.data[..., channels:] = float(np.log(sigma_init))

    def __call__(self, side: Tensor) -> tuple[Tensor, Tensor]:
        out = self.net(side)
        mu = ad.channel_slice(out, 0, self.channels)
        raw = ad.channel_slice(out, self.channels, 2 * self.channels)
        sigma = ad.clamp(ad.exp(raw), SIGMA_MIN, SIGMA_MAX)
        return mu, sigma

    def params(self, prefix: str):
        yield from self.net.params(f"{prefix}.net")


class CodecModel:
    """All trainable parameters plus the architecture hyperparameters.
    seed=None draws nothing: random kernels start at zero, to be rebound."""

    def __init__(self, arch: ArchConfig, lambda_tag: int = 0,
                 distortion: str = "mse", seed: int | None = 0):
        if distortion not in ("mse", "msssim"):
            raise ContractViolation(f"unknown distortion kind {distortion!r}")
        self.arch = arch
        self.lambda_tag = int(lambda_tag)
        self.distortion = distortion
        rng = None if seed is None else np.random.default_rng(seed)
        n, c_y, c_z = arch.n_main, arch.c_y, arch.c_z

        # the last analysis GDN starts as a pure x10 gain (beta = 0.01,
        # gamma = 0): each latent plane must start well above the unit
        # quantization bin or the +-0.5 noise drowns the signal and
        # desk-scale runs collapse to ignoring the latents entirely
        self.analysis_t = Sequential(
            [ConvLayer(rng, 3, n, 5, 2, "gdn", gdn_init=(1.0, 0.01))]
            + [ConvLayer(rng, n, n, 5, 2, "gdn", gdn_init=(1.0, 0.01))
               for _ in range(MAIN_DEPTH - 2)]
            + [ConvLayer(rng, n, n, 5, 2, "gdn", gdn_init=(0.01, 0.0))])

        self.hyper_analysis_1 = _hyper_analysis(rng, n, c_y)
        self.hyper_analysis_2 = _hyper_analysis(rng, c_y, c_z)
        # hyper output layers are linear, so a plain kernel gain is safe
        self.hyper_analysis_1.layers[-1].kernel.data *= 8.0
        self.hyper_analysis_2.layers[-1].kernel.data *= 8.0
        self.hyper_synthesis_1 = _hyper_synthesis(rng, n, c_y)
        self.hyper_synthesis_2 = _hyper_synthesis(rng, c_y, c_z)

        # scales start near the observed init magnitudes of each plane
        self.predictor_x = PredictorHead(rng, n, sigma_init=4.0)
        self.predictor_y = PredictorHead(rng, c_y, sigma_init=8.0)
        self.fz = FactorizedZ.create(c_z, sigma_init=16.0)

        # one linear layer mapping Y's grid onto X's grid (2x up, no bias)
        self.info_proj = ConvLayer(rng, c_y, n, 2, 2, "linear", bias=False,
                                   transpose=True)

        # information-aggregation decoder: main path 3 stages to h/2,
        # side paths 3 (L1, from /16) and 4 (L2, from /32) stages to h/2
        cs = max(n // 2, 4)
        # synthesis iGDNs start near-linear; gamma = 0.1 would amplify the
        # large decoded latents and swamp the first training steps
        self.synthesis_main = Sequential(
            [ConvLayer(rng, n, n, 5, 2, "igdn", gdn_init=(1.0, 1e-4), transpose=True)
             for _ in range(3)])
        for layer in self.synthesis_main.layers:
            layer.kernel.data = _smooth_upsample_init(rng, 5, n, n)
        self.side1_up = Sequential(
            [ConvLayer(rng, n, cs, 3, 2, "relu", transpose=True)]
            + [ConvLayer(rng, cs, cs, 3, 2, "relu", transpose=True) for _ in range(2)])
        self.side2_up = Sequential(
            [ConvLayer(rng, c_y, cs, 3, 2, "relu", transpose=True)]
            + [ConvLayer(rng, cs, cs, 3, 2, "relu", transpose=True) for _ in range(3)])
        # peripheral convs stay linear so the smooth main path is not
        # ReLU-gated at init; the residual tail starts damped
        self.fuse_in = ConvLayer(rng, n + 2 * cs, n, 3, 1, "linear")
        self.res_a = ConvLayer(rng, n, n, 3, 1, "relu")
        self.res_b = ConvLayer(rng, n, n, 3, 1, "linear")
        self.res_b.kernel.data *= 0.1
        self.fuse_out = ConvLayer(rng, n, n, 3, 1, "linear")
        for c in range(n):
            self.fuse_in.kernel.data[1, 1, c, c] += 1.0
            self.fuse_out.kernel.data[1, 1, c, c] += 1.0
        # the identity-initialised path above carries the x10 analysis gain
        # through to fuse_out (activation std ~4.5 on the zoo arch), so a
        # plain-scale random kernel here would start the output near std 5
        # on [0,1]; damp it so a fresh model starts at mid-gray.  This is
        # the last draw from rng, so every earlier parameter is unchanged.
        self.final_up = ConvLayer(rng, n, 3, 5, 2, "linear", transpose=True)
        self.final_up.kernel.data *= FINAL_UP_INIT_GAIN
        self.final_up.bias.data[:] = 0.5  # start at mid-gray

    # -- forward pieces -----------------------------------------------------

    # A stage input with the wrong channel count is refused by the stage's
    # first conv or deconv; only the padding is checked here.

    def analysis(self, image: Tensor | np.ndarray) -> Tensor:
        """The main latent of a padded (b, h, w, 3) image: a Tensor, or
        uint8 pixels, read as float32 / 255.

        Where a tape records the call (training), every layer computes its
        whole map, and pixels are refused.  Elsewhere the analysis streams,
        image by image, as the synthesis does: each layer computes its
        output in windows of rows and keeps only the input rows its next
        windows read, and the pixels become floats a few rows at a time,
        so memory follows the image's width, not its area, with the bits
        of the whole maps."""
        pixels = isinstance(image, np.ndarray)
        if pixels and (image.ndim != 4 or image.dtype != np.uint8):
            raise ContractViolation(
                f"analysis pixels must be (b, h, w, 3) uint8, got {image.shape} {image.dtype}")
        h, w = image.shape[1:3]
        if h % DOWNSAMPLE or w % DOWNSAMPLE:
            raise ContractViolation(
                f"input must be padded to multiples of {DOWNSAMPLE}, got {h}x{w}")
        if ad.recording(*([] if pixels else [image]), *self.param_list()):
            if pixels:
                raise ContractViolation("an analysis that records a tape takes a Tensor")
            return self.analysis_t(image)
        data = image if pixels else image.data
        out = None
        for i in range(len(data)):
            x_cont = _chain(self.analysis_t, data[i:i + 1])
            x_cont.plan([x_cont.height])  # downsampling convs pick their own stops
            if out is None:
                out = np.empty((len(data), x_cont.height, x_cont.width, x_cont.channels),
                               np.float32)
            for r0, r1 in _windows(x_cont):
                x_cont.write(out[i:i + 1, r0:r1], r0, r1)
        return Tensor(out)

    def hyper_analysis(self, level_input: Tensor, level: int) -> Tensor:
        return {1: self.hyper_analysis_1, 2: self.hyper_analysis_2}[level](level_input)

    def hyper_synthesis(self, code: Tensor, level: int) -> Tensor:
        return {1: self.hyper_synthesis_1, 2: self.hyper_synthesis_2}[level](code)

    def predict_params(self, side_repr: Tensor, level: str) -> tuple[Tensor, Tensor]:
        return {"x": self.predictor_x, "y": self.predictor_y}[level](side_repr)

    def side_params(self, code: Tensor, level: int) -> tuple[Tensor, Tensor, Tensor]:
        """Hyper synthesis of a quantized plane and the Gaussian parameters
        it predicts for the plane below: level 2 maps Z to (side2, mu_y,
        sigma_y), level 1 maps Y to (side1, mu_x, sigma_x)."""
        side = self.hyper_synthesis(code, level)
        mu, sigma = self.predict_params(side, {1: "x", 2: "y"}[level])
        return side, mu, sigma

    def forward(self, image: Tensor | np.ndarray, mode: QuantizerMode,
                rng: np.random.Generator | None = None) -> LatentTriple:
        """The one encoder chain, shared by coding and training, over an
        image as `analysis` takes it.

        Analysis, hyper analysis L1 and L2, quantization of Z, Y, X (in
        that order, so noise draws consume `rng` in a fixed order), then
        hyper synthesis L2 -> Y parameters and L1 -> X parameters.  Coding
        rounds (INFERENCE_ROUND), so the parameters come from the same
        rounded planes the decoder recovers; training adds noise.
        """
        x_cont = self.analysis(image)
        y_cont = self.hyper_analysis(x_cont, 1)
        z_cont = self.hyper_analysis(y_cont, 2)

        z = quantize(z_cont, mode, rng)
        y = quantize(y_cont, mode, rng)
        x = quantize(x_cont, mode, rng)

        side2, mu_y, sigma_y = self.side_params(z, 2)
        side1, mu_x, sigma_x = self.side_params(y, 1)
        return LatentTriple(x=x, y=y, z=z, mu_x=mu_x, sigma_x=sigma_x,
                            mu_y=mu_y, sigma_y=sigma_y,
                            sigma_z=self.fz.sigma_values(),
                            x_cont=x_cont, side1=side1, side2=side2)

    def synthesize(self, xhat: Tensor, side1: Tensor, side2: Tensor,
                   sink=None) -> Tensor | None:
        """Reconstruct the image; output is unclipped (clip at inference).

        The three paths meet in one (b, h/2, w/2, n + 2*cs) map, and the
        concat refuses grids that disagree.  Where a tape records the call
        (training), every layer computes its whole map.  Elsewhere the
        synthesis streams, image by image: every layer, the concat and the
        residual compute their output in windows of rows (at most
        _WINDOW_PIXELS pixels each) and keep only the input rows their
        next windows read, so memory follows the image's width, not its
        area, with the bits of the whole maps.  Each finished band of
        output rows then goes to sink(r0, band), band an (rows, w, 3)
        array of the one image, or without a sink into one returned map."""
        if ad.recording(xhat, side1, side2, *self.param_list()):
            if sink is not None:
                raise ContractViolation("a synthesis that records a tape has no sink")
            paths = ((self.synthesis_main, xhat), (self.side1_up, side1),
                     (self.side2_up, side2))
            fused = self.fuse_in(ad.concat_channels([net(x) for net, x in paths]))
            return self.final_up(self.fuse_out(ad.add(fused, self.res_b(self.res_a(fused)))))
        batch = xhat.shape[0]
        if sink is not None and batch != 1:
            raise ContractViolation(f"a synthesis sink takes one image, got {batch}")
        out = None
        for i in range(batch):
            final = self._streamed(*(t.data[i:i + 1] for t in (xhat, side1, side2)))
            if sink is None and out is None:
                out = np.empty((batch, final.height, final.width, final.channels), np.float32)
            for r0, r1 in _windows(final):
                band = (out[i:i + 1, r0:r1] if sink is None else
                        np.empty((1, r1 - r0, final.width, final.channels), np.float32))
                final.write(band, r0, r1)
                if sink is not None:
                    sink(r0, band[0])
        return None if sink is not None else Tensor(out)

    def _streamed(self, xhat: np.ndarray, side1: np.ndarray, side2: np.ndarray) -> _Streamed:
        """The synthesis of one image as a chain of streamed maps."""
        joined = _Joined([_chain(self.synthesis_main, xhat), _chain(self.side1_up, side1),
                          _chain(self.side2_up, side2)])
        res_a = _Streamed(self.res_a, _Streamed(self.fuse_in, joined))
        res = _Residual(res_a, _Streamed(self.res_b, res_a))
        final = _Streamed(self.final_up, _Streamed(self.fuse_out, res))
        # the image has 3 channels: its windows are sized by final_up's input
        final.plan(list(range(8, final.height, 8)) + [final.height], by_input=True)
        return final

    # -- parameter access ---------------------------------------------------

    def named_params(self) -> dict[str, Tensor]:
        parts = [
            ("analysis", self.analysis_t),
            ("hyper_analysis_1", self.hyper_analysis_1),
            ("hyper_analysis_2", self.hyper_analysis_2),
            ("hyper_synthesis_1", self.hyper_synthesis_1),
            ("hyper_synthesis_2", self.hyper_synthesis_2),
            ("predictor_x", self.predictor_x),
            ("predictor_y", self.predictor_y),
            ("synthesis_main", self.synthesis_main),
            ("side1_up", self.side1_up),
            ("side2_up", self.side2_up),
            ("fuse_in", self.fuse_in),
            ("res_a", self.res_a),
            ("res_b", self.res_b),
            ("fuse_out", self.fuse_out),
            ("final_up", self.final_up),
            ("info_proj", self.info_proj),
        ]
        out = {name: tensor for prefix, part in parts for name, tensor in part.params(prefix)}
        out["fz.log_sigma"] = self.fz.log_sigma
        return out

    def param_list(self) -> list[Tensor]:
        return [t for _, t in sorted(self.named_params().items())]

    def latent_shapes(self, pad_h: int, pad_w: int):
        """Shapes of (X, Y, Z) for one padded input of the given size."""
        a = self.arch
        return ((1, pad_h // 16, pad_w // 16, a.n_main),
                (1, pad_h // 32, pad_w // 32, a.c_y),
                (1, pad_h // 64, pad_w // 64, a.c_z))
