"""Deterministic 4-D tensor engine with reverse-mode autodiff.

Every tensor is a dense float32 array of rank exactly 4, laid out
(batch, height, width, channels) in row-major order.  Scalars are shape
(1, 1, 1, 1), per-channel vectors (1, 1, 1, c), channel matrices
(1, 1, c, c) and convolution kernels (kh, kw, cin, cout).

The op set is exactly what the codec needs: strided conv and transposed
conv (exact adjoints, one gather engine: a transposed conv is a gather
per output phase), GDN / iGDN, space-to-depth and its inverse, a small
elementwise suite and the discretized Gaussian rate term's pieces (exp,
log, ndtr, clamp).  Non-finite values raise ``NumericError`` at once.
``ndtr64``, the float64 normal CDF under the ``ndtr`` op, also gives the
coder tables (``entropy``) their values.
The bands of a conv or a GDN map run on two threads where the process
has two CPUs and a one-thread OpenBLAS, with the bits of one thread: the
calling thread and a helper started for the call and joined before it
returns.  No engine thread runs between calls.

Every op returns a fresh array, except the in-place inference epilogues
``add_``, ``relu_`` and ``gdn_``.  They write into their first argument
and record no tape, so they serve only a map that no tape records and
that the caller itself created (a layer's own conv output); where the op
would be recorded they refuse.  Each gives the bits of its taped op and
keeps that op's finiteness check.

Where no tape is recorded, ``conv2d`` and ``deconv2d`` also compute a
window of output rows (``Rows``) from a window of input rows, into an
array the caller gives, with the bits of the whole map's rows: a map can
then be computed band by band while only the input rows the next band
reads are kept (``transforms.CodecModel.synthesize``).

``Tensor.backward`` frees the tape as it walks it: each recorded op drops
its gradient, parents and vjp once its vjp has run, so a training step
holds at most one forward tape.  Only leaves keep ``.grad``; a tape is
walked once per forward, and a second walk over it raises.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar, copy_context
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation, NumericError

__all__ = [
    "Tensor", "GdnParams", "Adam", "adam_step",
    "ADAM_BETA1", "ADAM_BETA2", "ADAM_EPS", "no_grad", "recording",
    "add", "sub", "mul", "div", "neg", "add_const", "mul_const",
    "relu", "exp", "log", "sqrt", "square", "powc", "ndtr", "ndtr64", "clamp",
    "sum_all", "mean_all", "mse", "l2_norm",
    "concat_channels", "channel_slice",
    "conv2d", "deconv2d", "Rows", "input_rows", "space_to_depth", "depth_to_space",
    "cmatmul", "avg_pool2", "gdn", "add_", "relu_", "gdn_",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _finite(data: np.ndarray) -> bool:
    """True unless `data` holds a NaN or an infinity (an empty array is
    finite).  NaN propagates through max, and +/-inf shows at max/min, so
    two reductions decide it without a boolean temporary."""
    return data.size == 0 or bool(np.isfinite(data.max()) and np.isfinite(data.min()))


def _check_finite(data: np.ndarray, op: str) -> None:
    if not _finite(data):
        raise NumericError(f"non-finite values produced by op '{op}'")


class Tensor:
    """A 4-D float32 array with an optional gradient and tape entry."""

    __slots__ = ("data", "requires_grad", "grad", "op", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, *,
                 op: str = "leaf", _parents=(), _vjp=None):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float32))
        if arr.ndim != 4:
            raise ContractViolation(
                f"tensors are rank-4 (b,h,w,c); got shape {arr.shape}")
        _check_finite(arr, op)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.op = op
        self._parents: tuple[Tensor, ...] = _parents
        self._vjp = _vjp

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.size != 1:
            raise ContractViolation(f"item() on non-scalar shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Accumulate gradients of this scalar loss into every
        requires_grad tensor it was computed from, freeing the tape.

        Nodes are ordered parents-before-children by a walk that follows
        recorded parent order, then visited in exact reverse, so repeated
        calls on an identical graph and values produce bit-identical
        gradients.  Each recorded op gives up its gradient before its vjp
        runs and its parents and vjp after, so the walk holds at most the
        forward tape.  Only leaves keep `.grad`.  A tape is walked once:
        reaching a part of it that a walk freed raises ContractViolation.
        """
        if self.size != 1:
            raise ContractViolation("backward() needs a scalar loss")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._vjp is None and node.requires_grad and node.op != "leaf":
                raise ContractViolation(
                    f"backward() reached op '{node.op}', whose tape an earlier backward() freed")
            seen.add(id(node))
            stack.append((node, True))
            for parent in reversed(node._parents):
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones((1, 1, 1, 1), dtype=np.float32)
        while order:
            node = order.pop()
            if node._vjp is None:
                continue
            grad, node.grad = node.grad, None
            if grad is not None:
                for parent, g in zip(node._parents, node._vjp(grad)):
                    if g is None or not parent.requires_grad:
                        continue
                    if not _finite(g):
                        raise NumericError(f"non-finite gradient out of op '{node.op}'")
                    if parent.grad is None:
                        parent.grad = np.zeros_like(parent.data)
                    parent.grad += g.astype(np.float32, copy=False)
            node._parents, node._vjp = (), None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r}, grad={self.requires_grad})"


# Per-context (and so per-thread: a new thread starts with an empty
# context) rather than a module global, so overlapping no_grad blocks in
# two threads cannot leave recording off for the rest of the process.
_grad_enabled: ContextVar[bool] = ContextVar("c2f_grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable tape recording (inference) in the calling thread; nestable."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def _records(parents: tuple[Tensor, ...]) -> bool:
    return _grad_enabled.get() and any(p.requires_grad for p in parents)


def recording(*tensors: Tensor) -> bool:
    """True if an op on these tensors would record a tape entry."""
    return _records(tensors)


def _make(data: np.ndarray, op: str, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Wrap an op result; the tape entry is recorded only if needed."""
    if _records(parents):
        return Tensor(data, requires_grad=True, op=op, _parents=parents, _vjp=vjp)
    return Tensor(data, op=op)


def _writable(a: Tensor, *others: Tensor) -> np.ndarray:
    """a's array, for an in-place op on a and others: refused where the op
    would be recorded, since a tape may hold a's values."""
    if _records((a, *others)):
        raise ContractViolation("in-place ops run only where no tape is recorded")
    return a.data


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    for axis in range(4):
        if shape[axis] == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise suite

def add(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)
    return _make(a.data + b.data, "add", (a, b), vjp)


def add_(a: Tensor, b: Tensor) -> Tensor:
    """add(a, b) written into a; b broadcasts to a's shape."""
    data = _writable(a, b)
    data += b.data
    _check_finite(data, "add")
    return a


def sub(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)
    return _make(a.data - b.data, "sub", (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)
    return _make(a.data * b.data, "mul", (a, b), vjp)


def div(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return (_unbroadcast(g / b.data, a.shape),
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data
    return _make(out, "div", (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, "neg", (a,), lambda g: (-g,))


def add_const(a: Tensor, c: float) -> Tensor:
    return _make(a.data + np.float32(c), "add_const", (a,), lambda g: (g,))


def mul_const(a: Tensor, c: float) -> Tensor:
    c32 = np.float32(c)
    return _make(a.data * c32, "mul_const", (a,), lambda g: (g * c32,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0  # subgradient at exactly 0 is defined as 0
    return _make(np.where(mask, a.data, 0), "relu", (a,), lambda g: (g * mask,))


def relu_(a: Tensor) -> Tensor:
    """relu written into a.  For a -0.0, maximum may return either zero
    (numpy does not say which); relu gives +0.0, and adding +0.0 turns
    either into that and leaves every other value alone."""
    data = _writable(a)
    np.maximum(data, 0, out=data)
    data += 0
    return a


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(a.data)
    return _make(out, "exp", (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)
    return _make(out, "log", (a,), lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore"):
        out = np.sqrt(a.data)
    return _make(out, "sqrt", (a,), lambda g: (g * (0.5 / out),))


def square(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = a.data * a.data
    return _make(out, "square", (a,), lambda g: (g * (2.0 * a.data),))


def powc(a: Tensor, p: float) -> Tensor:
    with np.errstate(invalid="ignore", divide="ignore"):
        out = a.data ** np.float32(p)
    return _make(out, "powc", (a,), lambda g: (g * np.float32(p) * a.data ** np.float32(p - 1),))


# Cephes ndtr (S. L. Moshier), the algorithm of scipy.special.ndtr: rational
# approximations of erf on |x| <= 1 (T / U) and of erfc on 1 <= x < 8 (P / Q)
# and x >= 8 (R / S).  Each denominator's leading 1 is written out: 1.0 * x
# is exact, so _polevl then does Cephes p1evl's arithmetic.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # erfc(x) underflows to 0 where x * x exceeds it
_SQRT1_2 = 0.70710678118654752440


def _polevl(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """Horner's rule from the leading coefficient, as Cephes polevl."""
    out = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        out = out * x + c
    return out


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def ndtr64(a) -> np.ndarray:
    """Standard normal CDF in float64, elementwise; NaN gives NaN.

    Cephes ndtr, operation for operation, so its values equal
    scipy.special.ndtr's.  Its exp is libm's (math.exp), not np.exp: the
    coder tables are built from these values and must not depend on which
    SIMD kernel numpy picks on this CPU.
    """
    a = np.asarray(a, dtype=np.float64)
    x = a * _SQRT1_2
    z = np.abs(x)
    # erfc(z) / 2 wherever z >= 1/sqrt2; it stays 0 where Cephes erfc underflows
    half_erfc = np.zeros_like(z)
    sel = (z >= _SQRT1_2) & (z < 1.0)  # Cephes erfc is 1 - erf below 1
    half_erfc[sel] = 0.5 * (1.0 - _erf(z[sel]))
    with np.errstate(over="ignore"):
        no_underflow = z * z <= _MAXLOG
    for sel, p, q in (((z >= 1.0) & (z < 8.0), _ERFC_P, _ERFC_Q),
                      ((z >= 8.0) & no_underflow, _ERFC_R, _ERFC_S)):
        zs = z[sel]
        e = np.fromiter(map(math.exp, (-(zs * zs)).tolist()), np.float64, zs.size)
        half_erfc[sel] = 0.5 * (e * _polevl(zs, p) / _polevl(zs, q))
    out = np.where(x > 0, 1.0 - half_erfc, half_erfc)
    near = ~(z >= _SQRT1_2)  # NaN is near too, and erf keeps it NaN
    out[near] = 0.5 + 0.5 * _erf(x[near])
    return out


def ndtr(a: Tensor) -> Tensor:
    """Standard normal CDF, elementwise."""
    out = ndtr64(a.data)

    def vjp(g):
        pdf = np.exp(-0.5 * a.data.astype(np.float64) ** 2) * _INV_SQRT_2PI
        return (g * pdf.astype(np.float32),)

    return _make(out.astype(np.float32), "ndtr", (a,), vjp)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only strictly inside the range."""
    mask = (a.data > lo) & (a.data < hi)
    return _make(np.clip(a.data, lo, hi), "clamp", (a,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# reductions

def sum_all(a: Tensor) -> Tensor:
    def vjp(g):
        return (np.broadcast_to(g, a.shape),)
    return _make(a.data.sum(dtype=np.float32).reshape(1, 1, 1, 1), "sum", (a,), vjp)


def mean_all(a: Tensor) -> Tensor:
    return mul_const(sum_all(a), 1.0 / a.size)


def mse(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ContractViolation(f"mse shape mismatch {a.shape} vs {b.shape}")
    return mean_all(square(sub(a, b)))


def l2_norm(a: Tensor) -> Tensor:
    return sqrt(sum_all(square(a)))


# ---------------------------------------------------------------------------
# shape ops

def concat_channels(tensors: list[Tensor]) -> Tensor:
    """Join maps of one (b, h, w) along channels."""
    shape = tensors[0].shape[:3]
    for t in tensors:
        if t.shape[:3] != shape:
            raise ContractViolation(f"concat over (b,h,w) {shape} got {t.shape}")
    bounds = np.cumsum([0] + [t.shape[3] for t in tensors]).tolist()

    def vjp(g):
        return tuple(g[..., lo:hi] for lo, hi in zip(bounds, bounds[1:]))

    return _make(np.concatenate([t.data for t in tensors], axis=3), "concat",
                 tuple(tensors), vjp)


def channel_slice(a: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= a.shape[3]):
        raise ContractViolation(f"bad channel slice [{start}:{stop}] of {a.shape}")

    def vjp(g):
        full = np.zeros(a.shape, dtype=np.float32)
        full[..., start:stop] = g
        return (full,)

    return _make(a.data[..., start:stop], "channel_slice", (a,), vjp)


def space_to_depth(a: Tensor) -> Tensor:
    """Each 2x2 block of pixels becomes 4 * c channels."""
    b, h, w, c = a.shape
    if h % 2 or w % 2:
        raise ContractViolation(f"space_to_depth needs even dims; got {a.shape}")
    def fwd(x):
        return (x.reshape(b, h // 2, 2, w // 2, 2, c)
                 .transpose(0, 1, 3, 2, 4, 5)
                 .reshape(b, h // 2, w // 2, 4 * c))
    def vjp(g):
        back = (g.reshape(b, h // 2, w // 2, 2, 2, c)
                 .transpose(0, 1, 3, 2, 4, 5)
                 .reshape(b, h, w, c))
        return (np.ascontiguousarray(back),)
    return _make(fwd(a.data), "space_to_depth", (a,), vjp)


def depth_to_space(a: Tensor) -> Tensor:
    b, h, w, c = a.shape
    if c % 4:
        raise ContractViolation("depth_to_space needs channels divisible by 4")
    c2 = c // 4
    def fwd(x):
        return (x.reshape(b, h, w, 2, 2, c2)
                 .transpose(0, 1, 3, 2, 4, 5)
                 .reshape(b, h * 2, w * 2, c2))
    def vjp(g):
        back = (g.reshape(b, h, 2, w, 2, c2)
                 .transpose(0, 1, 3, 2, 4, 5)
                 .reshape(b, h, w, c))
        return (np.ascontiguousarray(back),)
    return _make(fwd(a.data), "depth_to_space", (a,), vjp)


# ---------------------------------------------------------------------------
# convolution: one banded gather engine.  conv2d's forward pass and
# deconv2d's backward dy are one gather each; deconv2d's forward pass and
# conv2d's backward dx (_scatter) are one stride-1 gather per output phase
# (the sub-pixel form), so the two ops are exact adjoints.
#
# A gather runs over bands of output rows, so its scratch is O(band), not
# O(image), and the padded input is never built: each band copies the
# padded input rows it reads into reused buffers, one per phase of the
# stride (Shi et al., arXiv 1609.05158), or at stride 1 reads x in place
# when there is no pad.  Every tap's operand is then one contiguous slice
# of one buffer, at any stride.  Every output sums the same ci-length sgemm
# dot products over the taps, in the row-major order of the kernel.  sgemm
# may round a row differently depending on the product's shape: OpenBLAS
# 0.3.31 runs a one-row product as sgemv and, on SkylakeX, a product of
# at most 1200 outputs with a transposed right operand through its
# small-matrix kernel.  Every band cut depends only on the shapes of the
# call, so the encoder and the decoder run the same products.  Bands are
# balanced, so none is a short leftover, and a stride-1 band may take
# 2 * kh rows or more: it keeps at least kh, more than its kh - 1 halo.
#
# A window of a streamed map (Rows) is cut into two bands instead, one
# per thread, by its shape alone, each of at least kh rows at stride 1.
# It stays one band where a half would be smaller or would have fewer
# than _HALF_ROWS flattened rows: products that small may go to the
# small-matrix sgemm, whose rows round unlike the whole map's.
#
# A band then computes its taps block by block (Goto and van de Geijn,
# "Anatomy of High-Performance Matrix Multiplication", TOMS 2008): a
# block is whole rows of the band's padded layout, sized by the call's
# shapes alone so that its tmp and acc take about _BLOCK_BYTES, and of at
# least _HALF_ROWS flattened rows.  Every tap of a block is the same rows
# of the same phase times the same kern[i, j], added in the same order,
# so every output sums the band's products in the band's order, and the
# block writes its real output rows straight into out.  Only the phases
# stay band-sized, since the taps read the band's halo rows.  A thin
# output's stacked product and a 1x1 kernel's direct product keep their
# band.  GDN runs the same blocks over its rows.

# flattened matmul rows per band
_BAND_ROWS = 8192
# flattened matmul rows a window's band, and a block, keeps at least
_HALF_ROWS = 512
# bytes of a block's two float32 scratch arrays (tmp and acc, or sq and root)
_BLOCK_BYTES = 1 << 20


def _out_and_pad(in_dim: int, k: int, stride: int, padding: str) -> tuple[int, int, int]:
    if padding == "same":
        out = -(-in_dim // stride)
        total = max((out - 1) * stride + k - in_dim, 0)
        return out, total // 2, total - total // 2
    if padding == "valid":
        if in_dim < k:
            raise ContractViolation(f"valid conv needs dim {in_dim} >= kernel {k}")
        return (in_dim - k) // stride + 1, 0, 0
    raise ContractViolation(f"padding must be 'same' or 'valid', got {padding!r}")


def _bands(b: int, oh: int, rows: int) -> list[tuple[int, int, int, int]]:
    """Cut b images of oh output rows into bands (n0, n1, r0, r1), rows
    r0..r1-1 of images n0..n1-1, of at most `rows` rows each: whole images
    where one fits, else pieces of one image.  Band sizes differ by at most
    one image or row, so no band is a short leftover."""
    def split(total, most):
        n = -(-total // most)
        cuts = [total * k // n for k in range(n + 1)]
        return zip(cuts[:-1], cuts[1:])

    rows = max(rows, 1)
    if oh <= rows:
        return [(n0, n1, 0, oh) for n0, n1 in split(b, rows // oh)]
    return [(n, n + 1, r0, r1) for n in range(b) for r0, r1 in split(oh, rows)]


def _halves(b: int, oh: int, row_len: int, least: int = 1) -> list[tuple[int, int, int, int]]:
    """A window's bands: each image's oh rows cut in two, or whole where a
    half would hold fewer than `least` rows or _HALF_ROWS flattened rows
    of row_len each."""
    half = oh // 2
    return _bands(b, oh, oh if half < least or half * row_len < _HALF_ROWS else oh - half)


def _blocks(rows: int, row_len: int, width: int, least: int) -> list[tuple[int, int]]:
    """Cut `rows` rows of row_len flattened rows into blocks [r0, r1),
    cut evenly: as many as keep two float32 arrays of a block's flattened
    rows and `width` columns near _BLOCK_BYTES, but none of fewer than
    `least` rows (one block where rows are fewer)."""
    most = max(_BLOCK_BYTES // (8 * width * row_len), 1)
    n = max(min(-(-rows // most), rows // least), 1)
    cuts = [rows * k // n for k in range(n + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


# A call of two bands or more runs its second half of the bands on a
# helper thread of its own, started for the call and joined before it
# returns, so no c2f thread runs between calls and no call uses more than
# two threads.  Each thread holds the scratch of one band (of one block,
# but for the phases), so whatever the host, a call adds at most that to
# the serial one's memory.  The helper runs only when the process's
# affinity mask has two CPUs or more (all of the machine's where the OS
# keeps no mask) and the OpenBLAS numpy loaded runs one thread: a
# threaded sgemm already spreads each product over the cores, and the
# helper would contend with it.  Which thread runs a band changes no bit:
# the cuts and each band's products are the same, and the threads share
# only arrays, each writing its own bands of the output.  numpy lets go of
# the GIL inside matmul and the large copies, which is where a band
# spends its time.
#
# The helper also runs only where the second half's work reaches
# _HELPER_MACS: its multiply-adds, plus _ROW_MACS for each row of each
# product (the add into acc, the copies and the calls around it).  Below
# that, the thread's start and join and the threads' contention for the
# GIL and the cores cost what the overlap saves.  Window calls timed on a
# 2-core SkylakeX host, two threads against one, by the half's work: a
# 3x3 conv of 512 rows at 64 -> 32 channels (10.6M, a 64x64 zoo image's
# fuse_in) 1.14x, of 4,096 rows at 16 -> 16 (18.9M) 0.99x, at 32 -> 16
# (28.3M) 0.82x, at 128 -> 128 (608M) 0.57x; a GDN of 4,096 rows of 32
# channels (5.2M) 1.01x, of 128 (68M) 0.75x.
_ROW_MACS = 256
_HELPER_MACS = 13_000_000
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


def _find_openblas_threads():
    """OpenBLAS's thread count query, from the library numpy loaded (its
    Linux wheels bundle it in numpy.libs), or None for any other BLAS."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn
    return None


_openblas_threads = _find_openblas_threads()


def _over_bands(bands: list, alloc, run, args: tuple, row_macs: int) -> None:
    """run(half, alloc(half, *args), *args) for the first and second half
    of bands, the second on a helper thread where the host allows one and
    the half's work pays for it: row_macs for each of its band rows.

    alloc runs in the calling thread: scratch made in another thread comes
    from another malloc arena, and the kodak-n128 benchmark's peak RSS
    rose from 378 to 399 MB with it on a 2-core host.  The call returns or
    raises only once the helper has ended, so no other thread writes into
    an array after it, and it raises what the first band to fail raised,
    as one thread running the bands in order would."""
    half = len(bands) // 2
    first, second = bands[:half], bands[half:]
    if (not first or _CPUS == 1 or _openblas_threads is None or _openblas_threads() != 1
            or sum((n1 - n0) * (r1 - r0) for n0, n1, r0, r1 in second) * row_macs
            < _HELPER_MACS):
        run(bands, alloc(bands, *args), *args)
        return
    first_scratch, second_scratch = alloc(first, *args), alloc(second, *args)
    raised = []

    def helper():
        try:
            run(second, second_scratch, *args)
        except BaseException as exc:  # re-raised in the calling thread below
            raised.append(exc)

    # the helper runs in a copy of this thread's context: its errstate
    thread = threading.Thread(target=copy_context().run, args=(helper,))
    thread.start()
    try:
        run(first, first_scratch, *args)
    finally:
        thread.join()
    if raised:
        raise raised[0]


def _fill(dst: np.ndarray, x: np.ndarray, q0: int, pt: int, pl: int,
          s: int, a: int, c: int) -> None:
    """dst[k] = phase (a, c) of padded rows q0.. of x[k]: dst[k, u, v] is
    padded row q0 + s*u + a, column s*v + c, where padded row q holds
    x[k, q - pt] at columns pl:pl + w, or zeros in the pad.  The pad
    columns of dst are never written, so they keep the zeros of the
    buffer dst views."""
    h, w = x.shape[1:3]
    n = dst.shape[1]
    # phase rows lo..hi-1 and columns v0..v1-1 hold x; the rest is pad
    lo, hi = (min(max(-((q0 + a - e) // s), 0), n) for e in (pt, pt + h))
    v0, v1 = (-((c - e) // s) for e in (pl, pl + w))
    r = q0 + s * lo + a - pt
    dst[:, :lo] = 0
    dst[:, lo:hi, v0:v1] = x[:, r:r + s * (hi - lo):s, s * v0 + c - pl::s]
    dst[:, hi:] = 0


def _gather(x: np.ndarray, kern: np.ndarray, stride: int,
            pads: tuple[int, int, int, int], oh: int, ow: int,
            reverse: bool = False, out: np.ndarray | None = None,
            window: bool = False) -> np.ndarray:
    """out[n, r, c] = sum over taps (i, j) of xp[n, s*r + i, s*c + j] @ kern[i, j],
    where xp is x zero-padded by pads = (top, bottom, left, right), adding
    the taps in row-major order, or with `reverse` in the reverse order.
    out, if given, may be any view of the result's shape; a `window` is
    cut into halves (_halves) instead of bands of _BAND_ROWS."""
    b, _, w, ci = x.shape
    kh, kw, _, co = kern.shape
    taps = [(i, j) for i in range(kh) for j in range(kw)][::-1 if reverse else 1]
    if out is None:
        out = np.empty((b, oh, ow, co), dtype=np.float32)
    # A band's padded rows, split into the s*s phases of stride s and
    # stacked image after image, are s*s flat arrays (at stride 1 with no
    # pad, the one array is x itself, read in place).  Tap (i, j) is the
    # contiguous view of phase (i % s, j % s) from row i // s, column
    # j // s.  The band computes ceil(wp / s) columns per row and keeps ow,
    # and computes and drops the rows per image that straddle two images; a
    # 1x1 stride-1 kernel has neither, so it writes into out directly.  A thin
    # output (kh * kw * co <= ci at stride 1, as in final_up's phases)
    # takes all taps in one product no wider than the rows it reads, then
    # adds each tap's slice.
    wp = w + pads[2] + pads[3]
    if window:
        bands = _halves(b, oh, wp, kh) if stride == 1 else _halves(b, oh, ow)
    else:
        bands = _bands(b, oh, max(_BAND_ROWS // wp, 2 * kh) if stride == 1 else _BAND_ROWS // ow)
    stacked = None
    if stride == 1 and kh * kw > 1 and kh * kw * co <= ci:
        # thin: transposed like each kern[i, j], so sgemm reads it the same way
        stacked = np.stack([kern[i, j].T for i, j in taps]).reshape(-1, ci).T
    # an overflow shows as a non-finite output, which the op refuses
    with np.errstate(over="ignore", invalid="ignore"):
        _over_bands(bands, _gather_scratch, _gather_bands,
                    (x, kern, out, stride, pads, taps, stacked),
                    ow * len(taps) * (ci * co + _ROW_MACS))
    return out


def _gather_scratch(bands, x, kern, out, s, pads, taps, stacked):
    """_gather_bands' scratch (phases, tmp, acc) for these bands: phases
    of a band, and tmp and acc of a block (of a band for stacked taps)."""
    ci, wps = x.shape[3], -(-(x.shape[2] + pads[2] + pads[3]) // s)
    khs, ow, co = -(-kern.shape[0] // s), out.shape[2], out.shape[3]
    most_in = max((n1 - n0) * (r1 - r0 - 1 + khs) * wps for n0, n1, r0, r1 in bands)
    phases = np.zeros((s * s, most_in, ci), dtype=np.float32) if s > 1 or any(pads) else None
    if len(taps) == 1 and s == 1 and out.flags.c_contiguous:
        return phases, None, None
    if stacked is not None:
        return (phases, np.empty((most_in, co * len(taps)), dtype=np.float32),
                np.empty((most_in, co), dtype=np.float32))
    rows = max(l1 - l0 for n0, n1, r0, r1 in bands
               for l0, l1 in _band_blocks(n1 - n0, r1 - r0 - 1 + khs, khs, wps, ow, co))
    return (phases, np.empty((rows * wps, co), dtype=np.float32),
            np.empty((rows * wps, co), dtype=np.float32))


def _band_blocks(k: int, q: int, khs: int, wps: int, ow: int, co: int) -> list[tuple[int, int]]:
    """The blocks of a band of k images of q padded rows: its layout rows
    that start an output, the last of them holding ow of its wps columns."""
    return _blocks(k * q - khs + 1, wps, co, -(-(_HALF_ROWS + wps - ow) // wps))


def _put(out: np.ndarray, acc: np.ndarray, n0: int, r0: int, n: int, q: int,
         l0: int, l1: int, wps: int) -> None:
    """Write the real output rows among a band's layout rows l0..l1-1,
    which acc holds from its first row, into out: each image of the band
    takes q layout rows, the first n of them its rows from r0 on."""
    ow, co = out.shape[2:]
    rows = acc[:(l1 - l0) * wps].reshape(l1 - l0, wps, co)
    for t in range(l0 // q, (l1 - 1) // q + 1):
        u0, u1 = max(l0 - t * q, 0), min(l1 - t * q, n)
        if u0 < u1:
            out[n0 + t, r0 + u0:r0 + u1] = rows[t * q + u0 - l0:t * q + u1 - l0, :ow]


def _gather_bands(bands, scratch, x, kern, out, s, pads, taps, stacked):
    """_gather's products for these bands, written into their rows of out."""
    phases, tmp, acc_buf = scratch
    ci, wps = x.shape[3], -(-(x.shape[2] + pads[2] + pads[3]) // s)
    khs, ow, co = -(-kern.shape[0] // s), out.shape[2], out.shape[3]
    for n0, n1, r0, r1 in bands:
        k, q = n1 - n0, r1 - r0 - 1 + khs
        if phases is None:
            flats = [x[n0:n1, r0:r0 + q].reshape(-1, ci)]
        else:
            flats = phases[:, :k * q * wps]
            for p, flat in enumerate(flats):
                _fill(flat.reshape(k, q, wps, ci), x[n0:n1], r0 * s, pads[0], pads[2],
                      s, p // s, p % s)
        m = (k * q - khs) * wps + ow
        if acc_buf is None:
            # out[n0:n1, r0:r1] is whole images or rows of one image of a
            # contiguous out: a view
            np.matmul(flats[0][:m], kern[0, 0], out=out[n0:n1, r0:r1].reshape(m, co))
            continue
        if stacked is not None:
            prod = np.matmul(flats[0], stacked, out=tmp[:len(flats[0])])
            parts = [prod[i * wps + j:i * wps + j + m, t * co:(t + 1) * co]
                     for t, (i, j) in enumerate(taps)]
            acc = acc_buf[:m]
            np.copyto(acc, parts[0])
            for part in parts[1:]:
                acc += part
            _put(out, acc_buf, n0, r0, r1 - r0, q, 0, k * q - khs + 1, wps)
            continue
        for l0, l1 in _band_blocks(k, q, khs, wps, ow, co):
            f0, f1 = l0 * wps, min(l1 * wps, m)
            acc, part = acc_buf[:f1 - f0], tmp[:f1 - f0]
            for tap, (i, j) in enumerate(taps):
                start = i // s * wps + j // s + f0
                a = flats[i % s * s + j % s][start:start + f1 - f0]
                if tap == 0:
                    np.matmul(a, kern[i, j], out=acc)
                else:
                    np.matmul(a, kern[i, j], out=part)
                    acc += part
            _put(out, acc_buf, n0, r0, r1 - r0, q, l0, l1, wps)


def _phase(a: int, k: int, s: int, pad: int, n: int, size: int):
    """(o0, count, lo, hi, before, after) for one axis of _scatter's phase
    a: outputs o0, o0 + s, ... below size, at padded positions a mod s, take
    taps a, a + s, ... of the k, a stride-1 gather over inputs lo..hi-1
    padded by before and after.  None if no output or no input is reached."""
    o0 = (a - pad) % s
    count, taps = len(range(o0, size, s)), len(range(a, k, s))
    # output o0 + s*m takes tap a + s*t from input base + m + taps - 1 - t
    base = (o0 + pad - a) // s - taps + 1
    lo, hi = max(base, 0), min(base + count + taps - 1, n)
    if not (count and taps) or hi <= lo:
        return None
    return o0, count, lo, hi, lo - base, base + count + taps - 1 - hi


def _scatter(y: np.ndarray, kern: np.ndarray, stride: int, pt: int, pl: int,
             out_h: int, out_w: int, out: np.ndarray | None = None,
             window: bool = False) -> np.ndarray:
    """The adjoint of _gather, cropped to rows pt..pt+out_h-1 and columns
    pl..pl+out_w-1 of the padded plane, written into out if given.
    Output phase (a, c), at padded positions (a, c) mod s, takes only the
    taps kern[a::s, c::s]: one stride-1 gather over y, written straight
    into the phase's positions of out, with them flipped and
    channel-transposed and added in reverse, so each output sums its taps
    in kern's row-major order.  A `window`'s gathers are cut into halves."""
    b, h, w, _ = y.shape
    kh, kw, ci, _ = kern.shape
    s = stride
    if out is None:
        out = np.empty((b, out_h, out_w, ci), dtype=np.float32)
    rows = [_phase(a, kh, s, pt, h, out_h) for a in range(s)]
    cols = [_phase(c, kw, s, pl, w, out_w) for c in range(s)]
    if None in rows or None in cols:
        out[...] = 0  # a phase that no tap of kern reaches from y
    for a, row in enumerate(rows):
        for c, col in enumerate(cols):
            if row is None or col is None:
                continue
            (r0, oh, q0, q1, top, bottom), (c0, ow, p0, p1, left, right) = row, col
            taps = kern[a::s, c::s][::-1, ::-1].transpose(0, 1, 3, 2)
            _gather(y[:, q0:q1, p0:p1], taps, 1, (top, bottom, left, right), oh, ow,
                    reverse=True, out=out[:, r0::s, c0::s], window=window)
    return out


def _kernel_grad(xp: np.ndarray, gy: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    b, oh, ow, co = gy.shape
    ci = xp.shape[3]
    gyf = gy.reshape(b * oh * ow, co)
    dk = np.zeros((kh, kw, ci, co), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            sl = xp[:, i:i + (oh - 1) * stride + 1:stride,
                    j:j + (ow - 1) * stride + 1:stride, :]
            dk[i, j] = sl.reshape(b * oh * ow, ci).T @ gyf
    return dk


def _check_stride(stride: int) -> None:
    if stride not in (1, 2):
        raise ContractViolation(f"stride must be 1 or 2, got {stride}")


class Rows(NamedTuple):
    """A window of a conv or deconv: output rows start..stop-1 of the op on
    an input of `height` rows, of which the op's input array holds the
    rows from `top` on, at least every row those outputs read."""

    start: int
    stop: int
    top: int
    height: int


def _rows_read(height: int, k: int, stride: int, pt: int, start: int, stop: int,
               transpose: bool) -> tuple[int, int]:
    """The input rows [a, b) that output rows start..stop-1 read, where pt
    is a conv's top pad or a deconv's crop of its padded plane."""
    if transpose:
        a, b = -((k - 1 - start - pt) // stride), (stop - 1 + pt) // stride + 1
    else:
        a, b = stride * start - pt, stride * (stop - 1) - pt + k
    return max(a, 0), min(b, height)


def input_rows(height: int, k: int, stride: int, start: int, stop: int,
               transpose: bool = False) -> tuple[int, int]:
    """The input rows [a, b) that output rows start..stop-1 of a 'same'
    conv2d with k kernel rows (with `transpose`, a deconv2d) read from an
    input of `height` rows."""
    pt = _out_and_pad(height * stride if transpose else height, k, stride, "same")[1]
    return _rows_read(height, k, stride, pt, start, stop, transpose)


def _window(x: Tensor, kernel: Tensor, rows: Rows, out_rows: int, k: int, stride: int,
            pt: int, transpose: bool) -> tuple[np.ndarray, int]:
    """The rows of x that the window reads, and the index a of the first."""
    if _records((x, kernel)):
        raise ContractViolation("a row window is computed only where no tape is recorded")
    start, stop, top, height = rows
    a, b = _rows_read(height, k, stride, pt, start, stop, transpose)
    if not (0 <= start < stop <= out_rows and top <= a < b <= top + x.shape[1]):
        raise ContractViolation(
            f"output rows {start}..{stop - 1} of {out_rows} read input rows {a}..{b - 1} "
            f"of {height}; the window holds {x.shape[1]} rows from row {top}")
    return x.data[:, a - top:b - top], a


def _window_out(out: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray:
    if out is None:
        return np.empty(shape, dtype=np.float32)
    if out.shape != shape or out.dtype != np.float32 or not out.flags.c_contiguous:
        raise ContractViolation(f"a window of shape {shape} needs a C-contiguous float32 out, "
                                f"got {out.shape} {out.dtype}")
    return out


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: str = "same",
           rows: Rows | None = None, out: np.ndarray | None = None) -> Tensor:
    """2-D convolution over (b,h,w,c) with kernel (kh,kw,cin,cout).

    With `rows`, only output rows rows.start..rows.stop-1 of the conv of
    an input of rows.height rows are computed, from x holding its rows
    rows.top.., into out if given (a C-contiguous array of their shape),
    with the bits of those rows of the whole map.  A window records no tape."""
    _check_stride(stride)
    b, h, w, ci = x.shape
    kh, kw, kci, co = kernel.shape
    if ci != kci:
        raise ContractViolation(f"conv2d channels {ci} != kernel cin {kci}")
    if rows is not None:
        h = rows.height
    oh, pt, pb = _out_and_pad(h, kh, stride, padding)
    ow, pl, pr = _out_and_pad(w, kw, stride, padding)
    kern = kernel.data
    if rows is not None:
        xw, a = _window(x, kernel, rows, oh, kh, stride, pt, False)
        n = rows.stop - rows.start
        top = pt + a - stride * rows.start  # the window's own pads
        bottom = max(stride * (n - 1) + kh - top - xw.shape[1], 0)
        data = _gather(xw, kern, stride, (top, bottom, pl, pr), n, ow,
                       out=_window_out(out, (b, n, ow, co)), window=True)
        return Tensor(data, op="conv2d")

    def vjp(g):
        dx = dk = None
        if x.requires_grad:
            dx = _scatter(g, kern, stride, pt, pl, h, w)
        if kernel.requires_grad:
            xp = np.pad(x.data, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
            dk = _kernel_grad(xp, g, kh, kw, stride)
        return dx, dk

    out = _gather(x.data, kern, stride, (pt, pb, pl, pr), oh, ow)
    return _make(out, "conv2d", (x, kernel), vjp)


def deconv2d(y: Tensor, kernel: Tensor, stride: int = 1, padding: str = "same",
             rows: Rows | None = None, out: np.ndarray | None = None) -> Tensor:
    """Transposed convolution: the exact adjoint of conv2d for this kernel.

    kernel is laid out (kh, kw, cout, cin) exactly as it would be for the
    matching forward conv2d from cout channels back to cin channels, so
    <conv2d(a, k), b> == <a, deconv2d(b, k)> holds for all a, b.  `rows`
    and out window the output rows as in conv2d.
    """
    _check_stride(stride)
    b, h, w, c = y.shape
    kh, kw, cm, kc = kernel.shape
    if c != kc:
        raise ContractViolation(f"deconv2d channels {c} != kernel cout {kc}")
    if rows is not None:
        h = rows.height
    if padding == "same":
        big_h, big_w = h * stride, w * stride
    elif padding == "valid":
        big_h, big_w = (h - 1) * stride + kh, (w - 1) * stride + kw
    else:
        raise ContractViolation(f"padding must be 'same' or 'valid', got {padding!r}")
    oh, pt, pb = _out_and_pad(big_h, kh, stride, padding)
    ow, pl, pr = _out_and_pad(big_w, kw, stride, padding)
    if (oh, ow) != (h, w):
        raise ContractViolation(f"deconv2d inconsistent dims {(h, w)} for stride {stride}")
    kern = kernel.data
    if rows is not None:
        yw, a = _window(y, kernel, rows, big_h, kh, stride, pt, True)
        n = rows.stop - rows.start
        # the window's crop: output row start sits at padded row start + pt
        data = _scatter(yw, kern, stride, rows.start + pt - stride * a, pl, n, big_w,
                        out=_window_out(out, (b, n, big_w, cm)), window=True)
        return Tensor(data, op="deconv2d")

    def vjp(g):
        dy = dk = None
        if y.requires_grad:
            dy = _gather(g, kern, stride, (pt, pb, pl, pr), h, w)
        if kernel.requires_grad:
            gp = np.pad(g, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
            dk = _kernel_grad(gp, y.data, kh, kw, stride)
        return dy, dk

    out = _scatter(y.data, kern, stride, pt, pl, big_h, big_w)
    return _make(out, "deconv2d", (y, kernel), vjp)


def cmatmul(x: Tensor, m: Tensor) -> Tensor:
    """Per-location channel mixing: out[..., i] = sum_j x[..., j] * m[0,0,i,j]."""
    b, h, w, cj = x.shape
    if m.shape[:2] != (1, 1) or m.shape[3] != cj:
        raise ContractViolation(f"cmatmul matrix {m.shape} incompatible with {x.shape}")
    ci = m.shape[2]
    m2 = m.data[0, 0]
    xf = x.data.reshape(-1, cj)

    def vjp(g):
        gf = g.reshape(-1, ci)
        dx = dm = None
        if x.requires_grad:
            dx = (gf @ m2).reshape(x.shape)
        if m.requires_grad:
            dm = (gf.T @ xf).reshape(1, 1, ci, cj)
        return dx, dm

    return _make((xf @ m2.T).reshape(b, h, w, ci), "cmatmul", (x, m), vjp)


def avg_pool2(x: Tensor) -> Tensor:
    """2x2 mean pooling, stride 2; trailing odd row/column is dropped."""
    b, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    if h2 == 0 or w2 == 0:
        raise ContractViolation(f"avg_pool2 needs dims >= 2, got {x.shape}")
    view = x.data[:, :h2 * 2, :w2 * 2, :].reshape(b, h2, 2, w2, 2, c)

    def vjp(g):
        full = np.zeros(x.shape, dtype=np.float32)
        spread = np.broadcast_to((g * 0.25)[:, :, None, :, None, :], view.shape)
        full[:, :h2 * 2, :w2 * 2, :] = spread.reshape(b, h2 * 2, w2 * 2, c)
        return (full,)

    return _make(view.mean(axis=(2, 4), dtype=np.float32), "avg_pool2", (x,), vjp)


# ---------------------------------------------------------------------------
# GDN

@dataclass
class GdnParams:
    """Reparameterized GDN weights.

    beta = beta_u**2 + BETA_FLOOR and gamma = gamma_v**2 are rebuilt on
    every use, so beta >= BETA_FLOOR and gamma >= 0 hold by construction
    no matter what the optimizer does to the surrogates.
    """

    beta_u: Tensor   # (1, 1, 1, c)
    gamma_v: Tensor  # (1, 1, c, c)

    BETA_FLOOR = 1e-6

    @classmethod
    def create(cls, channels: int, beta_init: float = 1.0,
               gamma_init: float = 0.1) -> "GdnParams":
        bu = np.full((1, 1, 1, channels), math.sqrt(beta_init - cls.BETA_FLOOR),
                     dtype=np.float32)
        gv = np.zeros((1, 1, channels, channels), dtype=np.float32)
        np.fill_diagonal(gv[0, 0], math.sqrt(gamma_init))
        return cls(Tensor(bu, requires_grad=True), Tensor(gv, requires_grad=True))

    @property
    def channels(self) -> int:
        return self.beta_u.shape[3]

    def beta(self) -> Tensor:
        return add_const(square(self.beta_u), self.BETA_FLOOR)

    def gamma(self) -> Tensor:
        return square(self.gamma_v)

    # an overflow gives inf, which gdn_'s checks refuse
    def beta_values(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return (self.beta_u.data ** 2 + self.BETA_FLOOR).reshape(-1)

    def gamma_values(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return (self.gamma_v.data ** 2)[0, 0]


def gdn(x: Tensor, params: GdnParams, inverse: bool = False) -> Tensor:
    """y_i = x_i / sqrt(beta_i + sum_j gamma_ij x_j^2); inverse multiplies.
    cmatmul refuses x whose channels are not the params' channels."""
    root = sqrt(add(cmatmul(square(x), params.gamma()), params.beta()))
    return mul(x, root) if inverse else div(x, root)


def gdn_(x: Tensor, params: GdnParams, inverse: bool = False,
         window: bool = False) -> Tensor:
    """gdn written into x.

    GDN mixes channels pixel by pixel, so it runs over bands of rows of
    x's (pixels, c) view, over the engine's workers, and each band over
    blocks of rows with block-sized scratch (_blocks): gdn's ops in gdn's
    order, each with its finiteness check (numpy's floating-point warnings
    are off), and a non-finite value raises as in one thread, naming the
    op of the first block that has one.  The bands and blocks are cut from
    x's shape alone, as _bands cuts them (for a `window` of a streamed
    map, as _halves does), so one shape always gives the same bits.  They
    equal gdn's single product only where sgemm rounds a row alike at both
    row counts (see the conv engine's note), as it does at the layer
    shapes test_transforms pins."""
    data = _writable(x, params.beta_u, params.gamma_v)
    c = params.channels
    if x.shape[3] != c:
        raise ContractViolation(f"gdn params for {c} channels, input has {x.shape[3]}")
    flat = data.reshape(-1, c)
    beta, gamma_t = params.beta_values(), params.gamma_values().T
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bands = _halves(1, len(flat), 1) if window else _bands(1, len(flat), _BAND_ROWS)
        _over_bands(bands, _gdn_scratch, _gdn_bands, (flat, beta, gamma_t, inverse),
                    c * c + _ROW_MACS)
    return x


def _gdn_blocks(bands, c: int):
    """The rows [r0, r1) of flat that each block of these bands takes."""
    return [(r0 + b0, r0 + b1) for _, _, r0, r1 in bands
            for b0, b1 in _blocks(r1 - r0, 1, c, _HALF_ROWS)]


def _gdn_scratch(bands, flat, beta, gamma_t, inverse):
    rows = max(r1 - r0 for r0, r1 in _gdn_blocks(bands, flat.shape[1]))
    sq = np.empty((rows, flat.shape[1]), dtype=np.float32)
    return sq, np.empty_like(sq)


def _gdn_bands(bands, scratch, flat, beta, gamma_t, inverse):
    """gdn_'s ops for the blocks of these bands of flat's rows, each op
    checked."""
    sq, root = scratch
    for r0, r1 in _gdn_blocks(bands, flat.shape[1]):
        xb, s, r = flat[r0:r1], sq[:r1 - r0], root[:r1 - r0]
        np.multiply(xb, xb, out=s)
        _check_finite(s, "square")
        np.matmul(s, gamma_t, out=r)
        _check_finite(r, "cmatmul")
        r += beta
        _check_finite(r, "add")
        np.sqrt(r, out=r)
        _check_finite(r, "sqrt")
        if inverse:
            xb *= r
        else:
            xb /= r
        _check_finite(xb, "mul" if inverse else "div")


# ---------------------------------------------------------------------------
# optimizer

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(param: np.ndarray, grad: np.ndarray, state: dict, lr: float) -> None:
    """One bias-corrected adaptive-moment update, in place."""
    state["t"] += 1
    t = state["t"]
    m, v = state["m"], state["v"]
    m += (1.0 - ADAM_BETA1) * (grad - m)
    v += (1.0 - ADAM_BETA2) * (grad * grad - v)
    with np.errstate(over="ignore", invalid="ignore"):  # the update is checked
        mhat = m / (1.0 - ADAM_BETA1 ** t)
        vhat = v / (1.0 - ADAM_BETA2 ** t)
        update = (lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(np.float32)
    if not _finite(update):
        raise NumericError("non-finite adam update")
    param -= update


class Adam:
    """Adam over a fixed parameter list, with serializable state."""

    def __init__(self, params: list[Tensor], lr: float = 1e-4):
        self.params = list(params)
        self.lr = lr
        self.state = [
            {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data), "t": 0}
            for p in self.params
        ]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        for p, st in zip(self.params, self.state):
            if p.grad is None:
                continue
            adam_step(p.data, p.grad, st, self.lr)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, st in enumerate(self.state):
            out[f"opt.{i}.m"] = st["m"]
            out[f"opt.{i}.v"] = st["v"]
            out[f"opt.{i}.t"] = np.array([st["t"]], dtype=np.float32)
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for i, st in enumerate(self.state):
            st["m"] = arrays[f"opt.{i}.m"].reshape(st["m"].shape).astype(np.float32).copy()
            st["v"] = arrays[f"opt.{i}.v"].reshape(st["v"].shape).astype(np.float32).copy()
            st["t"] = int(arrays[f"opt.{i}.t"][0])
