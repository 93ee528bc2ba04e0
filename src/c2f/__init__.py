"""Coarse-to-fine hyperprior image codec.

Trainable analysis/synthesis transforms with a two-level hyperprior,
discretized Gaussian entropy models over a bit-exact rANS coder, plus
the evaluation stack (PSNR, MS-SSIM, bpp, BD-rate) and a CLI.
"""

from .autodiff import Adam, GdnParams, Tensor
from .codec import DecodeResult, EncodeResult, decode_array, encode_array
from .entropy import FactorizedZ, QuantizerMode
from .errors import C2fError
from .evaluation import RdCurve, RdPoint, bd_rate, bpp, ms_ssim, ms_ssim_db, psnr
from .training import TrainConfig, rd_loss, train
from .transforms import ArchConfig, CodecModel, LatentTriple
from .weights import load_model, model_digest, save_model

__version__ = "0.1.0"

__all__ = [
    "Adam", "ArchConfig", "C2fError", "CodecModel", "DecodeResult",
    "EncodeResult", "FactorizedZ", "GdnParams", "LatentTriple",
    "QuantizerMode", "RdCurve", "RdPoint", "Tensor", "TrainConfig",
    "bd_rate", "bpp", "decode_array", "encode_array", "load_model",
    "model_digest", "ms_ssim", "ms_ssim_db", "psnr", "rd_loss", "save_model",
    "train",
]
