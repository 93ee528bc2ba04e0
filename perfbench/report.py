"""Turn a workload Run into metrics and a human-readable summary.

End-to-end metrics come from untraced runs, per-layer metrics from
traced runs.  Layer times are given as a share (%) of the median traced
operation, because a layer one workload never calls has no time at all
there; the summary printed beside them gives the same times in seconds.
Counts are averaged over each distinct input's first timed visit, so
they repeat exactly for a given seed.
"""

from __future__ import annotations

import math
import statistics

from workloads import CODEC_WORKLOADS, Run

STREAMS = ("z", "y", "x")

# end-to-end metric -> unit; every workload reports every one
END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "bpp": "bpp",
    "mse": "1",
}

# per-layer time shares: metric -> span names summed
_SHARES = {
    "codec_encode_pct": ["codec.encode_array"],
    "codec_decode_pct": ["codec.decode_array"],
    **{f"entropy_tables_{s}_pct": [f"entropy.build_cdf_tables.{s}"] for s in STREAMS},
    **{f"rc_encode_{s}_pct": [f"rangecoder.encode.{s}"] for s in STREAMS},
    **{f"rc_decode_{s}_pct": [f"rangecoder.decode.{s}"] for s in STREAMS},
    **{f"transforms_{m}_pct": [f"transforms.{m}"] for m in
       ("analysis", "hyper_analysis", "hyper_synthesis", "predict_params", "synthesize")},
    **{f"autodiff_{m}_pct": [f"autodiff.{m}"] for m in
       ("conv2d", "deconv2d", "gdn", "backward", "adam_step")},
    "weights_model_digest_pct": ["weights.model_digest"],
    "container_read_pct": ["container.read_container"],
    "container_write_pct": ["container.write_container"],
    "imageio_read_pct": ["imageio.read_image"],
    "evaluation_psnr_pct": ["evaluation.psnr"],
    "evaluation_ms_ssim_pct": ["evaluation.ms_ssim"],
    "training_rd_loss_pct": ["training.rd_loss"],
    "training_batch_pct": ["training.batch"],
}
_SELF_SHARES = {
    "codec_encode_self_pct": "codec.encode_array",
    "codec_decode_self_pct": "codec.decode_array",
}
_SETUP_SHARES = {
    "setup_load_model_pct": ["weights.load_model"],
    "setup_imageio_pct": ["imageio.read_image", "imageio.write_image"],
}
# per-op counts: metric -> (unit, span, count key or "calls")
_COUNTS = {
    **{f"entropy_tables_{s}_rows": ("count", f"entropy.build_cdf_tables.{s}", "rows")
       for s in STREAMS},
    **{f"entropy_tables_{s}_bytes_computed": ("B", f"entropy.build_cdf_tables.{s}", "bytes")
       for s in STREAMS},
    **{f"rc_{s}_symbols": ("count", f"rangecoder.encode.{s}", "symbols") for s in STREAMS},
    **{f"rc_{s}_escapes": ("count", f"rangecoder.encode.{s}", "escapes") for s in STREAMS},
    **{f"autodiff_{m}_calls": ("count", f"autodiff.{m}", "calls")
       for m in ("conv2d", "deconv2d", "gdn")},
    "autodiff_conv2d_macs": ("count", "autodiff.conv2d", "macs"),
    "autodiff_deconv2d_macs": ("count", "autodiff.deconv2d", "macs"),
    "weights_model_digest_calls": ("count", "weights.model_digest", "calls"),
    "container_bytes": ("B", "container.write_container", "bytes"),
    "imageio_read_bytes": ("B", "imageio.read_image", "bytes"),
}

PER_LAYER = {
    **{name: "%" for name in (*_SHARES, *_SELF_SHARES, *_SETUP_SHARES)},
    **{name: unit for name, (unit, _, _) in _COUNTS.items()},
    **{f"rc_{s}_coded_over_modeled": "1" for s in STREAMS},
    **{f"sigma_{s}_at_{end}_frac": "1" for s in STREAMS for end in ("min", "max")},
    **{f"rc_{d}_{s}_ksym_s": "ksym/s" for d in ("encode", "decode") for s in STREAMS},
    "traced_op_s_p50": "s",
}


def p50(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def p90(values: list[float]) -> float | None:
    """The 90th percentile (nearest rank) when 10 samples lie beyond it."""
    n = len(values)
    rank = math.ceil(0.9 * n)
    if n - rank < 10:
        return None
    return sorted(values)[rank - 1]


def ops_per_s(run: Run) -> float:
    """Completed operations per second of timed-loop wall time."""
    return len(run.times.get("op", [])) / run.loop_seconds if run.loop_seconds else math.nan


def end_to_end(run: Run, peak_rss_mb: float) -> dict[str, float]:
    return {
        "setup_s": p50(run.setup_seconds),
        "op_s_p50": p50(run.times.get("op", [])),
        "ops_per_s": ops_per_s(run),
        "peak_rss_mb": peak_rss_mb,
        "bpp": run.quality.get("bpp", math.nan),
        "mse": run.quality.get("mse", math.nan),
    }


def _first_visits(run: Run):
    """(segment, extra counts) of each distinct input's first timed visit."""
    return [(run.segments[i], extra) for i, extra in run.counts.values()]


def per_layer(run: Run) -> dict[str, float]:
    op = p50(run.times.get("op", []))
    segs = run.segments
    out: dict[str, float] = {}
    for metric, names in _SHARES.items():
        out[metric] = 100.0 * p50([sum(s.seconds(n) for n in names) for s in segs]) / op
    for metric, name in _SELF_SHARES.items():
        out[metric] = 100.0 * p50([s.self_seconds(name) for s in segs]) / op
    setup = run.setup_segment
    for metric, names in _SETUP_SHARES.items():
        out[metric] = 100.0 * sum(setup.seconds(n) for n in names) / run.setup_seconds[-1]

    visits = _first_visits(run)
    for metric, (_, name, key) in _COUNTS.items():
        values = [s.calls(name) if key == "calls" else s.count(name, key) for s, _ in visits]
        out[metric] = sum(values) / len(values) if values else 0.0
    for s in STREAMS:
        coded = sum(seg.count(f"rangecoder.encode.{s}", "bits") for seg, _ in visits)
        modeled = sum(extra.get(f"modeled_bits_{s}", 0.0) for _, extra in visits)
        out[f"rc_{s}_coded_over_modeled"] = coded / modeled if modeled else 0.0
        for end in ("min", "max"):
            values = [extra.get(f"sigma_{s}_at_{end}", 0.0) for _, extra in visits]
            out[f"sigma_{s}_at_{end}_frac"] = sum(values) / len(values) if values else 0.0
        for d in ("encode", "decode"):
            name = f"rangecoder.{d}.{s}"
            symbols = sum(seg.count(name, "symbols") for seg in segs)
            seconds = sum(seg.seconds(name) for seg in segs)
            out[f"rc_{d}_{s}_ksym_s"] = symbols / seconds / 1000.0 if seconds else 0.0
    out["traced_op_s_p50"] = op
    return out


# ---------------------------------------------------------------------------
# human-readable summary

def named_metrics(run: Run, peak_rss_mb: float) -> dict[str, tuple[float | None, str]]:
    """Every end-to-end metric the workload has, by name: (value, unit).

    A p90 is None when fewer than 10 samples lie beyond it.
    """
    m: dict[str, tuple[float | None, str]] = {"setup_s": (p50(run.setup_seconds), "s")}
    if run.workload in CODEC_WORKLOADS:
        timings = (("encode", "encode"), ("decode", "decode"), ("round_trip", "op"))
    else:
        timings = (("train_step", "op"), ("batch", "batch"), ("forward", "forward"),
                   ("backward", "backward"), ("adam", "adam"))
    for label, key in timings:
        m[f"{label}_s_p50"] = (p50(run.times.get(key, [])), "s")
        m[f"{label}_s_p90"] = (p90(run.times.get(key, [])), "s")
    m["samples"] = (len(run.times.get("op", [])), "count")
    rate = "images_per_s" if run.workload in CODEC_WORKLOADS else "train_steps_per_s"
    m[rate] = (ops_per_s(run), "1/s")
    units = {"bpp": "bpp", "psnr_db": "dB", "msssim_db": "dB", "mse": "1"}
    for name, value in run.quality.items():
        m[name] = (value, units[name])
    m["peak_rss_mb"] = (peak_rss_mb, "MB")
    m["fail_frac"] = (run.failed / run.attempted if run.attempted else math.nan, "1")
    return m


def summary(run: Run, peak_rss_mb: float) -> list[str]:
    lines = []
    for name, (value, unit) in named_metrics(run, peak_rss_mb).items():
        shown = ("not reported: fewer than 10 samples beyond it" if value is None
                 else f"{value:.6g} {unit}")
        lines.append(f"  {name:22s} {shown}")
    lines.append(f"  set-up times: {', '.join(f'{t:.4f}' for t in run.setup_seconds)} s; "
                 f"{run.failed} of {run.attempted} operations failed")
    if run.workload in CODEC_WORKLOADS:
        lines.append(f"  decoded_digest {run.digest}  (over {len(run.counts)} inputs)")
    else:
        lines.append("  bpp and mse are the mean r_bpp and d of the reference replay "
                     "(zoo recipe, steps 0-4)")
    return lines


def layer_seconds(run: Run) -> dict[str, float]:
    """Median seconds per operation of every traced span name."""
    names = sorted({n for s in run.segments for n in s.layers})
    return {n: p50([s.seconds(n) for s in run.segments]) for n in names}


def layer_table(run: Run) -> list[str]:
    """Per-layer seconds per operation (median), calls and self time."""
    segs = run.segments
    op = p50(run.times.get("op", []))
    lines = [f"  traced op p50 {op:.6f} s over {len(segs)} ops",
             f"  {'span':38s} {'calls/op':>9s} {'s/op p50':>11s} {'share':>7s} {'self s/op':>11s}"]
    for name, secs in layer_seconds(run).items():
        calls = p50([s.calls(name) for s in segs])
        own = p50([s.self_seconds(name) for s in segs])
        lines.append(f"  {name:38s} {calls:9.1f} {secs:11.6f} {100 * secs / op:6.2f}% {own:11.6f}")
    if run.workload in CODEC_WORKLOADS:
        for phase in ("codec.encode_array", "codec.decode_array"):
            base = p50([s.seconds(phase) for s in segs])
            parts = []
            for label, prefix in (("entropy.build_cdf_tables", "entropy.build_cdf_tables."),
                                  ("rangecoder", "rangecoder.")):
                t = p50([sum(v for (ph, n), v in s.by_phase.items()
                             if ph == phase and n.startswith(prefix)) for s in segs])
                parts.append(f"{label} {t:.4f} s = {100 * t / base:.1f}%")
            lines.append(f"  of {phase} ({base:.4f} s/op): " + ", ".join(parts))
    if run.setup_segment is not None:
        setup = run.setup_segment
        lines.append(f"  set-up (last of {len(run.setup_seconds)}, {run.setup_seconds[-1]:.4f} s): "
                     + ", ".join(f"{n} {setup.seconds(n):.4f} s" for n in sorted(setup.layers)
                                 if n.startswith(("weights.", "imageio."))))
    return lines
