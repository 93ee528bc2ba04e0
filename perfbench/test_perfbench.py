"""Tests of the benchmark itself: failure counting, determinism, checks.

Run with:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from c2f import codec, container, training, weights

import report
import run as cli
import workloads
from tracer import Tracer
from workloads import Pair, Run, round_trip, timed_loop

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def zoo_models():
    return [weights.load_model(p) for p in sorted(workloads.ZOO_DIR.glob("model_*.c2fw"))]


def test_corrupt_container_and_wrong_model_count_as_failures(monkeypatch):
    models = zoo_models()
    pair = Pair(models[0], training.synthetic_patch(np.random.default_rng(5), 64), None)
    real = codec.decode_array

    def flip_first_z_byte(model, data):
        mangled = bytearray(data)
        mangled[container.HEADER_SIZE] ^= 0xFF
        return real(model, bytes(mangled))

    tamper = {1: flip_first_z_byte, 2: lambda model, data: real(models[1], data)}
    calls = iter(range(100))
    monkeypatch.setattr(codec, "decode_array",
                        lambda model, data: tamper.get(next(calls), real)(model, data))

    run = Run("zoo-rd-64", 0)
    decoded = {}
    timed_loop(run, lambda key: round_trip(pair, decoded, key), [0], 0.0, 4, None)

    assert (run.attempted, run.failed) == (4, 2)
    assert "ModelIdMismatchError" in run.errors[1]


def test_same_seed_decodes_the_same_traced_or_not():
    plain = workloads.run_workload("zoo-rd-64", 3, 0.0, traced=False)
    traced = workloads.run_workload("zoo-rd-64", 3, 0.0, traced=True)

    assert plain.failed == traced.failed == 0
    assert plain.digest == traced.digest
    assert plain.quality == traced.quality
    assert len(plain.counts) == workloads.ZOO_IMAGES * 4
    assert codec.decode_array is workloads.codec.decode_array  # tracing uninstalled
    layers = report.per_layer(traced)
    assert set(layers) == set(report.PER_LAYER)
    assert layers["rc_x_symbols"] == 4 * 4 * 32  # one 64x64 image: X is 4x4x32
    assert layers["entropy_tables_z_rows"] == 2 * 16  # encode and decode, c_z rows each
    assert set(report.end_to_end(plain, 1.0)) == set(report.END_TO_END)


def test_reference_replay_accepts_the_log_and_rejects_a_changed_value():
    recipe = workloads.load_recipe()
    arch = workloads.transforms.ArchConfig(n_main=recipe.ZOO_N_MAIN, c_y=recipe.ZOO_C_Y,
                                           c_z=recipe.ZOO_C_Z)
    paths = sorted((workloads.ZOO_DIR / "dataset").glob("*.png"))
    log = workloads.ZOO_DIR / "run_0.03" / "train_log.csv"
    rows = log.read_text().splitlines()
    header = rows[0].split(",")
    row0 = dict(zip(header, rows[1].split(",")))

    config = workloads.train_config(recipe, recipe.ZOO_SEED)
    workloads.reference_step(workloads.Trainer(config, paths, arch), 0, row0)

    off = dict(row0, r_bpp=repr(float(row0["r_bpp"]) * (1 + 1e-4)))
    with pytest.raises(workloads.CheckFailed, match="r_bpp"):
        workloads.reference_step(workloads.Trainer(config, paths, arch), 0, off)


def test_tracer_self_time_phase_and_uninstall():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Ns:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Ns.inner(x) * 2

    original = Ns.__dict__["inner"]
    tracer.wrap(Ns, "inner", "inner", count=lambda a, k, r: {"n": a[0]})
    tracer.wrap(Ns, "outer", "outer")
    assert Ns.outer(3) == 8
    seg = tracer.take_segment()
    # clock: outer starts 0, inner 1..2, outer ends 3
    assert seg.layers["outer"].seconds == 3.0
    assert seg.layers["outer"].self_seconds == 2.0
    assert seg.layers["inner"].counts["n"] == 3
    assert seg.by_phase[("outer", "inner")] == 1.0
    tracer.uninstall()
    assert Ns.__dict__["inner"] is original


def test_p90_needs_ten_samples_beyond_it():
    assert report.p90(list(range(99))) is None
    assert report.p90(list(range(100))) == 89


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == report.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GATED_WORKLOADS)
    assert set(workloads.GATED_WORKLOADS) <= set(workloads.WORKLOADS)
    assert cli.WORKLOADS == workloads.WORKLOADS


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".run-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zoo-rd-64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
