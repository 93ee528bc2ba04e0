"""Toy model zoo shared by the acceptance suite and scripts/train_toy_zoo.py.

Four lambda points, n_main=32, 2000 steps on 500 synthetic gradient+noise
patches.  Training takes a few minutes per model, so the zoo is cached on
disk (tests/_toy_models by default, C2F_TOY_CACHE overrides) keyed by a
digest of the recipe; any change below invalidates the cache.

The digest covers only the constants below, not the code that trains.
A change to training numerics (initialisation, loss, optimiser, data
pipeline) must therefore bump RECIPE_REV, rebuild the zoo with
scripts/train_toy_zoo.py and commit the result; otherwise a cache built
by the old code is reused silently.  Source files are deliberately not
hashed: a pure refactor would then retrain for minutes inside pytest and
rewrite committed files.

Revisions: 1 the first zoo; 2 final_up kernel damped x0.01 so a fresh
model starts at mid-gray; 3 deconvs and conv backward passes run as
stride-1 phase gathers, which moves a few batch-4 training products in
the last bit.
"""

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RECIPE_REV = 3

ZOO_LAMBDAS = (0.003, 0.01, 0.03, 0.1)
ZOO_N_MAIN = 32
ZOO_C_Y = 32
ZOO_C_Z = 16
ZOO_STEPS = 2000
ZOO_BATCH = 4
ZOO_PATCH = 64
ZOO_LR = 1e-3
ZOO_SEED = 42
DATASET_COUNT = 500
DATASET_SIZE = 64
DATASET_SEED = 1
HELDOUT_SEED = 777


def zoo_cache_dir() -> Path:
    return Path(os.environ.get("C2F_TOY_CACHE",
                               Path(__file__).resolve().parent / "_toy_models"))


def recipe_digest() -> str:
    recipe = {k: v for k, v in sorted(globals().items())
              if k.isupper() and isinstance(v, (int, float, tuple, str))}
    return hashlib.sha256(json.dumps(recipe, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class Zoo:
    root: Path

    def model_path(self, lam: float) -> Path:
        from c2f.training import lambda_to_tag
        return self.root / f"model_{lambda_to_tag(lam):05d}.c2fw"

    def load(self, lam: float):
        from c2f.weights import load_model
        return load_model(self.model_path(lam))

    @property
    def dataset_dir(self) -> Path:
        return self.root / "dataset"


def heldout_images(count: int = 10) -> list:
    from c2f.training import synthetic_patch
    rng = np.random.default_rng(HELDOUT_SEED)
    return [synthetic_patch(rng, DATASET_SIZE) for _ in range(count)]


def build_zoo(cache_dir: Path, progress: bool = False) -> Zoo:
    from c2f.training import TrainConfig, make_synthetic_dataset, train
    from c2f.transforms import ArchConfig

    zoo = Zoo(Path(cache_dir))
    marker = zoo.root / "recipe.json"
    digest = recipe_digest()
    if marker.exists():
        try:
            if (json.loads(marker.read_text())["digest"] == digest
                    and all(zoo.model_path(lam).exists() for lam in ZOO_LAMBDAS)):
                return zoo
        except (KeyError, json.JSONDecodeError):
            pass

    zoo.root.mkdir(parents=True, exist_ok=True)
    paths = make_synthetic_dataset(zoo.dataset_dir, DATASET_COUNT,
                                   DATASET_SIZE, DATASET_SEED)
    arch = ArchConfig(n_main=ZOO_N_MAIN, c_y=ZOO_C_Y, c_z=ZOO_C_Z)
    for lam in ZOO_LAMBDAS:
        if progress:
            print(f"training lambda={lam} ({ZOO_STEPS} steps)...", flush=True)
        config = TrainConfig(lambda_=lam, steps=ZOO_STEPS, batch=ZOO_BATCH,
                             patch=ZOO_PATCH, seed=ZOO_SEED, lr=ZOO_LR)
        run_dir = zoo.root / f"run_{lam}"
        model, _ = train(config, paths, out_dir=run_dir, arch=arch)
        (run_dir / "model.c2fw").replace(zoo.model_path(lam))
    marker.write_text(json.dumps({"digest": digest}))
    return zoo
