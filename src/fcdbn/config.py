"""Run configuration: one validated record drives training, eval, and CLI."""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields

from .kvrl import DEFAULT_REGIONS, RegionFractions, check_regions
from .rbm import TrainConfig


class ConfigError(ValueError):
    """Invalid configuration value or file."""


@dataclass
class RunConfig:
    seed: int = 0

    # contrastive-divergence training of stack layers
    learning_rate: float = 0.05
    epochs: int = 30
    batch_size: int = 64
    cd_steps: int = 1
    momentum: float = 0.5

    # architecture
    stage1_dims: tuple = (1024, 512, 512)
    stage2_dims: tuple = (1536, 1024, 512)
    classifier_hidden: tuple = (512, 128)
    n_filters: int = 6
    filter_size: int = 3
    alpha: float = 0.1
    beta: float = 1e-4
    first_layer_gaussian: bool = True

    # classifier
    classifier_epochs: int = 300
    classifier_learning_rate: float = 0.5
    classifier_batch_size: int = 64
    dropout_input: float = 0.2
    dropout_hidden: float = 0.5

    # regions
    regions: tuple = DEFAULT_REGIONS
    region_size: int = 32
    eye_rows: tuple = (0.25, 0.45)
    nose_rows: tuple = (0.25, 0.75)
    nose_cols: tuple = (0.35, 0.65)
    chin_rows: tuple = (0.65, 1.0)

    # fusion
    fusion_method: str = "plr"
    gmm_components: int = 2
    n_genuine: int = 400
    n_impostor: int = 400
    face_shift: float = 1.5
    kin_shift: float = 1.5
    n_kin: int = 1

    # synthetic data
    families: int = 10
    members_per_family: int = 4
    corpus_families: int = 8
    separability: float = 0.8

    # paths
    output_dir: str = "out"
    manifest: str = ""
    images_dir: str = ""
    corpus_dir: str = ""
    model_in: str = ""
    model_out: str = ""
    counts_csv: str = ""
    image: str = ""

    def validate(self):
        for name in ("learning_rate", "classifier_learning_rate", "alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0 or self.classifier_learning_rate <= 0:
            raise ConfigError("learning rates must be > 0")
        if self.epochs < 1 or self.batch_size < 1 or self.cd_steps < 1:
            raise ConfigError("epochs, batch_size, cd_steps must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        for r in (self.dropout_input, self.dropout_hidden):
            if not 0.0 <= r < 1.0:
                raise ConfigError(f"dropout rates must be in [0, 1), got {r}")
        if self.classifier_epochs < 0:
            raise ConfigError("classifier_epochs must be >= 0")
        if len(self.stage1_dims) < 2 or len(self.stage2_dims) < 2:
            raise ConfigError("stacks need at least two node counts")
        if any(d < 1 for d in (*self.stage1_dims, *self.stage2_dims,
                               *self.classifier_hidden)):
            raise ConfigError("layer widths must be positive")
        try:
            check_regions(self.regions, self.region_fractions(),
                          self.region_size,
                          {name: self.stage1_dims[0] for name in self.regions})
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.n_filters < 0 or self.filter_size < 1 or self.filter_size % 2 == 0:
            raise ConfigError("n_filters must be >= 0 and filter_size odd")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha and beta must be >= 0")
        # stage 2 reads the stage-1 codes of every region side by side
        width = len(self.regions) * self.stage1_dims[-1]
        if self.stage2_dims[0] != width:
            raise ConfigError(
                f"stage2_dims[0]={self.stage2_dims[0]} must equal "
                f"len(regions) * stage1_dims[-1]={width}"
            )
        if self.fusion_method not in ("plr", "svm", "both"):
            raise ConfigError(f"unknown fusion method {self.fusion_method!r}")
        if self.gmm_components < 1:
            raise ConfigError("gmm_components must be >= 1")
        # fuse fits each score class with a gmm_components-mixture
        if min(self.n_genuine, self.n_impostor) < 2 * self.gmm_components:
            raise ConfigError(f"n_genuine and n_impostor must be >= "
                              f"2 * gmm_components = {2 * self.gmm_components}")
        if self.n_kin == 0 and self.fusion_method in ("plr", "both"):
            raise ConfigError("plr fusion needs n_kin >= 1")
        if not 0.0 <= self.separability <= 1.0:
            raise ConfigError("separability must be in [0, 1]")
        if self.families < 1 or self.members_per_family < 1 or self.corpus_families < 1:
            raise ConfigError("synthetic counts must be >= 1")
        if self.n_kin < 0:
            raise ConfigError("n_kin must be >= 0")
        # RngStream keeps 64 seed bits; 2**63 leaves room for derived seeds
        if not 0 <= self.seed < 2 ** 63:
            raise ConfigError(f"seed must be in [0, 2**63), got {self.seed}")

    def region_fractions(self):
        return RegionFractions(**{f.name: tuple(getattr(self, f.name))
                                  for f in fields(RegionFractions)})

    def rbm_config(self, seed_offset=0):
        return TrainConfig(learning_rate=self.learning_rate, epochs=self.epochs,
                           batch_size=self.batch_size, cd_steps=self.cd_steps,
                           momentum=self.momentum, seed=self.seed + 7919 * (seed_offset + 1))

    def mlp_config(self):
        return TrainConfig(learning_rate=self.classifier_learning_rate,
                           epochs=self.classifier_epochs,
                           batch_size=self.classifier_batch_size,
                           momentum=self.momentum, seed=self.seed + 104729)


def _check_type(key, value, default):
    """Raise ConfigError unless a JSON value fits the type of the field default.

    Scalars are checked by ``scalar_fits``; a tuple field takes a list whose
    items fit the default's first item.
    """
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list")
        for item in value:
            _check_type(key, item, default[0])
        return
    kind = type(default)
    if not scalar_fits(kind, value):
        raise ConfigError(f"{key} must hold {kind.__name__} values, got {value!r}")


def scalar_fits(kind, value):
    """Whether a JSON scalar fits type ``kind``: bool is never a number, and
    a float field also takes an int in float range."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return abs(value) <= sys.float_info.max
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, kind)


def config_from_dict(data):
    defaults = {f.name: f.default for f in fields(RunConfig)}
    unknown = set(data) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        _check_type(key, value, defaults[key])
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    cfg = RunConfig(**kwargs)
    cfg.validate()
    return cfg


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(data)
