"""Run configuration: one validated record drives training, eval, and CLI.

Each rule on one setting lives with the code that uses it; ``RunConfig.validate``
runs those checks before any work and adds the rules of the whole pipeline;
every error is prefixed with the config keys it reads."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .core import check_kernel, scalar_fits
from .deepnet import check_dropout
from .fusion import check_mixture_size
from .kvrl import DEFAULT_REGIONS, REGION_SIZE, RegionFractions, check_regions
from .rbm import TrainConfig, check_regularizers
from .synth import check_corpus_settings, check_pair_pool


class ConfigError(ValueError):
    """Invalid configuration value or file."""


@dataclass
class RunConfig:
    seed: int = 0

    # contrastive-divergence training of stack layers
    learning_rate: float = TrainConfig.learning_rate
    epochs: int = 30
    batch_size: int = TrainConfig.batch_size
    cd_steps: int = TrainConfig.cd_steps
    momentum: float = TrainConfig.momentum

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
    region_size: int = REGION_SIZE
    eye_rows: tuple = RegionFractions.eye_rows
    nose_rows: tuple = RegionFractions.nose_rows
    nose_cols: tuple = RegionFractions.nose_cols
    chin_rows: tuple = RegionFractions.chin_rows

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
        """Raise ConfigError unless every value is usable (see the module doc)."""
        try:
            for f in fields(self):
                value = getattr(self, f.name)
                if isinstance(f.default, float) and not math.isfinite(value):
                    raise ValueError(f"{f.name}: must be finite, got {value}")
            for key in ("learning_rate", "classifier_learning_rate"):
                if getattr(self, key) <= 0:
                    raise ValueError(f"{key}: must be > 0")
            if self.epochs < 1:
                raise ValueError(f"epochs: must be >= 1, got {self.epochs}")
            self._relay(("learning_rate", "epochs", "batch_size", "cd_steps",
                         "momentum"), self.rbm_config().validate)
            self._relay(("classifier_learning_rate", "classifier_epochs",
                         "classifier_batch_size", "momentum"),
                        self.mlp_config().validate)
            self._relay(("dropout_input", "dropout_hidden"), check_dropout,
                        self.dropout_input, self.dropout_hidden)
            for key in ("stage1_dims", "stage2_dims"):
                if len(getattr(self, key)) < 2:
                    raise ValueError(f"{key}: a stack needs at least two node counts")
            for key in ("stage1_dims", "stage2_dims", "classifier_hidden"):
                if any(d < 1 for d in getattr(self, key)):
                    raise ValueError(f"{key}: layer widths must be positive")
            self._relay(("regions", "region_size", "eye_rows", "nose_rows",
                         "nose_cols", "chin_rows", "stage1_dims"), check_regions,
                        self.regions, self.region_fractions(), self.region_size,
                        {name: self.stage1_dims[0] for name in self.regions})
            if self.n_filters < 0:
                raise ValueError(f"n_filters: must be >= 0, got {self.n_filters}")
            # a valid kernel side even when unused; it must fit the crop once used
            self._relay(("filter_size", "region_size", "n_filters"), check_kernel,
                        (self.filter_size,) * 2,
                        (self.region_size,) * 2 if self.n_filters else None)
            self._relay(("alpha", "beta"), check_regularizers, self.alpha, self.beta)
            # stage 2 reads the stage-1 codes of every region side by side
            width = len(self.regions) * self.stage1_dims[-1]
            if self.stage2_dims[0] != width:
                raise ValueError(f"stage2_dims: first width {self.stage2_dims[0]} must "
                                 f"equal len(regions) * stage1_dims[-1]={width}")
            if self.fusion_method not in ("plr", "svm", "both"):
                raise ValueError(
                    f"fusion_method: unknown method {self.fusion_method!r}")
            # fuse fits each score class with a gmm_components-mixture
            self._relay(("gmm_components", "n_genuine", "n_impostor"),
                        check_mixture_size, self.gmm_components,
                        min(self.n_genuine, self.n_impostor))
            if self.n_kin < (0 if self.fusion_method == "svm" else 1):
                raise ValueError("n_kin: must be >= 0, and >= 1 for plr fusion")
            for key in ("families", "corpus_families"):  # pair pool, corpus
                self._relay((key, "members_per_family", "separability"),
                            check_corpus_settings, getattr(self, key),
                            self.members_per_family, self.separability)
            self._relay(("families", "members_per_family"), check_pair_pool,
                        self.families, self.members_per_family)
            # RngStream keeps 64 seed bits; 2**63 leaves room for derived seeds
            if not 0 <= self.seed < 2 ** 63:
                raise ValueError(f"seed: must be in [0, 2**63), got {self.seed}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def _relay(self, keys, check, *args):
        """Run a component's check on the values of ``keys``; its error names
        the keys set away from their defaults (all of them if none is)."""
        try:
            check(*args)
        except ValueError as exc:
            changed = [f.name for f in fields(self) if f.name in keys
                       and getattr(self, f.name) != f.default]
            raise ValueError(f"{', '.join(changed or keys)}: {exc}") from exc

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
    # missing, a directory, not UTF-8, not JSON, or nested too deeply to parse
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(data)
