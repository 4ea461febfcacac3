"""Filtered contractive deep belief networks for kin verification, plus
score fusion and perception metrics."""

from .config import ConfigError, RunConfig, load_config
from .core import RngStream, conv2d_same, sigmoid
from .deepnet import (
    DbnStack,
    FcOptions,
    MlpModel,
    dropout_forward,
    encode,
    greedy_pretrain,
    mlp_predict,
    mlp_train,
)
from .evaluation import (
    ConfusionCounts,
    FoldPlan,
    MatchingError,
    dprime,
    gen_negatives,
    information_entropy,
    make_folds,
    roc,
    stimulus_entropy,
    ztest_proportions,
)
from .fusion import (
    FusionModel,
    GaussianMixture,
    PlrModels,
    ScoreSet,
    SvmModel,
    boost_decision,
    fit_fusion,
    fit_gmm,
    fit_plr_models,
    log_plr_scores,
    plr_scores,
    svm_fit,
    synth_scores,
)
from .kvrl import (
    KvrlModel,
    RegionFractions,
    RegionSet,
    cut_regions,
    encode_face,
    encode_images,
    extract_regions,
    kin_score,
    pair_features,
    pretrain_stages,
    score_pairs,
    train_kvrl,
)
from .rbm import (
    DivergenceError,
    RbmLayer,
    TrainConfig,
    apply_filters,
    cd_train,
    contractive_penalty,
    energy_bernoulli,
    energy_gaussian,
    fc_loss,
    fc_loss_grads,
    hidden_given_visible,
    init_layer,
    visible_given_hidden,
)
from .storage import KinPair, load_model, load_pgm, read_manifest, save_model, save_pgm, write_manifest
from .synth import make_kin_benchmark, synth_kin

__version__ = "0.1.0"
