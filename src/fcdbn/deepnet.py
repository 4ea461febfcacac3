"""Greedy layer-wise stacks and the dropout-regularized pair classifier.

Stacks are trained bottom-up: each layer fits the deterministic hidden
probabilities of the one below. Encoding never samples. The classifier is a
feed-forward sigmoid net trained by backprop with inverted dropout: at train
time each layer input is masked by Bernoulli(1 - r) draws and scaled by
1 / (1 - r); at inference nothing is masked or scaled.

The classifier has one forward pass, ``_forward``, and one backward pass,
``_backward``. Inference (``dropout_forward``, ``mlp_predict``), the exact
loss gradients (``mlp_loss_grads``) and training (``mlp_train``) all run
them, so the backprop that trains is the backprop the gradient checks test.
Training steps with the momentum update ``core.momentum_step`` at rate
-learning_rate, the one ``rbm.cd_train`` uses, and draws each epoch's
sample order with ``RngStream.permutation``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import RngStream, momentum_step, sigmoid
from .rbm import (
    BERNOULLI,
    GAUSSIAN,
    DivergenceError,
    RbmLayer,
    _aggregate_rows,
    cd_train,
    hidden_given_visible,
    init_layer,
)

# Uniform draws per mlp_train permutation chunk: epochs draw their sample
# orders together, one RngStream.permutation(n, rows) call of at most this
# many values (and their argsort) at a time.
# 800 orders of 480 rows took 26 ms in chunks of 2**13 draws, against 35 ms
# one epoch at a time and 28 ms in chunks of 2**16, whose temporaries also
# raised mlp_train's traced peak from 2.6 MB to 4.8 MB on 864 rows.
_PERMUTATION_DRAWS = 1 << 13


@dataclass
class FcOptions:
    """First-layer options for a stack: filters, noise model, regularizers.

    Filters and Gaussian units apply to the data-facing layer only; the
    contractive weight applies to every layer in the stack.
    """

    n_filters: int = 0
    filter_size: int = 3
    alpha: float = 0.0
    beta: float = 0.0
    first_layer_gaussian: bool = False
    image_shape: tuple | None = None


@dataclass
class DbnStack:
    layers: list[RbmLayer]

    @property
    def layer_dims(self):
        dims = [self.layers[0].n_visible]
        dims += [layer.n_hidden for layer in self.layers]
        return dims

    def validate(self):
        for i in range(1, len(self.layers)):
            lo, hi = self.layers[i - 1], self.layers[i]
            if lo.n_hidden != hi.n_visible:
                raise ValueError(
                    f"layer {i}: input width {hi.n_visible} != "
                    f"previous output {lo.n_hidden}"
                )
            if hi.n_filters > 0 or hi.unit_kind == GAUSSIAN:
                raise ValueError("only the first layer may be filtered/gaussian")


def greedy_pretrain(dims, data, cfg, fc=None):
    """Train a stack layer by layer; dims are node counts per layer.

    dims[0] must match the data width. Layer i is trained on the hidden
    probabilities produced by the already-trained layers below it. Only the
    first layer may carry filters or Gaussian units (per ``fc``); the
    contractive weight fc.alpha applies to every layer. Returns
    ``(stack, codes)``: ``codes`` are the top layer's hidden probabilities
    for ``data``, composed a whole batch per layer (one gemm each), as
    training saw them. They can differ from ``encode(stack, data)``, whose
    rows are one-row products, in the last bits (about 1e-14).
    """
    fc = fc or FcOptions()
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != dims[0]:
        raise ValueError(f"data width {data.shape} does not match dims[0]={dims[0]}")
    if len(dims) < 2:
        raise ValueError("need at least input and one hidden layer")
    stream = RngStream(seed=cfg.seed)
    layers = []
    x = data
    for i in range(len(dims) - 1):
        first = i == 0
        layer = init_layer(
            dims[i], dims[i + 1], stream.child(i),
            unit_kind=GAUSSIAN if (first and fc.first_layer_gaussian) else BERNOULLI,
            n_filters=fc.n_filters if first else 0,
            filter_size=fc.filter_size,
            alpha=fc.alpha,
            beta=fc.beta if first else 0.0,
            image_shape=fc.image_shape if first else None,
        )
        layer_cfg = replace(cfg, seed=stream.child(1000 + i).seed)
        try:
            layer, _ = cd_train(layer, x, layer_cfg)
        except DivergenceError as exc:
            raise DivergenceError(exc.epoch, f"layer {i}: {exc}") from exc
        layers.append(layer)
        x = hidden_given_visible(_aggregate_rows(x, layer), layer)
    return DbnStack(layers=layers), x


def encode(stack, v):
    """Deterministic composition of hidden probabilities through the stack.

    Accepts one vector or a batch of rows; no sampling anywhere. Every
    layer's product is taken one row at a time (``per_row``) and the filter
    aggregate is per image, so ``encode(stack, v)[i]`` equals
    ``encode(stack, v[i])`` bit for bit at any batch size.
    """
    v = np.asarray(v, dtype=np.float64)
    squeeze = v.ndim == 1
    x = v[None, :] if squeeze else v
    for layer in stack.layers:
        x = hidden_given_visible(_aggregate_rows(x, layer), layer, per_row=True)
    return x[0] if squeeze else x


@dataclass
class MlpModel:
    """Feed-forward sigmoid net with a 1-unit sigmoid head."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    dropout_input: float = 0.0
    dropout_hidden: float = 0.0

    def validate(self):
        check_dropout(self.dropout_input, self.dropout_hidden)
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("classifier needs one bias per weight matrix")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError(f"classifier layer {i} dims inconsistent")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(f"classifier layer {i} width mismatch")
        if self.weights[-1].shape[1] != 1:
            raise ValueError("final layer must have one output unit")


def check_dropout(*rates):
    """Raise ValueError unless every dropout rate is in [0, 1)."""
    if not all(0.0 <= r < 1.0 for r in rates):
        raise ValueError(f"dropout rates must be in [0, 1), got {rates}")


def mlp_init(arch, stream, dropout_input=0.0, dropout_hidden=0.0):
    weights, biases = [], []
    for i in range(len(arch) - 1):
        w = stream.gaussian(arch[i] * arch[i + 1], sigma=0.1)
        weights.append(w.reshape(arch[i], arch[i + 1]))
        biases.append(np.zeros(arch[i + 1]))
    model = MlpModel(weights=weights, biases=biases,
                     dropout_input=dropout_input, dropout_hidden=dropout_hidden)
    model.validate()
    return model


def _forward(model, x, stream=None, masks=None):
    """The one forward pass; returns the output and a per-layer cache.

    With neither ``stream`` nor ``masks`` nothing is masked or scaled: this
    is inference and the exact loss. ``masks`` (one array per layer) fixes
    the sub-network; a ``stream`` draws Bernoulli(1 - r) masks. A masked
    layer input is scaled by 1 / (1 - r). The cache holds, per layer, the
    input the weights saw, its mask (None when unmasked) and the output.
    """
    y = np.asarray(x, dtype=np.float64)
    if y.ndim == 1:
        y = y[None, :]
    cache = []
    for layer_idx, (w, b) in enumerate(zip(model.weights, model.biases)):
        r = model.dropout_input if layer_idx == 0 else model.dropout_hidden
        m = None
        if masks is not None:
            m = masks[layer_idx]
        elif stream is not None:
            if r == 0.0:
                # Bernoulli(1) draws are all ones: skip them, but advance the
                # stream as they would, so later layers' masks stay the same
                stream.counter += y.size
            else:
                m = stream.bernoulli(y.size, 1.0 - r).reshape(y.shape)
        u = y if m is None else y * m / (1.0 - r)
        out = sigmoid(u @ w + b)
        cache.append((u, m, out))
        y = out
    return y, cache


def _backward(model, cache, delta):
    """The one backprop: weight and bias gradients from a ``_forward`` cache.

    ``delta`` is the loss gradient at the output pre-activation. The signal
    sent down into a masked layer input is rescaled by m / (1 - r).
    """
    n_layers = len(model.weights)
    gw, gb = [None] * n_layers, [None] * n_layers
    for layer_idx in range(n_layers - 1, -1, -1):
        u, m, _ = cache[layer_idx]
        gw[layer_idx] = u.T @ delta
        gb[layer_idx] = delta.sum(axis=0)
        if layer_idx > 0:
            back = delta @ model.weights[layer_idx].T
            if m is not None:  # a hidden layer's input: rate dropout_hidden
                back = back * m / (1.0 - model.dropout_hidden)
            prev_out = cache[layer_idx - 1][2]
            delta = back * prev_out * (1.0 - prev_out)
    return gw, gb


def dropout_forward(model, x, stream=None, train=False, masks=None):
    """Forward pass with inverted dropout.

    train=True: every layer input is elementwise-masked by Bernoulli(1 - r)
    draws (r = dropout_input for the first layer, dropout_hidden above) and
    scaled by 1 / (1 - r). train=False: plain pass, no masks, no scaling.
    ``masks`` overrides the stream (one array per layer, for reproducing a
    specific sub-network).
    """
    model.validate()
    if not train:
        stream = masks = None
    elif stream is None and masks is None:
        raise ValueError("train=True needs a stream or explicit masks")
    x = np.asarray(x, dtype=np.float64)
    y, _ = _forward(model, x, stream, masks)
    return y[0] if x.ndim == 1 else y


def mlp_predict(model, x):
    """Inference probabilities, squeezed to a scalar per sample."""
    out = dropout_forward(model, x, train=False)
    return out[..., 0] if out.ndim > 1 else float(out[0])


def bake_input_scaler(model, mean, std):
    """Fold a (x - mean) / std input transform into the first layer.

    After baking, running the model on raw inputs reproduces the model as
    trained on standardized inputs. Returns the same model, mutated.
    """
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    w0 = model.weights[0] / std[:, None]
    model.biases[0] = model.biases[0] - (mean / std) @ model.weights[0]
    model.weights[0] = w0
    return model


def _bce(p, y):
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def mlp_loss_grads(model, x, y):
    """Cross-entropy loss and exact backprop gradients, dropout disabled."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    p, cache = _forward(model, x)
    loss = _bce(p[:, 0], y[:, 0])
    delta = (p - y) / x.shape[0]  # sigmoid + cross-entropy
    gw, gb = _backward(model, cache, delta)
    return loss, {"weights": gw, "biases": gb}


def mlp_train(features, labels, arch, cfg, dropout_input=0.0, dropout_hidden=0.0):
    """Backprop training of the kin/non-kin classifier.

    arch lists node counts from input to the single output unit. Returns
    (model, per-epoch loss history); deterministic given cfg.seed. Raises
    on single-class labels, and raises DivergenceError naming the epoch if
    the loss or any weight or bias goes non-finite.
    """
    cfg.validate()
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValueError("features must be (N, D) with one label per row")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("labels must be binary")
    if len(np.unique(y)) < 2:
        raise ValueError("degenerate labels: both classes required")
    if arch[0] != x.shape[1] or arch[-1] != 1:
        raise ValueError(f"arch {arch} inconsistent with data width {x.shape[1]}")
    stream = RngStream(seed=cfg.seed)
    model = mlp_init(arch, stream.child(0),
                     dropout_input=dropout_input, dropout_hidden=dropout_hidden)
    sample_stream = stream.child(1)
    mask_stream = stream.child(2)
    n = x.shape[0]
    chunk = max(1, _PERMUTATION_DRAWS // n)  # epochs whose orders are drawn at once
    params = model.weights + model.biases  # updated in place
    velocities = [np.zeros_like(p) for p in params]
    history = []
    yy = y.reshape(-1, 1)
    for epoch in range(cfg.epochs):
        if epoch % chunk == 0:
            orders = sample_stream.permutation(n, min(chunk, cfg.epochs - epoch))
        order = orders[epoch % chunk]
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb, yb = x[idx], yy[idx]
            out, cache = _forward(model, xb, mask_stream)
            losses.append(_bce(out[:, 0], yb[:, 0]))
            gw, gb = _backward(model, cache, (out - yb) / xb.shape[0])
            momentum_step(params, velocities, gw + gb, cfg.momentum,
                          -cfg.learning_rate)
        epoch_loss = float(np.mean(losses))
        if not (math.isfinite(epoch_loss) and all(
                np.isfinite(p).all() for p in params)):
            raise DivergenceError(epoch + 1)
        history.append(epoch_loss)
    return model, history
