"""Energy-based layers: plain, Gaussian-visible, and filtered contractive RBMs.

A layer owns a D x F weight matrix, biases, optional visible noise scales,
and optional learned convolution filters applied to the (image-shaped)
visible input before it reaches the hidden units. Each batch runs one
deterministic up-down pass, phi = p(h | V) and vhat = E[v | phi], that the
CD, contractive and reconstruction terms share. Training is CD-k for W, a
and b plus one regularizer and filter step, which is exactly -fc_loss_grads
less the reconstruction W, a and b terms: both come from _regularized_terms,
so training descends the gradients the finite-difference checks test. Every
parameter moves by ``core.momentum_step``, the update the pair classifier
uses too.

Sign convention for Gaussian visibles: the quadratic term enters the energy
with a positive sign, + sum_i (v_i - b_i)^2 / (2 sigma_i^2), so the energy
is bounded below.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    RngStream,
    check_kernel,
    conv2d_same,
    conv2d_same_kernel_grad,
    momentum_step,
    sigmoid,
)

BERNOULLI = "bernoulli"
GAUSSIAN = "gaussian"

# filter update stabilizers (see cd_train)
FILTER_RATE_DAMPING = 10.0
FILTER_GRAD_CLIP = 1.0
# smallest visible noise scale; keeps encoding finite (see storage._from_arr)
SIGMA_MIN = 1e-50


class DivergenceError(RuntimeError):
    """Raised when parameters go non-finite during training."""

    def __init__(self, epoch, message=None):
        self.epoch = epoch
        super().__init__(message or f"training diverged (NaN/Inf) at epoch {epoch}")

    def __reduce__(self):  # a worker's error reaches the parent by pickle
        return type(self), (self.epoch, str(self))


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 10
    batch_size: int = 64
    cd_steps: int = 1
    momentum: float = 0.5
    seed: int = 0

    def validate(self):
        if not math.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1 or self.cd_steps < 1:
            raise ValueError("batch_size and cd_steps must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


@dataclass
class RbmLayer:
    """Parameters of one (possibly filtered contractive) RBM layer.

    W: (D, F) weights; a: (F,) hidden biases; b: (D,) visible biases.
    sigma: (D,) visible noise scales, Gaussian units only.
    filters: K small kernels convolved with the visible image and summed;
    K = 0 means a plain layer. image_shape is required when K >= 1 so flat
    visible vectors can be reshaped for convolution.
    alpha scales the contractive penalty, beta the filter L2 decay.
    """

    W: np.ndarray
    a: np.ndarray
    b: np.ndarray
    unit_kind: str = BERNOULLI
    sigma: np.ndarray | None = None
    filters: list[np.ndarray] = field(default_factory=list)
    alpha: float = 0.0
    beta: float = 0.0
    image_shape: tuple[int, ...] | None = None

    @property
    def n_visible(self):
        return self.W.shape[0]

    @property
    def n_hidden(self):
        return self.W.shape[1]

    @property
    def n_filters(self):
        return len(self.filters)

    def validate(self):
        """Check shapes, unit kind and settings; raises ValueError.

        sigma must be >= SIGMA_MIN. Other values are not checked here (NaN
        and Inf weights pass); ``storage.load_model`` bounds every array.
        """
        W, a, b = self.W, self.a, self.b
        if W.ndim != 2 or a.shape != (W.shape[1],) or b.shape != (W.shape[0],):
            raise ValueError(f"inconsistent layer dims: W {W.shape}, "
                             f"a {a.shape}, b {b.shape}")
        d = W.shape[0]
        if self.unit_kind not in (BERNOULLI, GAUSSIAN):
            raise ValueError(f"unknown unit_kind {self.unit_kind!r}")
        if (self.unit_kind == GAUSSIAN) != (self.sigma is not None):
            raise ValueError("sigma is required for gaussian units and "
                             "allowed only for them")
        if self.sigma is not None and (self.sigma.shape != (d,)
                                       or not np.all(self.sigma >= SIGMA_MIN)):
            raise ValueError(f"sigma must have shape ({d},) and be >= {SIGMA_MIN}")
        shape = self.image_shape
        if shape is not None and not (
                len(shape) == 2
                and all(isinstance(n, (int, np.integer))
                        and not isinstance(n, bool) and n > 0 for n in shape)
                and shape[0] * shape[1] == d):
            raise ValueError(
                f"image_shape {shape} must be two positive ints with product {d}")
        if self.filters:
            if shape is None:
                raise ValueError("filtered layers need image_shape")
            if any(f.shape != self.filters[0].shape for f in self.filters):
                raise ValueError("filters must share one shape")
            check_kernel(self.filters[0].shape, shape)
        check_regularizers(self.alpha, self.beta)

    def copy(self):
        return replace(self, W=self.W.copy(), a=self.a.copy(), b=self.b.copy(),
                       sigma=None if self.sigma is None else self.sigma.copy(),
                       filters=[f.copy() for f in self.filters])


def check_regularizers(alpha, beta):
    """Raise ValueError unless alpha and beta are finite and >= 0."""
    if not all(math.isfinite(v) and v >= 0 for v in (alpha, beta)):
        raise ValueError(f"alpha, beta must be finite and >= 0, got {alpha}, {beta}")


def init_layer(n_visible, n_hidden, stream, unit_kind=BERNOULLI, n_filters=0,
               filter_size=3, alpha=0.0, beta=0.0, image_shape=None):
    """Fresh layer: weights N(0, 0.01), zero biases, filters near identity.

    Filter responses are summed, so each filter starts at identity / K plus
    N(0, 0.01) noise: the aggregate stays close to the raw image and a
    freshly filtered layer behaves almost like a plain one.
    """
    W = stream.gaussian(n_visible * n_hidden, sigma=0.01).reshape(n_visible, n_hidden)
    a = np.zeros(n_hidden)
    b = np.zeros(n_visible)
    sigma = np.ones(n_visible) if unit_kind == GAUSSIAN else None
    filters = []
    for _ in range(n_filters):
        f = stream.gaussian(filter_size * filter_size, sigma=0.01)
        f = f.reshape(filter_size, filter_size)
        f[filter_size // 2, filter_size // 2] += 1.0 / n_filters
        filters.append(f)
    layer = RbmLayer(W=W, a=a, b=b, unit_kind=unit_kind, sigma=sigma,
                     filters=filters, alpha=alpha, beta=beta,
                     image_shape=image_shape)
    layer.validate()
    return layer


def _check_sigma(layer):
    if layer.sigma is None or not np.all(layer.sigma >= SIGMA_MIN):
        raise ValueError(f"gaussian units need sigma >= {SIGMA_MIN}")


def _as_batch(v, width, what):
    v = np.asarray(v, dtype=np.float64)
    squeeze = v.ndim == 1
    if squeeze:
        v = v[None, :]
    if v.ndim != 2 or v.shape[1] != width:
        raise ValueError(f"{what}: expected width {width}, got shape {v.shape}")
    return v, squeeze


def _energy_args(v, h, layer, kind):
    """v and h as float arrays for a ``kind`` layer's energy, or ValueError."""
    if layer.unit_kind != kind:
        raise ValueError(f"energy_{kind} needs a {kind} layer")
    v = np.asarray(v, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if v.shape != (layer.n_visible,) or h.shape != (layer.n_hidden,):
        raise ValueError(
            f"shape mismatch: v {v.shape}, h {h.shape}, "
            f"layer {layer.n_visible}x{layer.n_hidden}"
        )
    return v, h


def energy_bernoulli(v, h, layer):
    """E(v, h) = -v^T W h - b^T v - a^T h for binary units."""
    v, h = _energy_args(v, h, layer, BERNOULLI)
    return float(-v @ layer.W @ h - layer.b @ v - layer.a @ h)


def energy_gaussian(v, h, layer):
    """Gaussian-visible energy, bounded below.

    E(v, h) = -sum_ij (v_i / sigma_i) W_ij h_j
              + sum_i (v_i - b_i)^2 / (2 sigma_i^2) - a^T h
    """
    v, h = _energy_args(v, h, layer, GAUSSIAN)
    _check_sigma(layer)
    quad = np.sum((v - layer.b) ** 2 / (2.0 * layer.sigma ** 2))
    return float(-(v / layer.sigma) @ layer.W @ h + quad - layer.a @ h)


def hidden_given_visible(v, layer, per_row=False):
    """p(h_j = 1 | v), factorized over hidden units.

    Accepts a single vector or a batch of row vectors. For filtered layers
    ``v`` is the filter-aggregated visible (see apply_filters); for Gaussian
    layers the visibles are scaled by 1 / sigma before the weights.

    A batch goes through one matrix product (BLAS gemm), whose rounding
    depends on the batch. With ``per_row`` each row gets its own one-row
    product, the BLAS gemv a single vector gets: numpy sends every
    ``(1, D) @ (D, F)`` core of the stacked product ``(N, 1, D) @ (D, F)``
    there, so row i is bit-identical to ``hidden_given_visible(v[i], layer)``
    whatever the batch.
    """
    v, squeeze = _as_batch(v, layer.n_visible, "hidden_given_visible")
    if layer.unit_kind == GAUSSIAN:
        _check_sigma(layer)
        v = v / layer.sigma
    pre = (v[:, None, :] @ layer.W)[:, 0, :] if per_row else v @ layer.W
    p = sigmoid(pre + layer.a)
    return p[0] if squeeze else p


def visible_given_hidden(h, layer):
    """Visible conditional parameters given hidden activity.

    Bernoulli: p(v_i = 1 | h) = sigmoid((W h)_i + b_i).
    Gaussian: mean b_i + sigma_i (W h)_i (the per-unit std is layer.sigma).
    """
    h, squeeze = _as_batch(h, layer.n_hidden, "visible_given_hidden")
    pre = h @ layer.W.T
    if layer.unit_kind == GAUSSIAN:
        _check_sigma(layer)
        out = layer.b + layer.sigma * pre
    else:
        out = sigmoid(pre + layer.b)
    return out[0] if squeeze else out


def apply_filters(image, layer):
    """Aggregated visible: flatten(sum_k conv2d_same(image, f_k)); raises
    ValueError unless the layer has filters, passes ``layer.validate()`` and
    takes the image's shape."""
    if layer.n_filters == 0:
        raise ValueError("layer has no filters")
    layer.validate()
    image = np.asarray(image, dtype=np.float64)
    if image.shape != tuple(layer.image_shape):
        raise ValueError(
            f"image shape {image.shape} != layer image_shape {layer.image_shape}"
        )
    return _aggregate_rows(image.reshape(1, -1), layer)[0]


def _aggregate_rows(X, layer):
    """Filter-aggregate a batch of flattened images (no-op for K = 0).

    One conv2d_same call per filter covers the whole batch, and the K
    responses are summed in filter order.
    """
    if layer.n_filters == 0:
        return X
    stack = X.reshape(X.shape[0], *layer.image_shape)
    total = conv2d_same(stack, layer.filters[0])
    for f in layer.filters[1:]:
        total += conv2d_same(stack, f)
    return total.reshape(X.shape)


def _filter_grads_from_dv(X, dV, layer):
    """Chain batch gradients on the aggregated visible back to each filter.

    The aggregate is linear in each filter, every filter sees the same input
    and all filters share one shape, so all K gradients are equal: it is
    computed once and each filter gets its own copy.
    """
    stack = X.reshape(X.shape[0], *layer.image_shape)
    g = conv2d_same_kernel_grad(stack, dV.reshape(stack.shape),
                                layer.filters[0].shape)
    return [g.copy() for _ in layer.filters]


def _up_down(layer, V):
    """One batch's deterministic up-down pass: phi = p(h | V), vhat = E[v | phi]."""
    phi = hidden_given_visible(V, layer)
    return phi, visible_given_hidden(phi, layer)


def _to_visible(layer, d):
    """Chain a gradient on the hidden pre-activations back to the visible rows."""
    dV = d @ layer.W.T
    return dV / layer.sigma if layer.unit_kind == GAUSSIAN else dV


def _contractive_terms(layer, V, phi):
    """Penalty value plus exact gradients w.r.t. W, a and the pre-activations.

    V rows are the vectors the hidden layer actually sees (aggregate first
    for filtered layers) and phi = p(h | V). The penalty is the squared
    Frobenius norm of the hidden Jacobian, batch-averaged:
    mean_n sum_j (phi_j (1 - phi_j))^2 sum_i W_ij^2. Returns
    (value, dW, da, dz); _to_visible(layer, dz) is its gradient on V.
    """
    n = V.shape[0]
    wbuf = layer.W ** 2  # the one W-sized temporary, reused below
    w2 = np.sum(wbuf, axis=0)  # (F,)
    Vs = V / layer.sigma if layer.unit_kind == GAUSSIAN else V
    s2 = 1.0 - phi
    s2 *= phi
    np.square(s2, out=s2)
    value = float(np.mean(s2 @ w2))
    # d(value)/d(pre-activation): 2 s^2 (1 - 2 phi) w2, batch-averaged
    dz = 2.0 * s2
    q = 2.0 * phi
    dz *= np.subtract(1.0, q, out=q)
    dz *= w2
    dz /= n
    # dW = Vs^T dz + 2 W colsum(s^2) / n, in that order
    np.multiply(2.0, layer.W, out=wbuf)
    wbuf *= s2.sum(axis=0)
    wbuf /= n
    dW = Vs.T @ dz
    dW += wbuf
    return value, dW, dz.sum(axis=0), dz


def contractive_penalty(layer, batch, activation="sigmoid"):
    """Batch-averaged contractive penalty with analytic W and a gradients.

    ``batch`` rows are the visible vectors seen by the hidden layer
    (filter-aggregated for filtered layers). Returns (value, grads) where
    grads maps "W" and "a" to exact derivatives of the value. In linear mode
    the derivative factor is 1 and the value collapses to sum_ij W_ij^2.
    """
    batch, _ = _as_batch(batch, layer.n_visible, "contractive_penalty")
    if batch.shape[0] == 0:
        raise ValueError("contractive_penalty: empty batch")
    if activation == "linear":
        value = float(np.sum(np.sum(layer.W ** 2, axis=0)))
        return value, {"W": 2.0 * layer.W, "a": np.zeros_like(layer.a)}
    if activation != "sigmoid":
        raise ValueError(f"unknown activation {activation!r}")
    phi = hidden_given_visible(batch, layer)
    value, dW, da, _ = _contractive_terms(layer, batch, phi)
    return value, {"W": dW, "a": da}


def _reconstruction_chain(layer, V, phi, vhat):
    """The reconstruction loss's gradients along its chain, and on V.

    (phi, vhat) is V's up-down pass; the loss is the mean over batch entries
    of (vhat - V)^2. Returns (g0, g2, g1, dV): the gradients on vhat, on
    phi W^T and on the hidden pre-activations, and the total gradient on V
    (both the target path and the encoding path).
    """
    n, d = V.shape
    g0 = 2.0 * (vhat - V) / (n * d)  # dL/dvhat
    if layer.unit_kind == GAUSSIAN:
        g2 = g0 * layer.sigma  # dL/d(phi W^T)
    else:
        g2 = g0 * vhat * (1.0 - vhat)
    g1 = (g2 @ layer.W) * phi * (1.0 - phi)
    return g0, g2, g1, -g0 + _to_visible(layer, g1)


def _reconstruction_terms(layer, V, phi, vhat):
    """Deterministic one-step reconstruction error and its gradients.

    Returns the loss, gradients on W, a, b, and the total gradient on V
    (see _reconstruction_chain).
    """
    g0, g2, g1, dV = _reconstruction_chain(layer, V, phi, vhat)
    loss = float(np.mean((vhat - V) ** 2))
    gaussian = layer.unit_kind == GAUSSIAN
    db = (g0 if gaussian else g2).sum(axis=0)
    dW = g2.T @ phi  # decode path
    Vs = V / layer.sigma if gaussian else V
    dW += Vs.T @ g1  # encode path
    return loss, dW, g1.sum(axis=0), db, dV


def fc_loss(layer, batch):
    """Training objective proxy: reconstruction + regularizers.

    mean squared one-step reconstruction error (on filter-aggregated
    visibles when the layer has filters) + alpha * contractive penalty
    + beta * sum_k ||f_k||_2^2. The exact negative log-likelihood is
    intractable; this is the quantity training histories monitor.
    """
    value, _ = fc_loss_grads(layer, batch)
    return value


def _regularized_terms(layer, X, V, phi, recon_dV):
    """The regularizers, and the filter gradients of the whole objective.

    X is a batch of flattened images, V its filter aggregate, phi = p(h | V)
    and recon_dV the reconstruction's gradient on V (read only for filtered
    layers). Returns (value, dW, da, filter_grads): value = alpha *
    contractive(V) + beta * sum_k ||f_k||^2; dW and da are its gradients
    (the scalar 0.0 when alpha is 0: it adds and subtracts as a zero array
    would); filter_grads are the gradients of reconstruction
    + regularizers, from one kernel-gradient call on recon_dV + alpha *
    dV_contractive, plus 2 beta f_k ([] for plain layers).

    fc_loss_grads adds these to the reconstruction's W, a and b gradients;
    cd_train subtracts them from the CD estimate. So filters descend the
    deterministic reconstruction proxy instead of chaining the likelihood
    term: with sigma fixed, the likelihood of the filtered visibles is
    maximized by a zero-sum kernel that erases the input, so the likelihood
    chain drives every filter toward that degenerate point. The
    reconstruction anchor keeps the aggregate informative.
    """
    value, dW, da = 0.0, 0.0, 0.0
    if layer.alpha != 0.0:
        pval, dW, da, pz = _contractive_terms(layer, V, phi)
        value = layer.alpha * pval
        dW *= layer.alpha
        da *= layer.alpha
    if layer.n_filters == 0:
        return value, dW, da, []
    dV = recon_dV
    if layer.alpha != 0.0:
        dV = dV + layer.alpha * _to_visible(layer, pz)
    fgrads = _filter_grads_from_dv(X, dV, layer)
    if layer.beta != 0.0:
        value += layer.beta * sum(float(np.sum(f ** 2)) for f in layer.filters)
        fgrads = [g + 2.0 * layer.beta * f
                  for g, f in zip(fgrads, layer.filters)]
    return value, dW, da, fgrads


def fc_loss_grads(layer, batch):
    """fc_loss value plus exact analytic gradients for W, a, b and filters."""
    layer.validate()
    batch, _ = _as_batch(batch, layer.n_visible, "fc_loss")
    if batch.shape[0] == 0:
        raise ValueError("fc_loss: empty batch")
    V = _aggregate_rows(batch, layer)
    phi, vhat = _up_down(layer, V)
    recon, dW, da, db, dV = _reconstruction_terms(layer, V, phi, vhat)
    reg, rW, ra, fgrads = _regularized_terms(layer, batch, V, phi, dV)
    grads = {"W": dW + rW, "a": da + ra, "b": db}
    if layer.n_filters > 0:
        grads["filters"] = fgrads
    return recon + reg, grads


def cd_gradients(layer, batch, stream, cd_steps=1):
    """CD-k log-likelihood ascent estimate for W, a and b (no regularizers).

    Hidden states are sampled along the chain; visible reconstructions use
    conditional means. Filters have no CD term (see _regularized_terms).
    Returns (grads dict, mean one-step reconstruction error).
    """
    if cd_steps < 1:
        raise ValueError(f"cd_steps must be >= 1, got {cd_steps}")
    X, _ = _as_batch(batch, layer.n_visible, "cd_gradients")
    V = _aggregate_rows(X, layer)
    return _cd_terms(layer, V, *_up_down(layer, V), stream, cd_steps)


def _cd_terms(layer, V, phi, vhat, stream, cd_steps):
    """cd_gradients on a filter aggregate V whose up-down pass is (phi, vhat)."""
    n = V.shape[0]
    gaussian = layer.unit_kind == GAUSSIAN
    Vs = V / layer.sigma if gaussian else V

    hs = _sample(stream, phi)
    for _ in range(cd_steps):
        vk = visible_given_hidden(hs, layer)
        hk = hidden_given_visible(vk, layer)
        hs = _sample(stream, hk)
    vks = vk / layer.sigma if gaussian else vk

    # (Vs^T phi - vks^T hk) / n, mean(phi - hk) and mean of V - vk (over
    # sigma^2 for Gaussian units), in place in the chain's own arrays
    gW = Vs.T @ phi
    gW -= vks.T @ hk
    gW /= n
    ga = np.subtract(phi, hk, out=hk).mean(axis=0)
    np.subtract(V, vk, out=vk)
    if gaussian:
        vk /= layer.sigma ** 2
    return ({"W": gW, "a": ga, "b": vk.mean(axis=0)},
            float(np.mean((vhat - V) ** 2)))


def _sample(stream, p):
    """Binary states with P(1) = p, from one uniform draw per entry."""
    u = stream.uniform01(p.size).reshape(p.shape)
    return np.less(u, p, out=u)


def cd_train(layer, data, cfg):
    """Contrastive-divergence training of one layer.

    Returns (trained copy, per-epoch mean reconstruction error). The input
    layer is not mutated. Deterministic given cfg.seed; raises
    DivergenceError naming the epoch if any parameter goes non-finite.

    Each batch takes one ``core.momentum_step`` for W, a and b along CD
    step - regularizer gradient (b has no regularizer) at the learning rate,
    and one for the filters along their norm-clipped gradients at the damped
    descent rate -learning_rate / FILTER_RATE_DAMPING. Gradients are built
    in place, with the same operations in the same order as those
    expressions, so the bits are theirs, and no W-sized array is made for
    the regularizer when alpha is 0.
    """
    cfg.validate()
    layer.validate()
    data, _ = _as_batch(data, layer.n_visible, "cd_train")
    if data.shape[0] == 0:
        raise ValueError("cd_train: empty data")
    out = layer.copy()
    stream = RngStream(seed=cfg.seed)
    data = data[stream.permutation(data.shape[0])]
    batches = [data[i:i + cfg.batch_size]
               for i in range(0, data.shape[0], cfg.batch_size)]
    params = [out.W, out.a, out.b] + out.filters  # stepped in place
    vel = [np.zeros_like(p) for p in params]
    # bounded filter steps: norm-clipped gradients at a damped rate, so the
    # filter/weight feedback loop cannot run away
    filter_rate = -cfg.learning_rate / FILTER_RATE_DAMPING
    history = []
    for epoch in range(cfg.epochs):
        errs = []
        for batch in batches:
            V = _aggregate_rows(batch, out)
            phi, vhat = _up_down(out, V)
            step, recon = _cd_terms(out, V, phi, vhat, stream, cfg.cd_steps)
            recon_dV = (_reconstruction_chain(out, V, phi, vhat)[3]
                        if out.n_filters else None)
            _, rW, ra, rfilters = _regularized_terms(out, batch, V, phi, recon_dV)
            errs.append(recon)
            if out.alpha != 0.0:  # else rW and ra are 0.0, and x - 0.0 is x
                step["W"] -= rW
                step["a"] -= ra
            momentum_step(params[:3], vel[:3], (step["W"], step["a"], step["b"]),
                          cfg.momentum, cfg.learning_rate)
            for g in rfilters:
                norm = float(np.linalg.norm(g))
                if norm > FILTER_GRAD_CLIP:
                    g *= FILTER_GRAD_CLIP / norm
            momentum_step(params[3:], vel[3:], rfilters, cfg.momentum,
                          filter_rate)
        history.append(float(np.mean(errs)))
        if not all(np.all(np.isfinite(p)) for p in params):
            raise DivergenceError(epoch + 1)
    return out, history
