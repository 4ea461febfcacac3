import numpy as np
import pytest

import fcdbn.deepnet
from fcdbn.core import RngStream, sigmoid
from fcdbn.deepnet import (
    DbnStack,
    FcOptions,
    _backward,
    _forward,
    _bce,
    dropout_forward,
    encode,
    greedy_pretrain,
    mlp_init,
    mlp_loss_grads,
    mlp_predict,
    mlp_train,
)
from fcdbn.rbm import (
    GAUSSIAN,
    DivergenceError,
    RbmLayer,
    TrainConfig,
    _aggregate_rows,
    hidden_given_visible,
)


def zero_stack(dims):
    layers = []
    for i in range(len(dims) - 1):
        layers.append(RbmLayer(W=np.zeros((dims[i], dims[i + 1])),
                               a=np.zeros(dims[i + 1]), b=np.zeros(dims[i])))
    return DbnStack(layers=layers)


class TestGreedyPretrain:
    def test_constant_data_propagates_constant_activations(self):
        data = np.full((12, 16), 0.7)
        cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=4, seed=0)
        stack, _ = greedy_pretrain([16, 8], data, cfg)
        codes = encode(stack, data)
        # every sample identical input -> identical code rows
        assert np.max(np.abs(codes - codes[0])) == 0.0
        assert codes.shape == (12, 8)

    def test_stage_one_shape_accepted(self):
        data = RngStream(seed=1).uniform01(6 * 1024).reshape(6, 1024)
        cfg = TrainConfig(learning_rate=0.01, epochs=1, batch_size=6, seed=0)
        stack, _ = greedy_pretrain([1024, 512, 512], data, cfg)
        assert stack.layer_dims == [1024, 512, 512]
        stack.validate()

    def test_stage_two_shape_accepted(self):
        data = RngStream(seed=2).uniform01(6 * 1536).reshape(6, 1536)
        cfg = TrainConfig(learning_rate=0.01, epochs=1, batch_size=6, seed=0)
        stack, _ = greedy_pretrain([1536, 1024, 512], data, cfg)
        assert stack.layer_dims == [1536, 1024, 512]
        stack.validate()

    def test_width_mismatch_rejected(self):
        data = np.zeros((4, 10))
        cfg = TrainConfig(epochs=1, batch_size=4, seed=0)
        with pytest.raises(ValueError):
            greedy_pretrain([16, 8], data, cfg)

    def test_filtered_gaussian_first_layer(self):
        stream = RngStream(seed=3)
        data = stream.gaussian(20 * 36).reshape(20, 36)
        cfg = TrainConfig(learning_rate=0.02, epochs=2, batch_size=10, seed=0)
        fc = FcOptions(n_filters=2, filter_size=3, alpha=0.05, beta=1e-4,
                       first_layer_gaussian=True, image_shape=(6, 6))
        stack, _ = greedy_pretrain([36, 12, 6], data, cfg, fc)
        assert stack.layers[0].n_filters == 2
        assert stack.layers[0].unit_kind == GAUSSIAN
        assert stack.layers[1].n_filters == 0
        stack.validate()

    @pytest.mark.parametrize("n_filters,gaussian", [(2, True), (0, False)])
    def test_returns_the_top_codes_encode_gives(self, n_filters, gaussian):
        data = RngStream(seed=7).uniform01(20 * 36).reshape(20, 36)
        cfg = TrainConfig(learning_rate=0.02, epochs=2, batch_size=10, seed=0)
        fc = FcOptions(n_filters=n_filters, alpha=0.05, beta=1e-4,
                       first_layer_gaussian=gaussian, image_shape=(6, 6))
        stack, codes = greedy_pretrain([36, 12, 6], data, cfg, fc)
        # the codes are the whole-batch composition training saw (one gemm
        # per layer); encode's one-row products agree up to rounding
        x = data
        for layer in stack.layers:
            x = hidden_given_visible(_aggregate_rows(x, layer), layer)
        assert np.array_equal(codes, x)
        assert np.max(np.abs(codes - encode(stack, data))) < 1e-12


def trained_stack(kind, seed=9):
    """A two-layer stack on 6x6 images: plain, filtered or filtered Gaussian."""
    data = RngStream(seed=seed).uniform01(24 * 36).reshape(24, 36)
    cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=8, seed=seed)
    fc = FcOptions(n_filters=0 if kind == "plain" else 2, alpha=0.05, beta=1e-4,
                   first_layer_gaussian=kind == "gaussian", image_shape=(6, 6))
    stack, _ = greedy_pretrain([36, 12, 6], data, cfg, fc)
    return stack


class TestEncode:
    @pytest.mark.parametrize("kind", ["plain", "filtered", "gaussian"])
    @pytest.mark.parametrize("n", [1, 2, 3, 65])
    def test_batch_rows_equal_one_row_encodes(self, kind, n):
        stack = trained_stack(kind)
        batch = RngStream(seed=10).uniform01(n * 36).reshape(n, 36)
        codes = encode(stack, batch)
        assert codes.shape == (n, 6)
        for row, v in zip(codes, batch):
            assert np.array_equal(row, encode(stack, v))
        # a row's code does not depend on the rows around it
        assert np.array_equal(encode(stack, batch[::-1]), codes[::-1])

    def test_zero_stack_gives_half(self):
        stack = zero_stack([10, 6, 4])
        out = encode(stack, np.ones(10))
        assert np.allclose(out, 0.5, atol=0)

    def test_deterministic(self):
        stream = RngStream(seed=4)
        data = stream.uniform01(8 * 12).reshape(8, 12)
        cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=4, seed=0)
        stack, _ = greedy_pretrain([12, 6], data, cfg)
        v = stream.uniform01(12)
        assert np.array_equal(encode(stack, v), encode(stack, v))

    def test_single_layer_equals_hidden_conditional(self):
        stream = RngStream(seed=5)
        data = stream.uniform01(8 * 12).reshape(8, 12)
        cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=4, seed=0)
        stack, _ = greedy_pretrain([12, 6], data, cfg)
        v = stream.uniform01(12)
        direct = hidden_given_visible(v, stack.layers[0])
        assert np.max(np.abs(encode(stack, v) - direct)) < 1e-15

    def test_outputs_strictly_inside_unit_interval(self):
        stream = RngStream(seed=6)
        data = stream.uniform01(8 * 12).reshape(8, 12)
        cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=4, seed=0)
        stack, _ = greedy_pretrain([12, 6, 4], data, cfg)
        out = encode(stack, stream.uniform01(12))
        assert np.all(out > 0.0) and np.all(out < 1.0)


class TestDropoutForward:
    def small_model(self, seed=7, r_in=0.0, r_h=0.0):
        return mlp_init([6, 5, 1], RngStream(seed=seed),
                        dropout_input=r_in, dropout_hidden=r_h)

    def test_zero_rate_equals_plain_pass(self):
        model = self.small_model()
        x = RngStream(seed=8).uniform01(6)
        train_out = dropout_forward(model, x, RngStream(seed=9), train=True)
        plain_out = dropout_forward(model, x, train=False)
        assert np.array_equal(train_out, plain_out)

    def test_all_ones_mask_doubles_preactivation(self):
        model = self.small_model(r_in=0.0, r_h=0.5)
        x = RngStream(seed=10).uniform01(6)
        masks = [np.ones((1, 6)), np.ones((1, 5))]
        scaled = dropout_forward(model, x[None, :], train=True, masks=masks)
        # manual unscaled masked pass
        h = sigmoid(x @ model.weights[0] + model.biases[0])
        z_unscaled = h @ model.weights[1] + model.biases[1]
        z_scaled = np.log(scaled[0] / (1.0 - scaled[0]))  # invert sigmoid
        expected = 2.0 * (z_unscaled - model.biases[1]) + model.biases[1]
        assert np.max(np.abs(z_scaled - expected)) < 1e-9

    def test_monte_carlo_mean_matches_plain_pass(self):
        # inverted-dropout expectation at r_h = 0.5 within 2% per unit
        model = mlp_init([8, 6, 1], RngStream(seed=11),
                         dropout_input=0.0, dropout_hidden=0.5)
        x = RngStream(seed=12).uniform01(8)
        clean = dropout_forward(model, x, train=False)
        stream = RngStream(seed=13)
        total = np.zeros(1)
        n = 20_000
        for _ in range(n):
            total += dropout_forward(model, x, stream, train=True)
        mc = total / n
        assert np.max(np.abs(mc - clean) / np.abs(clean)) < 0.02

    @pytest.mark.parametrize("r_in,r_h", [(0.0, 0.0), (0.0, 0.5), (0.2, 0.0)])
    def test_zero_rate_skips_draws_but_advances_stream(self, r_in, r_h):
        # reference: Bernoulli(1 - r) masks drawn for every layer
        model = self.small_model(r_in=r_in, r_h=r_h)
        x = RngStream(seed=14).uniform01(4 * 6).reshape(4, 6)
        ref_stream = RngStream(seed=15)
        masks = [ref_stream.bernoulli(4 * 6, 1.0 - r_in).reshape(4, 6),
                 ref_stream.bernoulli(4 * 5, 1.0 - r_h).reshape(4, 5)]
        expected, _ = _forward(model, x, None, masks=masks)
        stream = RngStream(seed=15)
        got, _ = _forward(model, x, stream)
        assert stream.counter == ref_stream.counter == 4 * 6 + 4 * 5
        assert np.array_equal(got, expected)

    def test_degenerate_rate_rejected(self):
        model = self.small_model()
        model.dropout_hidden = 1.0
        with pytest.raises(ValueError):
            dropout_forward(model, np.zeros(6), RngStream(seed=0), train=True)

    def test_inference_pass_needs_no_stream(self):
        model = self.small_model(r_in=0.2, r_h=0.5)
        out1 = dropout_forward(model, np.ones(6), train=False)
        out2 = dropout_forward(model, np.ones(6), train=False)
        assert np.array_equal(out1, out2)


class TestMlpTrain:
    def separable_set(self, n=60, seed=14):
        stream = RngStream(seed=seed)
        half = n // 2
        x0 = stream.gaussian(half * 2, sigma=0.4).reshape(half, 2) + [-2.0, -2.0]
        x1 = stream.gaussian(half * 2, sigma=0.4).reshape(half, 2) + [2.0, 2.0]
        x = np.vstack([x0, x1])
        y = np.concatenate([np.zeros(half), np.ones(half)])
        return x, y

    def test_separable_data_reaches_high_accuracy(self):
        x, y = self.separable_set()
        # sanity: a hand-picked linear rule already separates the construction
        assert np.all((x.sum(axis=1) > 0) == (y == 1))
        cfg = TrainConfig(learning_rate=0.5, epochs=500, batch_size=60,
                          momentum=0.5, seed=0)
        model, history = mlp_train(x, y, [2, 4, 1], cfg)
        acc = np.mean((mlp_predict(model, x) >= 0.5) == (y == 1))
        assert acc >= 0.99
        assert all(np.isfinite(h) for h in history)

    @pytest.mark.parametrize("draws", [1, 3 * 60, 7 * 60 + 1])
    def test_chunked_permutations_train_the_same_model(self, monkeypatch, draws):
        # draws = 1 takes one permutation per epoch, as a per-epoch
        # stream.permutation call would; the others draw 3 or 7 epochs'
        # orders at once and end on a partial chunk
        x, y = self.separable_set()
        cfg = TrainConfig(learning_rate=0.5, epochs=20, batch_size=16,
                          momentum=0.5, seed=3)
        ref, ref_history = mlp_train(x, y, [2, 4, 1], cfg, dropout_input=0.2)
        monkeypatch.setattr(fcdbn.deepnet, "_PERMUTATION_DRAWS", draws)
        model, history = mlp_train(x, y, [2, 4, 1], cfg, dropout_input=0.2)
        assert history == ref_history
        for got, want in zip(model.weights + model.biases,
                             ref.weights + ref.biases):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dropout", [(0.0, 0.0), (0.2, 0.5)])
    def test_in_place_momentum_step_trains_the_reference_model(
            self, monkeypatch, dropout):
        def reference_step(params, velocities, grads, momentum, rate):
            # the update with temporaries: v = momentum * v - lr * g; p += v
            learning_rate = -rate
            for i, (p, g) in enumerate(zip(params, grads)):
                velocities[i] = momentum * velocities[i] - learning_rate * g
                p += velocities[i]

        x, y = self.separable_set()
        cfg = TrainConfig(learning_rate=0.5, epochs=30, batch_size=16,
                          momentum=0.5, seed=3)
        model, history = mlp_train(x, y, [2, 4, 3, 1], cfg, *dropout)
        monkeypatch.setattr(fcdbn.deepnet, "momentum_step", reference_step)
        ref, ref_history = mlp_train(x, y, [2, 4, 3, 1], cfg, *dropout)
        assert history == ref_history
        for got, want in zip(model.weights + model.biases,
                             ref.weights + ref.biases):
            assert np.array_equal(got, want)

    def test_zero_epochs_gives_chance_loss(self):
        x, y = self.separable_set()
        cfg = TrainConfig(learning_rate=0.5, epochs=0, batch_size=60, seed=0)
        model, history = mlp_train(x, y, [2, 4, 1], cfg)
        assert history == []
        loss, _ = mlp_loss_grads(model, x, y)
        assert abs(loss - np.log(2.0)) < 0.1

    def test_backprop_matches_finite_differences(self):
        stream = RngStream(seed=15)
        x = stream.gaussian(6 * 4).reshape(6, 4)
        y = stream.bernoulli(6, 0.5)
        model = mlp_init([4, 3, 1], stream.child(0))
        loss, grads = mlp_loss_grads(model, x, y)
        eps = 1e-5
        worst = 0.0
        for l_idx, w in enumerate(model.weights):
            for idx in range(w.size):
                flat = w.ravel()
                orig = flat[idx]
                flat[idx] = orig + eps
                up, _ = mlp_loss_grads(model, x, y)
                flat[idx] = orig - eps
                down, _ = mlp_loss_grads(model, x, y)
                flat[idx] = orig
                fd = (up - down) / (2 * eps)
                analytic = grads["weights"][l_idx].ravel()[idx]
                denom = max(abs(fd), abs(analytic), 1e-6)
                worst = max(worst, abs(fd - analytic) / denom)
        for l_idx, b in enumerate(model.biases):
            for idx in range(b.size):
                orig = b[idx]
                b[idx] = orig + eps
                up, _ = mlp_loss_grads(model, x, y)
                b[idx] = orig - eps
                down, _ = mlp_loss_grads(model, x, y)
                b[idx] = orig
                fd = (up - down) / (2 * eps)
                analytic = grads["biases"][l_idx][idx]
                denom = max(abs(fd), abs(analytic), 1e-6)
                worst = max(worst, abs(fd - analytic) / denom)
        assert worst < 1e-4

    def test_masked_backprop_matches_finite_differences(self):
        # the dropout backprop mlp_train runs, with the masks held fixed
        stream = RngStream(seed=16)
        n = 6
        x = stream.gaussian(n * 4).reshape(n, 4)
        y = stream.bernoulli(n, 0.5).reshape(-1, 1)
        model = mlp_init([4, 5, 3, 1], stream.child(0),
                         dropout_input=0.2, dropout_hidden=0.5)
        masks = [stream.bernoulli(n * 4, 0.8).reshape(n, 4),
                 stream.bernoulli(n * 5, 0.5).reshape(n, 5),
                 stream.bernoulli(n * 3, 0.5).reshape(n, 3)]

        def loss():
            p, _ = _forward(model, x, masks=masks)
            return _bce(p[:, 0], y[:, 0])

        p, cache = _forward(model, x, masks=masks)
        gw, gb = _backward(model, cache, (p - y) / n)
        eps = 1e-5
        worst = 0.0
        for params, grads in ((model.weights, gw), (model.biases, gb)):
            for param, grad in zip(params, grads):
                flat = param.reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    up = loss()
                    flat[idx] = orig - eps
                    down = loss()
                    flat[idx] = orig
                    fd = (up - down) / (2 * eps)
                    analytic = grad.reshape(-1)[idx]
                    denom = max(abs(fd), abs(analytic), 1e-6)
                    worst = max(worst, abs(fd - analytic) / denom)
        assert worst < 1e-4

    def test_full_batch_epoch_is_one_gradient_step(self):
        # momentum 0, dropout 0, one batch of every row: w1 = w0 - lr * g,
        # with g the checked gradient on the rows in the epoch's order
        x, y = self.separable_set()
        seed, lr, arch = 5, 0.3, [2, 4, 3, 1]
        cfg = TrainConfig(learning_rate=lr, epochs=1, batch_size=len(y),
                          momentum=0.0, seed=seed)
        model, _ = mlp_train(x, y, arch, cfg)
        w0 = mlp_init(arch, RngStream(seed=seed).child(0))
        order = RngStream(seed=seed).child(1).permutation(len(y))
        _, g = mlp_loss_grads(w0, x[order], y[order])
        for got, start, step in zip(model.weights + model.biases,
                                    w0.weights + w0.biases,
                                    g["weights"] + g["biases"]):
            assert np.array_equal(got, start - lr * step)

    def test_non_finite_weights_raise_divergence(self):
        # the epoch's loss is taken before its last update, so it stays
        # finite here while that update sends the weights to Inf / NaN
        x = RngStream(seed=1).gaussian(200 * 6).reshape(200, 6)
        y = (x[:, 0] > 0).astype(float)
        cfg = TrainConfig(learning_rate=1e200, epochs=1, batch_size=256, seed=2)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as err:
                mlp_train(x * 1e200, y, [6, 4, 1], cfg)
        assert err.value.epoch == 1

    def test_single_class_labels_rejected(self):
        x = np.zeros((10, 3))
        with pytest.raises(ValueError):
            mlp_train(x, np.ones(10), [3, 2, 1],
                      TrainConfig(epochs=1, batch_size=5, seed=0))

    def test_non_binary_labels_rejected(self):
        x = np.zeros((4, 3))
        with pytest.raises(ValueError):
            mlp_train(x, np.array([0.0, 1.0, 0.5, 1.0]), [3, 2, 1],
                      TrainConfig(epochs=1, batch_size=4, seed=0))

    def test_training_is_deterministic(self):
        x, y = self.separable_set()
        cfg = TrainConfig(learning_rate=0.3, epochs=40, batch_size=20,
                          momentum=0.5, seed=3)
        m1, h1 = mlp_train(x, y, [2, 4, 1], cfg, dropout_hidden=0.3)
        m2, h2 = mlp_train(x, y, [2, 4, 1], cfg, dropout_hidden=0.3)
        assert h1 == h2
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)
