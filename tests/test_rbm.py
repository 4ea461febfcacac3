import itertools
import pickle

import numpy as np
import pytest
from scipy.integrate import simpson

import fcdbn.rbm as rbm_module
from fcdbn.core import RngStream, conv2d_same, conv2d_same_kernel_grad
from fcdbn.rbm import (
    BERNOULLI,
    FILTER_GRAD_CLIP,
    FILTER_RATE_DAMPING,
    GAUSSIAN,
    SIGMA_MIN,
    DivergenceError,
    RbmLayer,
    TrainConfig,
    apply_filters,
    cd_gradients,
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

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def energy_oracle(v, h, W, a, b):
    """Triple-loop bilinear energy, written without matrix ops."""
    acc = 0.0
    for i in range(len(v)):
        for j in range(len(h)):
            acc -= v[i] * W[i, j] * h[j]
    for i in range(len(v)):
        acc -= b[i] * v[i]
    for j in range(len(h)):
        acc -= a[j] * h[j]
    return acc


def all_configs(n):
    return [np.array(bits, dtype=float)
            for bits in itertools.product((0, 1), repeat=n)]


def enumerate_joint(layer):
    """Exact joint P(v, h) over all binary configurations."""
    vs = all_configs(layer.n_visible)
    hs = all_configs(layer.n_hidden)
    weights = np.array([[np.exp(-energy_bernoulli(v, h, layer)) for h in hs]
                        for v in vs])
    return vs, hs, weights / weights.sum()


def random_layer(stream, d, f, scale=0.5):
    return RbmLayer(
        W=stream.gaussian(d * f, sigma=scale).reshape(d, f),
        a=stream.gaussian(f, sigma=scale),
        b=stream.gaussian(d, sigma=scale),
    )


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8))


def fd_check(loss_fn, layer, grads, eps=1e-5, rtol=1e-4):
    """Central finite differences against every analytic gradient entry."""
    worst = 0.0

    def probe(get, set_, analytic):
        nonlocal worst
        base = get().copy()
        flat_analytic = np.asarray(analytic).ravel()
        fd = np.zeros_like(flat_analytic)
        for idx in range(base.size):
            pert = base.ravel().copy()
            pert[idx] += eps
            set_(pert.reshape(base.shape))
            up = loss_fn(layer)
            pert[idx] -= 2 * eps
            set_(pert.reshape(base.shape))
            down = loss_fn(layer)
            fd[idx] = (up - down) / (2 * eps)
            set_(base)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(flat_analytic)), 1e-6)
        worst = max(worst, float(np.max(np.abs(fd - flat_analytic) / denom)))

    probe(lambda: layer.W, lambda v: setattr(layer, "W", v), grads["W"])
    probe(lambda: layer.a, lambda v: setattr(layer, "a", v), grads["a"])
    if "b" in grads:
        probe(lambda: layer.b, lambda v: setattr(layer, "b", v), grads["b"])
    if "filters" in grads:
        for k in range(layer.n_filters):
            def setter(v, k=k):
                layer.filters[k] = v

            probe(lambda k=k: layer.filters[k], setter, grads["filters"][k])
    assert worst < rtol, f"worst relative gradient error {worst}"


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


class TestEnergyBernoulli:
    def test_zero_parameters_zero_energy(self):
        layer = RbmLayer(W=np.zeros((3, 2)), a=np.zeros(2), b=np.zeros(3))
        assert energy_bernoulli(np.ones(3), np.ones(2), layer) == 0.0

    def test_direct_substitution(self):
        layer = RbmLayer(W=np.array([[2.0]]), a=np.array([1.0]),
                         b=np.array([1.0]))
        assert energy_bernoulli(np.array([1.0]), np.array([1.0]), layer) == -4.0

    def test_matches_triple_loop_oracle(self):
        stream = RngStream(seed=10)
        layer = random_layer(stream, 4, 3)
        for _ in range(20):
            v = stream.bernoulli(4, 0.5)
            h = stream.bernoulli(3, 0.5)
            expected = energy_oracle(v, h, layer.W, layer.a, layer.b)
            assert abs(energy_bernoulli(v, h, layer) - expected) < 1e-12

    def test_partition_function_normalizes(self):
        layer = random_layer(RngStream(seed=11), 4, 3)
        _, _, joint = enumerate_joint(layer)
        assert abs(joint.sum() - 1.0) < 1e-9

    def test_partition_function_larger_layer(self):
        layer = random_layer(RngStream(seed=12), 6, 4)
        _, _, joint = enumerate_joint(layer)
        assert abs(joint.sum() - 1.0) < 1e-9

    def test_shape_mismatch_rejected(self):
        layer = random_layer(RngStream(seed=13), 4, 3)
        with pytest.raises(ValueError):
            energy_bernoulli(np.zeros(5), np.zeros(3), layer)


class TestEnergyGaussian:
    def gaussian_layer(self, seed=0, d=3, f=2):
        stream = RngStream(seed=seed)
        return RbmLayer(
            W=stream.gaussian(d * f, sigma=0.3).reshape(d, f),
            a=stream.gaussian(f, sigma=0.3),
            b=stream.gaussian(d, sigma=0.5),
            unit_kind=GAUSSIAN,
            sigma=0.6 + 0.8 * stream.uniform01(d),
        )

    def test_quadratic_term_only(self):
        d = 4
        layer = RbmLayer(W=np.zeros((d, 2)), a=np.zeros(2), b=np.zeros(d),
                         unit_kind=GAUSSIAN, sigma=np.ones(d))
        v = np.array([1.0, -2.0, 0.5, 3.0])
        assert abs(energy_gaussian(v, np.zeros(2), layer)
                   - np.sum(v ** 2) / 2.0) < 1e-12

    def test_energy_minimum_at_visible_bias(self):
        layer = self.gaussian_layer(seed=1)
        assert energy_gaussian(layer.b, np.zeros(2), layer) == 0.0

    def test_invalid_sigma_rejected(self):
        layer = self.gaussian_layer(seed=2)
        layer.sigma = np.array([1.0, -1.0, 1.0])
        with pytest.raises(ValueError):
            energy_gaussian(np.zeros(3), np.zeros(2), layer)

    def test_grid_quadrature_normalizes(self):
        # marginal of exp(-E) over a fine grid matches the closed-form
        # normalizer within 1e-3
        layer = self.gaussian_layer(seed=3)
        d, f = 3, 2

        # tie the test's separable formula to the implementation first
        stream = RngStream(seed=4)
        for _ in range(25):
            v = stream.gaussian(d, sigma=2.0)
            h = stream.bernoulli(f, 0.5)
            m = layer.W @ h
            expected = (-np.sum(v / layer.sigma * m)
                        + np.sum((v - layer.b) ** 2 / (2 * layer.sigma ** 2))
                        - layer.a @ h)
            assert abs(energy_gaussian(v, h, layer) - expected) < 1e-12

        grid = np.linspace(-8.0, 8.0, 161)
        z_grid = 0.0
        z_closed = 0.0
        for h in all_configs(f):
            m = layer.W @ h
            factors = []
            for i in range(d):
                g = np.exp(grid / layer.sigma[i] * m[i]
                           - (grid - layer.b[i]) ** 2 / (2 * layer.sigma[i] ** 2))
                factors.append(g)
            cube = (factors[0][:, None, None]
                    * factors[1][None, :, None]
                    * factors[2][None, None, :]) * np.exp(layer.a @ h)
            part = simpson(simpson(simpson(cube, x=grid), x=grid), x=grid)
            z_grid += part
            closed = np.exp(layer.a @ h)
            for i in range(d):
                closed *= np.sqrt(2 * np.pi * layer.sigma[i] ** 2) * np.exp(
                    layer.b[i] * m[i] / layer.sigma[i] + m[i] ** 2 / 2.0)
            z_closed += closed
        assert abs(z_grid / z_closed - 1.0) < 1e-3


# ---------------------------------------------------------------------------
# conditionals
# ---------------------------------------------------------------------------


class TestConditionals:
    def test_uninformative_layer_gives_half(self):
        layer = RbmLayer(W=np.zeros((4, 3)), a=np.zeros(3), b=np.zeros(4))
        p = hidden_given_visible(np.ones(4), layer)
        assert np.allclose(p, 0.5, atol=0)

    def test_saturating_bias(self):
        layer = RbmLayer(W=np.zeros((2, 2)), a=np.array([600.0, -600.0]),
                         b=np.zeros(2))
        p = hidden_given_visible(np.zeros(2), layer)
        assert p[0] > 1.0 - 1e-12
        assert p[1] < 1e-12
        assert 0.0 < p[1] and p[0] < 1.0

    def test_hidden_conditional_matches_enumeration(self):
        layer = random_layer(RngStream(seed=20), 4, 3)
        vs, hs, joint = enumerate_joint(layer)
        for vi, v in enumerate(vs):
            pv = joint[vi].sum()
            if pv == 0:
                continue
            for j in range(3):
                mask = np.array([h[j] == 1 for h in hs])
                expected = joint[vi][mask].sum() / pv
                got = hidden_given_visible(v, layer)[j]
                assert abs(got - expected) < 1e-10

    def test_visible_conditional_matches_enumeration(self):
        layer = random_layer(RngStream(seed=21), 4, 3)
        vs, hs, joint = enumerate_joint(layer)
        for hi, h in enumerate(hs):
            ph = joint[:, hi].sum()
            if ph == 0:
                continue
            for i in range(4):
                mask = np.array([v[i] == 1 for v in vs])
                expected = joint[mask, hi].sum() / ph
                got = visible_given_hidden(h, layer)[i]
                assert abs(got - expected) < 1e-10

    def test_bernoulli_visible_trivial(self):
        layer = RbmLayer(W=np.zeros((3, 2)), a=np.zeros(2),
                         b=np.array([0.3, -0.2, 1.0]))
        from fcdbn.core import sigmoid
        assert np.allclose(visible_given_hidden(np.zeros(2), layer),
                           sigmoid(layer.b), atol=0)

    def test_gaussian_visible_trivial(self):
        layer = RbmLayer(W=np.zeros((3, 2)), a=np.zeros(2),
                         b=np.array([0.3, -0.2, 1.0]), unit_kind=GAUSSIAN,
                         sigma=np.array([1.0, 2.0, 0.5]))
        mean = visible_given_hidden(np.zeros(2), layer)
        assert np.array_equal(mean, layer.b)

    def test_gaussian_sigma_below_floor_rejected(self):
        # the floor RbmLayer.validate and load_model apply: sigma >= SIGMA_MIN
        layer = RbmLayer(W=np.zeros((3, 2)), a=np.zeros(2), b=np.zeros(3),
                         unit_kind=GAUSSIAN, sigma=np.full(3, 0.99 * SIGMA_MIN))
        with pytest.raises(ValueError, match="sigma"):
            hidden_given_visible(np.zeros(3), layer)
        with pytest.raises(ValueError, match="sigma"):
            visible_given_hidden(np.zeros(2), layer)
        with pytest.raises(ValueError, match="sigma"):
            energy_gaussian(np.zeros(3), np.zeros(2), layer)
        with pytest.raises(ValueError, match="sigma"):
            layer.validate()
        layer.sigma[:] = SIGMA_MIN
        assert np.array_equal(hidden_given_visible(np.zeros(3), layer),
                              np.full(2, 0.5))

    def test_shape_error(self):
        layer = random_layer(RngStream(seed=22), 4, 3)
        with pytest.raises(ValueError):
            hidden_given_visible(np.zeros(5), layer)
        with pytest.raises(ValueError):
            visible_given_hidden(np.zeros(4), layer)


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------


def filtered_layer(stream, shape=(4, 4), f=3, k=2, alpha=0.0, beta=0.0,
                   unit_kind=BERNOULLI):
    d = shape[0] * shape[1]
    layer = RbmLayer(
        W=stream.gaussian(d * f, sigma=0.4).reshape(d, f),
        a=stream.gaussian(f, sigma=0.4),
        b=stream.gaussian(d, sigma=0.4),
        unit_kind=unit_kind,
        sigma=np.ones(d) if unit_kind == GAUSSIAN else None,
        filters=[stream.gaussian(9, sigma=0.5).reshape(3, 3) for _ in range(k)],
        alpha=alpha,
        beta=beta,
        image_shape=shape,
    )
    return layer


class TestApplyFilters:
    def test_identity_filter(self):
        stream = RngStream(seed=30)
        layer = filtered_layer(stream, shape=(4, 4), k=1)
        layer.filters = [np.array([[1.0]])]
        img = stream.gaussian(16).reshape(4, 4)
        assert np.array_equal(apply_filters(img, layer), img.ravel())

    def test_cancelling_filters(self):
        stream = RngStream(seed=31)
        layer = filtered_layer(stream, shape=(4, 4), k=2)
        layer.filters[1] = -layer.filters[0]
        img = stream.gaussian(16).reshape(4, 4)
        assert np.max(np.abs(apply_filters(img, layer))) < 1e-12

    def test_matches_per_filter_conv_sum(self):
        stream = RngStream(seed=32)
        layer = filtered_layer(stream, shape=(6, 6), k=3)
        img = stream.gaussian(36).reshape(6, 6)
        expected = sum(conv2d_same(img, f) for f in layer.filters).ravel()
        assert np.max(np.abs(apply_filters(img, layer) - expected)) < 1e-12

    def test_linear_in_input(self):
        stream = RngStream(seed=33)
        layer = filtered_layer(stream, shape=(5, 5), k=2)
        x = stream.gaussian(25).reshape(5, 5)
        y = stream.gaussian(25).reshape(5, 5)
        lhs = apply_filters(2.5 * x - 1.5 * y, layer)
        rhs = 2.5 * apply_filters(x, layer) - 1.5 * apply_filters(y, layer)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_unfiltered_layer_rejected(self):
        layer = random_layer(RngStream(seed=34), 16, 3)
        with pytest.raises(ValueError):
            apply_filters(np.zeros((4, 4)), layer)


# ---------------------------------------------------------------------------
# contractive penalty
# ---------------------------------------------------------------------------


class TestContractivePenalty:
    def test_linear_mode_reduces_to_weight_decay(self):
        stream = RngStream(seed=40)
        layer = random_layer(stream, 6, 4)
        batch = stream.gaussian(30).reshape(5, 6)
        value, _ = contractive_penalty(layer, batch, activation="linear")
        assert abs(value - np.sum(layer.W ** 2)) < 1e-12

    def test_zero_weights_zero_penalty(self):
        layer = RbmLayer(W=np.zeros((6, 4)), a=np.ones(4), b=np.zeros(6))
        batch = RngStream(seed=41).gaussian(30).reshape(5, 6)
        value, grads = contractive_penalty(layer, batch)
        assert value == 0.0
        assert np.array_equal(grads["a"], np.zeros(4))

    def test_empty_batch_rejected(self):
        layer = random_layer(RngStream(seed=42), 6, 4)
        with pytest.raises(ValueError):
            contractive_penalty(layer, np.zeros((0, 6)))

    def test_row_order_invariance(self):
        stream = RngStream(seed=43)
        layer = random_layer(stream, 6, 4)
        batch = stream.gaussian(30).reshape(5, 6)
        v1, _ = contractive_penalty(layer, batch)
        v2, _ = contractive_penalty(layer, batch[::-1])
        assert abs(v1 - v2) < 1e-12

    def test_gradients_match_finite_differences(self):
        stream = RngStream(seed=44)
        layer = random_layer(stream, 6, 4)
        batch = stream.gaussian(30).reshape(5, 6)
        _, grads = contractive_penalty(layer, batch)

        def loss(l):
            return contractive_penalty(l, batch)[0]

        fd_check(loss, layer, {"W": grads["W"], "a": grads["a"]})

    def test_value_formula_against_direct_sum(self):
        # mean over rows of sum_j (phi_j (1 - phi_j))^2 sum_i W_ij^2
        from fcdbn.core import sigmoid
        stream = RngStream(seed=45)
        layer = random_layer(stream, 5, 3)
        batch = stream.gaussian(20).reshape(4, 5)
        expected = 0.0
        for row in batch:
            phi = sigmoid(row @ layer.W + layer.a)
            for j in range(3):
                expected += (phi[j] * (1 - phi[j])) ** 2 * np.sum(layer.W[:, j] ** 2)
        expected /= batch.shape[0]
        value, _ = contractive_penalty(layer, batch)
        assert abs(value - expected) < 1e-12


# ---------------------------------------------------------------------------
# full objective
# ---------------------------------------------------------------------------


class TestFcLoss:
    def test_regularizers_off_leaves_reconstruction(self):
        stream = RngStream(seed=50)
        layer = filtered_layer(stream, shape=(4, 4), k=2, alpha=0.0, beta=0.0)
        batch = stream.gaussian(32).reshape(2, 16)
        value = fc_loss(layer, batch)
        assert value >= 0.0

    def test_zero_filters_zero_decay_term(self):
        stream = RngStream(seed=51)
        layer = filtered_layer(stream, shape=(4, 4), k=2, alpha=0.0, beta=1.0)
        for k in range(2):
            layer.filters[k] = np.zeros((3, 3))
        batch = stream.gaussian(32).reshape(2, 16)
        # with zero filters the aggregated visible is zero; the decay term
        # contributes nothing, so the loss equals the plain reconstruction
        layer_nodecay = layer.copy()
        layer_nodecay.beta = 0.0
        assert abs(fc_loss(layer, batch) - fc_loss(layer_nodecay, batch)) < 1e-12

    def test_componentwise_sum(self):
        stream = RngStream(seed=52)
        layer = filtered_layer(stream, shape=(4, 4), k=2, alpha=0.1, beta=0.01)
        batch = stream.gaussian(48).reshape(3, 16)
        total = fc_loss(layer, batch)

        from fcdbn.rbm import _aggregate_rows, _reconstruction_terms, _up_down
        V = _aggregate_rows(batch, layer)
        recon = _reconstruction_terms(layer, V, *_up_down(layer, V))[0]
        penalty, _ = contractive_penalty(layer, V)
        decay = sum(np.sum(f ** 2) for f in layer.filters)
        assert abs(total - (recon + 0.1 * penalty + 0.01 * decay)) < 1e-12

    def test_gradients_bernoulli_filtered(self):
        stream = RngStream(seed=53)
        layer = filtered_layer(stream, shape=(3, 4), f=4, k=2,
                               alpha=0.1, beta=0.01)
        batch = stream.bernoulli(3 * 12, 0.5).reshape(3, 12)
        _, grads = fc_loss_grads(layer, batch)
        fd_check(lambda l: fc_loss(l, batch), layer, grads)

    def test_gradients_gaussian_filtered(self):
        stream = RngStream(seed=54)
        layer = filtered_layer(stream, shape=(3, 4), f=4, k=2,
                               alpha=0.1, beta=0.01, unit_kind=GAUSSIAN)
        batch = stream.gaussian(3 * 12).reshape(3, 12)
        _, grads = fc_loss_grads(layer, batch)
        fd_check(lambda l: fc_loss(l, batch), layer, grads)

    def test_filter_grads_match_per_image_reference(self):
        # reference: per-image, per-filter loops with running totals
        stream = RngStream(seed=56)
        layer = filtered_layer(stream, shape=(6, 7), f=4, k=3,
                               alpha=0.1, beta=0.01)
        layer.filters = [stream.gaussian(25, sigma=0.3).reshape(5, 5)
                         for _ in range(3)]
        batch = stream.gaussian(12 * 42).reshape(12, 42)
        _, grads = fc_loss_grads(layer, batch)

        from fcdbn.rbm import (
            _contractive_terms,
            _reconstruction_terms,
            _to_visible,
            _up_down,
        )
        V = np.empty_like(batch)
        for n, row in enumerate(batch):
            img = row.reshape(6, 7)
            total = conv2d_same(img, layer.filters[0])
            for f in layer.filters[1:]:
                total = total + conv2d_same(img, f)
            V[n] = total.ravel()
        phi, vhat = _up_down(layer, V)
        dV = (_reconstruction_terms(layer, V, phi, vhat)[4]
              + 0.1 * _to_visible(layer, _contractive_terms(layer, V, phi)[3]))
        shared = np.zeros((5, 5))
        for x, g in zip(batch, dV):
            shared += conv2d_same_kernel_grad(x.reshape(6, 7), g.reshape(6, 7),
                                              (5, 5))
        assert len(grads["filters"]) == 3
        for f, got in zip(layer.filters, grads["filters"]):
            assert np.array_equal(got, shared + 2.0 * 0.01 * f)

        layer.beta = 0.0
        _, grads = fc_loss_grads(layer, batch)
        for got in grads["filters"]:
            assert np.array_equal(got, shared)
        grads["filters"][0][0, 0] += 1.0  # each filter owns its gradient
        assert np.array_equal(grads["filters"][1], shared)

    def test_gradients_plain_bernoulli(self):
        stream = RngStream(seed=55)
        layer = random_layer(stream, 5, 3)
        layer.alpha = 0.2
        batch = stream.bernoulli(4 * 5, 0.5).reshape(4, 5)
        _, grads = fc_loss_grads(layer, batch)
        fd_check(lambda l: fc_loss(l, batch), layer, grads)


# ---------------------------------------------------------------------------
# contrastive divergence training
# ---------------------------------------------------------------------------


def bars_and_stripes(size=8):
    """All horizontal-bar and vertical-stripe binary images."""
    patterns = set()
    for bits in itertools.product((0, 1), repeat=size):
        row = np.array(bits, dtype=float)
        patterns.add(tuple(np.repeat(row[None, :], size, axis=0).ravel()))
        patterns.add(tuple(np.repeat(row[:, None], size, axis=1).ravel()))
    return np.array(sorted(patterns))


class TestCdTrain:
    def test_zero_learning_rate_is_a_no_op(self):
        stream = RngStream(seed=60)
        layer = init_layer(8, 4, stream)
        data = stream.bernoulli(10 * 8, 0.4).reshape(10, 8)
        cfg = TrainConfig(learning_rate=0.0, epochs=4, batch_size=4, seed=1)
        trained, history = cd_train(layer, data, cfg)
        assert np.array_equal(trained.W, layer.W)
        assert np.array_equal(trained.a, layer.a)
        assert np.array_equal(trained.b, layer.b)
        assert all(h == history[0] for h in history)

    def test_seeded_training_is_bit_reproducible(self):
        stream = RngStream(seed=61)
        layer = init_layer(8, 4, stream)
        data = stream.bernoulli(20 * 8, 0.4).reshape(20, 8)
        cfg = TrainConfig(learning_rate=0.05, epochs=5, batch_size=8, seed=7)
        t1, h1 = cd_train(layer, data, cfg)
        t2, h2 = cd_train(layer, data, cfg)
        assert np.array_equal(t1.W, t2.W)
        assert h1 == h2

    def test_bars_and_stripes_reconstruction_improves(self):
        data = bars_and_stripes(8)
        layer = init_layer(64, 32, RngStream(seed=62))
        cfg = TrainConfig(learning_rate=0.05, epochs=200, batch_size=64,
                          cd_steps=1, momentum=0.5, seed=5)
        _, history = cd_train(layer, data, cfg)
        assert history[-1] <= 0.5 * history[0]

    def test_cd1_gradient_points_uphill(self):
        # CD-1 direction on W vs the exact enumeration log-likelihood
        # gradient: positive alignment in >= 90% of 50 random trials
        hits = 0
        trials = 50
        for trial in range(trials):
            stream = RngStream(seed=700 + trial)
            layer = random_layer(stream, 4, 3, scale=0.7)
            data = stream.bernoulli(12 * 4, 0.5).reshape(12, 4)

            vs, hs, joint = enumerate_joint(layer)
            model_vh = np.zeros((4, 3))
            for vi, v in enumerate(vs):
                for hi, h in enumerate(hs):
                    model_vh += joint[vi, hi] * np.outer(v, h)
            data_vh = np.zeros((4, 3))
            for row in data:
                data_vh += np.outer(row, hidden_given_visible(row, layer))
            exact = data_vh / len(data) - model_vh

            grads, _ = cd_gradients(layer, data, stream.child(1), cd_steps=1)
            if np.sum(grads["W"] * exact) > 0:
                hits += 1
        assert hits >= int(0.9 * trials)

    @pytest.mark.parametrize("cd_steps", [0, -1])
    def test_cd_gradients_rejects_non_positive_steps(self, cd_steps):
        layer = init_layer(4, 3, RngStream(seed=1))
        with pytest.raises(ValueError, match="cd_steps"):
            cd_gradients(layer, np.ones((2, 4)), RngStream(seed=2),
                         cd_steps=cd_steps)

    def test_divergence_raises_with_epoch(self):
        stream = RngStream(seed=63)
        layer = init_layer(6, 3, stream, unit_kind=GAUSSIAN)
        data = stream.gaussian(12 * 6).reshape(12, 6)
        cfg = TrainConfig(learning_rate=1e12, epochs=15, batch_size=4, seed=2)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as err:
                cd_train(layer, data, cfg)
        assert 1 <= err.value.epoch <= 15

    @pytest.mark.parametrize("err", [DivergenceError(4),
                                     DivergenceError(2, "layer 1: diverged")])
    def test_divergence_error_survives_pickle(self, err):
        # a fold worker's error reaches eval-kin's process by pickle
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is DivergenceError
        assert (str(back), back.epoch) == (str(err), err.epoch)

    @pytest.mark.parametrize("unit_kind", [GAUSSIAN, BERNOULLI])
    def test_one_epoch_descends_the_shared_objective(self, unit_kind):
        # one full batch, momentum 0: each filter takes the clipped, damped
        # step along -fc_loss_grads, and W and a take the CD step less the
        # contractive gradients, bit for bit
        stream = RngStream(seed=65)
        layer = filtered_layer(stream, shape=(5, 5), f=4, k=3, alpha=0.3,
                               beta=0.01, unit_kind=unit_kind)
        data = stream.bernoulli(12 * 25, 0.5).reshape(12, 25)
        cfg = TrainConfig(learning_rate=0.2, epochs=1, batch_size=12,
                          momentum=0.0, seed=4)
        trained, _ = cd_train(layer, data, cfg)

        run = RngStream(seed=cfg.seed)
        batch = data[run.permutation(len(data))]
        _, grads = fc_loss_grads(layer, batch)
        filter_lr = cfg.learning_rate / FILTER_RATE_DAMPING
        for f, g, got in zip(layer.filters, grads["filters"], trained.filters):
            g = -g
            norm = np.linalg.norm(g)
            if norm > FILTER_GRAD_CLIP:
                g = g * (FILTER_GRAD_CLIP / norm)
            assert np.array_equal(got, f + filter_lr * g)

        cd, _ = cd_gradients(layer, batch, run)
        V = np.stack([apply_filters(x.reshape(5, 5), layer) for x in batch])
        _, reg = contractive_penalty(layer, V)
        for name in ("W", "a"):
            want = getattr(layer, name) + cfg.learning_rate * (
                cd[name] - layer.alpha * reg[name])
            assert np.array_equal(getattr(trained, name), want), name

    @pytest.mark.parametrize("unit_kind, n_filters, alpha, calls", [
        (BERNOULLI, 2, 0.1, 4),
        (GAUSSIAN, 2, 0.1, 2),
        (BERNOULLI, 0, 0.1, 4),
        (GAUSSIAN, 0, 0.0, 2),
    ])
    def test_one_up_down_pass_per_batch(self, monkeypatch, unit_kind,
                                        n_filters, alpha, calls):
        # CD, the contractive penalty and the reconstruction share one
        # up-down pass, so sigmoid runs only there and along the CD-1 chain
        import fcdbn.rbm as rbm_module

        seen = []
        real = rbm_module.sigmoid
        monkeypatch.setattr(rbm_module, "sigmoid",
                            lambda x: seen.append(x.shape) or real(x))
        stream = RngStream(seed=66)
        layer = init_layer(16, 4, stream, unit_kind=unit_kind,
                           n_filters=n_filters, alpha=alpha, beta=0.01,
                           image_shape=(4, 4))
        data = stream.bernoulli(6 * 16, 0.5).reshape(6, 16)
        cd_train(layer, data, TrainConfig(epochs=1, batch_size=8, seed=1))
        assert len(seen) == calls

    def test_filtered_training_runs_and_improves(self):
        # aggregated visibles are real-valued, so filtered layers pair with
        # gaussian units; the quadratic term anchors the filter scale
        stream = RngStream(seed=64)
        data = bars_and_stripes(4)
        layer = init_layer(16, 8, stream, unit_kind=GAUSSIAN, n_filters=2,
                           filter_size=3, alpha=0.01, beta=1e-4,
                           image_shape=(4, 4))
        cfg = TrainConfig(learning_rate=0.05, epochs=60, batch_size=16, seed=3)
        trained, history = cd_train(layer, data, cfg)
        assert history[-1] < history[0]
        assert trained.n_filters == 2
        assert not np.array_equal(trained.filters[0], layer.filters[0])

    @pytest.mark.parametrize("unit_kind, n_filters, alpha", [
        (BERNOULLI, 0, 0.0), (BERNOULLI, 0, 2.0), (GAUSSIAN, 0, 0.0),
        (GAUSSIAN, 0, 2.0), (GAUSSIAN, 2, 0.0), (GAUSSIAN, 2, 2.0),
        (BERNOULLI, 2, 2.0),
    ])
    def test_in_place_steps_train_the_reference_model(
            self, monkeypatch, unit_kind, n_filters, alpha):
        # the gradient and momentum lines with temporaries, and W-sized
        # zero regularizer gradients when alpha is 0
        def reference_cd_terms(layer, V, phi, vhat, stream, cd_steps):
            n = V.shape[0]
            scale = layer.sigma if layer.unit_kind == GAUSSIAN else None
            Vs = V / scale if scale is not None else V
            hs = (stream.uniform01(phi.size).reshape(phi.shape)
                  < phi).astype(np.float64)
            for _ in range(cd_steps):
                vk = visible_given_hidden(hs, layer)
                hk = hidden_given_visible(vk, layer)
                hs = (stream.uniform01(hk.size).reshape(hk.shape)
                      < hk).astype(np.float64)
            vks = vk / scale if scale is not None else vk
            gW = (Vs.T @ phi - vks.T @ hk) / n
            ga = (phi - hk).mean(axis=0)
            if layer.unit_kind == GAUSSIAN:
                gb = ((V - vk) / layer.sigma ** 2).mean(axis=0)
            else:
                gb = (V - vk).mean(axis=0)
            return {"W": gW, "a": ga, "b": gb}, float(np.mean((vhat - V) ** 2))

        def reference_contractive_terms(layer, V, phi):
            n = V.shape[0]
            w2 = np.sum(layer.W ** 2, axis=0)
            Vs = V / layer.sigma if layer.unit_kind == GAUSSIAN else V
            s2 = (phi * (1.0 - phi)) ** 2
            value = float(np.mean(s2 @ w2))
            dz = 2.0 * s2 * (1.0 - 2.0 * phi) * w2 / n
            dW = Vs.T @ dz + 2.0 * layer.W * s2.sum(axis=0) / n
            return value, dW, dz.sum(axis=0), dz

        def reference_regularized_terms(layer, X, V, phi, recon_dV):
            value, dW, da = 0.0, np.zeros_like(layer.W), np.zeros_like(layer.a)
            if layer.alpha != 0.0:
                pval, pW, pa, pz = rbm_module._contractive_terms(layer, V, phi)
                value, dW, da = (layer.alpha * pval, layer.alpha * pW,
                                 layer.alpha * pa)
            if layer.n_filters == 0:
                return value, dW, da, []
            dV = recon_dV
            if layer.alpha != 0.0:
                dV = dV + layer.alpha * rbm_module._to_visible(layer, pz)
            fgrads = rbm_module._filter_grads_from_dv(X, dV, layer)
            if layer.beta != 0.0:
                value += layer.beta * sum(float(np.sum(f ** 2))
                                          for f in layer.filters)
                fgrads = [g + 2.0 * layer.beta * f
                          for g, f in zip(fgrads, layer.filters)]
            return value, dW, da, fgrads

        def reference_step(param, vel, grad, momentum, rate):
            vel[...] = momentum * vel + rate * grad
            param += vel

        stream = RngStream(seed=67)
        layer = init_layer(16, 5, stream, unit_kind=unit_kind,
                           n_filters=n_filters, alpha=alpha, beta=0.01,
                           image_shape=(4, 4))
        layer.W *= 40.0  # weights of 0.4: the contractive terms' last bits show
        data = stream.bernoulli(20 * 16, 0.5).reshape(20, 16)
        # batches of 6 and 2 rows: dividing by 6 rounds, so the order of
        # the batch-mean steps shows
        cfg = TrainConfig(learning_rate=0.1, epochs=4, batch_size=6,
                          cd_steps=2, momentum=0.5, seed=5)
        trained, history = cd_train(layer, data, cfg)
        for name, reference in (("_cd_terms", reference_cd_terms),
                                ("_contractive_terms", reference_contractive_terms),
                                ("_regularized_terms", reference_regularized_terms),
                                ("_momentum_step", reference_step)):
            monkeypatch.setattr(rbm_module, name, reference)
        want, want_history = cd_train(layer, data, cfg)
        assert history == want_history
        for got, ref in zip([trained.W, trained.a, trained.b] + trained.filters,
                            [want.W, want.a, want.b] + want.filters):
            assert np.array_equal(got, ref)
