import numpy as np
import pytest

from fcdbn.core import (
    RngStream,
    conv2d_same,
    conv2d_same_kernel_grad,
    sigmoid,
)


def conv_oracle(image, kernel):
    """Direct quadruple-loop true convolution with zero padding."""
    h, w = image.shape
    kr, kc = kernel.shape
    cp, cq = kr // 2, kc // 2
    out = np.zeros((h, w))
    for r in range(h):
        for c in range(w):
            acc = 0.0
            for p in range(kr):
                for q in range(kc):
                    rr = r - p + cp
                    cc = c - q + cq
                    if 0 <= rr < h and 0 <= cc < w:
                        acc += kernel[p, q] * image[rr, cc]
            out[r, c] = acc
    return out


class TestConv2dSame:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(5, 7))
        out = conv2d_same(img, np.array([[1.0]]))
        assert np.array_equal(out, img)

    def test_averaging_constant_interior(self):
        img = np.full((6, 6), 3.25)
        out = conv2d_same(img, np.full((3, 3), 1.0 / 9.0))
        assert np.allclose(out[1:-1, 1:-1], 3.25, atol=1e-12)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(42)
        img = rng.normal(size=(4, 4))
        ker = rng.normal(size=(3, 3))
        assert np.max(np.abs(conv2d_same(img, ker) - conv_oracle(img, ker))) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            a = rng.normal(size=(6, 5))
            b = rng.normal(size=(6, 5))
            k = rng.normal(size=(3, 3))
            alpha, beta = rng.normal(size=2)
            lhs = conv2d_same(alpha * a + beta * b, k)
            rhs = alpha * conv2d_same(a, k) + beta * conv2d_same(b, k)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            conv2d_same(np.zeros((4, 4)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            conv2d_same(np.zeros((4, 4)), np.zeros((3, 2)))

    def test_kernel_larger_than_image_rejected(self):
        with pytest.raises(ValueError):
            conv2d_same(np.zeros((3, 3)), np.zeros((5, 5)))

    def test_kernel_grad_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        img = rng.normal(size=(5, 5))
        ker = rng.normal(size=(3, 3))
        upstream = rng.normal(size=(5, 5))
        grad = conv2d_same_kernel_grad(img, upstream, ker.shape)
        eps = 1e-6
        for p in range(3):
            for q in range(3):
                k1, k2 = ker.copy(), ker.copy()
                k1[p, q] += eps
                k2[p, q] -= eps
                fd = (np.sum(upstream * conv2d_same(img, k1))
                      - np.sum(upstream * conv2d_same(img, k2))) / (2 * eps)
                assert abs(grad[p, q] - fd) < 1e-6


class TestConv2dStacks:
    """(N, h, w) stacks must give exactly what a per-image loop gives."""

    @pytest.mark.parametrize("shape,kernel", [((7, 11), (5, 5)),
                                              ((9, 6), (3, 3)),
                                              ((6, 8), (3, 5))])
    def test_stack_conv_equals_per_image_loop(self, shape, kernel):
        rng = np.random.default_rng(11)
        stack = rng.normal(size=(5,) + shape)
        ker = rng.normal(size=kernel)
        out = conv2d_same(stack, ker)
        assert out.shape == stack.shape
        for img, got in zip(stack, out):
            assert np.array_equal(got, conv2d_same(img, ker))

    @pytest.mark.parametrize("shape,kernel", [((7, 11), (5, 5)),
                                              ((9, 6), (3, 3)),
                                              ((32, 32), (3, 3))])
    def test_stack_kernel_grad_equals_running_total(self, shape, kernel):
        rng = np.random.default_rng(12)
        # more than 8 images, so a pairwise reduction would round differently
        stack = rng.normal(size=(20,) + shape)
        upstream = rng.normal(size=(20,) + shape)
        total = np.zeros(kernel)
        for img, up in zip(stack, upstream):
            total += conv2d_same_kernel_grad(img, up, kernel)
        got = conv2d_same_kernel_grad(stack, upstream, kernel)
        assert got.shape == kernel
        assert np.array_equal(got, total)

    def test_one_image_stack_matches_plain_image(self):
        rng = np.random.default_rng(13)
        img = rng.normal(size=(5, 8))
        up = rng.normal(size=(5, 8))
        ker = rng.normal(size=(3, 3))
        assert np.array_equal(conv2d_same(img[None], ker)[0],
                              conv2d_same(img, ker))
        assert np.array_equal(conv2d_same_kernel_grad(img[None], up[None], (3, 3)),
                              conv2d_same_kernel_grad(img, up, (3, 3)))

    @pytest.mark.parametrize("image", [np.zeros(16), np.zeros((2, 2, 4, 4))])
    def test_1d_and_4d_images_rejected(self, image):
        with pytest.raises(ValueError):
            conv2d_same(image, np.ones((3, 3)))
        with pytest.raises(ValueError):
            conv2d_same_kernel_grad(image, image, (3, 3))


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_symmetry_sums_to_one(self):
        x = np.linspace(-30, 30, 101)
        total = sigmoid(x) + sigmoid(-x)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_derivative_matches_finite_difference(self):
        eps = 1e-5
        for x in (-2.0, 0.0, 3.0):
            fd = (sigmoid(np.array([x + eps]))[0]
                  - sigmoid(np.array([x - eps]))[0]) / (2 * eps)
            s = sigmoid(np.array([x]))[0]
            assert abs(s * (1 - s) - fd) < 1e-8

    def test_strictly_inside_unit_interval(self):
        x = np.array([-1e9, -500.0, -50.0, 0.0, 50.0, 500.0, 1e9])
        out = sigmoid(x)
        assert np.all(out > 0.0)
        assert np.all(out < 1.0)

    def test_monotone(self):
        x = np.linspace(-10, 10, 201)
        out = sigmoid(x)
        assert np.all(np.diff(out) > 0)


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(seed=123).uniform01(10)
        b = RngStream(seed=123).uniform01(10)
        assert np.array_equal(a, b)

    def test_golden_values_pin_the_stream(self):
        # freezes the counter-based definition; computed once from the
        # splitmix64 recurrence and asserted bit-exactly ever after
        got = RngStream(seed=0).uniform01(3)
        expected = np.array([0.8833108082136426,
                             0.43152799704850997,
                             0.026433771592597743])
        assert np.array_equal(got, expected)

    def test_bernoulli_degenerate(self):
        s = RngStream(seed=5)
        assert np.all(s.bernoulli(100, 0.0) == 0.0)
        assert np.all(s.bernoulli(100, 1.0) == 1.0)

    def test_bernoulli_rejects_bad_p(self):
        with pytest.raises(ValueError):
            RngStream(seed=1).bernoulli(5, 1.5)
        with pytest.raises(ValueError):
            RngStream(seed=1).bernoulli(5, -0.1)

    def test_uniform_mean_law_of_large_numbers(self):
        draws = RngStream(seed=99).uniform01(100_000)
        assert abs(draws.mean() - 0.5) < 0.01

    def test_counter_advances_documented_amounts(self):
        s = RngStream(seed=8)
        s.uniform01(10)
        assert s.counter == 10
        s.bernoulli(5, 0.3)
        assert s.counter == 15
        s.gaussian(4)
        assert s.counter == 23

    def test_counter_offset_reproduces_tail(self):
        s = RngStream(seed=77)
        full = s.uniform01(20)
        tail = RngStream(seed=77, counter=12).uniform01(8)
        assert np.array_equal(full[12:], tail)

    def test_gaussian_moments(self):
        draws = RngStream(seed=3).gaussian(100_000, mu=2.0, sigma=3.0)
        assert abs(draws.mean() - 2.0) < 0.05
        assert abs(draws.std() - 3.0) < 0.05

    def test_gaussian_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            RngStream(seed=1).gaussian(3, sigma=-1.0)

    def test_children_are_independent_streams(self):
        s = RngStream(seed=11)
        c0 = s.child(0).uniform01(5)
        c1 = s.child(1).uniform01(5)
        assert not np.array_equal(c0, c1)
        assert np.array_equal(c0, RngStream(seed=11).child(0).uniform01(5))

    def test_permutation_is_a_permutation(self):
        perm = RngStream(seed=21).permutation(50)
        assert sorted(perm.tolist()) == list(range(50))
