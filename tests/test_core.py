import tracemalloc

import numpy as np
import pytest

import fcdbn.core as core
from fcdbn.core import (
    RngStream,
    conv2d_same,
    conv2d_same_kernel_grad,
    momentum_step,
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


def conv_per_tap_reference(image, kernel):
    """conv2d_same as a zero-padded copy plus one shifted product per tap,
    each added to a zero-started total in tap order."""
    image = np.asarray(image, dtype=np.float64)
    stack = image.reshape(-1, *image.shape[-2:])
    n, h, w = stack.shape
    kr, kc = kernel.shape
    cp, cq = kr // 2, kc // 2
    padded = np.zeros((n, h + 2 * cp, w + 2 * cq))
    padded[:, cp:cp + h, cq:cq + w] = stack
    out = np.zeros((n, h, w))
    for p in range(kr):
        for q in range(kc):
            out += kernel[p, q] * padded[:, 2 * cp - p:2 * cp - p + h,
                                         2 * cq - q:2 * cq - q + w]
    return out.reshape(image.shape)


def kernel_grad_slice_reference(image, upstream, kernel_shape):
    """conv2d_same_kernel_grad as one 3-D zero-padded copy sliced per tap:
    each image's products summed as a row, rows totalled in image order."""
    image = np.asarray(image, dtype=np.float64)
    stack = image.reshape(-1, *image.shape[-2:])
    upstream = np.asarray(upstream, dtype=np.float64).reshape(stack.shape)
    n, h, w = stack.shape
    kr, kc = kernel_shape
    cp, cq = kr // 2, kc // 2
    padded = np.zeros((n, h + 2 * cp, w + 2 * cq))
    padded[:, cp:cp + h, cq:cq + w] = stack
    sums = np.empty((kr, kc, n))
    for p in range(kr):
        for q in range(kc):
            prod = upstream * padded[:, 2 * cp - p:2 * cp - p + h,
                                     2 * cq - q:2 * cq - q + w]
            sums[p, q] = prod.reshape(n, h * w).sum(axis=1)
    if image.ndim == 2:
        return sums[:, :, 0]
    return np.cumsum(sums, axis=2)[:, :, -1] + 0.0


class TestConv2dReference:
    """Contiguous tap passes give the per-tap sum's bits, and the kernel
    gradient the padded-slice sum's, specials included."""

    @staticmethod
    def hostile_stack(n, seed):
        """Every third image has +-inf, NaN, -0.0 and subnormal pixels at a
        corner, an edge and inside; image 1 is all -0.0, so its sums are
        signed zeros."""
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(n, 7, 9))
        specials = {(0, 0): np.inf, (6, 8): -np.inf, (3, 4): np.nan,
                    (0, 5): -0.0, (6, 0): -0.0, (2, 2): 5e-324,
                    (4, 7): -3e-310, (5, 1): 1e-320}
        for img in range(0, n, 3):
            for (r, c), value in specials.items():
                stack[img, r, c] = value
        if n > 1:
            stack[1] = -0.0
        return stack

    @pytest.mark.parametrize("kernel_shape",
                             [(1, 1), (3, 3), (5, 5), (3, 5), (1, 5)])
    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_stack_equals_the_per_tap_sum(self, kernel_shape, n):
        stack = self.hostile_stack(n, seed=n)
        kernel = np.random.default_rng(7).normal(size=kernel_shape)
        kernel[0, 0] = -0.0
        with np.errstate(invalid="ignore"):
            got = conv2d_same(stack, kernel)
            want = conv_per_tap_reference(stack, kernel)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kernel_shape",
                             [(1, 1), (3, 3), (5, 5), (3, 5), (1, 5)])
    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_stack_kernel_grad_equals_the_slice_sum(self, kernel_shape, n):
        stack = self.hostile_stack(n, seed=n)
        upstream = self.hostile_stack(n, seed=n + 40)[::-1]
        # one NaN makes every total NaN, so the finite pixels (signed zeros
        # and subnormals kept) are checked on their own as well
        finite = [np.where(np.isfinite(a), a, 0.0) for a in (stack, upstream)]
        for image, up in ((stack, upstream), finite):
            with np.errstate(invalid="ignore"):
                got = conv2d_same_kernel_grad(image, up, kernel_shape)
                want = kernel_grad_slice_reference(image, up, kernel_shape)
            assert got.shape == kernel_shape
            assert got.tobytes() == want.tobytes()

    def test_2d_image_equals_the_per_tap_sum(self):
        image = self.hostile_stack(4, seed=5).reshape(28, 9)
        upstream = self.hostile_stack(4, seed=6)[::-1].reshape(28, 9)
        kernel = np.random.default_rng(8).normal(size=(3, 5))
        finite = [np.where(np.isfinite(a), a, 0.0) for a in (image, upstream)]
        with np.errstate(invalid="ignore"):
            got = conv2d_same(image, kernel)
            want = conv_per_tap_reference(image, kernel)
            grads = [(conv2d_same_kernel_grad(img, up, shape),
                      kernel_grad_slice_reference(img, up, shape))
                     for img, up in ((image, upstream), finite)
                     for shape in ((1, 1), (3, 3), (5, 5), (1, 5))]
        assert got.shape == (28, 9)
        assert got.tobytes() == want.tobytes()
        for got, want in grads:
            assert got.tobytes() == want.tobytes()


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


def sigmoid_reference(x):
    x = np.asarray(x, dtype=np.float64)
    out = 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))
    return np.minimum(out, 1.0 - 2.0 ** -53)


class TestSigmoidInPlace:
    def test_matches_the_formula_and_leaves_its_input(self):
        x = np.array([[np.nan, 0.0, -0.0, 1e9, -1e9, 3.0],
                      [500.0, -500.0, 600.0, -36.5, 1e-300, 37.0]])
        before = x.copy()
        got = sigmoid(x)
        assert got.tobytes() == sigmoid_reference(x).tobytes()
        assert x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("x", [0.0, 3, -2.5, np.float64(7.0), np.array(1.5)])
    def test_scalars_keep_their_type_and_value(self, x):
        got, want = sigmoid(x), sigmoid_reference(x)
        assert type(got) is type(want) is np.float64
        assert got == want


# --- the whole-array RNG formula, kept as the reference --------------------

_MASK = (1 << 64) - 1


class TestMomentumStep:
    # signed zeros, subnormals, a value whose rate product rounds to zero and
    # one whose product overflows: the in-place step must not touch a bit
    EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                      -1e-310, 1.0, -3.5, 1e-300, 1.7e308])

    def arrays(self, seed):
        stream = RngStream(seed=seed)
        edges = self.EDGES
        grid = np.array(np.meshgrid(edges, edges)).reshape(2, -1)
        extra = stream.gaussian(2 * 64).reshape(2, 64)
        v, g = np.concatenate([grid, extra], axis=1)
        return v, g, stream.gaussian(v.size)

    @pytest.mark.parametrize("lr", [0.0, 0.05, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("momentum", [0.0, 0.5, 0.9])
    def test_descent_equals_the_expression_bit_for_bit(self, lr, momentum):
        v, g, p = self.arrays(seed=71)
        with np.errstate(over="ignore", invalid="ignore"):
            want_v = momentum * v - lr * g
            want_p = p + want_v
            vel, params = v.copy(), p.copy()
            momentum_step([params], [vel], [g.copy()], momentum, -lr)
        assert vel.tobytes() == want_v.tobytes()
        assert params.tobytes() == want_p.tobytes()

    @pytest.mark.parametrize("rate", [0.0, -0.0, 0.1, -0.1])
    def test_ascent_equals_the_expression_bit_for_bit(self, rate):
        v, g, p = self.arrays(seed=72)
        with np.errstate(over="ignore", invalid="ignore"):
            want_v = 0.5 * v + rate * g
            want_p = p + want_v
            vel, params, grad = v.copy(), p.copy(), g.copy()
            momentum_step([params], [vel], [grad], 0.5, rate)
        assert vel.tobytes() == want_v.tobytes()
        assert params.tobytes() == want_p.tobytes()
        assert grad.tobytes() == (rate * g).tobytes()  # overwritten


def reference_splitmix(z):
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def reference_words(seed, counter, n):
    idx = np.arange(counter + 1, counter + n + 1, dtype=np.uint64)
    state = np.uint64(seed & _MASK) + idx * np.uint64(0x9E3779B97F4A7C15)
    return reference_splitmix(state)


def reference_uniform01(seed, counter, n):
    words = reference_words(seed, counter, n)
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def reference_gaussian(seed, counter, n, mu=0.0, sigma=1.0):
    words = reference_words(seed, counter, 2 * n)
    u1 = ((words[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = (words[1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return mu + sigma * z


def reference_child_seed(seed, index):
    state = ((seed & _MASK) * 0xBF58476D1CE4E5B9
             + (index + 1) * 0x9E3779B97F4A7C15) & _MASK
    return int(reference_splitmix(np.array([state], dtype=np.uint64))[0])


# name: (words per value, stream draw, reference draw)
DRAWS = {
    "uniform01": (1, lambda s, n: s.uniform01(n), reference_uniform01),
    "gaussian": (2, lambda s, n: s.gaussian(n), reference_gaussian),
    "gaussian(mu, sigma)": (
        2, lambda s, n: s.gaussian(n, mu=-1.5, sigma=0.25),
        lambda seed, c, n: reference_gaussian(seed, c, n, mu=-1.5, sigma=0.25)),
    "bernoulli": (
        1, lambda s, n: s.bernoulli(n, 0.3),
        lambda seed, c, n: (reference_uniform01(seed, c, n) < 0.3).astype(np.float64)),
    "permutation": (
        1, lambda s, n: s.permutation(n),
        lambda seed, c, n: np.argsort(reference_uniform01(seed, c, n), kind="stable")),
}


class TestRngStreamReference:
    """Blocked, in-place draws give the whole-array formula's bytes."""

    @pytest.mark.parametrize("name", sorted(DRAWS))
    @pytest.mark.parametrize("seed", [0, 3, 2 ** 64 - 5])
    @pytest.mark.parametrize("counter", [0, 17, 2 ** 40])
    def test_draws_equal_the_whole_array_formula(self, name, seed, counter):
        words, draw, reference = DRAWS[name]
        block = core._BLOCK_WORDS // words  # values a block
        for n in (0, 1, block - 1, block, block + 1, 3 * block + 5, 1_000_003):
            stream = RngStream(seed=seed, counter=counter)
            got = draw(stream, n)
            want = reference(seed, counter, n)
            assert got.dtype == want.dtype and got.shape == (n,)
            assert got.tobytes() == want.tobytes(), n
            assert stream.counter == counter + words * n

    @pytest.mark.parametrize("seed", [0, 3, 2 ** 64 - 5])
    def test_child_seeds_equal_the_formula(self, seed):
        for index in (0, 1, 17, 2 ** 40):
            child = RngStream(seed=seed, counter=17).child(index)
            assert (child.seed, child.counter) == (reference_child_seed(seed, index), 0)

    def test_golden_gaussians_pin_box_muller(self):
        # exact bytes of log and cos are not portable across numpy builds
        got = RngStream(seed=0).gaussian(3)
        expected = [-0.452757740217458, 2.650605812079669, -0.9886041246243269]
        assert np.allclose(got, expected, rtol=1e-15, atol=0.0)

    def test_gaussian_peak_memory_is_about_its_output(self):
        # 8 MiB of output plus two small block buffers; the whole-array
        # formula peaked at about 64 MiB
        tracemalloc.start()
        try:
            RngStream(seed=1).gaussian(2 ** 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20


class TestRngStreamArguments:
    """Bad arguments raise ValueError and leave the counter where it was."""

    @staticmethod
    def assert_rejected(draw, counter=5):
        stream = RngStream(seed=1, counter=counter)
        with pytest.raises(ValueError):
            draw(stream)
        assert stream.counter == counter

    @pytest.mark.parametrize("name", ["uniform01", "gaussian", "permutation"])
    def test_negative_count_rejected(self, name):
        self.assert_rejected(lambda s: getattr(s, name)(-3))
        self.assert_rejected(lambda s: s.bernoulli(-1, 0.5))

    @pytest.mark.parametrize("name", ["uniform01", "gaussian", "permutation"])
    def test_fractional_count_rejected(self, name):
        self.assert_rejected(lambda s: getattr(s, name)(2.5))
        self.assert_rejected(lambda s: s.bernoulli(np.float64(3.0), 0.5))

    @pytest.mark.parametrize("mu, sigma", [(0.0, np.nan), (np.inf, 1.0),
                                           (np.nan, 1.0), (0.0, np.inf),
                                           (0.0, -1.0)])
    def test_non_finite_mu_or_sigma_rejected(self, mu, sigma):
        self.assert_rejected(lambda s: s.gaussian(3, mu=mu, sigma=sigma))

    def test_draw_past_the_last_counter_rejected(self):
        last = 2 ** 64 - 1
        self.assert_rejected(lambda s: s.uniform01(4), counter=last - 3)
        self.assert_rejected(lambda s: s.gaussian(2), counter=last - 3)
        self.assert_rejected(lambda s: s.uniform01(0), counter=last + 1)
        self.assert_rejected(lambda s: s.uniform01(0), counter=-1)
        stream = RngStream(seed=1, counter=last - 3)
        assert stream.uniform01(3).shape == (3,)
        assert stream.counter == last
        assert stream.uniform01(0).shape == (0,)
        with pytest.raises(ValueError):
            stream.uniform01(1)
        assert stream.counter == last

    def test_numpy_integer_counts_are_accepted(self):
        stream = RngStream(seed=1)
        assert stream.gaussian(np.int64(3)).shape == (3,)
        assert stream.counter == 6 and type(stream.counter) is int


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

    @pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
    def test_bad_bernoulli_p_leaves_the_counter(self, p):
        s = RngStream(seed=1)
        s.uniform01(3)
        with pytest.raises(ValueError):
            s.bernoulli(5, p)
        assert s.counter == 3

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

    @pytest.mark.parametrize("n, rows", [(11, 5), (1, 3), (0, 4), (7, 0),
                                         (4097, 3)])
    def test_permutation_rows_equal_successive_permutations(self, n, rows):
        stream = RngStream(seed=4, counter=9)
        chunk = stream.permutation(n, rows)
        assert chunk.shape == (rows, n)
        assert stream.counter == 9 + rows * n
        successive = RngStream(seed=4, counter=9)
        for row in chunk:
            assert row.tobytes() == successive.permutation(n).tobytes()
        assert successive.counter == stream.counter

    @pytest.mark.parametrize("n, rows", [(-3, -2), (3, -2), (-3, 0), (2.5, 2),
                                         (3, 1.0)])
    def test_permutation_rows_rejects_bad_counts(self, n, rows):
        stream = RngStream(seed=1, counter=5)
        with pytest.raises(ValueError):
            stream.permutation(n, rows)
        assert stream.counter == 5

    def test_permutation_is_a_permutation(self):
        perm = RngStream(seed=21).permutation(50)
        assert sorted(perm.tolist()) == list(range(50))
