"""Deterministic numeric primitives shared by every other module.

Everything here is pure: dense float64 arrays in and out, plus the JSON
scalar type check. The random stream is counter-based so that a (seed,
counter) pair fully determines the draw sequence on any platform.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

# Upper clamp keeps sigmoid strictly below 1.0 in float64.
_SIGMOID_CEIL = 1.0 - 2.0 ** -53


def sigmoid(x):
    """Elementwise logistic function 1 / (1 + exp(-x)).

    Inputs are clamped to [-500, 500] before exponentiation, so the result
    never overflows and stays strictly inside (0, 1) for all finite inputs.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.clip(x, -500.0, 500.0)
    out = 1.0 / (1.0 + np.exp(-z))
    return np.minimum(out, _SIGMOID_CEIL)


def scalar_fits(kind, value):
    """Whether a JSON scalar fits type ``kind``: bool is never a number, and
    a float field also takes an int in float range."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return abs(value) <= sys.float_info.max
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, kind)


def _as_stack(image, kernel_shape):
    """View an (h, w) image or an (N, h, w) stack as (N, h, w); check the kernel."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim not in (2, 3):
        raise ValueError("conv2d_same expects 2-D images or (N, h, w) image stacks")
    check_kernel(kernel_shape, within=image.shape[-2:])
    return image.reshape(-1, *image.shape[-2:]), image.ndim == 3


def check_kernel(shape, within=None):
    """Raise ValueError unless a 2-D kernel has odd sides >= 1 that fit ``within``."""
    if len(shape) != 2 or min(shape) < 1 or shape[0] % 2 == 0 or shape[1] % 2 == 0:
        raise ValueError(f"kernel {shape} is not 2-D with odd sides >= 1")
    if within is not None and (shape[0] > within[0] or shape[1] > within[1]):
        raise ValueError(f"kernel {shape} larger than image {within}")


def _pad_stack(stack, cp, cq):
    n, h, w = stack.shape
    padded = np.zeros((n, h + 2 * cp, w + 2 * cq))
    padded[:, cp:cp + h, cq:cq + w] = stack
    return padded


def conv2d_same(image, kernel):
    """2-D convolution with 'same' zero padding.

    True convolution (the kernel is flipped): out[r, c] =
    sum_{p,q} kernel[p, q] * image[r - p + cp, c - q + cq], with entries
    outside the image treated as zero and (cp, cq) the kernel center.
    Output dims equal input dims. Kernel dims must be odd.

    ``image`` may be one (h, w) image or an (N, h, w) stack; each image of
    a stack is convolved on its own, with the same elementwise arithmetic
    as a single image, so the result is bit-identical to a per-image loop.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    stack, batched = _as_stack(image, kernel.shape)
    n, h, w = stack.shape
    kr, kc = kernel.shape
    cp, cq = kr // 2, kc // 2
    padded = _pad_stack(stack, cp, cq)
    out = np.zeros((n, h, w))
    for p in range(kr):
        for q in range(kc):
            out += kernel[p, q] * padded[:, 2 * cp - p:2 * cp - p + h,
                                         2 * cq - q:2 * cq - q + w]
    return out if batched else out[0]


def conv2d_same_kernel_grad(image, upstream, kernel_shape):
    """Gradient of sum(upstream * conv2d_same(image, kernel)) w.r.t. kernel.

    ``upstream`` has the image's shape; returns an array of kernel_shape.
    For an (N, h, w) stack the result is the sum of the N per-image
    gradients: each image's products are summed as one row, then the rows
    are accumulated in image order from zero. That is the same rounding as
    a running total over per-image calls, bit for bit.
    """
    stack, batched = _as_stack(image, tuple(kernel_shape))
    upstream = np.asarray(upstream, dtype=np.float64).reshape(stack.shape)
    n, h, w = stack.shape
    kr, kc = kernel_shape
    cp, cq = kr // 2, kc // 2
    padded = _pad_stack(stack, cp, cq)
    sums = np.empty((kr, kc, n))
    for p in range(kr):
        for q in range(kc):
            prod = upstream * padded[:, 2 * cp - p:2 * cp - p + h,
                                     2 * cq - q:2 * cq - q + w]
            sums[p, q] = prod.reshape(n, h * w).sum(axis=1)
    if not batched:
        return sums[:, :, 0]
    # cumsum adds strictly left to right; + 0.0 maps a -0.0 total to the
    # +0.0 a running total started from zero would give
    return np.cumsum(sums, axis=2)[:, :, -1] + 0.0


# --- counter-based random stream -------------------------------------------
#
# Draw i is a pure function of (seed, counter + i): the 64-bit state
# seed + (counter + i) * GOLDEN is passed through the splitmix64 finalizer
# (two xor-shift-multiply rounds), giving one 64-bit word per counter value.
# uniform01 maps the top 53 bits to [0, 1); gaussian consumes two words per
# value via Box-Muller with u1 mapped to (0, 1]; bernoulli consumes one word
# per value. Counter advances: uniform01/bernoulli by n, gaussian by 2n.

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0 ** -53


def _splitmix(state):
    z = state
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


@dataclass
class RngStream:
    """Counter-based random stream; single-owner per logical task."""

    seed: int
    counter: int = 0

    def _words(self, n):
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        state = np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF) + idx * _GOLDEN
        return _splitmix(state)

    def uniform01(self, n):
        """n draws uniform on [0, 1); advances the counter by n."""
        return (self._words(n) >> np.uint64(11)).astype(np.float64) * _U53

    def gaussian(self, n, mu=0.0, sigma=1.0):
        """n Gaussian draws via Box-Muller; advances the counter by 2n."""
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        words = self._words(2 * n)
        u1 = ((words[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _U53
        u2 = (words[1::2] >> np.uint64(11)).astype(np.float64) * _U53
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return mu + sigma * z

    def bernoulli(self, n, p):
        """n draws in {0.0, 1.0} with P(1) = p; advances the counter by n."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli p must be in [0, 1], got {p}")
        return (self.uniform01(n) < p).astype(np.float64)

    def permutation(self, n):
        """Deterministic random permutation of range(n); advances by n."""
        return np.argsort(self.uniform01(n), kind="stable")

    def child(self, index):
        """Independent substream derived from (seed, index)."""
        mask = 0xFFFFFFFFFFFFFFFF
        state = ((self.seed & mask) * int(_MIX1) + (index + 1) * int(_GOLDEN)) & mask
        # a one-element array: uint64 arrays wrap silently, scalars warn
        return RngStream(seed=int(_splitmix(np.array([state], dtype=np.uint64))[0]))
