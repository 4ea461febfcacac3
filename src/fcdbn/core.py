"""Deterministic numeric primitives shared by every other module.

Everything here is pure: dense float64 arrays in and out, plus the JSON
scalar type check. The random stream is counter-based so that a (seed,
counter) pair fully determines the draw sequence on any platform.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

# Upper clamp keeps sigmoid strictly below 1.0 in float64.
_SIGMOID_CEIL = 1.0 - 2.0 ** -53


def sigmoid(x):
    """Elementwise logistic function 1 / (1 + exp(-x)).

    Inputs are clamped to [-500, 500] before exponentiation, so the result
    never overflows and stays strictly inside (0, 1) for all finite inputs.
    The steps run in place in one new array; ``x`` is never written, and a
    scalar or 0-d input gives a numpy float64 scalar.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.clip(x, -500.0, 500.0, out=np.empty(x.shape))
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    np.minimum(out, _SIGMOID_CEIL, out=out)
    return out if out.ndim else out[()]


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

    Each tap is one contiguous multiply-add over the flattened, zero-padded
    stack, where a tap is a fixed offset; the padding columns get sums too
    and are cropped at the end. Each output sums the same products, the
    padding's included, in tap order from zero, so inf, NaN and -0.0 come
    out as in a tap-by-tap sum over the padded image. A cropped position's
    product (say an edge pixel's inf times a zero tap) can raise a numpy
    floating-point warning that the tap-by-tap sum would not.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    stack, batched = _as_stack(image, kernel.shape)
    n, h, w = stack.shape
    kr, kc = kernel.shape
    cp, cq = kr // 2, kc // 2
    rows, cols = h + 2 * cp, w + 2 * cq
    size = n * rows * cols
    # the tail keeps the largest tap offset inside the buffer
    flat = np.zeros(size + 2 * cp * cols + 2 * cq)
    flat[:size].reshape(n, rows, cols)[:, cp:cp + h, cq:cq + w] = stack
    acc = np.zeros(size)
    prod = np.empty(size)
    for p in range(kr):
        for q in range(kc):
            start = (2 * cp - p) * cols + 2 * cq - q
            np.multiply(kernel[p, q], flat[start:start + size], out=prod)
            acc += prod
    out = np.ascontiguousarray(acc.reshape(n, rows, cols)[:, :h, :w])
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
# per value. Counter advances: uniform01/bernoulli by n, gaussian by 2n, and
# the last word's counter may not pass 2**64 - 1.
#
# Words are made _BLOCK_WORDS at a time (4,096 gaussian or 8,192 uniform
# values), each step in place in two reused 64 KiB buffers, and the values
# go straight into the output array; a whole-array formula made about ten
# temporaries the size of the draw (64 MiB at peak for gaussian(2**20)).
# Each element goes through the same operations in the same order as in
# that formula, and a block is a multiple of every SIMD width, so each value
# meets log and cos in the vector lane it had: the bits do not depend on
# the block size. 64 KiB stays in L2 and below glibc's mmap threshold, so a
# block's buffers neither leave cache nor fault fresh pages; 2**14 and
# 2**15 words were slower at 2**16 draws. cos now takes about 20 ns of the
# ~33 ns a gaussian value costs (Xeon with AVX-512, numpy 2.4, one core),
# so no other step can make a draw more than about 1.6x faster.

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31 = (np.uint64(k) for k in (11, 27, 30, 31))
_U53 = 2.0 ** -53
_MASK64 = (1 << 64) - 1
_BLOCK_WORDS = 1 << 13
# (j + 1) * GOLDEN mod 2**64: the state of word j of a block, less its base
_STEPS = np.arange(1, _BLOCK_WORDS + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
_STEPS.flags.writeable = False


def _splitmix(z, t):
    """The splitmix64 finalizer of each word of ``z``, in place; ``t`` is scratch."""
    np.right_shift(z, _SHIFT30, out=t)
    z ^= t
    z *= _MIX1
    np.right_shift(z, _SHIFT27, out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, _SHIFT31, out=t)
    z ^= t


@dataclass
class RngStream:
    """Counter-based random stream; single-owner per logical task."""

    seed: int
    counter: int = 0

    def _advance(self, n, per_draw):
        """Check a draw of n values of ``per_draw`` words each, then move the
        counter past it; returns (n, first counter). Raises ValueError, with
        the counter unmoved, unless n is an int >= 0 and every word's counter
        fits in 64 bits."""
        try:
            n = operator.index(n)
            first = operator.index(self.counter)
        except TypeError:
            raise ValueError(f"draw count and counter must be integers, got "
                             f"{n!r} and {self.counter!r}") from None
        if n < 0:
            raise ValueError(f"draw count must be >= 0, got {n}")
        if not 0 <= first <= _MASK64 - per_draw * n:
            raise ValueError(f"counter {first} + {per_draw * n} words "
                             f"passes 2**64 - 1")
        self.counter = first + per_draw * n
        return n, first

    def _blocks(self, first, out, per_draw):
        """Yield (words, o, scratch) for each block of ``out``, whose first
        word has counter ``first`` + 1: o is the block's slice of out, words
        the top 53 bits of its per_draw * len(o) words, and scratch a free
        uint64 buffer of words' length. A block has two values at least,
        since numpy copies a one-element operand of an in-place step first;
        the padding's words are never output."""
        n, block = len(out), _BLOCK_WORDS // per_draw
        size = per_draw * max(min(n, block), 2)
        z, t = np.empty(size, np.uint64), np.empty(size, np.uint64)
        for lo in range(0, n, block):
            if lo and n - lo < block:  # a short block after full ones
                size = per_draw * max(n - lo, 2)
                z, t = z[:size], t[:size]
            base = (self.seed + (first + per_draw * lo) * _GOLDEN) & _MASK64
            np.add(_STEPS[:size], np.uint64(base), out=z)
            _splitmix(z, t)
            z >>= _SHIFT11
            yield z, out[lo:lo + block], t

    def uniform01(self, n):
        """n draws uniform on [0, 1); advances the counter by n."""
        n, first = self._advance(n, 1)
        out = np.empty(n)
        for words, o, _ in self._blocks(first, out, 1):
            np.multiply(words[:len(o)], _U53, out=o)
        return out

    def gaussian(self, n, mu=0.0, sigma=1.0):
        """n Gaussian draws via Box-Muller; advances the counter by 2n.

        mu and sigma must be finite, and sigma >= 0.
        """
        if not (math.isfinite(mu) and math.isfinite(sigma) and sigma >= 0):
            raise ValueError(f"mu and sigma must be finite and sigma >= 0, "
                             f"got {mu}, {sigma}")
        n, first = self._advance(n, 2)
        out = np.empty(n)
        for words, o, scratch in self._blocks(first, out, 2):
            # the words as floats (exact: they are below 2**53), then the
            # radius and angle of each pair in the spent words' memory
            u = scratch.view(np.float64)
            np.copyto(u, words, casting="unsafe")
            m = len(u) // 2
            cells = words.view(np.float64)
            r, a = cells[:m], cells[m:]
            # radius sqrt(-2 log u1), u1 = (even word + 1) * 2**-53 in (0, 1]
            np.add(u[0::2], 1.0, out=r)
            r *= _U53
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            # angle 2 pi u2, u2 = odd word * 2**-53 in [0, 1)
            np.multiply(u[1::2], _U53, out=a)
            a *= 2.0 * np.pi
            np.cos(a, out=a)
            r *= a
            r *= sigma
            np.add(r[:len(o)], mu, out=o)
        return out

    def bernoulli(self, n, p):
        """n draws in {0.0, 1.0} with P(1) = p; advances the counter by n."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli p must be in [0, 1], got {p}")
        n, first = self._advance(n, 1)
        out = np.empty(n)
        for words, o, _ in self._blocks(first, out, 1):
            np.multiply(words[:len(o)], _U53, out=o)
            np.copyto(o, o < p)
        return out

    def permutation(self, n):
        """Deterministic random permutation of range(n); advances by n."""
        return np.argsort(self.uniform01(n), kind="stable")

    def child(self, index):
        """Independent substream derived from (seed, index)."""
        state = ((self.seed & _MASK64) * int(_MIX1)
                 + (index + 1) * _GOLDEN) & _MASK64
        z = np.array([state], dtype=np.uint64)
        _splitmix(z, np.empty_like(z))
        return RngStream(seed=int(z[0]))
