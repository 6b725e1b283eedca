"""Channel parameters: capacity and optimal block error probability.

Error probabilities are exact rationals obtained by enumerating output
blocks and codebooks. Capacity is the one deliberate exception to exact
arithmetic in this library: it is computed in floating point. Every input
distribution p bounds it: I(p) <= C <= max_x D(W_x || pW). The iteration
stops when these two bounds are within the requested tolerance, and the
bounds and p are returned as a certificate (in nats).

The iteration is Blahut–Arimoto with a step exponent s that doubles
while its steps raise I(p); an extrapolated step that does not is
replaced by the classical one, which never lowers I(p), so one round
costs at most two evaluations of the densities. On near-useless
channels every density is close to the capacity and the classical step
moves p by a factor near 1, for up to millions of rounds; doubling s
crosses that tail in tens to hundreds of rounds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

from .channel_core import Channel
from .errors import ResourceLimitError, enforce_cap
from .rational import ONE, ZERO, Rat

DEFAULT_MAX_OUTPUT_BLOCKS = 10**6
DEFAULT_MAX_CODEBOOKS = 10**6
# A capacity round is one stopping test and at most two evaluations of the
# information densities (an extrapolated step, then the classical step if
# the extrapolated one did not raise the lower bound).
_MAX_CAPACITY_ROUNDS = 10**7
# No input weight is rounded to zero: an input with no mass could leave an
# output that only it reaches unreached, and its density bound infinite.
_MIN_WEIGHT = sys.float_info.min


@dataclass(frozen=True)
class Encoder:
    """A codebook: message m (1-based) is sent as the codeword codewords[m-1]."""

    message_count: int
    blocklength: int
    codewords: tuple

    def __post_init__(self):
        if self.message_count < 1 or self.blocklength < 1:
            raise ValueError("message count and blocklength must be >= 1")
        if len(self.codewords) != self.message_count:
            raise ValueError("codeword count does not match message count")
        for word in self.codewords:
            if len(word) != self.blocklength:
                raise ValueError("codeword length does not match blocklength")
            if any(symbol < 1 for symbol in word):
                raise ValueError("codeword symbols must be >= 1")


@dataclass(frozen=True)
class CapacityCertificate:
    """Floating-point bounds lower <= C(w) <= upper on the capacity, in nats.

    lower is the mutual information I(p; w) of input_distribution p and
    upper is max_x D(w_x || pw), the largest information density at p's
    output law; any p gives such a pair, so anyone can re-check it.
    """

    lower: float
    upper: float
    input_distribution: tuple


def capacity_certificate(w: Channel, eps: float) -> CapacityCertificate:
    """An input distribution whose capacity bounds are within eps of each other.

    Each round first stops if upper − lower <= eps for the current p. It
    then steps to p' ∝ p·exp(s·(D − upper)), where D is the vector of
    information densities D(W_x || pW). s = 1 is the Blahut–Arimoto step,
    which never lowers I. s doubles after every round whose step strictly
    raised the lower bound. An extrapolated step (s > 1) that does not
    raise it is dropped: s resets to 1 and the round takes the plain step
    instead. So the lower bound never falls, and a round evaluates the
    densities at most twice. The bounds of the accepted step are the next
    round's stopping test. Raises ResourceLimitError after
    _MAX_CAPACITY_ROUNDS rounds.

    eps must be finite and at least sys.float_info.epsilon, else
    ValueError: both bounds are sums of doubles, which cannot resolve a
    smaller gap, and a smaller eps could spend every round unmet.
    """
    # A NaN eps would never stop the iteration; inf would stop it at once.
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if eps < sys.float_info.epsilon:
        raise ValueError(
            f"eps must be at least {sys.float_info.epsilon} (double precision)"
        )
    n, m = w.input_size, w.output_size
    rows = [[(y, float(v)) for y, v in enumerate(row) if v > 0] for row in w.rows]

    def bounds(p):
        out = [0.0] * m
        for px, row in zip(p, rows):
            for y, v in row:
                out[y] += px * v
        dens = [sum(v * math.log(v / out[y]) for y, v in row) for row in rows]
        return sum(px * dx for px, dx in zip(p, dens)), max(dens), dens

    def step(p, dens, upper, s):
        weights = [
            max(px * math.exp(s * (dx - upper)), _MIN_WEIGHT) for px, dx in zip(p, dens)
        ]
        total = sum(weights)
        return [wgt / total for wgt in weights]

    p = [1.0 / n] * n
    lower, upper, dens = bounds(p)
    s = 1.0
    for _round in range(_MAX_CAPACITY_ROUNDS):
        if upper - lower <= eps:
            return CapacityCertificate(lower, upper, tuple(p))
        trial = step(p, dens, upper, s)
        t_lower, t_upper, t_dens = bounds(trial)
        if s > 1.0 and not t_lower > lower:
            s = 1.0
            trial = step(p, dens, upper, s)
            t_lower, t_upper, t_dens = bounds(trial)
        if t_lower > lower:
            s *= 2.0
        p, lower, upper, dens = trial, t_lower, t_upper, t_dens
    raise ResourceLimitError(
        f"capacity iteration did not reach eps within {_MAX_CAPACITY_ROUNDS} rounds"
    )


def capacity(w: Channel, eps: float) -> float:
    """Channel capacity in nats, within eps of the true value.

    The lower bound I(p) of capacity_certificate(w, eps), clamped at zero;
    the certificate's upper bound is at most eps above it.
    """
    return max(capacity_certificate(w, eps).lower, 0.0)


def ml_error_probability(
    e: Encoder, w: Channel, max_output_blocks: int = DEFAULT_MAX_OUTPUT_BLOCKS
):
    """Exact error probability of maximum-likelihood decoding for e over w.

    Enumerates every output block and credits each with the likelihood of
    its best message; ties need no breaking since only the max enters.
    """
    for word in e.codewords:
        if any(symbol > w.input_size for symbol in word):
            raise ValueError("codeword symbol outside the channel input alphabet")
    blocks = w.output_size**e.blocklength
    enforce_cap(blocks, max_output_blocks, "output enumeration", "blocks")
    credited = ZERO
    for block in product(range(w.output_size), repeat=e.blocklength):
        best = ZERO
        for word in e.codewords:
            likelihood = ONE
            for symbol, y in zip(word, block):
                likelihood *= w.rows[symbol - 1][y]
                if likelihood == 0:
                    break
            if likelihood > best:
                best = likelihood
        credited += best
    return ONE - credited / e.message_count


def optimal_error_probability(
    n: int,
    big_m: int,
    w: Channel,
    max_codebooks: int = DEFAULT_MAX_CODEBOOKS,
    max_output_blocks: int = DEFAULT_MAX_OUTPUT_BLOCKS,
):
    """Exact minimum ML error probability over all (n, M)-codebooks.

    The error probability is symmetric in the messages, so codebooks are
    enumerated as multisets of codewords. Every cap is checked before any
    word or codebook is built: the multisets, the M codewords of a
    codebook against max_codebooks (more than M multisets when the channel
    has two inputs or more, so only a one-input channel can fail on M
    alone), and the |Y|^n output blocks. A 1×1 channel has one block and
    one codebook for every n.

    A one-input channel has one word, so every codebook is M copies of
    it; each output block credits its likelihood once, the rows sum to 1,
    and the answer is 1 − 1/M for every n, with no word or codebook
    built once the caps pass.
    """
    if n < 1 or big_m < 1:
        raise ValueError("blocklength and message count must be >= 1")
    codebooks = _codebook_count(w.input_size, n, big_m, max_codebooks)
    enforce_cap(codebooks, max_codebooks, "codebook enumeration", "multisets")
    enforce_cap(big_m, max_codebooks, "codebook enumeration", "codewords per codebook")
    blocks = _power(w.output_size, n, max_output_blocks)
    enforce_cap(blocks, max_output_blocks, "output enumeration", "blocks")
    if w.input_size == 1:
        return ONE - Rat(1, big_m)
    words = list(product(range(1, w.input_size + 1), repeat=n))
    best = None
    for codebook in combinations_with_replacement(words, big_m):
        enc = Encoder(big_m, n, tuple(codebook))
        pe = ml_error_probability(enc, w, max_output_blocks=max_output_blocks)
        if best is None or pe < best:
            best = pe
            if best == 0:
                break
    return best


def _power(base: int, n: int, cap: int):
    """base**n, or None when bit lengths alone show it exceeds cap.

    No number much past the cap is built: for base of bit length b ≥ 2,
    2^(n·(b − 1)) ≤ base**n < 2^(2·n·(b − 1)).
    """
    if base > 1 and n * (base.bit_length() - 1) >= cap.bit_length():
        return None
    return base**n


def _codebook_count(symbols: int, n: int, size: int, cap: int):
    """C(symbols**n + size − 1, size), the multisets of size codewords of
    length n, or None when bit lengths alone show it exceeds cap.

    No number much past the cap is built. There are at least as many
    codebooks as words, so none is counted once _power gives up on the
    words. The count is C(t, k) with t = words + size − 1 and
    k = min(size, words − 1); as t − k ≥ k it is at least 2^k, so
    math.comb runs only for k below cap's bit length.
    """
    words = _power(symbols, n, cap)
    if words is None:
        return None
    k = min(size, words - 1)
    if k >= cap.bit_length():
        return None
    return math.comb(words + size - 1, k)
