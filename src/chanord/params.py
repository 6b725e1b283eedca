"""Channel parameters: capacity and optimal block error probability.

Error probabilities are exact rationals obtained by enumerating output
blocks and codebooks. Capacity is the one deliberate exception to exact
arithmetic in this library: it is computed in floating point by
alternating maximization of mutual information, with the standard
per-iteration optimality-gap bound as the stopping rule, so the returned
value is within the requested tolerance of the true capacity (in nats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

from .channel_core import Channel
from .errors import ResourceLimitError
from .rational import ONE, ZERO

DEFAULT_MAX_OUTPUT_BLOCKS = 10**6
DEFAULT_MAX_CODEBOOKS = 10**6
_MAX_CAPACITY_ROUNDS = 10**7


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


def capacity(w: Channel, eps: float) -> float:
    """Channel capacity in nats, within eps of the true value.

    Alternating maximization over input distributions: each round computes
    the per-input information densities, whose maximum upper-bounds the
    capacity while their average under the current distribution
    lower-bounds it; iteration stops when the two are within eps.
    """
    # A NaN eps would never stop the iteration; inf would stop it at once.
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    n, m = w.input_size, w.output_size
    rows = [[float(p) for p in row] for row in w.rows]
    p = [1.0 / n] * n
    for _round in range(_MAX_CAPACITY_ROUNDS):
        out = [0.0] * m
        for x in range(n):
            px = p[x]
            if px > 0.0:
                for y in range(m):
                    out[y] += px * rows[x][y]
        dens = []
        for x in range(n):
            acc = 0.0
            for y in range(m):
                wxy = rows[x][y]
                if wxy > 0.0:
                    acc += wxy * math.log(wxy / out[y])
            dens.append(acc)
        lower = sum(px * dx for px, dx in zip(p, dens))
        upper = max(dens)
        if upper - lower <= eps:
            return max(lower, 0.0)
        shift = upper  # rescale before exponentiating
        weights = [px * math.exp(dx - shift) for px, dx in zip(p, dens)]
        total = sum(weights)
        p = [wgt / total for wgt in weights]
    raise ResourceLimitError(
        f"capacity iteration did not reach eps within {_MAX_CAPACITY_ROUNDS} rounds"
    )


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
    block_count = w.output_size**e.blocklength
    if block_count > max_output_blocks:
        raise ResourceLimitError(
            f"output enumeration has {block_count} blocks (cap {max_output_blocks})"
        )
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
    enumerated as multisets of codewords.
    """
    if n < 1 or big_m < 1:
        raise ValueError("blocklength and message count must be >= 1")
    word_count = w.input_size**n
    codebook_count = math.comb(word_count + big_m - 1, big_m)
    if codebook_count > max_codebooks:
        raise ResourceLimitError(
            f"codebook enumeration has {codebook_count} multisets (cap {max_codebooks})"
        )
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
