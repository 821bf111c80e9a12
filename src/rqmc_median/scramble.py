"""Randomizations of one-dimensional digital nets.

Three families of randomization of a (0, m, 1)-net, five `ScramblerKind`s
in all, each consuming an explicit seeded stream:

* nested digit scrambling -- every digit is permuted by a uniform random
  permutation selected by the preceding digits (a b-ary permutation tree);
* jittered sampling -- one uniform point per stratum, the distributional
  equivalent of nested scrambling in one dimension;
* linear (affine matrix) scrambling -- digits are mapped through a random
  lower-triangular matrix mod b, in one of three classical shapes (free
  entries for matousek, Toeplitz for tezuka, constant columns for
  striped), followed by an additive random digit shift.

Each takes (net, spec, stream) and rejects a spec of another kind;
`apply_scrambler` dispatches on the spec.  In one dimension every digital
(0, m, 1)-net in base b has the points i / b**m, in some order, so the
only net scrambled is the van der Corput net (or an equal copy); any other
net is rejected.  A scrambled point is held as a uint64 code k with
x = k / b**depth, where depth = default_depth(b) digits reach full double
resolution in base b.  The van der Corput net has digits that are zero
past position m and point i carries the digits of i, so the net grows
b-fold per digit.  A linear scramble of it needs only the first m columns
of its matrix (in base 2 each column is one word, summed from the drawn
bits with no matrix built, and the scramble is m rounds of XOR), and a
nested scramble is a gather of permuted digits at fixed tree nodes followed
by uniform tail digits.

Each scramble draws from its stream's own generator.  In base 2 every
range is a power of two, so numpy's bounded integers (Lemire's method) and
its Fisher-Yates swaps never reject and each draw is one fixed bit of a
32-bit half of a PCG64 word: nested and linear scrambles read those bits
straight off one `random_raw` call, the same draws `Generator.permuted` and
`Generator.integers` would make, and write them into packed digit rows
(nested) or sum them into column and shift words (linear).  Odd bases,
where draws can reject, and jittered sampling call the `Generator` methods.
One table per (kind, depth, m), `_linear_layout`, is the only place that
states a linear kind's draws and matrix shape: odd bases gather their drawn
digits into columns through it, and base 2 derives its words from it.

All scramblers preserve the net property exactly at digit level and are pure
functions of (net, spec, stream): repeated calls give bit-identical output.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .digits import default_depth
from .nets import NetPoints, is_net, van_der_corput_net

__all__ = [
    "LINEAR_KINDS",
    "RandomStream",
    "ScramblerKind",
    "ScramblerSpec",
    "apply_scrambler",
    "derive_seed",
    "scramble_jittered",
    "scramble_linear",
    "scramble_nested",
]

_BELOW_ONE = np.nextafter(1.0, 0.0)


class ScramblerKind(str, Enum):
    NESTED = "nested"
    JITTERED = "jittered"
    MATOUSEK = "matousek"
    TEZUKA = "tezuka"
    STRIPED = "striped"


LINEAR_KINDS = frozenset(
    {ScramblerKind.MATOUSEK, ScramblerKind.TEZUKA, ScramblerKind.STRIPED}
)
_NESTED = frozenset({ScramblerKind.NESTED})
_JITTERED = frozenset({ScramblerKind.JITTERED})


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class ScramblerSpec:
    """Which randomization to apply, in which base.

    Digits are uint8, so the base is at most 256.  A scramble carries
    `depth` = default_depth(base) digits, full double resolution in the
    base; base**depth < base * 2**53 <= 2**61, so every point code fits a
    uint64.  A linear kind always adds a uniform random digit vector mod b
    after the matrix: without it the point 0.0 is a fixed point of every
    linear map and the one-point marginal is not uniform.  Linear kinds need
    a prime base so the diagonal entries are invertible mod b.
    """

    kind: ScramblerKind
    base: int = 2

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", ScramblerKind(self.kind))
        except ValueError:
            raise ValueError(f"unknown scrambler {self.kind!r}; choose from "
                             f"{', '.join(kind.value for kind in ScramblerKind)}") from None
        if not 2 <= self.base <= 256:
            raise ValueError(f"base must be in 2..256 (digits are uint8), got {self.base}")
        if self.kind in LINEAR_KINDS and not _is_prime(self.base):
            raise ValueError(
                f"{self.kind.value} scrambling needs a prime base, got {self.base}"
            )

    @property
    def depth(self) -> int:
        """Digits carried through a scramble: full double resolution in the base."""
        return default_depth(self.base)


@dataclass(frozen=True)
class RandomStream:
    """One replicate's worth of randomness.

    Both fields may be any nonnegative integers, with no upper bound.  Equal
    pairs reproduce the same draws; distinct stream_ids give independent streams.
    """

    master_seed: int
    stream_id: int

    def __post_init__(self):
        if self.master_seed < 0 or self.stream_id < 0:
            raise ValueError("master_seed and stream_id must be nonnegative")

    def generator(self) -> np.random.Generator:
        """A freshly seeded generator positioned at the start of the stream."""
        ss = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)


def derive_seed(master_seed: int, *key: int) -> int:
    """A 64-bit seed derived from master_seed under the spawn key `key`.

    Callers use it to give each cell, or each repetition of a cell, its own
    master seed for RandomStream.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


@functools.lru_cache(maxsize=64)
def _layout(base: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed index arrays, read-only, of the nested tree over the (b, m) net.

    The tree has one node per digit prefix, level-major and lexicographic
    within a level, so level k starts at node (b**k - 1) / (b - 1).  At
    level k a point's node is the first k digits of its stratum and its
    entry there the next digit, so the flat entry index is the level's
    first node times b plus the stratum's first k + 1 digits.  Returns
    `node_index` (n, m), point i's flat entry index at each level into the
    row-wise permuted tables, and `tables` (nodes, base), one identity row
    per node.
    """
    k = np.arange(m)
    node_index = ((base**k - 1) // (base - 1) * base
                  + van_der_corput_net(base, m).strata[:, None] // base ** (m - 1 - k))
    tables = np.tile(np.arange(base, dtype=np.uint8), ((base**m - 1) // (base - 1), 1))
    for arr in (node_index, tables):
        arr.flags.writeable = False
    return node_index, tables


def _codes(digits: np.ndarray, base: int) -> np.ndarray:
    """uint64 codes sum_k digits[:, k] * base**(width-1-k) of odd-base digit rows."""
    width = digits.shape[-1]
    weights = base ** np.arange(width - 1, -1, -1, dtype=np.uint64)
    return np.einsum("...k,k->...", digits.astype(np.uint64, copy=False), weights)


def _unit(codes: np.ndarray, base: int, depth: int) -> np.ndarray:
    """x = code / base**depth, clamped below 1 (odd-base doubles can round up to 1)."""
    x = codes.astype(np.float64) / float(base**depth)
    return np.minimum(x, _BELOW_ONE, out=x)


def _raw_words(rng: np.random.Generator, halves: int) -> np.ndarray:
    """The words behind the next `halves` 32-bit draws of a fresh generator.

    numpy's next_uint32 hands out each 64-bit PCG64 word low half first, so
    a little-endian copy of the words lays out those halves, and the bytes
    of each half low byte first, in draw order on any host.
    """
    return rng.bit_generator.random_raw((halves + 1) // 2).astype("<u8", copy=False)


def _nested_codes(base: int, m: int, depth: int, rng: np.random.Generator) -> np.ndarray:
    """One row-wise permutation of the stacked level tables (the draws of one
    call per level, in level order), then the tail digits, one row per point.

    Every length-m prefix of a net is unique to one point, so digits past
    level m see each tree node exactly once and a permuted digit there is
    simply a uniform digit: the tail draws supply those directly.

    In base 2 no draw rejects, so the draws of `Generator.permuted` and
    `Generator.integers` are read off the raw words: node table k swaps its
    row iff bit 0 of half k is 0 (Fisher-Yates' one swap), and the tail
    digits are bit 7 of the following bytes (Lemire's bounded uint8), from
    half 2**m - 1 on, where the high half the odd node count left pending
    is the tail's first buffer.  Odd bases call `Generator` itself.
    """
    node_index, tables = _layout(base, m)
    n, tail = base**m, depth - m
    if base == 2:  # the head and tail bits go straight into the packed rows
        nodes = n - 1
        words = _raw_words(rng, nodes + -(-n * tail // 4))
        kept = (words.view("<u4")[:nodes] & 1).astype(np.uint8)
        rows = np.zeros((n, 64), dtype=np.uint8)
        rows[:, 64 - depth:64 - tail] = np.column_stack([kept ^ 1, kept]).ravel()[node_index]
        tail_bytes = words.view(np.uint8)[4 * nodes:4 * nodes + n * tail].reshape(n, tail)
        np.right_shift(tail_bytes, 7, out=rows[:, 64 - tail:])
        return np.packbits(rows.reshape(-1)).view(">u8").astype(np.uint64)  # one flat pack
    head = rng.permuted(tables, axis=1).ravel()[node_index]
    return _codes(np.hstack([head, rng.integers(0, base, size=(n, tail), dtype=np.uint8)]), base)


@functools.lru_cache(maxsize=64)
def _linear_layout(kind: ScramblerKind, depth: int, m: int) -> tuple[int, int, np.ndarray]:
    """(diagonal, free, source): the draws and shape of a linear kind's first
    m columns, the one place that states them, for every base.

    A linear scramble draws its diagonal entries, uniform on {1, ..., b-1},
    then its free entries, uniform on {0, ..., b-1}, then its shift.
    `source[k, i]` (read-only) is the index, in the diagonal-then-free
    draws, of entry i of column k, and -1 above the diagonal.  matousek
    draws its whole diagonal, then a full square block of which only the
    strictly-lower part is used; tezuka draws its first column top-down,
    one diagonal entry then the free ones, and is constant along each
    diagonal; striped draws its column constants as its diagonal.
    """
    k, i = np.arange(m)[:, None], np.arange(depth)[None, :]
    diagonal, free, source = {
        ScramblerKind.MATOUSEK: (depth, depth * depth, np.where(i > k, depth + i * depth + k, k)),
        ScramblerKind.TEZUKA: (1, depth - 1, i - k),
        ScramblerKind.STRIPED: (depth, 0, k),
    }[kind]
    source = np.where(i >= k, source, -1)
    source.flags.writeable = False
    return diagonal, free, source


@functools.lru_cache(maxsize=64)
def _base2_words(kind: ScramblerKind, depth: int, m: int
                 ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(halves drawn, index, weights, ones), read-only: the base-2 words of
    `_linear_layout`'s table, m columns then the shift, from the drawn bits.

    No base-2 draw rejects: a draw on {1} takes nothing, so every diagonal
    entry is one, and each free entry, then each shift digit, is bit 31 of
    the next 32-bit half.  Word k sums, over rows i, the bit of half
    `index[k, i]` times `weights[k, i]` (2**(depth-1-i) if drawn, else 0),
    plus `ones[k]`, the weights of its entries from the diagonal."""
    diagonal, free, source = _linear_layout(kind, depth, m)
    weight = np.uint64(1) << np.arange(depth - 1, -1, -1, dtype=np.uint64)
    source = np.vstack([source, diagonal + free + np.arange(depth)])  # the shift is all drawn
    drawn = source >= diagonal
    layout = (np.where(drawn, source - diagonal, 0), np.where(drawn, weight, np.uint64(0)),
              np.where((source >= 0) & ~drawn, weight, np.uint64(0)).sum(axis=1))
    for arr in layout:
        arr.flags.writeable = False
    return (free + depth, *layout)


def _linear_codes(spec: ScramblerSpec, m: int, depth: int,
                  rng: np.random.Generator) -> np.ndarray:
    """The matrix, then the shift; van der Corput point i gets M a_i + shift mod b.

    a_i holds the digits of i least significant first, so the points double
    (base 2) or grow b-fold per digit: the points with digit k of i equal to
    a add a times column k of M to the points before them.  Both bases read
    M's first m columns from `_linear_layout`'s table: odd bases gather the
    drawn digits into them, and base 2 sums the drawn bits into one word per
    column and one for the shift (`_base2_words`), with no matrix built.
    """
    base = spec.base
    if base == 2:
        halves, index, weights, ones = _base2_words(spec.kind, depth, m)
        bits = _raw_words(rng, halves).view("<u4")[index] >> 31
        words = (bits * weights).sum(axis=1) + ones  # distinct powers of two: the sum is OR
        codes = np.full(2**m, words[m])
        for k in range(m):
            np.bitwise_xor(codes[:2**k], words[k], out=codes[2**k:2**(k + 1)])
        return codes
    diagonal, free, source = _linear_layout(spec.kind, depth, m)
    draws = np.concatenate([rng.integers(1, base, size=diagonal, dtype=np.int64),
                            rng.integers(0, base, size=free, dtype=np.int64)])
    shift = rng.integers(0, base, size=depth, dtype=np.int64)
    cols = np.where(source >= 0, draws[source], 0)
    small = np.min_scalar_type(2 * base - 2)  # holds a digit, or the sum of two
    digits = shift.astype(small)[None, :]
    for k in range(m):
        step = (np.arange(base)[:, None] * cols[k]) % base  # (a * column k) mod b, (b, depth)
        total = digits[None, :, :] + step.astype(small)[:, None, :]
        # mod b of a sum below 2b: subtracting b wraps around unless the sum is >= b
        digits = np.minimum(total, total - base).reshape(-1, depth)
    return _codes(digits, base)


def _jittered_points(strata: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Place the point of stratum s at (s + u[s]) / n, clamped inside the stratum."""
    n = len(strata)
    x = (strata + u[strata]) / n
    # (s + u)/n can round up onto the right edge when u is within an ulp of 1
    right = (strata + 1.0) / n
    return np.minimum(x, np.nextafter(right, 0.0))


def _scrambled_codes(pts: NetPoints, spec: ScramblerSpec, rs: RandomStream) -> np.ndarray:
    """Codes of one nested or linear scramble of the van der Corput net pts."""
    if spec.kind == ScramblerKind.NESTED:
        return _nested_codes(pts.base, pts.m, spec.depth, rs.generator())
    return _linear_codes(spec, pts.m, spec.depth, rs.generator())


def _scramble_net(pts: NetPoints, spec: ScramblerSpec, rs: RandomStream,
                  kinds: frozenset[ScramblerKind]) -> NetPoints:
    """One scramble by a spec of one of `kinds` of the cached van der Corput
    net, which `pts` must equal; the output carries its exact strata."""
    if spec.kind not in kinds:
        raise ValueError(f"a {spec.kind.value} spec does not fit this scramble, which takes "
                         f"{', '.join(sorted(kind.value for kind in kinds))}")
    if spec.base != pts.base:  # every kind comes through here: the one base check
        raise ValueError(f"spec base {spec.base} does not match net base {pts.base}")
    if not is_net(pts):
        raise ValueError("input points do not form a (0, m, 1)-net")
    base, m, depth = pts.base, pts.m, spec.depth
    vdc = van_der_corput_net(base, m)  # a copy built before an lru eviction is equal
    if pts is not vdc and not np.array_equal(pts.points, vdc.points):
        raise ValueError(f"scrambling takes only the van der Corput net in base {base}")
    if spec.kind == ScramblerKind.JITTERED:
        u = rs.generator().random(vdc.n)
        return NetPoints(base, m, _jittered_points(vdc.strata, u), vdc.strata)
    codes = _scrambled_codes(vdc, spec, rs)
    strata = (codes // np.uint64(base ** (depth - m))).astype(np.int64)
    return NetPoints(base, m, _unit(codes, base, depth), strata)


def scramble_nested(pts: NetPoints, spec: ScramblerSpec, rs: RandomStream) -> NetPoints:
    """Nested (permutation-tree) scrambling of a net.

    Digit k of every point is sent through a uniform random permutation
    keyed by the point's first k-1 digits; points sharing a prefix share the
    permutation.  Output points keep the input index order.
    """
    return _scramble_net(pts, spec, rs, _NESTED)


def scramble_jittered(pts: NetPoints, spec: ScramblerSpec, rs: RandomStream) -> NetPoints:
    """Jittered sampling: stratum i's point is redrawn uniformly on [i/n, (i+1)/n)."""
    return _scramble_net(pts, spec, rs, _JITTERED)


def scramble_linear(pts: NetPoints, spec: ScramblerSpec, rs: RandomStream) -> NetPoints:
    """Linear (affine matrix) scrambling with the family chosen by `spec.kind`.

    One matrix and one shift vector are drawn per call and applied to every
    point of the net, which is what keeps the scrambled points a net with
    probability one.
    """
    return _scramble_net(pts, spec, rs, LINEAR_KINDS)


def apply_scrambler(pts: NetPoints, spec: ScramblerSpec, rs: RandomStream) -> NetPoints:
    """Dispatch on spec.kind: one scramble of one net in base spec.base."""
    if spec.kind == ScramblerKind.NESTED:
        return scramble_nested(pts, spec, rs)
    if spec.kind == ScramblerKind.JITTERED:
        return scramble_jittered(pts, spec, rs)
    return scramble_linear(pts, spec, rs)
