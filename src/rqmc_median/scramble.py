"""Randomizations of one-dimensional digital nets.

Four randomizations of a (0, m, 1)-net, each consuming an explicit seeded
stream:

* nested digit scrambling -- every digit is permuted by a uniform random
  permutation selected by the preceding digits (a b-ary permutation tree);
* jittered sampling -- one uniform point per stratum, the distributional
  equivalent of nested scrambling in one dimension;
* linear (affine matrix) scrambling -- digits are mapped through a random
  lower-triangular matrix mod b, in one of three classical shapes (free
  entries, Toeplitz, or constant columns), optionally followed by an
  additive random digit shift.

A scrambled point is held as a uint64 code k with x = k / b**depth.  The
van der Corput net, which every estimator scrambles, has digits that are
zero past position m and point i carries the digits of i, so the net grows
b-fold per digit.  A linear scramble of it needs only the first m columns
of its matrix (in base 2 each column packs into one word and the scramble
is m rounds of XOR), and a nested scramble is a gather of permuted digits
at fixed tree nodes followed by uniform tail digits.  Any other net is read
through its strata; a linear scramble, which acts on every digit, takes
only the van der Corput points, in any order.

Each scramble draws from its stream's own generator.  In base 2 every
range is a power of two, so numpy's bounded integers (Lemire's method) and
its Fisher-Yates swaps never reject and each draw is one fixed bit of a
32-bit half of a PCG64 word: nested and linear scrambles read those bits
straight off one `random_raw` call, the same draws `Generator.permuted` and
`Generator.integers` would make.  Odd bases, where draws can reject, and
jittered sampling call the `Generator` methods.

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
    """Which randomization to apply.

    `depth` is the number of digits carried through the scramble (default:
    full double resolution for the base); points are uint64 codes, so
    base**depth must stay below 2**64, and digits are uint8, so the base is
    at most 256.  `shift` adds a uniform random digit vector mod b after the
    matrix and applies to linear kinds only; without it the point 0.0 is a
    fixed point of every linear map and the one-point marginal is not
    uniform.  Linear kinds need a prime base so the diagonal entries are
    invertible mod b.
    """

    kind: ScramblerKind
    base: int = 2
    depth: int | None = None
    shift: bool = True

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", ScramblerKind(self.kind))
        except ValueError:
            raise ValueError(f"unknown scrambler {self.kind!r}; choose from "
                             f"{', '.join(kind.value for kind in ScramblerKind)}") from None
        if not 2 <= self.base <= 256:
            raise ValueError(f"base must be in 2..256 (digits are uint8), got {self.base}")
        if self.depth is not None and self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.base ** self.resolved_depth() >= 1 << 64:
            raise ValueError(f"base**depth = {self.base}**{self.resolved_depth()} "
                             "does not fit a 64-bit point code")
        if self.kind in LINEAR_KINDS and not _is_prime(self.base):
            raise ValueError(
                f"{self.kind.value} scrambling needs a prime base, got {self.base}"
            )

    def resolved_depth(self) -> int:
        return self.depth if self.depth is not None else default_depth(self.base)


@dataclass(frozen=True)
class RandomStream:
    """One replicate's worth of randomness.

    Equal (master_seed, stream_id) pairs reproduce the same draw sequence;
    distinct stream_ids give statistically independent streams.
    """

    master_seed: int
    stream_id: int

    def __post_init__(self):
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.stream_id < 0:
            raise ValueError("stream_id must be nonnegative")

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

    Point i's first m digits are the base-b digits of i, least significant
    first, so the net grows b-fold per digit: point i + a * b**k extends
    point i < b**k by the digit a.  The tree has one node per digit prefix,
    level-major and lexicographic within a level.  Returns `node_index`
    (n, m), the flat index into the row-wise permuted tables of the entry
    that maps point i's digit k, and `tables` (nodes, base), one identity
    row per node.
    """
    strata = np.zeros(1, dtype=np.int64)
    node_index = np.zeros((1, 0), dtype=np.intp)
    first = 0  # first node of level k
    for k in range(m):
        digit = np.arange(base)[:, None]
        entry = (first + strata) * base + digit  # (b, b**k): digit a of point i + a * b**k
        node_index = np.column_stack([np.tile(node_index, (base, 1)), entry.ravel()])
        strata = (strata * base + digit).ravel()
        first += base**k
    tables = np.tile(np.arange(base, dtype=np.uint8), (first, 1))
    for arr in (node_index, tables):
        arr.flags.writeable = False
    return node_index, tables


def _codes(digits: np.ndarray, base: int) -> np.ndarray:
    """uint64 codes sum_k digits[..., k] * base**(width-1-k) of digit rows.

    In base 2 each row, right-aligned in 64 digits, packs into one word.
    """
    width = digits.shape[-1]
    if base == 2:
        rows = np.zeros(digits.shape[:-1] + (64,), dtype=np.uint8)
        rows[..., 64 - width:] = digits
        return np.packbits(rows, axis=-1).view(">u8")[..., 0].astype(np.uint64)
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


def _nested_codes(base: int, m: int, depth: int, rng: np.random.Generator,
                  source: np.ndarray | None) -> np.ndarray:
    """One row-wise permutation of the stacked level tables (the draws of one
    call per level, in level order), then the tail digits, one row per point.

    Every length-m prefix of a net is unique to one point, so digits past
    level m see each tree node exactly once and a permuted digit there is
    simply a uniform digit: the tail draws supply those directly.  A net
    other than the van der Corput net follows the tree path of its `source`,
    the van der Corput point in the same stratum.

    In base 2 no draw rejects, so the draws of `Generator.permuted` and
    `Generator.integers` are read off the raw words: node table k swaps its
    row iff bit 0 of half k is 0 (Fisher-Yates' one swap), and the tail
    digits are bit 7 of the following bytes (Lemire's bounded uint8), from
    half 2**m - 1 on, where the high half the odd node count left pending
    is the tail's first buffer.  Odd bases call `Generator` itself.
    """
    node_index, tables = _layout(base, m)
    n, tail = base**m, depth - m
    if base == 2:
        nodes = n - 1
        words = _raw_words(rng, nodes + -(-n * tail // 4))
        kept = (words.view("<u4")[:nodes] & 1).astype(np.uint8)
        tables = np.column_stack([kept ^ 1, kept])
        tail_digits = words.view(np.uint8)[4 * nodes:4 * nodes + n * tail] >> 7
    else:
        if m:
            tables = rng.permuted(tables, axis=1)
        tail_digits = (rng.integers(0, base, size=(n, tail), dtype=np.uint8) if tail
                       else np.empty((n, 0), dtype=np.uint8))
    if source is not None:
        node_index = node_index[source]
    digits = np.empty((n, depth), dtype=np.uint8)
    digits[:, :m] = tables.ravel()[node_index]
    digits[:, m:] = tail_digits.reshape(n, tail)
    return _codes(digits, base)


def _linear_draws(spec: ScramblerSpec, depth: int, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """The draws of one scrambling matrix mod b, then of the shift, in stream order.

    Diagonal entries are uniform on {1, ..., b-1}; free entries uniform on
    {0, ..., b-1}.  Draw order per family: matousek draws the diagonal then a
    full square block, of which only the strictly-lower part is used; tezuka
    draws its first column top-down; striped draws its column constants left
    to right.  Returns the drawn vector, matousek's block (else None) and the
    shift (zeros when it is off).

    In base 2 no draw rejects, so the draws of `Generator.integers` are read
    off the raw words: a draw on {1} takes nothing from the stream, so the
    diagonal, tezuka's first entry and striped's constants are ones, and
    each free entry, then each shift digit, is bit 31 of the next 32-bit
    half (Lemire's bounded integer on {0, 1}).  Odd bases call `Generator`.
    """
    kind, base = spec.kind, spec.base
    no_shift = np.zeros(depth, dtype=np.int64)
    if base == 2:
        free = {ScramblerKind.MATOUSEK: depth * depth, ScramblerKind.TEZUKA: depth - 1,
                ScramblerKind.STRIPED: 0}[kind]
        count = free + (depth if spec.shift else 0)
        bits = (_raw_words(rng, count).view("<u4")[:count] >> 31).astype(np.int64)
        vec, block = np.ones(depth, dtype=np.int64), None
        if kind == ScramblerKind.MATOUSEK:
            block = bits[:free].reshape(depth, depth)
        elif kind == ScramblerKind.TEZUKA:
            vec[1:] = bits[:free]
        return vec, block, bits[free:] if spec.shift else no_shift
    block = None
    if kind == ScramblerKind.MATOUSEK:
        vec = rng.integers(1, base, size=depth, dtype=np.int64)
        block = rng.integers(0, base, size=(depth, depth), dtype=np.int64)
    elif kind == ScramblerKind.TEZUKA:
        vec = np.empty(depth, dtype=np.int64)
        vec[0] = rng.integers(1, base)
        if depth > 1:
            vec[1:] = rng.integers(0, base, size=depth - 1, dtype=np.int64)
    else:  # striped
        vec = rng.integers(1, base, size=depth, dtype=np.int64)
    shift = rng.integers(0, base, size=depth, dtype=np.int64) if spec.shift else no_shift
    return vec, block, shift


def _matrix_columns(kind: ScramblerKind, vec: np.ndarray, block: np.ndarray | None,
                    m: int) -> np.ndarray:
    """First m columns (depth, m) of the lower-triangular matrix drawn as
    `vec` (depth,) and, for matousek, `block` (depth, depth)."""
    offset = np.arange(len(vec))[:, None] - np.arange(m)[None, :]  # row - column
    if kind == ScramblerKind.MATOUSEK:
        cols = np.where(offset > 0, block[:, :m], 0)
        cols[np.arange(m), np.arange(m)] = vec[:m]
        return cols
    if kind == ScramblerKind.TEZUKA:  # constant along each diagonal
        return np.where(offset >= 0, vec[np.maximum(offset, 0)], 0)
    return np.where(offset >= 0, vec[None, :m], 0)  # striped: constant columns


def _linear_codes(spec: ScramblerSpec, m: int, depth: int,
                  rng: np.random.Generator) -> np.ndarray:
    """The matrix, then the shift; van der Corput point i gets M a_i + shift mod b.

    a_i holds the digits of i least significant first, so the points double
    (base 2) or grow b-fold per digit: the points with digit k of i equal to
    a add a times column k of M to the points before them.
    """
    base = spec.base
    vec, block, shift = _linear_draws(spec, depth, rng)
    cols = _matrix_columns(spec.kind, vec, block, m)
    if base == 2:
        words = _codes(np.vstack([cols.T, shift]), base)  # the m columns, then the shift
        codes = words[m:]
        for k in range(m):
            codes = np.concatenate([codes, codes ^ words[k]])
        return codes
    small = np.min_scalar_type(2 * base - 2)  # holds a digit, or the sum of two
    digits = shift.astype(small)[None, :]
    for k in range(m):
        step = (np.arange(base)[:, None] * cols[:, k]) % base  # (a * column k) mod b, (b, depth)
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
    """Codes of one nested or linear scramble of a net in base spec.base.

    A net other than the van der Corput net is read through `source`, the
    van der Corput point in each point's stratum (digit reversal is an involution).
    """
    base, m = pts.base, pts.m
    depth = spec.resolved_depth()
    if depth < m:
        raise ValueError(f"depth {depth} below m={m} would destroy the net property")
    vdc = van_der_corput_net(base, m)
    source = None
    if pts is not vdc:
        source = vdc.strata[pts.strata]
        if spec.kind in LINEAR_KINDS and not np.array_equal(pts.points, vdc.points[source]):
            raise ValueError(f"{spec.kind.value} scrambling takes only the van der Corput "
                             "points, in any order")
    rng = rs.generator()
    if spec.kind == ScramblerKind.NESTED:
        return _nested_codes(base, m, depth, rng, source)
    codes = _linear_codes(spec, m, depth, rng)
    return codes if source is None else codes[source]


def _scramble_net(pts: NetPoints, spec: ScramblerSpec, rs: RandomStream) -> NetPoints:
    """One scramble of one net; the output carries its exact strata."""
    if not is_net(pts):
        raise ValueError("input points do not form a (0, m, 1)-net")
    base, m = pts.base, pts.m
    if spec.kind == ScramblerKind.JITTERED:
        u = rs.generator().random(pts.n)
        return NetPoints(base, m, _jittered_points(pts.strata, u), strata=pts.strata)
    depth = spec.resolved_depth()
    codes = _scrambled_codes(pts, spec, rs)
    strata = (codes // np.uint64(base ** (depth - m))).astype(np.int64)
    return NetPoints(base, m, _unit(codes, base, depth), strata=strata)


def scramble_nested(pts: NetPoints, rs: RandomStream, depth: int | None = None) -> NetPoints:
    """Nested (permutation-tree) scrambling of a net.

    Digit k of every point is sent through a uniform random permutation
    keyed by the point's first k-1 digits; points sharing a prefix share the
    permutation.  Output points keep the input index order.
    """
    return _scramble_net(pts, ScramblerSpec(ScramblerKind.NESTED, pts.base, depth), rs)


def scramble_jittered(pts: NetPoints, rs: RandomStream) -> NetPoints:
    """Jittered sampling: stratum i's point is redrawn uniformly on [i/n, (i+1)/n)."""
    return _scramble_net(pts, ScramblerSpec(ScramblerKind.JITTERED, pts.base), rs)


def scramble_linear(pts: NetPoints, spec: ScramblerSpec, rs: RandomStream) -> NetPoints:
    """Linear (affine matrix) scrambling with the family chosen by `spec.kind`.

    One matrix (and one shift vector, if enabled) is drawn per call and
    applied to every point of the net, which is what keeps the scrambled
    points a net with probability one.
    """
    if spec.kind not in LINEAR_KINDS:
        raise ValueError(f"{spec.kind.value} is not a linear scrambling kind")
    if spec.base != pts.base:
        raise ValueError(f"spec base {spec.base} does not match net base {pts.base}")
    return _scramble_net(pts, spec, rs)


def apply_scrambler(pts: NetPoints, spec: ScramblerSpec, rs: RandomStream) -> NetPoints:
    """Dispatch on spec.kind: one scramble of one net in base spec.base."""
    if spec.base != pts.base:
        raise ValueError(f"spec base {spec.base} does not match net base {pts.base}")
    if spec.kind == ScramblerKind.NESTED:
        return scramble_nested(pts, rs, spec.depth)
    if spec.kind == ScramblerKind.JITTERED:
        return scramble_jittered(pts, rs)
    return scramble_linear(pts, spec, rs)
