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

Each takes (net, spec, stream) and rejects a spec of another kind;
`apply_scrambler` dispatches on the spec.  A scrambled point is held as a
uint64 code k with x = k / b**depth, where depth = default_depth(b) digits
reach full double resolution in base b.  The van der Corput net, which
every estimator scrambles, has digits that are zero past position m and
point i carries the digits of i, so the net grows b-fold per digit.  A
linear scramble of it needs only the first m columns of its matrix (in
base 2 each column packs into one word and the scramble is m rounds of
XOR), and a nested scramble is a gather of permuted digits at fixed tree
nodes followed by uniform tail digits.  Any other net is read through its
strata; a linear scramble, which acts on every digit, takes only the van
der Corput points, in any order.

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
from dataclasses import dataclass, field
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
    uint64.  `shift` (keyword-only) adds a uniform random digit vector mod b
    after the matrix and applies to linear kinds only; without it the point
    0.0 is a fixed point of every linear map and the one-point marginal is
    not uniform.  Linear kinds need a prime base so the diagonal entries are
    invertible mod b.
    """

    kind: ScramblerKind
    base: int = 2
    shift: bool = field(default=True, kw_only=True)

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


def _packed(rows: np.ndarray) -> np.ndarray:
    """uint64 codes of (k, 64) rows of bits, most significant first: one flat pack."""
    return np.packbits(rows.reshape(-1)).view(">u8").astype(np.uint64)


def _codes(digits: np.ndarray, base: int) -> np.ndarray:
    """uint64 codes sum_k digits[:, k] * base**(width-1-k) of digit rows.

    In base 2 each row, right-aligned in 64 digits, packs into one word.
    """
    width = digits.shape[-1]
    if base == 2:
        rows = np.zeros((len(digits), 64), dtype=np.uint8)
        rows[:, 64 - width:] = digits
        return _packed(rows)
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
    if source is not None:
        node_index = node_index[source]
    n, tail = base**m, depth - m
    if base == 2:  # the head and tail bits go straight into the packed rows
        nodes = n - 1
        words = _raw_words(rng, nodes + -(-n * tail // 4))
        kept = (words.view("<u4")[:nodes] & 1).astype(np.uint8)
        rows = np.zeros((n, 64), dtype=np.uint8)
        rows[:, 64 - depth:64 - tail] = np.column_stack([kept ^ 1, kept]).ravel()[node_index]
        tail_bytes = words.view(np.uint8)[4 * nodes:4 * nodes + n * tail].reshape(n, tail)
        np.right_shift(tail_bytes, 7, out=rows[:, 64 - tail:])
        return _packed(rows)
    head = rng.permuted(tables, axis=1).ravel()[node_index]
    return _codes(np.hstack([head, rng.integers(0, base, size=(n, tail), dtype=np.uint8)]), base)


def _linear_columns(spec: ScramblerSpec, m: int, depth: int, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The first m columns (depth, m) of one lower-triangular matrix mod b and
    the shift (depth,), zeros when it is off.

    Draws in stream order: the diagonal entries, uniform on {1, ..., b-1},
    then the free entries, uniform on {0, ..., b-1}, then the shift.
    matousek draws its whole diagonal, then a full square block of which
    only the strictly-lower part is used; tezuka draws its first column
    top-down, one diagonal entry then the free ones, and is constant along
    each diagonal; striped draws its column constants left to right as its
    diagonal and has constant columns.

    In base 2 no draw rejects, so the draws of `Generator.integers` are read
    off the raw words: a draw on {1} takes nothing from the stream, so every
    diagonal entry is one, and each free entry, then each shift digit, is
    bit 31 of the next 32-bit half (Lemire's bounded integer on {0, 1}).
    Odd bases call `Generator`.
    """
    kind, base = spec.kind, spec.base
    diagonal, free = {ScramblerKind.MATOUSEK: (depth, depth * depth),
                      ScramblerKind.TEZUKA: (1, depth - 1), ScramblerKind.STRIPED: (depth, 0)}[kind]
    shifted = depth if spec.shift else 0
    if base == 2:
        diag = np.ones(diagonal, dtype=np.int64)
        bits = _raw_words(rng, free + shifted).view("<u4")[:free + shifted] >> 31
        entries, shift = np.split(bits.astype(np.int64), [free])
    else:
        diag = rng.integers(1, base, size=diagonal, dtype=np.int64)
        entries = rng.integers(0, base, size=free, dtype=np.int64)
        shift = rng.integers(0, base, size=shifted, dtype=np.int64)
    offset = np.arange(depth)[:, None] - np.arange(m)[None, :]  # row - column
    if kind == ScramblerKind.MATOUSEK:
        cols = np.where(offset > 0, entries.reshape(depth, depth)[:, :m], 0)
        cols[np.arange(m), np.arange(m)] = diag[:m]
    elif kind == ScramblerKind.TEZUKA:  # entry (i, j) is entry i - j of the first column
        cols = np.where(offset >= 0, np.concatenate([diag, entries])[np.maximum(offset, 0)], 0)
    else:
        cols = np.where(offset >= 0, diag[:m], 0)
    return cols, shift if spec.shift else np.zeros(depth, dtype=np.int64)


def _linear_codes(spec: ScramblerSpec, m: int, depth: int,
                  rng: np.random.Generator) -> np.ndarray:
    """The matrix, then the shift; van der Corput point i gets M a_i + shift mod b.

    a_i holds the digits of i least significant first, so the points double
    (base 2) or grow b-fold per digit: the points with digit k of i equal to
    a add a times column k of M to the points before them.
    """
    base = spec.base
    cols, shift = _linear_columns(spec, m, depth, rng)
    if base == 2:
        words = _codes(np.vstack([cols.T, shift]), base)  # the m columns, then the shift
        codes = np.full(2**m, words[m])
        for k in range(m):
            np.bitwise_xor(codes[:2**k], words[k], out=codes[2**k:2**(k + 1)])
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
    base, m, depth = pts.base, pts.m, spec.depth
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


def _scramble_net(pts: NetPoints, spec: ScramblerSpec, rs: RandomStream,
                  kinds: frozenset[ScramblerKind]) -> NetPoints:
    """One scramble of one net by a spec of one of `kinds`; the output carries
    its exact strata."""
    if spec.kind not in kinds:
        raise ValueError(f"a {spec.kind.value} spec does not fit this scramble, which takes "
                         f"{', '.join(sorted(kind.value for kind in kinds))}")
    if spec.base != pts.base:  # every kind comes through here: the one base check
        raise ValueError(f"spec base {spec.base} does not match net base {pts.base}")
    if not is_net(pts):
        raise ValueError("input points do not form a (0, m, 1)-net")
    base, m, depth = pts.base, pts.m, spec.depth
    if spec.kind == ScramblerKind.JITTERED:
        u = rs.generator().random(pts.n)
        return NetPoints(base, m, _jittered_points(pts.strata, u), strata=pts.strata)
    codes = _scrambled_codes(pts, spec, rs)
    strata = (codes >> np.uint64(depth - m) if base == 2
              else codes // np.uint64(base ** (depth - m))).astype(np.int64)
    return NetPoints(base, m, _unit(codes, base, depth), strata=strata)


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

    One matrix (and one shift vector, if enabled) is drawn per call and
    applied to every point of the net, which is what keeps the scrambled
    points a net with probability one.
    """
    return _scramble_net(pts, spec, rs, LINEAR_KINDS)


def apply_scrambler(pts: NetPoints, spec: ScramblerSpec, rs: RandomStream) -> NetPoints:
    """Dispatch on spec.kind: one scramble of one net in base spec.base."""
    if spec.kind == ScramblerKind.NESTED:
        return scramble_nested(pts, spec, rs)
    if spec.kind == ScramblerKind.JITTERED:
        return scramble_jittered(pts, spec, rs)
    return scramble_linear(pts, spec, rs)
