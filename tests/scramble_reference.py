"""Reference scramblers: one replicate at a time on explicit digit matrices.

This is the digit path of rqmc-median 0.1.0, kept as the oracle the
uint64-code scramblers in `rqmc_median.scramble` are checked against.  It
draws from the same streams in the same order (one `permuted` call per tree
level for nested scrambling), so in base 2 the scramblers must reproduce
its floats bit for bit and in every base its digits exactly.
"""

import numpy as np

from rqmc_median.digits import expand
from rqmc_median.scramble import LINEAR_KINDS, ScramblerKind


def input_digits(net, depth: int) -> np.ndarray:
    """Digit matrix (n, depth) of a net's points, most significant first.

    A point on the b**-m grid (a van der Corput point, in any order) has the
    m digits of its stratum and a zero tail; any other point is expanded
    from its float by `digits.expand`, as 0.1.0 did.
    """
    n = net.n
    grid = np.rint(net.points * n)
    out = np.zeros((n, depth), dtype=np.uint8)
    rest = grid.astype(np.int64)
    for k in range(net.m - 1, -1, -1):
        rest, out[:, k] = np.divmod(rest, net.base)
    for i in np.flatnonzero(grid / n != net.points):
        out[i] = expand(net.points[i], net.base, depth).digits
    return out


def _digit_values(digmat: np.ndarray, base: int) -> np.ndarray:
    """Map digit rows to reals: row -> sum_k row[k] * base**-(k+1).

    For base 2 at depth <= 53 the dot product is exact (every partial sum of
    distinct negative powers of two spans at most 53 bits).
    """
    depth = digmat.shape[1]
    weights = np.power(float(base), -np.arange(1, depth + 1, dtype=np.float64))
    return digmat.astype(np.float64) @ weights


def _nested_tables(rng: np.random.Generator, base: int, m: int) -> list[np.ndarray]:
    """Permutation tables for digit levels 1..m, drawn level-major.

    Table k (0-based) has one row per length-k digit prefix in lexicographic
    order; each row is an independent uniform permutation of {0, ..., b-1}.
    """
    tables = []
    for k in range(m):
        tiled = np.tile(np.arange(base, dtype=np.uint8), (base**k, 1))
        tables.append(rng.permuted(tiled, axis=1))
    return tables


def _apply_nested(digmat: np.ndarray, base: int, tables: list[np.ndarray],
                  tail: np.ndarray | None) -> np.ndarray:
    """Permute digits by prefix-keyed tables; overwrite digits past len(tables)."""
    n, depth = digmat.shape
    m = len(tables)
    out = np.empty_like(digmat)
    prefix = np.zeros(n, dtype=np.int64)
    for k in range(m):
        col = digmat[:, k].astype(np.int64)
        out[:, k] = tables[k][prefix, col]
        prefix = prefix * base + col
    if depth > m:
        out[:, m:] = digmat[:, m:] if tail is None else tail
    return out


def _draw_matrix(kind: ScramblerKind, base: int, depth: int,
                 rng: np.random.Generator) -> np.ndarray:
    """One lower-triangular depth x depth scrambling matrix mod base.

    Diagonal entries are uniform on {1, ..., b-1}; free entries uniform on
    {0, ..., b-1}.  Draw order per family: matousek draws the diagonal then a
    full square block, of which only the strictly-lower part is used; tezuka
    draws its first column top-down; striped draws its column constants left
    to right.
    """
    if kind == ScramblerKind.MATOUSEK:
        h = rng.integers(1, base, size=depth, dtype=np.int64)
        g = rng.integers(0, base, size=(depth, depth), dtype=np.int64)
        return np.tril(g, -1) + np.diag(h)
    if kind == ScramblerKind.TEZUKA:
        col = np.empty(depth, dtype=np.int64)
        col[0] = rng.integers(1, base)
        if depth > 1:
            col[1:] = rng.integers(0, base, size=depth - 1, dtype=np.int64)
        offset = np.arange(depth)[:, None] - np.arange(depth)[None, :]
        return np.where(offset >= 0, col[np.clip(offset, 0, depth - 1)], 0)
    if kind == ScramblerKind.STRIPED:
        h = rng.integers(1, base, size=depth, dtype=np.int64)
        return np.tril(np.broadcast_to(h, (depth, depth)))
    raise ValueError(f"{kind.value} is not a linear scrambling kind")


def _apply_linear(digmat: np.ndarray, base: int, matrix: np.ndarray,
                  shift: np.ndarray | None) -> np.ndarray:
    """x = (M a + shift) mod b applied to every digit row."""
    prod = digmat.astype(np.float64) @ matrix.T.astype(np.float64)  # exact small ints
    out = prod.astype(np.int64)
    if shift is not None:
        out += shift
    return (out % base).astype(np.uint8)


def reference_digits(net, spec, rs) -> np.ndarray:
    """Scrambled digit matrix (n, depth) of one net for a nested or linear spec."""
    base, m, depth = net.base, net.m, spec.depth
    digmat = input_digits(net, depth)
    rng = rs.generator()
    if spec.kind == ScramblerKind.NESTED:
        tables = _nested_tables(rng, base, m)
        tail = None
        if depth > m:
            tail = rng.integers(0, base, size=(net.n, depth - m), dtype=np.uint8)
        return _apply_nested(digmat, base, tables, tail)
    assert spec.kind in LINEAR_KINDS
    matrix = _draw_matrix(spec.kind, base, depth, rng)
    shift = rng.integers(0, base, size=depth, dtype=np.int64) if spec.shift else None
    return _apply_linear(digmat, base, matrix, shift)


def reference_points(net, spec, rs) -> np.ndarray:
    """Scrambled points of one net, as the 0.1.0 scramblers computed them."""
    if spec.kind == ScramblerKind.JITTERED:
        n = net.n
        u = rs.generator().random(n)
        strata = net.strata
        x = (strata + u[strata]) / n
        return np.minimum(x, np.nextafter((strata + 1.0) / n, 0.0))
    return _digit_values(reference_digits(net, spec, rs), net.base)
