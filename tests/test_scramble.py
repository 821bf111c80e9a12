from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scramble_reference import (
    _apply_linear,
    _apply_nested,
    _digit_values,
    _draw_matrix,
    input_digits,
    reference_digits,
    reference_points,
)

from rqmc_median.digits import default_depth
from rqmc_median.estimators import estimates
from rqmc_median.integrands import builtin
from rqmc_median.nets import NetPoints, is_net, van_der_corput_net
from rqmc_median.scramble import (
    LINEAR_KINDS,
    RandomStream,
    ScramblerKind,
    ScramblerSpec,
    _jittered_points,
    _scrambled_codes,
    _unit,
    apply_scrambler,
    scramble_jittered,
    scramble_linear,
    scramble_nested,
)

ALL_KINDS = list(ScramblerKind)
NESTED = ScramblerSpec(ScramblerKind.NESTED)
JITTERED = ScramblerSpec(ScramblerKind.JITTERED)


def _identity_tables(base, m):
    return [np.tile(np.arange(base, dtype=np.uint8), (base**k, 1)) for k in range(m)]


# ---------------------------------------------------------------- nested

def test_nested_identity_permutations_fix_input():
    net = van_der_corput_net(2, 3)
    digmat = input_digits(net, 10)
    out = _apply_nested(digmat, 2, _identity_tables(2, 3), np.zeros((8, 7), np.uint8))
    assert np.array_equal(out, digmat)


def test_nested_root_transposition_swaps_halves():
    # base 2, depth 1: the root permutation (1, 0) sends digit 0 to 1,
    # i.e. the point 0.0 to 0.5
    digmat = np.array([[0]], dtype=np.uint8)
    table = np.array([[1, 0]], dtype=np.uint8)
    out = _apply_nested(digmat, 2, [table], None)
    assert out.tolist() == [[1]]
    assert _digit_values(out, 2)[0] == 0.5


def test_nested_preserves_net_property_1000_streams():
    net = van_der_corput_net(2, 2)
    assert all(is_net(scramble_nested(net, NESTED, RandomStream(77, j)))
               for j in range(1000))


def test_nested_rejects_non_net_input():
    bad = NetPoints(2, 2, np.array([0.0, 0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        scramble_nested(bad, NESTED, RandomStream(1, 0))


# ---------------------------------------------------------------- jittered

def test_jittered_degenerate_streams():
    net = van_der_corput_net(2, 2)
    left = _jittered_points(net.strata, np.zeros(4))
    # stratum order of the radical-inverse net is (0, 2, 1, 3)
    assert left.tolist() == [0.0, 0.5, 0.25, 0.75]
    mid = _jittered_points(net.strata, np.full(4, 0.5))
    assert sorted(mid.tolist()) == [0.125, 0.375, 0.625, 0.875]


def test_jittered_offsets_uniform():
    net = van_der_corput_net(2, 2)
    reps = 10_000
    offs = np.empty((reps, 4))
    for j in range(reps):
        x = scramble_jittered(net, JITTERED, RandomStream(505, j)).points
        s = np.floor(x * 4).astype(int)
        offs[j, s] = x * 4 - s
    for col in range(4):
        u = np.sort(offs[:, col])
        i = np.arange(1, reps + 1)
        ks = max(np.max(i / reps - u), np.max(u - (i - 1) / reps))
        assert ks < 0.02


# ---------------------------------------------------------------- linear

def test_linear_identity_matrix_fixes_input():
    net = van_der_corput_net(2, 3)
    digmat = input_digits(net, 6)
    out = _apply_linear(digmat, 2, np.eye(6, dtype=np.int64), None)
    assert np.array_equal(out, digmat)


def test_linear_hand_matrix_product():
    # [[1,0],[1,1]] over GF(2) on digits (1,0): 0.5 -> 0.75
    digmat = np.array([[1, 0]], dtype=np.uint8)
    matrix = np.array([[1, 0], [1, 1]], dtype=np.int64)
    out = _apply_linear(digmat, 2, matrix, None)
    assert out.tolist() == [[1, 1]]
    assert _digit_values(out, 2)[0] == 0.75


@pytest.mark.parametrize("kind", sorted(LINEAR_KINDS, key=lambda k: k.value))
def test_linear_shift_off_fixes_zero(kind):
    net = van_der_corput_net(2, 3)
    spec = ScramblerSpec(kind, base=2, shift=False)
    for j in range(25):
        out = scramble_linear(net, spec, RandomStream(808, j))
        assert out.points[0] == 0.0  # the zero point is fixed by any linear map


@pytest.mark.parametrize(
    "kind", [k for k in ALL_KINDS if k is not ScramblerKind.JITTERED],
    ids=lambda k: k.value)
def test_marginal_uniformity(kind):
    # each output point index is marginally Uniform[0, 1) (shift on for the
    # linear families); jittered points are uniform on their stratum instead,
    # which test_jittered_offsets_uniform covers
    net = van_der_corput_net(2, 3)
    spec = ScramblerSpec(kind, base=2, shift=True)
    reps = 10_000
    pts = np.array([apply_scrambler(net, spec, RandomStream(909, j)).points
                    for j in range(reps)])
    i = np.arange(1, reps + 1)
    for col in range(net.n):
        u = np.sort(pts[:, col])
        ks = max(np.max(i / reps - u), np.max(u - (i - 1) / reps))
        assert ks < 0.02


def test_matrix_families_have_documented_shape():
    rng = np.random.default_rng(3)
    mat = _draw_matrix(ScramblerKind.MATOUSEK, 3, 6, rng)
    assert np.all(np.triu(mat, 1) == 0)
    assert np.all(np.diag(mat) >= 1)

    tez = _draw_matrix(ScramblerKind.TEZUKA, 3, 6, rng)
    assert np.all(np.triu(tez, 1) == 0)
    for d in range(6):  # constant along subdiagonals
        assert len(set(np.diag(tez, -d).tolist())) == 1
    assert tez[0, 0] >= 1

    stri = _draw_matrix(ScramblerKind.STRIPED, 3, 6, rng)
    assert np.all(np.triu(stri, 1) == 0)
    for j in range(6):  # constant nonzero columns
        col = stri[j:, j]
        assert len(set(col.tolist())) == 1 and col[0] >= 1


def test_linear_requires_prime_base():
    with pytest.raises(ValueError):
        ScramblerSpec(ScramblerKind.MATOUSEK, base=4)
    ScramblerSpec(ScramblerKind.NESTED, base=4)  # non-linear kinds take any base


def test_linear_rejects_base_mismatch():
    net = van_der_corput_net(2, 2)
    spec = ScramblerSpec(ScramblerKind.MATOUSEK, base=3)
    with pytest.raises(ValueError):
        scramble_linear(net, spec, RandomStream(1, 0))


SCRAMBLES = {scramble_nested: {ScramblerKind.NESTED}, scramble_jittered: {ScramblerKind.JITTERED},
             scramble_linear: LINEAR_KINDS}


@pytest.mark.parametrize(
    "scramble,kind",
    [(fn, kind) for fn, kinds in SCRAMBLES.items() for kind in ALL_KINDS if kind not in kinds],
    ids=lambda v: getattr(v, "__name__", getattr(v, "value", None)))
def test_scramblers_reject_other_kinds(scramble, kind):
    net = van_der_corput_net(2, 2)
    with pytest.raises(ValueError, match="does not fit this scramble"):
        scramble(net, ScramblerSpec(kind, base=2), RandomStream(1, 0))


def test_spec_shift_is_keyword_only():
    # a depth passed positionally, as ScramblerSpec(kind, base, depth), must not become the shift
    with pytest.raises(TypeError):
        ScramblerSpec(ScramblerKind.NESTED, 2, None)
    assert ScramblerSpec(ScramblerKind.MATOUSEK, 3, shift=False).shift is False


# ---------------------------------------------------------------- generic

@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("base,m", [(2, 0), (2, 4), (3, 2), (5, 3)])
def test_every_kind_preserves_net(kind, base, m):
    net = van_der_corput_net(base, m)
    spec = ScramblerSpec(kind, base=base)
    for j in range(10):
        assert is_net(apply_scrambler(net, spec, RandomStream(42, j)))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_apply_scrambler_rejects_base_mismatch(kind):
    for net_base, spec_base in ((3, 2), (2, 3)):
        net = van_der_corput_net(net_base, 2)
        with pytest.raises(ValueError, match="does not match net base"):
            apply_scrambler(net, ScramblerSpec(kind, base=spec_base), RandomStream(1, 0))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_determinism_bit_identical(kind):
    net = van_der_corput_net(2, 4)
    spec = ScramblerSpec(kind, base=2)
    seed = 123456789
    a = apply_scrambler(net, spec, RandomStream(seed, 7)).points
    b = apply_scrambler(net, spec, RandomStream(seed, 7)).points
    assert np.array_equal(a, b)
    c = apply_scrambler(net, spec, RandomStream(seed, 8)).points
    assert not np.array_equal(a, c)


def test_streams_reproducible_and_distinct():
    a = RandomStream(99, 1).generator().random(8)
    b = RandomStream(99, 1).generator().random(8)
    c = RandomStream(99, 2).generator().random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_validation():
    with pytest.raises(ValueError):
        RandomStream(-1, 0)
    with pytest.raises(ValueError):
        RandomStream(1 << 64, 0)
    with pytest.raises(ValueError):
        RandomStream(3, -2)


def test_nested_equals_jittered_in_distribution():
    # per-stratum offsets of nested scrambles behave like independent
    # uniforms: weak correlation across strata
    net = van_der_corput_net(2, 3)
    reps = 4000
    offs = np.empty((reps, 8))
    for j in range(reps):
        x = scramble_nested(net, NESTED, RandomStream(31337, j)).points
        s = np.floor(x * 8).astype(int)
        offs[j, s] = x * 8 - s
    corr = np.corrcoef(offs, rowvar=False)
    np.fill_diagonal(corr, 0.0)
    assert np.max(np.abs(corr)) < 0.08


# ---------------------------------------------------------------- reference

def _code_digits(codes, base, depth):
    """Digit matrix (n, depth) of uint64 codes, most significant digit first."""
    out = np.empty((len(codes), depth), dtype=np.uint8)
    rest = codes.copy()
    for k in range(depth - 1, -1, -1):
        rest, out[:, k] = np.divmod(rest, np.uint64(base))
    return out


def _check_against_reference(net, spec, rs):
    # floats bit for bit in base 2; digits exactly in the odd bases, where
    # the float conversion may differ from the reference in the last ulp
    out = apply_scrambler(net, spec, rs)
    depth = spec.depth
    if net.base == 2 or spec.kind == ScramblerKind.JITTERED:
        assert out.points.tobytes() == reference_points(net, spec, rs).tobytes()
        return
    codes = _scrambled_codes(net, spec, rs)
    assert np.array_equal(_code_digits(codes, net.base, depth), reference_digits(net, spec, rs))
    exact = np.array([float(Fraction(int(c), net.base**depth)) for c in codes])
    assert np.all(np.abs(out.points - exact) <= 2 * np.spacing(exact))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize(
    "m,base",
    [pytest.param(m, base, id=f"{m}-{base}") for m in (0, 1, 3, 6) for base in (2, 3, 5)]
    + [pytest.param(m, 2, id=f"{m}-2") for m in (9, 12)])
def test_scramblers_match_reference(kind, base, m):
    net = van_der_corput_net(base, m)
    shifts = (True, False) if kind in LINEAR_KINDS else (True,)
    for shift in shifts:
        spec = ScramblerSpec(kind, base=base, shift=shift)
        for j in (0, 1, 2, 2**32 + 7):
            _check_against_reference(net, spec, RandomStream(2024, j))


def test_base2_draws_are_fixed_bits_of_the_raw_words():
    # The base-2 scramblers read these draws off `random_raw` instead of
    # calling Generator; that is exact only while numpy's bounded integers
    # (Lemire's method) and its Fisher-Yates swap never reject a draw whose
    # range is a power of two and take fixed bits of next_uint32.
    note = ("numpy's bounded-integer algorithm (Lemire, via next_uint32 and buffered "
            "bytes) or its permuted swap changed; the base-2 scramblers in "
            "rqmc_median.scramble read their draws off the raw words by the old rules")
    for j in range(4):
        stream = RandomStream(77, j)  # each generator() call starts the stream afresh
        words = stream.generator().bit_generator.random_raw(64)
        halves = np.column_stack([words & 0xFFFFFFFF, words >> 32]).ravel()
        stream_bytes = ((halves[:, None] >> np.arange(0, 32, 8, dtype=np.uint64)) & 0xFF).ravel()
        assert np.array_equal(stream.generator().integers(0, 2, size=40, dtype=np.uint8),
                              stream_bytes[:40] >> 7), note
        assert np.array_equal(stream.generator().integers(0, 2, size=40, dtype=np.int64),
                              halves[:40] >> 31), note
        rng = stream.generator()
        assert rng.integers(1, 2) == 1, note
        assert np.array_equal(rng.integers(0, 2, size=3, dtype=np.int64), halves[:3] >> 31), note
        rng = stream.generator()
        rows = rng.permuted(np.tile(np.arange(2, dtype=np.uint8), (7, 1)), axis=1)
        assert np.array_equal(rows[:, 1], halves[:7] & 1), note  # swapped iff bit 0 is 0
        assert np.array_equal(rows[:, 0], 1 - rows[:, 1]), note
        # 7 halves taken: the pending high half of word 3 is the next buffer
        assert np.array_equal(rng.integers(0, 2, size=8, dtype=np.uint8),
                              stream_bytes[28:36] >> 7), note


@pytest.mark.parametrize("base", [2, 3, 5, 7, 11, 13])
def test_points_below_one_in_every_base(base):
    depth = default_depth(base)
    top = np.array([base**depth - 1], dtype=np.uint64)
    assert _unit(top, base, depth)[0] < 1.0
    for kind in ALL_KINDS:
        spec = ScramblerSpec(kind, base=base)
        for m in (0, 1, 2):
            net = van_der_corput_net(base, m)
            for j in range(20):
                out = apply_scrambler(net, spec, RandomStream(base, j))
                assert np.all(out.points < 1.0)
                assert is_net(out)
                assert is_net(NetPoints(base, m, out.points))  # strata read off the floats


def test_points_must_fit_their_integer_types():
    ScramblerSpec(ScramblerKind.NESTED, base=256)
    with pytest.raises(ValueError):  # digits are uint8
        ScramblerSpec(ScramblerKind.NESTED, base=257)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("base", [2, 3])
def test_other_nets_match_reference(kind, base):
    for m in (2, 10) if base == 2 else (2,):
        _check_other_nets(kind, base, m)


def _check_other_nets(kind, base, m):
    # nets other than the van der Corput net are read through their strata:
    # reordered, off the b**-m grid, or an equal float-only copy
    vdc = van_der_corput_net(base, m)
    n = base**m
    off_grid = (np.arange(n) + np.linspace(0.9, 0.1, n)) / n
    nets = [NetPoints(base, m, vdc.points[::-1]), NetPoints(base, m, vdc.points)]
    spec = ScramblerSpec(kind, base=base)
    if kind in LINEAR_KINDS:  # a linear scramble acts on every digit: van der Corput points only
        with pytest.raises(ValueError):
            apply_scrambler(NetPoints(base, m, off_grid), spec, RandomStream(5, 0))
    else:
        nets.append(NetPoints(base, m, off_grid))
    for net in nets:
        for j in range(3):
            _check_against_reference(net, spec, RandomStream(5, j))
    same = apply_scrambler(nets[1], spec, RandomStream(5, 0)).points
    assert same.tobytes() == apply_scrambler(vdc, spec, RandomStream(5, 0)).points.tobytes()


# ---------------------------------------------------------------- striped

def test_striped_collapses_in_every_base():
    # The striped matrix has constant columns, so every output digit past
    # position m - 1 is the same linear form of a point's first m digits plus
    # one shift digit: within-stratum offsets take at most b values, and the
    # variance falls far below sigma^2 / n^3 in odd bases too, where the
    # column constants are random (README, criterion 2)
    for base, m in ((2, 6), (3, 3), (5, 2)):
        net, spec = van_der_corput_net(base, m), ScramblerSpec(ScramblerKind.STRIPED, base=base)
        tail = np.uint64(base ** (spec.depth - m))
        for j in range(20):
            codes = _scrambled_codes(net, spec, RandomStream(7, j))
            assert len(np.unique(codes % tail)) <= base
    fs = [builtin("f1"), builtin("f2")]
    for base, m in ((3, 3), (5, 2)):
        n, keys = base**m, [(7, j) for j in range(1000)]
        for kind, low, high in (("striped", 0.0, 0.1), ("matousek", 0.5, np.inf)):
            est = estimates(fs, ScramblerSpec(kind, base=base), m, keys)
            ratios = np.var(est, axis=0, ddof=1) / [f.exact_sigma2 / n**3 for f in fs]
            assert np.all((low < ratios) & (ratios < high)), (kind, base, ratios)
