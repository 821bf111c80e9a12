import math
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
    float_net,
    input_digits,
    reference_digits,
    reference_points,
)

from rqmc_median.cli import DEFAULT_SEED
from rqmc_median.digits import default_depth
from rqmc_median.estimators import estimates
from rqmc_median.integrands import builtin
from rqmc_median.nets import is_net, van_der_corput_net
from rqmc_median.scramble import (
    LINEAR_KINDS,
    RandomStream,
    ScramblerKind,
    ScramblerSpec,
    _jittered_points,
    _scrambled_codes,
    _unit,
    apply_scrambler,
    derive_seed,
    scramble_jittered,
    scramble_linear,
    scramble_nested,
)
from rqmc_median.stats import ks_statistic

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
    bad = float_net(2, 2, [0.0, 0.1, 0.2, 0.3])
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
        assert ks_statistic(offs[:, col], lambda u: u) < 0.02


# ---------------------------------------------------------------- linear

def test_linear_identity_matrix_fixes_input():
    net = van_der_corput_net(2, 3)
    digmat = input_digits(net, 6)
    out = _apply_linear(digmat, 2, np.eye(6, dtype=np.int64), 0)
    assert np.array_equal(out, digmat)


def test_linear_hand_matrix_product():
    # [[1,0],[1,1]] over GF(2) on digits (1,0): 0.5 -> 0.75
    digmat = np.array([[1, 0]], dtype=np.uint8)
    matrix = np.array([[1, 0], [1, 1]], dtype=np.int64)
    out = _apply_linear(digmat, 2, matrix, 0)
    assert out.tolist() == [[1, 1]]
    assert _digit_values(out, 2)[0] == 0.75


@pytest.mark.parametrize(
    "kind", [k for k in ALL_KINDS if k is not ScramblerKind.JITTERED],
    ids=lambda k: k.value)
def test_marginal_uniformity(kind):
    # each output point index is marginally Uniform[0, 1) (the linear
    # families through their shift); jittered points are uniform on their
    # stratum instead, which test_jittered_offsets_uniform covers
    net = van_der_corput_net(2, 3)
    spec = ScramblerSpec(kind, base=2)
    reps = 10_000
    pts = np.array([apply_scrambler(net, spec, RandomStream(909, j)).points
                    for j in range(reps)])
    for col in range(net.n):
        assert ks_statistic(pts[:, col], lambda u: u) < 0.02


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


def test_spec_takes_only_kind_and_base():
    # linear kinds always shift, and a spec has no depth: a third argument is an error
    with pytest.raises(TypeError):
        ScramblerSpec(ScramblerKind.NESTED, 2, None)
    with pytest.raises(TypeError):
        ScramblerSpec(ScramblerKind.MATOUSEK, 2, shift=True)


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
        RandomStream(3, -2)
    # master seeds from 2**64 on are valid and seed numpy's generator as is
    want = np.random.default_rng(np.random.SeedSequence(entropy=2**64 + 5, spawn_key=(3,)))
    got = RandomStream(2**64 + 5, 3).generator().random(4)
    assert got.tobytes() == want.random(4).tobytes()


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
    net, spec = van_der_corput_net(base, m), ScramblerSpec(kind, base=base)
    for j in (0, 1, 2, 2**32 + 7):
        _check_against_reference(net, spec, RandomStream(2024, j))


@pytest.mark.parametrize("kind", sorted(LINEAR_KINDS), ids=lambda k: k.value)
@pytest.mark.parametrize("base,top", [(2, 12), (3, 6), (5, 4)], ids=["2", "3", "5"])
def test_linear_codes_match_reference_at_every_m(base, top, kind):
    # every base reads its columns off one table of draws; base 2 sums raw
    # bits into words, odd bases gather Generator digits.  The reference
    # draws its matrix and shift through Generator.integers and builds the
    # whole matrix.  Points bit for bit in base 2, digits exactly in odd bases.
    spec = ScramblerSpec(kind, base=base)
    for m in range(top + 1):
        net = van_der_corput_net(base, m)
        for j in (*range(15), 2**32 + 7):
            rs = RandomStream(606, j)
            codes = _scrambled_codes(net, spec, rs)
            if base == 2:
                assert (_unit(codes, 2, spec.depth).tobytes()
                        == reference_points(net, spec, rs).tobytes()), (m, j)
            else:
                assert np.array_equal(_code_digits(codes, base, spec.depth),
                                      reference_digits(net, spec, rs)), (m, j)


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
                assert is_net(float_net(base, m, out.points))  # strata read off the floats


def test_points_must_fit_their_integer_types():
    ScramblerSpec(ScramblerKind.NESTED, base=256)
    with pytest.raises(ValueError):  # digits are uint8
        ScramblerSpec(ScramblerKind.NESTED, base=257)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("base", [2, 3])
def test_other_nets_rejected(kind, base):
    for m in (2, 10) if base == 2 else (2,):
        _check_other_nets(kind, base, m)


def _check_other_nets(kind, base, m):
    # only the van der Corput net is scrambled: a reordered net or one off the
    # b**-m grid is rejected, though both are nets; an equal copy, float-only
    # or built before the net cache was cleared, scrambles as the cached net
    vdc = van_der_corput_net(base, m)
    n = base**m
    spec = ScramblerSpec(kind, base=base)
    for points in (vdc.points[::-1], (np.arange(n) + np.linspace(0.9, 0.1, n)) / n):
        net = float_net(base, m, points)
        assert is_net(net)
        with pytest.raises(ValueError, match="only the van der Corput net"):
            apply_scrambler(net, spec, RandomStream(5, 0))
    van_der_corput_net.cache_clear()
    cached = van_der_corput_net(base, m)
    assert cached is not vdc
    for copy in (float_net(base, m, vdc.points), vdc):
        for j in range(3):
            out = apply_scrambler(copy, spec, RandomStream(5, j))
            want = apply_scrambler(cached, spec, RandomStream(5, j))
            assert out.points.tobytes() == want.points.tobytes()
            assert out.strata.tobytes() == want.strata.tobytes()
            _check_against_reference(copy, spec, RandomStream(5, j))


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
        n = base**m
        for kind, low, high in (("striped", 0.0, 0.1), ("matousek", 0.5, np.inf)):
            est = estimates(fs, ScramblerSpec(kind, base=base), m, 7, range(1000))
            ratios = np.var(est, axis=0, ddof=1) / [f.exact_sigma2 / n**3 for f in fs]
            assert np.all((low < ratios) & (ratios < high)), (kind, base, ratios)
    # Every row part (h_1, ..., h_m) is nonzero, so no output digit is
    # constant over the net and the estimate of the integral of x is one
    # number: in base 2 the mean of depth-53 digits, (1 - 2**-53) / 2, and
    # 0.5 in odd bases, up to rounding at m = 1
    lin = builtin("linear")
    for base, ms in ((2, (1, 3, 8, 12)), (3, (1, 2, 3)), (5, (1, 2))):
        spec = ScramblerSpec(ScramblerKind.STRIPED, base=base)
        for m in ms:
            est = estimates([lin], spec, m, 5, range(500))[:, 0]
            if base == 2:
                assert np.all(est == 0.5 - 2.0**-54), (base, m)
            elif m == 1:
                assert np.all(np.abs(est - 0.5) <= 2.0**-53), (base, m)
            else:
                assert np.all(est == 0.5), (base, m)


def _no_zero_run(m, bits=52):
    """P(no run of m zeros in `bits` fair bits), by the trailing-run DP."""
    p = [1.0] + [0.0] * (m - 1)  # p[z]: probability of z trailing zeros, no run yet
    for _ in range(bits):
        p = [0.5 * sum(p)] + [0.5 * q for q in p[:-1]]
    return sum(p)


def _estimates_of_x(kind, m, count, base=2, seed=5):
    """Estimates of the integral of x from streams 0..count-1 of `seed`."""
    return estimates([builtin("linear")], ScramblerSpec(kind, base=base), m, seed,
                     range(count))[:, 0]


def _exact_law(kind, m):
    # The base-2 estimate of the integral of x is (1 - 2**-53) / 2 plus
    # sum over k in Z of (s_k - 1/2) 2**-k, where Z holds the output digits
    # m < k <= 53 whose row part is zero and s is the shift.  Every term is
    # nonzero, so P(estimate = 1/2 - 2**-54) = P(Z empty):
    # (1 - 2**-m)**(53 - m) for matousek, whose row parts are iid; for
    # tezuka, whose row parts are m consecutive entries of the first column,
    # the chance of no run of m zeros in its 52 random bits
    return (1 - 2.0**-m) ** (53 - m) if kind == "matousek" else _no_zero_run(m)


@pytest.mark.parametrize("m", [4, 6])
@pytest.mark.parametrize("kind", ["matousek", "tezuka"])
def test_linear_estimate_of_x_exact_law(kind, m):
    law, reps = _exact_law(kind, m), 10_000
    hit = np.mean(_estimates_of_x(kind, m, reps) == 0.5 - 2.0**-54)
    assert abs(hit - law) <= 5 * math.sqrt(law * (1 - law) / reps), (hit, law)


@pytest.mark.parametrize("base, m, digits", [(3, 3, 20), (5, 2, 14)])
def test_matousek_odd_base_estimate_of_x_exact_law(base, m, digits):
    # In an odd base the error against the depth-digit mean (1 - b**-depth)/2
    # is the sum over k in Z of (s_k - (b - 1)/2) b**-k, with s the shift,
    # and a term is zero when s_k is the middle digit.  With K = digits, a
    # nonzero term at k <= K makes |error| at least b**-K / 2 and the terms
    # past K sum to less, so |error| < b**-K / 2 iff no k in m < k <= K has a
    # nonzero term, which for matousek has probability b**-m (1 - 1/b)
    # independently per k
    law, reps = (1 - base**-m * (1 - 1 / base)) ** (digits - m), 4000
    exact = (1 - base ** -default_depth(base)) / 2
    err = _estimates_of_x("matousek", m, reps, base) - exact
    hit = np.mean(np.abs(err) < base**-digits / 2)
    assert abs(hit - law) <= 5 * math.sqrt(law * (1 - law) / reps), (hit, law)


@pytest.mark.parametrize("m", [4, 6])
@pytest.mark.parametrize("kind", ["matousek", "tezuka"])
def test_linear_median_of_15_estimate_of_x_exact_law(kind, m):
    # Off 1/2 - 2**-54 the sum over Z has the sign of its largest term,
    # that of s_k - 1/2 at the smallest k in Z, so an estimate lies below
    # or above with probability q = (1 - p0) / 2 each.  The median of 15 is
    # exact when at most 7 lie below and at most 7 above, with the counts
    # (N-, N0, N+) multinomial on (q, p0, q).
    p0, reps = _exact_law(kind, m), 1000
    q = (1 - p0) / 2
    law = sum(math.comb(15, lo) * math.comb(15 - lo, hi) * q ** (lo + hi) * p0 ** (15 - lo - hi)
              for lo in range(8) for hi in range(8))
    meds = np.median(_estimates_of_x(kind, m, 15 * reps).reshape(reps, 15), axis=1)
    hit = np.mean(meds == 0.5 - 2.0**-54)
    assert abs(hit - law) <= 5 * math.sqrt(law * (1 - law) / reps), (hit, law)


@pytest.mark.parametrize("m", [4, 6])
def test_nested_estimate_of_x_is_never_exact(m):
    # the contrast the median claim rests on: nested scrambling draws every
    # digit past m afresh, so no estimate and no median of 15 is exact
    est = _estimates_of_x("nested", m, 15_000)
    meds = np.median(est.reshape(1000, 15), axis=1)
    assert np.count_nonzero(est == 0.5 - 2.0**-54) == 0
    assert np.count_nonzero(meds == 0.5 - 2.0**-54) == 0


# A per-check sqrt(N) D bound from the asymptotic Kolmogorov tail,
# P(sqrt(N) D > x) ~ 2 exp(-2 x**2), which is 0.0010 at x = 1.95 (the
# finite-N tail is lighter).  The law test below makes 12 such checks on
# correct scramblers, so it fails one by chance at most 1.2 % of the time.
_KS_BOUND = 1.95


def _irwin_hall_cdf(s, n):
    """P(U_1 + ... + U_n <= s) for iid uniform U_i, exactly as a Fraction:
    the sum over k <= s of (-1)**k C(n, k) (s - k)**n, over n!."""
    num, den = Fraction(s).as_integer_ratio()
    total = sum((-1) ** k * math.comb(n, k) * (num - k * den) ** n
                for k in range(num // den + 1))
    return Fraction(total, math.factorial(n) * den**n)


def _median_of_15_cdf(p):
    """P(median of 15 iid draws <= s), from p = P(one draw <= s)."""
    return sum(math.comb(15, j) * p**j * (1 - p) ** (15 - j) for j in range(8, 16))


def _irwin_hall_distances(sums, n):
    """sqrt(N) D of the sums against Irwin-Hall(n), and of the medians of
    consecutive groups of 15 against their law, taken in floating point from
    the correctly rounded F."""
    meds = np.median(sums.reshape(-1, 15), axis=1)
    law = lambda xs: np.array([float(_irwin_hall_cdf(x, n)) for x in xs])
    single = ks_statistic(sums, law)
    median = ks_statistic(meds, lambda xs: _median_of_15_cdf(law(xs)))
    return math.sqrt(len(sums)) * single, math.sqrt(len(meds)) * median


@pytest.mark.parametrize("m", [1, 2, 4])
def test_nested_estimate_of_x_irwin_hall_law(m):
    # The nested half of the claim in closed form.  Nested scrambling is
    # distributed as jittered sampling, x_i = (i + u_i) / n with iid uniform
    # u_i, so S = n**2 (Q - 1/2) + n/2 = u_1 + ... + u_n is Irwin-Hall(n)
    # for f(x) = x, and a median of 15 estimates has the law
    # G = sum over j > 7 of C(15, j) F**j (1 - F)**(15 - j).  The finite
    # depth moves S by less than n 2**(m - 53).  S is exact in floating
    # point: Q >= 1/4, so Q - 1/2 is exact, and S, a multiple of
    # n**2 2**-54 in [0, n], fits in 54 - m bits.
    # 1000 medians of 15 per cell; cell seeds derive from DEFAULT_SEED.
    n, count = 2**m, 15 * 1000
    for index, kind in enumerate((ScramblerKind.NESTED, ScramblerKind.JITTERED)):
        q = _estimates_of_x(kind, m, count, seed=derive_seed(DEFAULT_SEED, index, m))
        distances = _irwin_hall_distances(n * n * (q - 0.5) + n / 2, n)
        assert max(distances) < _KS_BOUND, (kind, distances)
    # the failing side: one offset shared by every stratum, S = n u
    u = np.random.default_rng(derive_seed(DEFAULT_SEED, 2, m)).random(count)
    distances = _irwin_hall_distances(n * u, n)
    assert min(distances) > _KS_BOUND, distances
