"""The pair-plan kernels of _batch against the direct formulas, bit for bit.

The reference functions below are the direct evaluation the kernels
replace: distances from an (B, m, m, D) broadcast of differences, and at
each base a Gram einsum of the edge vectors that np.delete leaves, on the
coordinate stack points[tuples] where a kernel reads index tuples.  Every
kernel output must carry the same bits (compared as uint64, so a -0.0 or a
NaN payload counts too), at every tuple size, scale and row-block seam.
"""

import math
import tracemalloc

import numpy as np
import pytest

from menger import _batch

# Inverse products of subnormal squared edges, and their sums, overflow in
# both paths alike.
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

EPS = np.finfo(float).eps
# At 1e100 contents and edge products overflow to inf, and their ratios
# and products with 0 are NaN, in both paths alike.
nan_at_1e100 = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")


def ref_pairwise_sq(T):
    diff = T[:, :, None, :] - T[:, None, :, :]
    return np.einsum("bijk,bijk->bij", diff, diff)


def ref_content_sq(T, base):
    E = np.delete(T, base, axis=1) - T[:, base, None, :]
    G = np.einsum("bik,bjk->bij", E, E)
    with np.errstate(divide="ignore"):
        det = np.clip(np.linalg.det(G), 0.0, None)
    k = G.shape[1]
    floor = 10.0 * k * EPS * np.trace(G, axis1=1, axis2=2) ** k
    suspect = det < floor
    if suspect.any():
        ev = np.clip(np.linalg.eigvalsh(G[suspect]), 0.0, None)
        ev[ev < k * EPS * ev[:, -1:]] = 0.0
        det[suspect] = ev.prod(axis=1)
    return det


def ref_edge_prod_sq(d2, i):
    col = d2[:, i, :].copy()
    col[:, i] = 1.0
    return col.prod(axis=1)


def ref_psin_sq_at(T, i):
    num = ref_content_sq(T, i)
    den = ref_edge_prod_sq(ref_pairwise_sq(T), i)
    out = np.zeros(len(T))
    ok = den > 0.0
    out[ok] = num[ok] / den[ok]
    return out


def ref_curvature_terms(T):
    B, m, _ = T.shape
    d = m - 2
    d2 = np.clip(ref_pairwise_sq(T), 0.0, None)
    offdiag = ~np.eye(m, dtype=bool)
    diam2 = d2[:, offdiag].max(axis=1) if B else np.zeros(0)
    min_sep2 = d2[:, offdiag].min(axis=1) if B else np.zeros(0)
    vol2 = ref_content_sq(T, 0)
    psin2 = np.empty((B, m))
    prods = np.empty((B, m))
    for i in range(m):
        prods[:, i] = ref_edge_prod_sq(d2, i)
        num = vol2 if i == 0 else ref_content_sq(T, i)
        ok = prods[:, i] > 0.0
        psin2[:, i] = 0.0
        psin2[ok, i] = num[ok] / prods[ok, i]
    denom = diam2 ** (d * (d + 1) // 2)
    pos = denom > 0.0
    cd_sq = np.zeros(B)
    cd_sq[pos] = psin2[pos].sum(axis=1) / ((d + 2) * denom[pos])
    psin0_nrm = np.zeros(B)
    psin0_nrm[pos] = psin2[pos, 0] / denom[pos]
    inv = np.zeros((B, m))
    allpos = prods > 0.0
    inv[allpos] = 1.0 / prods[allpos]
    good = pos & allpos.all(axis=1)
    cd_sq_vol = np.zeros(B)
    cd_sq_vol[good] = vol2[good] * inv[good].sum(axis=1) / ((d + 2) * denom[good])
    return {
        "diam2": diam2,
        "min_sep2": min_sep2,
        "psin2": psin2,
        "content0_sq": vol2,
        "cd_sq": cd_sq,
        "psin0_nrm": psin0_nrm,
        "cd_sq_vol": cd_sq_vol,
    }


def ref_psin_with_replacement(X, ys, i):
    """The broadcast form: X copied once per y, y written over position i,
    polar sines of that stack."""
    T = np.broadcast_to(X, (len(ys),) + X.shape).copy()
    T[:, i, :] = ys
    return _batch.psin_sq_at(T, 0)


def table(T):
    """The stack T as its own point table under arange index tuples."""
    B, m, D = T.shape
    return T.reshape(-1, D), np.arange(B * m).reshape(B, m)


def assert_bits_equal(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype == np.float64
    bad = got.view(np.uint64) != want.view(np.uint64)
    assert not bad.any(), f"{bad.sum()} of {bad.size} entries differ, first {got[bad][:3]} vs {want[bad][:3]}"


def assert_kernels_match(T):
    m = T.shape[1]
    upper = ref_pairwise_sq(T)[:, np.triu(np.ones((m, m), dtype=bool), k=1)]
    for i in range(-1, m):
        assert_bits_equal(_batch.content_sq(T, i), ref_content_sq(T, i))
        assert_bits_equal(_batch.psin_sq_at(T, i), ref_psin_sq_at(T, i))
        d2, content = _batch.pair_and_content_sq(T, i)
        assert_bits_equal(d2, upper)
        assert_bits_equal(content, ref_content_sq(T, i))
    got, want = _batch.curvature_terms(T), ref_curvature_terms(T)
    assert got.keys() == want.keys()
    for key in want:
        assert_bits_equal(got[key], want[key])
    assert_bits_equal(_batch.cd_sq(*table(T)), want["cd_sq"])


def stack(rng, B, m, D):
    """B tuples at scales 1e-3..1e3, with the degenerate cases every
    formula branch needs: repeated points, a coinciding pair, collinear
    and flat tuples, tuples whose squared edges are subnormal, and integer
    points, whose dot products and determinants cancel exactly."""
    T = rng.normal(size=(B, m, D)) * 10.0 ** rng.uniform(-3, 3, size=(B, 1, 1))
    T[1::7, 1] = T[1::7, 0]
    T[2::7] = T[2::7, :1]
    T[3::7, :, 1:] = 0.0  # on a line
    T[4::7, :, -1] = 0.0  # in a hyperplane
    T[5::7] *= 1e-160  # squared edges ~ 1e-320
    T[6::7] = rng.integers(-1, 2, size=T[6::7].shape)
    return T


@pytest.mark.parametrize("D", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_kernels_match_direct_formulas(m, D):
    rng = np.random.default_rng(100 * m + D)
    for B in (0, 1, 300):
        assert_kernels_match(stack(rng, B, m, D))
    T = stack(rng, 60, m, D)
    for s in (1e-3, 1.0, 1e3):
        assert_kernels_match(s * T)


@nan_at_1e100
@pytest.mark.parametrize("m", [3, 4, 5])
def test_psin_with_replacement_matches_direct_formula(small_blocks, m):
    rng = np.random.default_rng(m)
    X = rng.normal(size=(m, 3))
    for n in (0, 1, 7, 40):
        ys = np.concatenate([rng.normal(size=(n, 3)), X[:1], X[1:2], 1e-160 * X[:1]])
        for s in (1e-100, 1.0, 1e100):
            for i in range(1, m):
                T = np.broadcast_to(s * X, (len(ys),) + X.shape).copy()
                T[:, i, :] = s * ys
                got = _batch.psin_with_replacement(s * X, s * ys, i)
                assert_bits_equal(got, ref_psin_sq_at(T, 0))
                assert_bits_equal(got, ref_psin_with_replacement(s * X, s * ys, i))


@pytest.fixture
def small_blocks(monkeypatch):
    """Row blocks of a few rows; the plans cache their block size."""
    monkeypatch.setattr(_batch, "BLOCK_ENTRIES", 2**9)
    _batch._plan.cache_clear()
    yield
    _batch._plan.cache_clear()


@pytest.mark.parametrize("m, D", [(3, 2), (4, 3), (6, 7)])
def test_values_do_not_depend_on_the_row_block(small_blocks, m, D):
    rows = _batch._plan(m, D, tuple(range(m))).rows
    assert rows < 10
    rng = np.random.default_rng(m)
    for B in (rows - 1, rows, rows + 1, 3 * rows + 2):
        assert_kernels_match(stack(rng, B, m, D))


@pytest.mark.parametrize("m, D", [(3, 2), (4, 3), (6, 7)])
def test_cd_sq_floor_drops_tuples_before_any_determinant(small_blocks, content_rows, m, D):
    rows = _batch._plan(m, D, tuple(range(m))).rows
    rng = np.random.default_rng(10 + m)
    T = stack(rng, 4 * rows + 3, m, D)
    # the whole second block sits below any positive floor
    T[rows : 2 * rows, 1] = T[rows : 2 * rows, 0]
    want = ref_curvature_terms(T)
    sep2 = want["min_sep2"]
    on_it = float(np.sort(sep2)[len(sep2) // 3])  # some tuples sit on the floor
    for floor2 in (0.0, on_it, float(np.median(sep2[sep2 > 0])), float(sep2.max()), math.inf):
        keep = sep2 >= floor2
        content_rows.clear()
        assert_bits_equal(_batch.cd_sq(*table(T), floor2), np.where(keep, want["cd_sq"], 0.0))
        # one call per block with a passing tuple, holding those tuples only
        passing = [int(keep[lo : lo + rows].sum()) for lo in range(0, len(T), rows)]
        assert content_rows == [n for n in passing if n], floor2
        assert floor2 == 0.0 or passing[1] == 0
    assert content_rows == []  # nothing reaches the floor of +inf


def index_tuples(rng, B, m, n):
    """B index tuples into n points, with the repeats a sampler draws: a
    repeated pair, a tuple of one index, two indices alternating."""
    t = rng.integers(0, n, size=(B, m))
    t[1::5, 1] = t[1::5, 0]
    t[2::5] = t[2::5, :1]
    t[3::5, 1::2] = t[3::5, :1]
    return t


@nan_at_1e100
@pytest.mark.parametrize("m, D", [(3, 2), (4, 3), (6, 7)])
def test_cd_sq_on_index_tuples_matches_the_gathered_stack(small_blocks, m, D):
    rows = _batch._plan(m, D, tuple(range(m))).rows
    rng = np.random.default_rng(20 + m)
    points = stack(rng, 20, 2, D).reshape(-1, D)  # mixed scales, copies, subnormal and integer points
    for B in (0, 1, rows, rows + 1, 3 * rows + 2):
        tuples = index_tuples(rng, B, m, len(points))
        for s in (1e-100, 1.0, 1e100):
            want = ref_curvature_terms(s * points[tuples])
            sep2 = want["min_sep2"]
            floors = [None, 0.0, float(np.median(sep2)) if B else 1.0, math.inf]
            for floor2 in floors:
                keep = sep2 >= (0.0 if floor2 is None else floor2)
                got = _batch.cd_sq(s * points, tuples, floor2)
                assert_bits_equal(got, np.where(keep, want["cd_sq"], 0.0))


def test_ratio_is_zero_off_positive_denominators():
    num = np.array([[1.0, -2.0, 3.0, 4.0, 5.0, np.inf], [7.0, 0.0, -1.0, 2.0, 3.0, 1.0]]).T  # strided
    den = np.array([[2.0, 0.0, -1.0, np.nan, -0.0, 3.0], [np.inf, 5.0, 1e-300, 0.0, 4.0, 2.0]]).T
    with np.errstate(all="raise"):
        out = _batch._ratio(num, den)
    want = np.array([[0.5, 0.0, 0.0, 0.0, 0.0, np.inf], [0.0, 0.0, -1.0 / 1e-300, 0.0, 0.75, 0.5]]).T
    assert out.shape == den.shape
    assert np.array_equal(out.view(np.int64), want.view(np.int64))  # +0.0 off the mask


def test_base_and_vertex_indices_are_checked():
    T = np.zeros((2, 3, 2))
    with pytest.raises(IndexError):
        _batch.content_sq(T, 3)
    with pytest.raises(IndexError):
        _batch.psin_sq_at(T, -4)


@pytest.mark.parametrize(
    "kernel, shape",
    [
        pytest.param(_batch.curvature_terms, (100_000, 4, 3), id="shape0"),
        pytest.param(_batch.curvature_terms, (262_144, 3, 2), id="shape1"),
        pytest.param(lambda T: _batch.cd_sq(*table(T)), (100_000, 4, 3), id="cd_sq-shape0"),
        pytest.param(lambda T: _batch.cd_sq(*table(T)), (262_144, 3, 2), id="cd_sq-shape1"),
    ],
)
def test_curvature_terms_memory_is_a_small_multiple_of_the_input(kernel, shape):
    # a (B, m, m, D) broadcast and m Gram stacks at once peaked at 5x the
    # input; row blocks leave the outputs (0.8x and 1.5x here for
    # curvature_terms, a tenth of that for cd_sq) and the arange index
    # tuples (1/D of the input) plus a block
    T = np.random.default_rng(0).normal(size=shape)
    tracemalloc.start()
    try:
        kernel(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * T.nbytes
