"""Vectorised kernels over batches of simplex tuples.

A kernel reads a point table points (n, D) and index tuples tuples (B, m):
row b names the m points of tuple b, repeats allowed.  A stack, a
(B, m, D) array of B tuples of m points each, is its own table under
arange tuples (_stack); the stack kernels curvature_terms, psin_sq_at,
pair_and_content_sq and content_sq take stacks and read them that way.
cd_sq takes the Monte Carlo path's points and drawn tuples as they are,
and psin_with_replacement indexes one table holding X and then the
replacement points.  These kernels are the only implementation of the
content, polar-sine and curvature formulas: the scalar functions of
geometry.py call them with B = 1.  Gram determinants are clamped at zero
(the Gram matrix is positive semidefinite); tuples with coinciding
coordinates get polar sine 0.

Every kernel reads one dot table per tuple, laid out by a plan cached per
(m, D, bases) (_plan).  The difference of each pair of vertices is formed
once; the table holds each squared pair length and each distinct
off-diagonal Gram entry once, each a contiguous einsum over the coordinates
of a pair row with itself or of two gathered pair rows (6 dot products per
triangle, where a Gram einsum at every base takes 21).  A pair row is the
difference of its two endpoints gathered from the point table by index,
with no stack of the block's points between: the same subtraction of the
same values as on a stack.  The Gram matrix at base b is read off the dot
table: vertex v's diagonal entry is the squared length of the pair {v, b},
and the entry of v, w is the dot product of the rows of {v, b} and
{w, b}.  Each entry carries the bits that a Gram einsum of the edge
vectors x_v - x_b gives:

- a pair row holds x_v - x_b or x_b - x_v, and the second is the exact
  negation of the first (rounding is symmetric); rows touching the first
  base are formed as x_v - x_b, so that base needs no negation;
- a dot product is unchanged when its factors swap, and negating one
  factor negates it exactly, except that a zero stays +0, as 0.0 - dot
  does;
- both are the same einsum inner loop over contiguous coordinates, so the
  products accumulate in the same order;
- det, trace and eigvalsh then see the same matrix, and every later step
  (edge products, maxima, sums over a tuple's vertices) runs per row in
  the same order; _fold spells the products, maxima and minima over a few
  columns as one elementwise op per column, which gives a reduction's
  bits.

So the content at base p of a tuple depends only on x_p and on the other
points in position order: it is the base-0 content of the tuple that moves
x_p to the front.  ordered_cd_sq_sum, the estimators' exact sum, stores it
once per ordered index tuple of a point set (8 B each; at most 80 MB at
the estimators' auto limit of 10M tuples) and reads every vertex's content
back off a transposed view of that table: curvature_terms' bits with one
determinant per tuple.  It walks the tuples in slabs of consecutive
leading indices (_slabs) and reads each Gram matrix at base i off one
table einsum("jd,kd->jk", X - x_i, X - x_i), which runs the pair-row
einsum's inner loop, so has its bits; a BLAS product does not.  Its pair
lengths are measure's squared-distance table, the same einsum per pair.

cd_sq is the Monte Carlo kernel: c_d^2 per index tuple and nothing else,
with an optional separation floor applied to the dot table before any Gram
matrix is formed.  curvature_terms is the diagnostic kernel (verify,
geometry, decomposition_check) and returns every per-tuple term.  All
three hand their contents and pair lengths to _assemble, the one c_d^2
assembly.

Tuples are processed in row blocks whose working arrays, index gathers
included, hold about BLOCK_ENTRIES entries of 8 B in all, so memory stays
a small multiple of the input.  No value depends on another row, so the
block size moves no bit.  tests/test_batch.py holds the direct formulas
and checks every output against them bit for bit.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .measure import _sq_dists

# Floats held by the working arrays of one row block, all arrays together.
BLOCK_ENTRIES = 2**19

_EPS = np.finfo(float).eps


class _Plan(NamedTuple):
    """Index tables for stacks of m points with Gram matrices at `bases`.

    Pair p joins the vertices ia[p] and ic[p], the unordered pairs in
    lexicographic order; its row holds x_ia - x_ic, pointing away from the
    first base where it touches that base, so that base's Gram matrix needs
    no negation.  The first P columns of a block's dot table are the
    squared pair lengths, each the dot product of a pair row with itself;
    column P + j is the dot product of the pair rows left[j] and right[j],
    one distinct off-diagonal Gram entry.  The columns in neg are taken as
    0.0 - dot.  `gram` lists each base's k x k matrix as columns of that
    table.
    """

    m: int
    ia: np.ndarray  # (P,)
    ic: np.ndarray  # (P,)
    left: np.ndarray  # (Q,)
    right: np.ndarray  # (Q,)
    neg: np.ndarray  # the negated columns, all >= P
    gram: np.ndarray  # (len(bases) * k * k,)
    edges: np.ndarray  # (m, m-1): the pairs {i, j}, j != i ascending, at vertex i
    rows: int  # rows per block


@functools.lru_cache(maxsize=None)
def _plan(m: int, D: int, bases: tuple) -> _Plan:
    ia, ic = np.triu_indices(m, k=1)
    away = ia == bases[0]
    ia[away], ic[away] = ic[away], bases[0]
    pair = {}
    for p, (a, c) in enumerate(zip(ia.tolist(), ic.tolist())):
        pair[a, c] = pair[c, a] = p
    P = len(ia)
    left, right, neg = [], [], []
    column = {}
    gram = []
    for b in bases:
        verts = [v for v in range(m) if v != b]
        for v in verts:
            for w in verts:
                if v == w:
                    gram.append(pair[v, b])
                    continue
                key = (min(v, w), max(v, w), b)
                if key not in column:
                    column[key] = P + len(left)
                    left.append(pair[v, b])
                    right.append(pair[w, b])
                    # the row of {v, b} holds x_v - x_b or its negation
                    if (ia[pair[v, b]] == v) != (ia[pair[w, b]] == w):
                        neg.append(column[key])
                gram.append(column[key])
    # the two index gathers of the pair endpoints, the two point gathers and
    # their differences, two gathers of pair rows per off-diagonal column, the
    # table, the Gram stack and what det makes of it
    width = 2 * P + 3 * P * D + 2 * len(left) * D + P + len(left) + 3 * len(gram)
    return _Plan(
        m,
        ia,
        ic,
        np.array(left, dtype=np.intp),
        np.array(right, dtype=np.intp),
        np.array(neg, dtype=np.intp),
        np.array(gram, dtype=np.intp),
        np.array([[pair[i, j] for j in range(m) if j != i] for i in range(m)], dtype=np.intp),
        max(1, BLOCK_ENTRIES // max(width, 1)),  # width 0: one point, no pairs
    )


def _stack(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stack T (B, m, D) as its own point table, under arange tuples."""
    B, m, D = T.shape
    return T.reshape(-1, D), np.arange(B * m).reshape(B, m)


def _blocks(points: np.ndarray, tuples: np.ndarray, bases: tuple):
    """(plan, rows, dot table) for each row block of the index tuples
    (B, m) into the point table (n, D)."""
    B, m = tuples.shape
    plan = _plan(m, points.shape[1], bases)
    for lo in range(0, B, plan.rows):
        rows = slice(lo, lo + plan.rows)
        # the plan's indices lie in range(m): "clip" only skips a bounds check
        block = tuples[rows]
        diff = np.subtract(points.take(block.take(plan.ia, axis=1, mode="clip"), axis=0),
                           points.take(block.take(plan.ic, axis=1, mode="clip"), axis=0))
        P = diff.shape[1]
        dots = np.empty((len(block), P + len(plan.left)))
        np.einsum("bjk,bjk->bj", diff, diff, out=dots[:, :P])
        np.einsum("bjk,bjk->bj", diff.take(plan.left, axis=1), diff.take(plan.right, axis=1), out=dots[:, P:])
        if plan.neg.size:
            dots[:, plan.neg] = 0.0 - dots.take(plan.neg, axis=1)
        yield plan, rows, dots


def _gram(dots: np.ndarray, plan: _Plan) -> np.ndarray:
    """Gram matrices at the plan's bases, shape (n, len(bases), k, k)."""
    k = plan.m - 1
    return dots.take(plan.gram, axis=1).reshape(len(dots), -1, k, k)


def _content(G: np.ndarray) -> np.ndarray:
    """Squared Gram content of each k x k matrix of a stack, clamped at 0.

    Matrices whose determinant falls below the determinant noise bound
    (~ k eps trace^k) are re-evaluated through eigenvalues with the
    matrix_rank cut (k eps ev_max): exactly rank-deficient tuples, e.g.
    d+2 points inside a d-plane, come out 0 rather than noise on the order
    of eps * edge scale^2k.  On a thin simplex the content keeps a relative
    error of order eps / tau^2 (tau = content / diam^k);
    geometry._error_model_rtol is the one tolerance built on that model.
    """
    # An LU pivot that underflows to 0 (subnormal edges) makes det warn; its
    # determinant comes out 0, below the floor, so eigvalsh settles it.
    # np.maximum(x, 0.0) is what np.clip(x, 0.0, None) calls.
    with np.errstate(divide="ignore"):
        det = np.maximum(np.linalg.det(G), 0.0)
    k = G.shape[-1]
    floor = 10.0 * k * _EPS * G.trace(axis1=-2, axis2=-1) ** k
    suspect = det < floor
    if suspect.any():
        ev = np.maximum(np.linalg.eigvalsh(G[suspect]), 0.0)
        ev[ev < k * _EPS * ev[:, -1:]] = 0.0
        det[suspect] = ev.prod(axis=1)
    return det


def _ratio(num, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0, else +0.0 (a NaN den too): the bits of a
    masked divide, whose inner loop is slow on the exact path's slabs."""
    positive = den > 0.0
    out = num / np.where(positive, den, 1.0)
    out[~positive] = 0.0
    return out


def pair_and_content_sq(T: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared pair lengths (B, P), the pairs a < c in lexicographic order,
    and the squared Gram content at the given base vertex (B,), clamped at
    0, off one dot table; see _content for the rank rule."""
    B, m, _ = T.shape
    d2 = np.empty((B, m * (m - 1) // 2))
    out = np.empty(B)
    for plan, rows, dots in _blocks(*_stack(T), (range(m)[base],)):
        d2[rows] = dots[:, : d2.shape[1]]
        out[rows] = _content(_gram(dots, plan))[:, 0]
    return d2, out


def content_sq(T: np.ndarray, base: int) -> np.ndarray:
    """Squared Gram content at the given base vertex, clamped at 0."""
    return pair_and_content_sq(T, base)[1]


def psin_sq_at(T: np.ndarray, i: int) -> np.ndarray:
    """Squared polar sine at vertex i per tuple, 0 on coinciding coordinates."""
    return _psin_sq_at(*_stack(T), i)


def _psin_sq_at(points: np.ndarray, tuples: np.ndarray, i: int) -> np.ndarray:
    """psin_sq_at over index tuples into a point table."""
    i = range(tuples.shape[1])[i]
    out = np.empty(len(tuples))
    for plan, rows, dots in _blocks(points, tuples, (i,)):
        out[rows] = _ratio(_content(_gram(dots, plan))[:, 0], _fold(np.multiply, dots.take(plan.edges[i], axis=1)))
    return out


def _fold(ufunc, cols: np.ndarray) -> np.ndarray:
    """ufunc applied across axis 1 of cols in index order: the bits of
    ufunc.reduce(cols, axis=1) for np.multiply, whose reduction runs in that
    order, and for np.maximum and np.minimum, which are exact; without a
    reduction's per-row loop over a few entries."""
    out = cols[:, 0].copy()
    for j in range(1, cols.shape[1]):
        ufunc(out, cols[:, j], out=out)
    return out


def _assemble(vol2: np.ndarray, pair2: np.ndarray, plan: _Plan):
    """Per row, from the squared Gram contents (n, m) at every vertex and
    the squared pair lengths (n, P) in the plan's pair order: the squared
    edge products (n, m) at every vertex, the squared diameter (n,), the
    squared polar sines (n, m), diam^{d(d+1)} (n,) and c_d^2 (n,) in the
    canonical polar-sine form.  The one c_d^2 assembly: curvature_terms,
    cd_sq and ordered_cd_sq_sum call it."""
    d = vol2.shape[1] - 2
    # gathered one row per (vertex, edge), so each fold step reads whole rows
    prods = _fold(np.multiply, pair2.T.take(plan.edges, axis=0)).T
    diam2 = _fold(np.maximum, pair2)
    psin2 = _ratio(vol2, prods)
    # diam^{d(d+1)} = (diam^2)^{d(d+1)/2}; d(d+1)/2 is an integer
    denom = diam2 ** (d * (d + 1) // 2)
    cd_sq = np.zeros(len(denom))
    np.divide(psin2.sum(axis=1), (d + 2) * denom, out=cd_sq, where=denom > 0.0)
    return prods, diam2, psin2, denom, cd_sq


def cd_sq(points: np.ndarray, tuples: np.ndarray, floor2: float | None = None) -> np.ndarray:
    """c_d^2 per index tuple (B, m) into the point table (n, D), in the
    canonical polar-sine form: the Monte Carlo kernel.  Row b of tuples
    names the points of its tuple, repeats allowed; a stack T is cd_sq of
    _stack(T).

    With floor2, a tuple whose squared minimal separation is below floor2
    gets 0.  Such tuples are dropped after the dot table, before any Gram
    matrix is read or determinant taken, and a block in which none passes
    goes no further.  No value depends on another row, so a passing tuple
    carries curvature_terms' bits.
    """
    B, m = tuples.shape
    P = m * (m - 1) // 2
    out = np.zeros(B)
    for plan, rows, dots in _blocks(points, tuples, tuple(range(m))):
        if floor2 is not None:
            keep = separated(_fold(np.minimum, dots[:, :P]), floor2)
            if not keep.any():
                continue
            dots = dots[keep]
            rows = rows.start + np.flatnonzero(keep)
        out[rows] = _assemble(_content(_gram(dots, plan)), dots[:, :P], plan)[-1]
    return out


def curvature_terms(T: np.ndarray) -> dict:
    """Every per-tuple term, for the diagnostic callers (verify, geometry,
    decomposition_check); cd_sq is the Monte Carlo kernel.

    Returns a dict with
      diam2       (B,)   squared diameters
      min_sep2    (B,)   squared minimal pairwise separations
      psin2       (B, m) squared polar sines at every vertex
      content0_sq (B,)   squared Gram content at the base vertex x_0
      cd_sq       (B,)   c_d^2 in the canonical polar-sine form
      psin0_nrm   (B,)   psin^2_{x_0}(X) / diam^{d(d+1)}  (the decomposition integrand)
      cd_sq_vol   (B,)   volume form of c_d^2 (cross-check path)
    """
    B, m, _ = T.shape
    d = m - 2
    P = m * (m - 1) // 2
    out = {
        "diam2": np.empty(B),
        "min_sep2": np.empty(B),
        "psin2": np.empty((B, m)),
        "content0_sq": np.empty(B),
        "cd_sq": np.empty(B),
        "psin0_nrm": np.zeros(B),
        "cd_sq_vol": np.zeros(B),
    }
    for plan, rows, dots in _blocks(*_stack(T), tuple(range(m))):
        vol2 = _content(_gram(dots, plan))
        prods, diam2, psin2, denom, cd2 = _assemble(vol2, dots[:, :P], plan)
        pos = denom > 0.0
        out["diam2"][rows] = diam2
        out["min_sep2"][rows] = _fold(np.minimum, dots[:, :P])
        out["psin2"][rows] = psin2
        out["content0_sq"][rows] = vol2[:, 0]
        out["cd_sq"][rows] = cd2
        np.divide(psin2[:, 0], denom, out=out["psin0_nrm"][rows], where=pos)
        inv_sum = _ratio(1.0, prods).sum(axis=1)
        good = pos & (prods > 0.0).all(axis=1)
        np.divide(vol2[:, 0] * inv_sum, (d + 2) * denom, out=out["cd_sq_vol"][rows], where=good)
    return out


def separated(min_sep2: np.ndarray, floor2: float) -> np.ndarray:
    """Which tuples, by squared minimal separation, reach the squared
    separation floor: the one floor rule of both estimator paths."""
    return min_sep2 >= floor2


def _at(table: np.ndarray, ps: tuple, ix: tuple) -> np.ndarray:
    """table[t_{ps[0]}, t_{ps[1]}, ..] over a slab of ordered tuples t whose
    positions take the indices ix (_slabs), as a view that broadcasts over
    the slab: position p >= f, f the first position ix does not fix, runs
    along slab axis p - f."""
    f = next(p for p, i in enumerate(ix) if isinstance(i, slice))
    axes = [p - f for p in ps if isinstance(ix[p], slice)]
    x = np.transpose(table[tuple(ix[p] for p in ps)], np.argsort(axes))
    return np.expand_dims(x, tuple(sorted(set(range(len(ix) - f)) - set(axes))))


def _slabs(m: int, arity: int, width: int):
    """(first tuple, index, shape) per slab of the m**arity ordered tuples,
    in flat (C) order.  A slab's index fixes positions 0..L-2 to one point
    each, runs position L-1 over consecutive points and every later
    position over all m points; its shape has one axis per position from
    L-1 on.  L is the shortest prefix whose m**(arity-L) tuples at one
    prefix fit BLOCK_ENTRIES / width, and position L-1 takes as many points
    as fit, so a slab holds several bases when L = 1."""
    L = next((L for L in range(1, arity - 1) if m ** (arity - L) * width <= BLOCK_ENTRIES), arity - 1)
    step = max(1, BLOCK_ENTRIES // (m ** (arity - L) * width))
    for prefix in np.ndindex(*(m,) * (L - 1)):
        for a in range(0, m, step):
            b = min(a + step, m)
            first = int(np.ravel_multi_index(prefix + (a,), (m,) * L)) * m ** (arity - L)
            yield first, prefix + (slice(a, b),) + (slice(None),) * (arity - L), (b - a,) + (m,) * (arity - L)


def ordered_cd_sq_sum(
    points: np.ndarray, weights: np.ndarray, arity: int, floor2: float | None, chunk: int
) -> float:
    """The exact sum of c_d^2(t) * prod weights[t] over the m**arity ordered
    index tuples t of the points (m, D): np.sum over each run of `chunk`
    tuples in flat (C) order, the runs added in order.  With floor2, a
    tuple whose squared minimal separation is below floor2 contributes 0
    and costs no determinant; separation does not depend on the order of a
    tuple, so both passes skip it.

    The content at vertex p of t is the base-0 content of the tuple (t_p,
    the others in position order), with the bits curvature_terms gives at
    base p.  So a table pass stores the base-0 content of every ordered
    tuple, 8 B per tuple, and a sum pass hands each tuple's contents at
    every vertex and its pair lengths to _assemble.  Both walk the same
    slabs (_slabs) and read every table through views that broadcast over
    a slab (_at), with no per-tuple gather.  The table pass forms one dot
    table einsum("jd,kd->jk", X - x_i, X - x_i) per base i and reads each
    Gram matrix at i off it, entries (a, b) and (b, a) alike from [t_a,
    t_b]: that einsum runs the pair-row einsum's inner loop over the same
    products in the same order, so it gives _blocks' bits, where a BLAS
    product of the same rows sums in another order and does not
    (tests/test_estimators.py holds this up to D = 64).  In the sum pass
    vertex p's contents, content[t_p, t_0, .., t_{p-1}, t_{p+1}, ..], are
    a transposed view of the table, the pair lengths views of the m x m
    _sq_dists(points, points) table, and the weights views multiplied in
    position order, as np.prod multiplies.
    """
    m = len(points)
    total = m**arity
    k = arity - 1
    plan = _plan(arity, 1, (0,))  # edge lists depend on neither D nor the bases
    pairs = [(a, c) for a in range(arity) for c in range(a + 1, arity)]  # _assemble's pair order
    pair_sq = _sq_dists(points, points)
    width = arity * (arity + 5)  # floats per tuple held by either pass
    content = np.zeros((m,) * arity)

    def lengths(ix: tuple, shape: tuple) -> np.ndarray:
        """Squared pair lengths (P, n) of a slab's tuples, in `pairs` order."""
        out = np.empty((len(pairs),) + shape)
        for q, (a, c) in enumerate(pairs):
            out[q] = _at(pair_sq, (a, c), ix)
        return out.reshape(len(out), -1)

    def passing(pair2: np.ndarray):
        """Offsets of the tuples, by their pair lengths (P, n), that reach the floor."""
        return slice(None) if floor2 is None else np.flatnonzero(separated(_fold(np.minimum, pair2.T), floor2))

    for lo, ix, shape in _slabs(m, arity, width):
        bases = np.atleast_1d(np.arange(m)[ix[0]])
        dots = np.empty((len(bases), m, m))
        for i, out in zip(bases.tolist(), dots):
            y = points - points[i]
            np.einsum("jd,kd->jk", y, y, out=out)
        # the same index, with the base read from dots' own axis 0
        at_base = (slice(None) if isinstance(ix[0], slice) else 0,) + ix[1:]
        G = np.empty(shape + (k, k))
        for a in range(1, arity):
            G[..., a - 1, a - 1] = _at(dots.diagonal(axis1=1, axis2=2), (0, a), at_base)
            for b in range(a + 1, arity):
                G[..., a - 1, b - 1] = G[..., b - 1, a - 1] = _at(dots, (0, a, b), at_base)
        G = G.reshape(-1, k, k)
        on = slice(None) if floor2 is None else passing(lengths(ix, shape))
        content.reshape(-1)[lo : lo + len(G)][on] = _content(G[on])

    acc = 0.0
    terms = np.empty(min(chunk, total))
    for lo, ix, shape in _slabs(m, arity, width):
        vol2 = np.empty((arity,) + shape)
        for p in range(arity):  # content[t_p, t_0, .., t_{p-1}, t_{p+1}, ..]
            vol2[p] = _at(content, (p, *range(p), *range(p + 1, arity)), ix)
        pair2 = lengths(ix, shape)
        on = passing(pair2)
        vals = np.zeros(pair2.shape[1])
        vals[on] = _assemble(vol2.reshape(arity, -1)[:, on].T, pair2[:, on].T, plan)[-1]
        w = _at(weights, (0,), ix)
        for p in range(1, arity):
            w = w * _at(weights, (p,), ix)
        vals *= w.reshape(-1)
        # each run of `chunk` tuples that ends in this slab is summed
        cuts = [lo, *range(lo - lo % chunk + chunk, lo + len(vals), chunk), lo + len(vals)]
        for a, b in zip(cuts, cuts[1:]):
            terms[a % chunk : a % chunk + b - a] = vals[a - lo : b - lo]
            if b % chunk == 0 or b == total:
                acc += float(np.sum(terms[: (b - 1) % chunk + 1]))
    return acc


def psin_with_replacement(X: np.ndarray, ys: np.ndarray, i: int) -> np.ndarray:
    """psin^2_{x_0}(X(y, i)) for a batch of replacement points ys (n, D):
    index tuples into one table holding the m points of X and then ys, X's
    own indices everywhere but position i, which runs over ys."""
    m = len(X)
    tuples = np.broadcast_to(np.arange(m), (len(ys), m)).copy()
    tuples[:, i] = m + np.arange(len(ys))
    return _psin_sq_at(np.concatenate([X, ys]), tuples, 0)


def affine_span_dist_sq(points: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Squared distances from xs[b] to the affine hull of points[b].

    points: (B, k, D), xs: (B, D).  Uses the pseudoinverse of the edge Gram
    matrix, so rank-deficient spanning sets (repeated or affinely dependent
    points) give the distance to the hull they actually span.  |v|^2 - v.proj(v)
    cancels on thin simplices; geometry.affine_hull_distance forms the
    residual vector instead.
    """
    v = xs - points[:, 0, :]
    E = points[:, 1:, :] - points[:, 0:1, :]
    if E.shape[1] == 0:
        return np.einsum("bk,bk->b", v, v)
    G = np.einsum("bik,bjk->bij", E, E)
    Ev = np.einsum("bik,bk->bi", E, v)
    sol = np.einsum("bij,bj->bi", np.linalg.pinv(G), Ev)
    out = np.einsum("bk,bk->b", v, v) - np.einsum("bi,bi->b", sol, Ev)
    return np.clip(out, 0.0, None)
