"""Vectorised kernels over stacks of simplex tuples.

A stack is a (B, m, D) array: B tuples of m points each.  These kernels are
the only implementation of the content, polar-sine and curvature formulas:
the scalar functions of geometry.py call them with B = 1.  Gram determinants are clamped at zero
(the Gram matrix is positive semidefinite); tuples with coinciding
coordinates get polar sine 0.

Every kernel reads one dot table per tuple, laid out by a plan cached per
(m, D, bases) (_plan).  The difference of each pair of vertices is formed
once; the table holds each squared pair length and each distinct
off-diagonal Gram entry once, as one contiguous einsum over the coordinates
of two pair rows (6 dot products per triangle, where a Gram einsum at every
base takes 21).  The Gram matrix at base b is read off the table: vertex
v's diagonal entry is the squared length of the pair {v, b}, and the entry
of v, w is the dot product of the rows of {v, b} and {w, b}.  Each entry
carries the bits that a Gram einsum of the edge vectors x_v - x_b gives:

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
  the same order.

So the content at base p of a tuple depends only on x_p and on the other
points in position order: it is the base-0 content of the tuple that moves
x_p to the front.  content_table evaluates it once per ordered index tuple
of a point set, and ordered_cd_sq reads every vertex's content there; that
gives curvature_terms' bits with one determinant per tuple instead of one
per vertex.  The table costs 8 B per ordered tuple: 16.8 MB for the 128^3
tuples of 128 points at d = 1, at most 80 MB at the estimators' auto limit
of 10M tuples.  Both paths assemble c_d^2 in _assemble.

Stacks are processed in row blocks whose working arrays hold about
BLOCK_ENTRIES floats in all, so memory stays a small multiple of the
input.  No value depends on another row, so the block size moves no bit.
tests/test_batch.py holds the direct formulas and checks every output
against them bit for bit.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# Floats held by the working arrays of one row block, all arrays together.
BLOCK_ENTRIES = 2**19

_EPS = np.finfo(float).eps


class _Plan(NamedTuple):
    """Index tables for stacks of m points with Gram matrices at `bases`.

    Pair p joins the vertices ia[p] and ic[p], the unordered pairs in
    lexicographic order; its row holds x_ia - x_ic, pointing away from the
    first base where it touches that base, so that base's Gram matrix needs
    no negation.  Column j of a block's dot table is the dot product of the
    pair rows left[j] and right[j], taken as 0.0 - dot where neg[j].  The
    first P columns are the squared pair lengths, the others the distinct
    off-diagonal Gram entries; `gram` lists each base's k x k matrix as
    columns of that table.
    """

    m: int
    ia: np.ndarray  # (P,)
    ic: np.ndarray  # (P,)
    left: np.ndarray  # (P + Q,)
    right: np.ndarray  # (P + Q,)
    neg: np.ndarray | None  # (P + Q,) bool; None when no column is negated
    gram: np.ndarray  # (len(bases) * k * k,)
    edges: np.ndarray  # (m, m-1): the pairs {i, j}, j != i ascending, at vertex i
    rows: int  # rows per block


@functools.lru_cache(maxsize=None)
def _plan(m: int, D: int, bases: tuple) -> _Plan:
    ia, ic = np.triu_indices(m, k=1)
    if bases:
        away = ia == bases[0]
        ia[away], ic[away] = ic[away], bases[0]
    pair = {}
    for p, (a, c) in enumerate(zip(ia.tolist(), ic.tolist())):
        pair[a, c] = pair[c, a] = p
    left, right, neg = list(range(len(ia))), list(range(len(ia))), [False] * len(ia)
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
                    column[key] = len(left)
                    left.append(pair[v, b])
                    right.append(pair[w, b])
                    # the row of {v, b} holds x_v - x_b or its negation
                    neg.append((ia[pair[v, b]] == v) != (ia[pair[w, b]] == w))
                gram.append(column[key])
    # pair differences and their two gathers, two gathers of pair rows per
    # dot-table column, the table, the Gram stack and what det makes of it
    width = 3 * len(ia) * D + 2 * len(left) * D + len(left) + 3 * len(gram)
    return _Plan(
        m,
        ia,
        ic,
        np.array(left, dtype=np.intp),
        np.array(right, dtype=np.intp),
        np.array(neg) if any(neg) else None,
        np.array(gram, dtype=np.intp),
        np.array([[pair[i, j] for j in range(m) if j != i] for i in range(m)], dtype=np.intp),
        max(1, BLOCK_ENTRIES // max(width, 1)),  # width 0: one point, no pairs
    )


def _blocks(T: np.ndarray, bases: tuple):
    """(plan, rows, dot table) for each row block of the stack T."""
    B, m, D = T.shape
    plan = _plan(m, D, bases)
    for lo in range(0, B, plan.rows):
        rows = slice(lo, lo + plan.rows)
        block = T[rows]
        diff = np.subtract(block.take(plan.ia, axis=1), block.take(plan.ic, axis=1))
        dots = np.einsum("bjk,bjk->bj", diff.take(plan.left, axis=1), diff.take(plan.right, axis=1))
        if plan.neg is not None:
            np.subtract(0.0, dots, out=dots, where=plan.neg)
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
    """num / den where den > 0, else 0."""
    return np.divide(num, den, out=np.zeros(den.shape), where=den > 0.0)


def pairwise_sq(T: np.ndarray) -> np.ndarray:
    """Squared distance matrices, shape (B, m, m)."""
    B, m, _ = T.shape
    out = np.zeros((B, m, m))
    for plan, rows, dots in _blocks(T, ()):
        out[rows, plan.ia, plan.ic] = dots
        out[rows, plan.ic, plan.ia] = dots
    return out


def pair_and_content_sq(T: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared pair lengths (B, P), the pairs a < c in lexicographic order,
    and the squared Gram content at the given base vertex (B,), clamped at
    0, off one dot table; see _content for the rank rule."""
    B, m, _ = T.shape
    d2 = np.empty((B, m * (m - 1) // 2))
    out = np.empty(B)
    for plan, rows, dots in _blocks(T, (range(m)[base],)):
        d2[rows] = dots[:, : d2.shape[1]]
        out[rows] = _content(_gram(dots, plan))[:, 0]
    return d2, out


def content_sq(T: np.ndarray, base: int) -> np.ndarray:
    """Squared Gram content at the given base vertex, clamped at 0."""
    return pair_and_content_sq(T, base)[1]


def psin_sq_at(T: np.ndarray, i: int) -> np.ndarray:
    """Squared polar sine at vertex i per tuple, 0 on coinciding coordinates."""
    i = range(T.shape[1])[i]
    out = np.empty(len(T))
    for plan, rows, dots in _blocks(T, (i,)):
        out[rows] = _ratio(_content(_gram(dots, plan))[:, 0], dots.take(plan.edges[i], axis=1).prod(axis=1))
    return out


def _assemble(vol2: np.ndarray, prods: np.ndarray, diam2: np.ndarray):
    """Squared polar sines (n, m), diam^{d(d+1)} (n,) and c_d^2 (n,) in the
    canonical polar-sine form, from the squared Gram contents (n, m) and
    squared edge products (n, m) at every vertex and the squared diameters
    (n,).  The one c_d^2 assembly: curvature_terms and ordered_cd_sq call it."""
    d = vol2.shape[1] - 2
    psin2 = _ratio(vol2, prods)
    # diam^{d(d+1)} = (diam^2)^{d(d+1)/2}; d(d+1)/2 is an integer
    denom = diam2 ** (d * (d + 1) // 2)
    cd_sq = np.zeros(len(denom))
    np.divide(psin2.sum(axis=1), (d + 2) * denom, out=cd_sq, where=denom > 0.0)
    return psin2, denom, cd_sq


def curvature_terms(T: np.ndarray) -> dict:
    """Everything the estimators need, per tuple.

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
    for plan, rows, dots in _blocks(T, tuple(range(m))):
        d2 = dots[:, :P]
        vol2 = _content(_gram(dots, plan))
        prods = dots.take(plan.edges, axis=1).prod(axis=2)
        diam2 = d2.max(axis=1)
        psin2, denom, cd_sq = _assemble(vol2, prods, diam2)
        pos = denom > 0.0
        out["diam2"][rows] = diam2
        out["min_sep2"][rows] = d2.min(axis=1)
        out["psin2"][rows] = psin2
        out["content0_sq"][rows] = vol2[:, 0]
        out["cd_sq"][rows] = cd_sq
        np.divide(psin2[:, 0], denom, out=out["psin0_nrm"][rows], where=pos)
        inv_sum = _ratio(1.0, prods).sum(axis=1)
        good = pos & (prods > 0.0).all(axis=1)
        np.divide(vol2[:, 0] * inv_sum, (d + 2) * denom, out=out["cd_sq_vol"][rows], where=good)
    return out


def separated(min_sep2: np.ndarray, floor2: float) -> np.ndarray:
    """Which tuples, by squared minimal separation, reach the squared
    separation floor: the one floor rule of both estimator paths."""
    return min_sep2 >= floor2


# content_table's entry for a tuple below the separation floor; a content
# is clamped at 0, so no content takes this value.
BELOW_FLOOR = -1.0


class ContentTable(NamedTuple):
    """What ordered_cd_sq reads for the ordered index tuples of one point set."""

    pair_sq: np.ndarray  # (m, m) squared pair lengths
    content: np.ndarray  # (m**arity,) base-0 Gram content per tuple, flat C order
    arity: int
    floored: bool  # whether tuples below a separation floor hold BELOW_FLOOR


def _index_tuples(lo: int, hi: int, m: int, arity: int) -> np.ndarray:
    """The ordered index tuples with flat (C order) indices lo..hi-1, one
    row per position: (arity, n) int32 digits in base m.  A table of m^3
    entries or more keeps m, and the pair indices below m^2, far inside
    int32."""
    t = np.empty((arity, hi - lo), dtype=np.int32)
    flat = np.arange(lo, hi)
    for p in range(arity - 1, 0, -1):
        np.divmod(flat, m, out=(flat, t[p]))
    t[0] = flat
    return t


def _tuple_pair_sq(pair_sq: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Squared pair lengths (P, n) of the index tuples t (arity, n), the
    pairs in lexicographic order."""
    ia, ic = np.triu_indices(len(t), k=1)
    return pair_sq.take(t[ia] * len(pair_sq) + t[ic])


def content_table(points: np.ndarray, arity: int, floor2: float | None) -> ContentTable:
    """The pair table of the points (m, D) and the squared base-0 Gram
    content of each of their m**arity ordered index tuples.

    With floor2, the entries of tuples whose squared minimal separation is
    below floor2 hold BELOW_FLOOR instead, and cost no determinant.
    Separation does not depend on the order of a tuple, so every entry that
    ordered_cd_sq reads for a passing tuple holds its content.  The table
    costs 8 B per ordered tuple.
    """
    m, D = points.shape
    pair_sq = pairwise_sq(points[None])[0]
    content = np.empty(m**arity)
    rows = _plan(arity, D, (0,)).rows
    for lo in range(0, len(content), rows):
        hi = min(lo + rows, len(content))
        t = _index_tuples(lo, hi, m, arity)
        if floor2 is None:
            content[lo:hi] = content_sq(points.take(t.T, axis=0), 0)
            continue
        keep = separated(_tuple_pair_sq(pair_sq, t).min(axis=0), floor2)
        block = content[lo:hi]
        block[~keep] = BELOW_FLOOR
        block[keep] = content_sq(points.take(t[:, keep].T, axis=0), 0)
    return ContentTable(pair_sq, content, arity, floor2 is not None)


def ordered_cd_sq(table: ContentTable, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The ordered index tuples with flat indices lo..hi-1 (n, arity) and
    their c_d^2 (n,), read off the tables; 0 for tuples below the
    separation floor, whose entries in the content table mark them and
    which never reach the assembly.

    The content at vertex p of tuple t is the base-0 content of the tuple
    (t_p, the others in position order): the same Gram matrix, so the same
    bits, as curvature_terms forms at base p.  Pair lengths, diameters,
    separations and edge products are gathers of the pair table, laid out
    one row per pair or vertex so that each reduction runs over rows.
    """
    m, arity = len(table.pair_sq), table.arity
    t = _index_tuples(lo, hi, m, arity)
    plan = _plan(arity, 1, ())  # pair order and edge lists do not depend on D
    # row p: the coefficients of t's entries in the flat index of the tuple
    # (t_p, the others in position order)
    powers = m ** np.arange(arity - 1, -1, -1)
    rotate = np.array([np.insert(powers[1:], p, powers[0]) for p in range(arity)])
    P = len(plan.ia)
    # per tuple: pair indices, their two gathers and the pair lengths; the
    # rotated indices, contents, edge factors, products and polar sines
    rows = max(1, BLOCK_ENTRIES // (4 * P + arity * (arity + 4)))
    out = np.zeros(t.shape[1])
    for b in range(0, len(out), rows):
        tb = t[:, b : b + rows]
        sel = slice(b, b + tb.shape[1])
        if table.floored:
            keep = table.content[lo + b : lo + b + tb.shape[1]] != BELOW_FLOOR
            tb, sel = tb[:, keep], b + np.flatnonzero(keep)
        d2 = _tuple_pair_sq(table.pair_sq, tb)
        vol2 = table.content.take(rotate @ tb)
        prods = d2.take(plan.edges, axis=0).prod(axis=1)
        out[sel] = _assemble(vol2.T, prods.T, d2.max(axis=0))[2]
    return t.T, out


def psin_with_replacement(X: np.ndarray, ys: np.ndarray, i: int) -> np.ndarray:
    """psin^2_{x_0}(X(y, i)) for a batch of replacement points ys (n, D)."""
    n = len(ys)
    T = np.broadcast_to(X, (n,) + X.shape).copy()
    T[:, i, :] = ys
    return psin_sq_at(T, 0)


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
