"""Independent, loop-based evaluations used as oracles by the tests.

Everything here is written from the defining formulas with plain Python
loops and dictionary lookups, deliberately avoiding the package's matrix
pipelines, so agreement between the two routes is meaningful.
"""

import math
from itertools import combinations

import numpy as np

from hdxwalk.complex_core import WEIGHT_TOL, ComplexError, PureComplex, canonical_face


def weights_from_facets(facets, facet_weights):
    """Recompute the full weight map straight from the recursion."""
    d = len(facets[0]) - 1
    total = sum(facet_weights)
    out = {}
    for i in range(-1, d + 1):
        denom = math.comb(d + 1, i + 1)
        for F, wF in zip(facets, facet_weights):
            for sub in combinations(F, i + 1):
                out[sub] = out.get(sub, 0.0) + wF / total / denom
    return out


def link_scan(X, sigma):
    """Link of ``sigma`` by scanning every face of ``X`` for those over it,
    uncached: the second route for ``link_of``, which reads the star index."""
    sigma = canonical_face(sigma)
    i = len(sigma) - 1
    d_link = X.top_dim - i - 1
    sset = set(sigma)
    w_sigma = X.weight[sigma]
    faces_by_dim = {}
    weight = {}
    for j in range(-1, d_link + 1):
        denom = math.comb(i + j + 2, i + 1) * w_sigma
        lst = []
        for tau in X.faces(i + j + 1):
            if sset <= set(tau):
                rho = tuple(v for v in tau if v not in sset)
                lst.append(rho)
                weight[rho] = X.weight[tau] / denom
        faces_by_dim[j] = sorted(lst)
    return PureComplex(d_link, faces_by_dim, weight)


def validate_scan(X, tol=WEIGHT_TOL):
    """``PureComplex.validate`` with its purity and recursion checks done by
    scanning every facet for every face.  Same checks, order and messages,
    less the finiteness and ascending-tuple checks of ``validate``."""
    d = X.top_dim
    for k in range(-1, d + 1):
        lst = X.faces_by_dim[k]
        if sorted(lst) != list(lst):
            raise ComplexError(f"faces of dimension {k} are not sorted")
        for face in lst:
            if len(face) != k + 1:
                raise ComplexError(f"face {face} filed under dimension {k}")
            if X.weight[face] <= 0:
                raise ComplexError(f"non-positive weight on {face}")
            if k >= 0:
                for sub in combinations(face, k):
                    if sub not in X.weight:
                        raise ComplexError(
                            f"closure violated: {sub} missing under {face}"
                        )
    if abs(X.weight[()] - 1.0) > tol:
        raise ComplexError("weight of the empty face is not 1")
    top = set(X.facets)
    for k in range(-1, d):
        for face in X.faces_by_dim[k]:
            fset = set(face)
            if not any(fset <= set(F) for F in top):
                raise ComplexError(f"purity violated at {face}")
        total = sum(X.weight[f] for f in X.faces_by_dim[k])
        if abs(total - 1.0) > tol:
            raise ComplexError(f"weights of dimension {k} sum to {total!r}, not 1")
    if abs(sum(X.weight[f] for f in top) - 1.0) > tol:
        raise ComplexError("facet weights do not sum to 1")
    if X.from_facets:
        for k in range(-1, d):
            denom = math.comb(d + 1, k + 1)
            for face in X.faces_by_dim[k]:
                fset = set(face)
                expect = sum(X.weight[F] for F in top if fset <= set(F)) / denom
                if abs(expect - X.weight[face]) > tol:
                    raise ComplexError(f"weight recursion violated at {face}")
    return True


def link_weight(X, sigma, rho):
    """w_sigma(rho) by the defining ratio."""
    i = len(sigma) - 1
    j = len(rho) - 1
    top = tuple(sorted(set(sigma) | set(rho)))
    return X.weight[top] / (math.comb(i + j + 2, i + 1) * X.weight[sigma])


def inner_product_loops(X, k, f_vals, g_vals):
    return sum(
        X.weight[face] * f_vals[pos] * g_vals[pos]
        for pos, face in enumerate(X.faces(k))
    )


def diff_loops(X, k, f_vals):
    """(d_k f)(s) = average of f over the k-subfaces of s."""
    out = []
    for sigma in X.faces(k + 1):
        acc = 0.0
        for tau in combinations(sigma, k + 1):
            acc += f_vals[X.face_index[tau]]
        out.append(acc / (k + 2))
    return np.array(out)


def adjoint_diff_loops(X, k, f_vals):
    """(d*_k f)(t) = sum over link vertices v of w_t(v) f(t | v)."""
    out = []
    for tau in X.faces(k):
        tset = set(tau)
        acc = 0.0
        for sigma in X.faces(k + 1):
            if tset <= set(sigma):
                (v,) = set(sigma) - tset
                acc += link_weight(X, tau, (v,)) * f_vals[X.face_index[sigma]]
        out.append(acc)
    return np.array(out)


def nonlazy_matrix_loops(X, k):
    """Walk probabilities w_s(t - s)/(k+1) between k-faces spanning a
    common (k+1)-face."""
    faces_k = X.faces(k)
    n = len(faces_k)
    mat = np.zeros((n, n))
    for a, sigma in enumerate(faces_k):
        for b, tau in enumerate(faces_k):
            union = tuple(sorted(set(sigma) | set(tau)))
            if a != b and len(union) == k + 2 and union in X.weight:
                mat[a, b] = link_weight(X, sigma, tuple(set(tau) - set(sigma))) / (k + 1)
    return mat


def up_down_matrix_loops(X, k):
    faces_k = X.faces(k)
    n = len(faces_k)
    mat = np.zeros((n, n))
    for a, sigma in enumerate(faces_k):
        mat[a, a] = 1.0 / (k + 2)
        for b, tau in enumerate(faces_k):
            union = tuple(sorted(set(sigma) | set(tau)))
            if a != b and len(union) == k + 2 and union in X.weight:
                mat[a, b] = link_weight(X, sigma, tuple(set(tau) - set(sigma))) / (k + 2)
    return mat


def down_up_matrix_loops(X, k):
    faces_k = X.faces(k)
    n = len(faces_k)
    mat = np.zeros((n, n))
    for a, sigma in enumerate(faces_k):
        for tau in combinations(sigma, k):
            mat[a, a] += link_weight(X, tau, tuple(set(sigma) - set(tau))) / (k + 1)
        for b, tau in enumerate(faces_k):
            if a == b:
                continue
            inter = tuple(sorted(set(sigma) & set(tau)))
            if len(inter) == k and inter in X.weight:
                mat[a, b] = link_weight(X, inter, tuple(set(tau) - set(inter))) / (k + 1)
    return mat


def multi_up_matrix_loops(X, k, i):
    """Uniform average over contained k-faces (the closed form)."""
    rows = X.faces(k + i)
    mat = np.zeros((len(rows), len(X.faces(k))))
    for r, sigma in enumerate(rows):
        subs = list(combinations(sigma, k + 1))
        for tau in subs:
            mat[r, X.face_index[tau]] += 1.0 / len(subs)
    return mat


def multi_down_matrix_loops(X, k, i):
    """Link-weighted average over containing (k+i)-faces (closed form)."""
    rows = X.faces(k)
    cols = X.faces(k + i)
    mat = np.zeros((len(rows), len(cols)))
    for c, rho in enumerate(cols):
        for tau in combinations(rho, k + 1):
            mat[X.face_index[tau], c] += link_weight(
                X, tau, tuple(sorted(set(rho) - set(tau)))
            )
    return mat


def spectrum_loops(X, k, mat):
    """Eigenvalues (descending) of the weighted symmetrization of ``mat``."""
    w = np.array([X.weight[f] for f in X.faces(k)])
    sq = np.sqrt(w)
    B = (sq[:, None] * mat) / sq[None, :]
    return np.linalg.eigvalsh((B + B.T) / 2.0)[::-1]


def random_mean_zero(X, k, rng):
    w = np.array([X.weight[f] for f in X.faces(k)])
    vals = rng.standard_normal(len(w))
    vals -= vals @ w
    return vals / np.sqrt(vals @ (w * vals))
