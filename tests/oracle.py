"""Independent, loop-based evaluations used as oracles by the tests.

Everything here is written from the defining formulas with plain Python
loops and dictionary lookups, deliberately avoiding the package's matrix
pipelines, so agreement between the two routes is meaningful.  The
routes at the end that the package computes by one matrix product (link
spectra, walk compatibility, local minimality, balance) instead build
each link with ``link_of`` and evaluate inside it.
``bootstrap_condition1_dense`` is bootstrap condition 1 as the top
eigenvalue of a dense form on the 0-level k-cochains, where the package
takes one eigenvalue of the vertex up-down walk.
``proper_decompose_complete`` is the proper level decomposition with
every level's basis built in extended precision, the levels below the top
from thin SVDs of the lifts (``range_basis_svd``) and the top level from
one complete QR (``complement_complete``, the full ``n_k x n_k``
orthogonal factor), where the package takes the flag in the coordinates of
the top lift's range, from symmetric eigensolves of Gram matrices with a
row per (k-1)-face, the top level as a residual, and builds the top basis
for its level table from the compact WY form of the stack's reflectors.
``weighted_pure_complexes`` is the hypothesis strategy the property tests
draw their complexes from.  ``complex_from_faces`` stores a complex given
as tuple lists and a weight dict, unchecked, which the library never
builds from; the broken complexes of the ``validate`` tests and the scan
routes below go through it.  ``closure_scan`` and ``sub_scan`` are the dict
closure and the dict subface lookup that the package's array closure and
key lookup replaced; ``localize_scan`` and ``restrict_scan`` view a cochain
in a link face by face, where the package gathers.

The routes at the very end are built from package operators, as the other
side of an identity the package states: ``up_down_product`` is the
up-down walk as the product of its two lifts, where the package scatters
its closed form, ``nonlazy_from_iup`` recovers the non-lazy vertex walk
from the i-fold up-down walk, ``constant_projection`` is the down-up walk
through the empty face, and ``level_projector`` is the dense projector
whose differences give the proper level components.
``lift_to_zero`` and its ``psd_sqrt`` build the vertex shadow of a 0-level
cochain that the advantage argument runs through, and
``restriction_level_space`` the level spaces of vertex cochains under
restriction, which no certificate reads.
"""

import math
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from hdxwalk.complex_core import (
    WEIGHT_TOL,
    ComplexError,
    PureComplex,
    _id_array,
    build_complex,
    canonical_face,
)


def complex_from_faces(d, faces_by_dim, weight):
    """The ``PureComplex`` stored as the face lists ``faces_by_dim[k]``, in
    their given order, and the weights ``weight[face]``, unchecked.  Every
    id that any face uses is ranked, so a face list that breaks closure,
    order or the recursion still breaks it for ``validate``."""
    ids = sorted({v for k in range(-1, d + 1) for face in faces_by_dim[k] for v in face})
    rank = {v: r for r, v in enumerate(ids)}
    rows, weights = {}, {}
    for k in range(-1, d + 1):
        lst = faces_by_dim[k]
        ranks = [rank[v] for face in lst for v in face]
        rows[k] = np.array(ranks, dtype=np.intp).reshape(len(lst), k + 1)
        weights[k] = np.array([weight[face] for face in lst], dtype=float)
    return PureComplex(d, _id_array(ids, len(ids), 1).ravel(), rows, weights)


@st.composite
def weighted_facets(draw):
    """Facets and weights of a random pure complex on at most 7 vertices: a
    subset of the facets of complete(n, d), weights log-uniform over up to
    12 decades."""
    n = draw(st.integers(4, 7))
    d = draw(st.integers(1, min(3, n - 2)))
    pool = list(combinations(range(n), d + 1))
    keep = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    keep[draw(st.integers(0, len(pool) - 1))] = True
    facets = [F for F, kept in zip(pool, keep) if kept]
    spread = draw(st.floats(0.0, 12.0))
    seed = draw(st.integers(0, 2**32 - 1))
    exps = np.random.default_rng(seed).uniform(-spread, 0.0, len(facets))
    return facets, list(10.0**exps)


def weighted_pure_complexes():
    """The complexes of :func:`weighted_facets`."""
    return weighted_facets().map(lambda drawn: build_complex(*drawn))


@st.composite
def relabeled_facets(draw):
    """Facets of dimension up to 6 on vertex ids up to 10**12, each facet's
    vertices and the facets themselves in a drawn order, with or without
    weights: keys mixing raw ids in radix n_0 would overflow int64 here."""
    n = draw(st.integers(1, 9))
    d = draw(st.integers(0, min(6, n - 1)))
    ids = draw(st.lists(st.integers(0, 10**12), min_size=n, max_size=n, unique=True))
    pool = list(combinations(ids, d + 1))
    keep = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    keep[draw(st.integers(0, len(pool) - 1))] = True
    facets = [draw(st.permutations(F)) for F, kept in zip(pool, keep) if kept]
    facets = draw(st.permutations(facets))
    if not draw(st.booleans()):
        return facets, None
    seed = draw(st.integers(0, 2**32 - 1))
    exps = np.random.default_rng(seed).uniform(-6.0, 0.0, len(facets))
    return facets, list(10.0**exps)


def closure_scan(facets, facet_weights=None):
    """The complex of distinct canonical ``facets`` by a dict over every
    facet subset, each face's facet weights added in facet order: the second
    route for the array closure of ``build_complex``, which must agree with
    it bitwise."""
    d = len(facets[0]) - 1
    if facet_weights is None:
        top = [1.0 / len(facets)] * len(facets)
    else:
        total = math.fsum(facet_weights)
        top = [float(w) / total for w in facet_weights]
    faces_by_dim = {}
    weight = {}
    for k in range(-1, d + 1):
        over = {}
        for F, wF in zip(facets, top):
            for sub in combinations(F, k + 1):
                over[sub] = over.get(sub, 0.0) + wF
        denom = math.comb(d + 1, k + 1)
        faces_by_dim[k] = sorted(over)
        for face in faces_by_dim[k]:
            weight[face] = over[face] / denom
    return complex_from_faces(d, faces_by_dim, weight)


def sub_scan(X, k):
    """The subface index array of dimension ``k`` by dict lookups in
    ``X.face_index``: the second route for ``complex_core._sub``."""
    rows = [[X.face_index[f[:c] + f[c + 1 :]] for c in range(k + 1)] for f in X.faces(k)]
    return np.array(rows, dtype=np.intp).reshape(X.n_faces(k), k + 1)


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
    uncached: the second route for ``link_of``, which masks the rank rows of
    each dimension."""
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
    return complex_from_faces(d_link, faces_by_dim, weight)


def localize_scan(X, f, sigma):
    """Localization of ``f`` at ``sigma`` on ``link_scan(X, sigma)``, each
    link face found with sigma added by ``X.index_of``: the second route for
    ``localize``, which gathers the values at the faces over sigma."""
    from hdxwalk.cochain_ops import Cochain

    sigma = canonical_face(sigma)
    link = link_scan(X, sigma)
    j = f.dim - len(sigma)
    vals = np.empty(link.n_faces(j))
    for pos, tau in enumerate(link.faces(j)):
        vals[pos] = f.values[X.index_of(canonical_face(sigma + tau))]
    return Cochain(link, j, vals)


def restrict_scan(X, f, sigma):
    """Restriction of ``f`` to ``link_scan(X, sigma)``, each link face found
    by ``X.index_of``: the second route for ``level_decomp._restrict``, which
    looks the link's faces up by key."""
    from hdxwalk.cochain_ops import Cochain

    link = link_scan(X, sigma)
    vals = np.array([f.values[X.index_of(tau)] for tau in link.faces(f.dim)])
    return Cochain(link, f.dim, vals)


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
        total = math.fsum(X.weight[f] for f in X.faces_by_dim[k])
        if abs(total - 1.0) > tol:
            raise ComplexError(f"weights of dimension {k} sum to {total!r}, not 1")
    if abs(math.fsum(X.weight[f] for f in top) - 1.0) > tol:
        raise ComplexError("facet weights do not sum to 1")
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


def coboundary_scan(X, i):
    """Matrix of ``coboundary(X, i)``: sign (-1)^j on the subface that
    drops the j-th vertex, by a loop over the (i+1)-faces."""
    rows = X.faces(i + 1)
    mat = np.zeros((len(rows), X.n_faces(i)))
    for r, sigma in enumerate(rows):
        for j in range(len(sigma)):
            sub = sigma[:j] + sigma[j + 1 :]
            mat[r, X.face_index[sub]] += (-1.0) ** j
    return mat


def link_lambda2_scan(X, j):
    """lambda2 of each j-face's link by building the link with ``link_of``
    and its walk with :func:`nonlazy_matrix_loops`."""
    from hdxwalk.complex_core import link_of

    out = []
    for sigma in X.faces(j):
        link = link_of(X, sigma)
        out.append(spectrum_loops(link, 0, nonlazy_matrix_loops(link, 0))[1])
    return np.array(out)


def trickling_residual_scan(X, samples, seed):
    """The advantage-identity residual of ``trickling_down_check`` one
    sample and one vertex at a time, restricting through ``view``."""
    from hdxwalk.cochain_ops import Cochain, weight_vector
    from hdxwalk.complex_core import link_of
    from hdxwalk.level_decomp import RESTRICTION, view

    rng = np.random.default_rng(seed)
    M = nonlazy_matrix_loops(X, 0)
    residual = 0.0
    for _ in range(samples):
        f = Cochain(X, 0, rng.standard_normal(X.n_faces(0)))
        Mf = M @ f.values
        for pos, v in enumerate(X.faces(0)):
            link = link_of(X, v)
            fv = view(RESTRICTION, X, f, v)
            local_mean = float(weight_vector(link, 0) @ fv.values)
            residual = max(residual, abs(local_mean - Mf[pos]))
    return residual


def level_constraint_matrix(X, k, i):
    """Per-face constraint rows: row ``s`` (an (i-1)-face) holds the link
    weights ``w_s(t - s)`` against which an i-level k-cochain must average
    to zero, by scanning every k-face for those over ``s``."""
    rows = X.faces(i - 1)
    cols = X.faces(k)
    mat = np.zeros((len(rows), len(cols)))
    denom = math.comb(k + 1, i)
    for r, sigma in enumerate(rows):
        sset = set(sigma)
        for c, tau in enumerate(cols):
            if sset <= set(tau):
                mat[r, c] = X.weight[tau] / (denom * X.weight[sigma])
    return mat


def respects_walk_residual(viewer, X, k, f):
    """|<M_k f, f> - E_v <M_{k-D} V_v f, V_v f>| over the vertex links, with
    ``M`` the non-lazy walk and ``V_v`` the viewer at ``v``.  Both viewers
    provably respect the walk, so this is a numerical zero."""
    from hdxwalk.cochain_ops import inner_product, nonlazy
    from hdxwalk.complex_core import link_of
    from hdxwalk.level_decomp import view

    r = k - viewer.dim_diff
    lhs = inner_product(X, nonlazy(X, k)(f), f)
    rhs = 0.0
    for v in X.faces(0):
        link = link_of(X, v)
        fv = view(viewer, X, f, v)
        rhs += X.weight[v] * inner_product(link, nonlazy(link, r)(fv), fv)
    return abs(lhs - rhs)


def k_level_scan(X, f):
    """Max over (k-1)-faces of |<localized f, 1>| in the face's link, the
    link built with ``link_of``: the second route for
    ``local_minimality_residuals``."""
    from hdxwalk.cochain_ops import Cochain, inner_product
    from hdxwalk.complex_core import link_of

    k = f.dim
    worst = 0.0
    for sigma in X.faces(k - 1):
        link = link_of(X, sigma)
        vals = np.array([f.evaluate(sigma + (v,)) for (v,) in link.faces(0)])
        loc = Cochain(link, 0, vals)
        worst = max(worst, abs(inner_product(link, loc, Cochain.ones(link, 0))))
    return worst


def balance_scan(X, S, i):
    """``balanced_check``'s per-face defects and companion residual by
    loops: the local S-mass of each i-face summed over the faces of S
    containing it, and the centered indicator localized into each i-face's
    link with ``link_of`` and ``localize``.  Returns ``(per_face,
    companion)``."""
    from hdxwalk.cochain_ops import Cochain, inner_product, localize
    from hdxwalk.complex_core import link_of

    S = [canonical_face(t) for t in S]
    k = len(S[0]) - 1
    total = sum(X.weight[t] for t in S)
    denom = math.comb(k + 1, i + 1)
    over = {}  # i-face -> the faces of S containing it
    for t in S:
        for sigma in combinations(t, i + 1):
            over.setdefault(sigma, []).append(t)
    per_face = {}
    for sigma in X.faces(i):
        local = sum(
            X.weight[t] / (denom * X.weight[sigma]) for t in over.get(sigma, ())
        )
        per_face[sigma] = abs(total - local)
    indicator = np.zeros(X.n_faces(k))
    for t in S:
        indicator[X.face_index[t]] = 1.0
    centered = Cochain(X, k, indicator - total)
    companion = 0.0
    for sigma in X.faces(i):
        if i == -1:
            mean = inner_product(X, centered, Cochain.ones(X, k))
        else:
            link = link_of(X, sigma)
            loc = localize(X, centered, sigma)
            mean = inner_product(link, loc, Cochain.ones(link, loc.dim))
        companion = max(companion, abs(mean))
    return per_face, companion


def bootstrap_condition1_dense(X, k):
    """Condition 1 of ``bootstrap_certificate`` on the k-faces: minus the
    top eigenvalue of ``lam1 I + (1 - lam1) U D - lam0 I`` (``U``, ``D``
    the k-fold lift and drop) restricted to the 0-level space
    ``level_space(X, k, 0)``, a dense ``n_k x n_k`` form."""
    from hdxwalk.cochain_ops import multi_down, multi_up, weight_vector
    from hdxwalk.level_decomp import level_space
    from hdxwalk.spectral import gamma_profile
    from hdxwalk.theorem_verify import lambda_table

    table = lambda_table(gamma_profile(X))
    lam0 = table.value(0, k)
    lam1 = table.value(1, k)
    D = multi_down(X, 0, k).matrix
    U = multi_up(X, 0, k).matrix
    n = X.n_faces(k)
    A = lam1 * np.eye(n) + (1.0 - lam1) * (U @ D) - lam0 * np.eye(n)
    B = level_space(X, k, 0).vectors
    w = weight_vector(X, k)
    R = B.T @ (w[:, None] * (A @ B))
    R = (R + R.T) / 2.0
    return -float(np.linalg.eigvalsh(R)[-1])


def complement_complete(Q):
    """Orthonormal basis of the orthogonal complement of range(Q), for Q
    with orthonormal columns: the trailing columns of the complete
    ``n x n`` Householder factor of Q, the second route for
    ``level_decomp._complement``."""
    return np.linalg.qr(Q, mode="complete")[0][:, Q.shape[1]:]


def _project_off(Q, B):
    """B projected off the orthonormal columns Q, twice."""
    for _ in range(2):
        B = B - Q @ (Q.T @ B)
    return B


def _orthonormal(Y):
    """Orthonormal basis of range(Y), for Y of full column rank, in Y's
    precision: Y over the R factor of its QR in double, orthonormal to
    about eps, then two Newton-Schulz steps ``B (3 I - B^T B) / 2``, which
    keep range(B) and square its distance from orthonormal."""
    R = np.linalg.qr(Y.astype(float), mode="r")
    B = Y @ np.linalg.inv(R).astype(Y.dtype)
    eye = np.eye(B.shape[1], dtype=Y.dtype)
    for _ in range(2):
        B = B @ (1.5 * eye - 0.5 * (B.T @ B))
    return B


def range_basis_svd(A, Q):
    """Orthonormal basis of the part of range(A) orthogonal to the
    orthonormal columns Q, in the precision of A and Q: A projected off Q
    twice, one thin SVD of it in double for the rank, cut relative to A's
    own norm, and the right singular vectors V, then the left factor
    ``A V / sigma`` in that precision.  It carries the rounding A keeps in
    range(Q) over sigma, so it is projected off Q again before it is
    orthonormalized (:func:`_orthonormal`).  ``A V`` lies in range(A)
    whatever V's rounding, so in extended precision the basis spans the
    level to far below double rounding.  The second route for
    ``level_decomp._range_basis``, which takes the basis from the Gram
    matrix ``A^T A`` instead."""
    tol = max(A.shape) * np.finfo(float).eps * np.linalg.norm(A.astype(float))
    A = _project_off(Q, A)
    _, sv, vt = np.linalg.svd(A.astype(float), full_matrices=False)
    keep = sv > tol
    return _orthonormal(_project_off(Q, A @ (vt[keep].T / sv[keep])))


def proper_bases_complete(X, k, dtype=np.longdouble):
    """W-orthonormal bases of the proper levels -1..k in ``dtype``, by
    default extended precision (``np.longdouble``, 64-bit significands on
    x86-64), built afresh with nothing cached: one block Gram-Schmidt over
    the unscaled lifts by :func:`range_basis_svd`, and level k from one
    complete QR, projected off the levels below and orthonormalized again.
    The second route for the package's level bases.  A basis inside a
    level is free, so the two routes must agree in the level dimensions
    and the level projectors, not in the basis vectors.

    The package's masses carry a few ulps of ``|f|^2`` of rounding, so the
    oracle's must carry less: built in double, this route's masses were up
    to 1.9e-15 ``|f|^2`` off a 40-digit Gram-Schmidt over the same lifts
    (four facets of complete(5,3) with weights within 1.4e-10 of 1/4, at
    k = 3), where the package was 2.9e-16 off; in extended precision they
    were within 2.2e-22 ``|f|^2`` of that reference over 220 random draws.
    Either precision takes every rank from a double-precision SVD, so a
    caller that compares level dimensions only can pass ``dtype=float``,
    without numpy's unoptimized long-double products."""
    from hdxwalk.cochain_ops import multi_up, weight_vector

    s = np.sqrt(weight_vector(X, k).astype(dtype))[:, None]
    Q = np.zeros((len(s), 0), s.dtype)
    bases = {}
    for i in range(-1, k):
        bases[i] = range_basis_svd(s * multi_up(X, i, k - i).matrix, Q)
        Q = np.hstack([Q, bases[i]])
    bases[k] = _orthonormal(_project_off(Q, complement_complete(Q.astype(float))))
    return {i: B / s for i, B in bases.items()}


def proper_decompose_complete(X, f):
    """``proper_decompose`` with every level, the top one included,
    applied as ``B_i B_i^T W f`` on the bases of
    :func:`proper_bases_complete`, in their extended precision; the
    constant part is what the levels 0..k leave over.  The masses are the
    squared W-norms of the extended-precision parts, and the components
    those parts rounded to double."""
    from hdxwalk.cochain_ops import Cochain, weight_vector
    from hdxwalk.level_decomp import LevelDecomposition

    k = f.dim
    bases = proper_bases_complete(X, k)
    w = weight_vector(X, k).astype(np.longdouble)
    wf = w * f.values
    parts = {}
    residual = f.values.astype(np.longdouble)
    for i in range(k, -1, -1):
        parts[i] = bases[i] @ (bases[i].T @ wf)
        residual = residual - parts[i]
    parts[-1] = residual
    components = {i: Cochain(X, k, v.astype(float)) for i, v in parts.items()}
    norms_sq = {i: float(w @ (v * v)) for i, v in parts.items()}
    return LevelDecomposition(components, norms_sq)


def up_down_product(X, k, i):
    """The i-fold up-down walk on k-cochains as the product
    ``multi_down(X, k, i) @ multi_up(X, k, i)`` of its dense lifts: the
    second route to ``up_down(X, k, i)``."""
    from hdxwalk.cochain_ops import LinOp, multi_down, multi_up

    return LinOp(k, k, multi_down(X, k, i).matrix @ multi_up(X, k, i).matrix)


def nonlazy_from_iup(X, i):
    """The vertex walk recovered from the i-fold up-down operator:
    ``((i+1)/i) * up_down(X, 0, i) - (1/i) * I`` for any ``1 <= i <= d``,
    the second route to ``nonlazy(X, 0)``."""
    from hdxwalk.cochain_ops import LinOp, up_down

    if not 1 <= i <= X.top_dim:
        raise ComplexError(f"nonlazy_from_iup needs 1 <= i <= {X.top_dim}, got {i}")
    U = up_down(X, 0, i)
    n = X.n_faces(0)
    mat = ((i + 1) / i) * U.matrix - (1.0 / i) * np.eye(n)
    return LinOp(0, 0, mat)


def constant_projection(X, k):
    """Projection of k-cochains onto constants, ``f -> <f, 1> * 1``: the
    second route to ``down_up(X, k, k+1)``."""
    from hdxwalk.cochain_ops import LinOp, weight_vector

    w = weight_vector(X, k)
    mat = np.tile(w, (len(w), 1))
    return LinOp(k, k, mat)


def level_projector(X, k, i):
    """Matrix of the W-orthogonal projection onto the i-level space, the
    dense ``B B^T W`` on ``level_space(X, k, i)``: the second route to the
    components of ``proper_decompose``."""
    from hdxwalk.cochain_ops import weight_vector
    from hdxwalk.level_decomp import level_space

    B = level_space(X, k, i).vectors
    return B @ (B.T * weight_vector(X, k)[None, :])


def psd_sqrt(X, op):
    """Square root of a PSD self-adjoint operator.

    Shares the operator's eigenvectors with square-rooted eigenvalues;
    eigenvalues in [-1e-6, 0) are treated as rounding and clamped to 0,
    anything smaller is rejected.
    """
    from hdxwalk.cochain_ops import LinOp, weight_vector
    from hdxwalk.spectral import _symmetrized

    B = _symmetrized(X, op)
    sq = np.sqrt(weight_vector(X, op.source_dim))
    vals, vecs = np.linalg.eigh(B)
    if vals.size and vals[0] < -1e-6:
        raise ComplexError(f"operator is not PSD (eigenvalue {vals[0]:.3e})")
    vals = np.clip(vals, 0.0, None)
    Bs = (vecs * np.sqrt(vals)) @ vecs.T
    mat = (Bs / sq[:, None]) * sq[None, :]
    return LinOp(op.source_dim, op.target_dim, mat)


def lift_to_zero(X, f0):
    """Vertex-cochain shadow of a proper 0-level k-cochain.

    Solves ``multi_up(X, 0, k) g = f0`` by weighted least squares (minimum
    norm) and returns ``(g, f_eq0)`` with ``f_eq0 = sqrt(up_down(X, 0, k))
    g``.  The shadow has zero mean, the same norm as ``f0``, and its lifted
    energy matches the downward energy of ``f0``.
    """
    from hdxwalk.cochain_ops import Cochain, multi_up, up_down, weight_vector

    k = f0.dim
    if not 1 <= k <= X.top_dim:
        raise ComplexError(f"lift_to_zero needs 1 <= dim <= {X.top_dim}")
    wk = weight_vector(X, k)
    nrm = float(np.sqrt(f0.values @ (wk * f0.values)))
    mean = float(wk @ f0.values)
    if abs(mean) > 1e-9 * max(1.0, nrm):
        raise ComplexError("cochain is not 0-level (nonzero weighted mean)")
    U = multi_up(X, 0, k).matrix
    sw = np.sqrt(wk)
    g_vals, *_ = np.linalg.lstsq(sw[:, None] * U, sw * f0.values, rcond=None)
    resid = float(np.sqrt(((U @ g_vals - f0.values) ** 2 * wk).sum()))
    if resid > 1e-6 * max(1.0, nrm):
        raise ComplexError(
            f"cochain is not a lift from the vertices (fit residual {resid:.3e})"
        )
    g = Cochain(X, 0, g_vals)
    S = psd_sqrt(X, up_down(X, 0, k))
    f_eq0 = S(g)
    return g, f_eq0


def restriction_level_space(X, i):
    """i-level vertex cochains under restriction (k = 0 only).  Level 0 is
    the mean-zero space, level 1 the kernel of the non-lazy vertex walk, the
    W-complement of its range."""
    from hdxwalk.cochain_ops import nonlazy, weight_vector
    from hdxwalk.level_decomp import LevelBasis

    if i not in (0, 1):
        raise ComplexError("restriction level spaces are implemented for i in {0, 1}")
    s = np.sqrt(weight_vector(X, 0))[:, None]
    A = s if i == 0 else s * nonlazy(X, 0).matrix
    Q = range_basis_svd(A, np.zeros((len(s), 0)))
    return LevelBasis(0, i, complement_complete(Q) / s)
