"""Link viewers, level-cochain spaces, and the orthogonal decomposition.

A link viewer is a linear, unit-preserving, composable way to see a global
cochain inside each link that is compatible with the weighted inner product
in expectation.  Two are implemented: restriction (copy values, no change
of dimension) and localization (``f_s(t) = f(s | t)``, dimension drops by
``dim(s) + 1``).

A k-cochain is *i-level* (localization viewer) when its viewed mean
vanishes at every (i-1)-face; equivalently it is W-orthogonal to the range
``R_{i-1}`` of the lift ``multi_up(X, i-1, k-i+1)``.  These ranges form a
flag ``R_{-1} <= R_0 <= ... <= R_{k-1}`` (``R_{-1}`` the constants), and
the proper level i is ``R_i - R_{i-1}``, so the orthogonal decomposition
``f = f_{-1} + f_0 + ... + f_k`` needs only the projections onto the
ranges: :func:`proper_decompose` takes each by CGLS on its lift with
columns scaled to unit norm (:func:`_cgls`, the loop the minimal cochains
of ``oriented_topology`` run too), one gather and one ``bincount`` a step,
with no basis and no Gram; the memo gains only the subface arrays.

Bases come from one block Gram-Schmidt over the flag, which lives in the
coordinates of range(A) = ``R_{k-1}`` for the top
lift ``A = sqrt(W_k) diff(X, k-1) W_(k-1)^-1/2``, an ``n_k x n_(k-1)``
matrix with ``k+1`` entries a row.  Its Gram ``G = A^T A`` is the
symmetrized up-down walk, of norm 1, one ``bincount`` over the subface
pairs of the k-faces, and one symmetric eigensolve of G gives an
orthonormal basis ``U = A P`` of range(A); directions weaker than that
eigensolve resolves go to further ones on what is left, with a row per
k-face (:func:`_top_range`).  In the coordinates ``c = U^T x``
level i < k-1 is the new part of the lift ``U^T A L_i``, with ``L_i``
the lift from level i to the (k-1)-faces, from one eigensolve of its Gram
projected off the levels below (:func:`_range_basis`); within such a level
the basis runs along that Gram's eigenvectors, strongest first, and is
otherwise free: where eigenvalues repeat, rounding picks it.  Level k-1 is
what the lower levels leave of range(A).  ``U^T`` is one ``bincount`` and
``U`` one gather, so the flag (:func:`_flag`) builds no lift or stack with
a row per k-face, and a basis with one only for the weak directions (none
on uniform complexes).  A decomposition whose CGLS misses its target, as
skewed weights can make it, is taken in these coordinates instead
(:func:`_flag_levels`).

The level bases that the certificates read are one table per dimension
(:func:`_level_bases`): the flag taken to k-face rows by one gather, level
k-1 being the complement of the lower levels in c-coordinates, and the top
level k, the complement of that ``sqrt(w)``-scaled stack.  Each complement
is the trailing columns of the stack's Householder QR factor, rebuilt from
a sign-chosen LU of the stack's top r x r block (Ballard et al., 2015) by
products alone: no QR, no linear solve and no ``n_k x n_k`` factor
(:func:`_complement`).  A table larger than the memory the process can get
is refused before it is allocated.  Both are divided by ``sqrt(w)`` in
place, and :func:`proper_level_basis` hands out read-only views of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .complex_core import (
    ComplexError,
    _cached_op,
    _find,
    _over,
    _sub,
    _subfaces,
    canonical_face,
    link_of,
)
from .cochain_ops import (
    Cochain,
    _same_space,
    localize,
    multi_up,
    norm_sq,
    weight_vector,
)

__all__ = [
    "LOCALIZATION",
    "RESTRICTION",
    "LevelBasis",
    "LevelDecomposition",
    "Viewer",
    "level_space",
    "proper_decompose",
    "proper_level_basis",
    "view",
]


def _restrict(X, f: Cochain, sigma) -> Cochain:
    """Restriction ``f|_sigma(t) = f(t)`` on the link of ``sigma``; the
    dimension does not change."""
    _same_space(X, f)
    sigma = canonical_face(sigma)
    if sigma not in X:
        raise ComplexError(f"face {sigma} is not in the complex")
    i = len(sigma) - 1
    if f.dim + i + 1 > X.top_dim:
        raise ComplexError(
            f"cannot restrict a {f.dim}-cochain to the link of a face of "
            f"dimension {i} in a {X.top_dim}-dimensional complex"
        )
    if sigma == ():
        return f
    # the p-th face of the link is the p-th face over sigma less sigma's ranks
    pos = _find(X, _over(X, sigma, f.dim + i + 1)[1])
    return Cochain(link_of(X, sigma), f.dim, f.values[pos])


@dataclass(frozen=True)
class Viewer:
    """One of the two link viewers: ``see(X, f, sigma)`` views ``f``
    in the link of ``sigma``, and ``dim_diff`` is the drop in cochain
    dimension when viewing in a vertex link (0 for restriction, 1 for
    localization)."""

    see: Callable
    dim_diff: int


RESTRICTION = Viewer(_restrict, 0)
LOCALIZATION = Viewer(localize, 1)


def view(viewer: Viewer, X, f: Cochain, sigma) -> Cochain:
    """View ``f`` in the link of ``sigma`` through the given viewer."""
    return viewer.see(X, f, sigma)


@dataclass(frozen=True)
class LevelBasis:
    """W-orthonormal basis (columns) of the i-level k-cochains."""

    k: int
    i: int
    vectors: np.ndarray = field(repr=False)

    @property
    def dimension(self):
        return self.vectors.shape[1]


# the share of its norm above which an eigenvalue of the top Gram is taken
# in (k-1)-face coordinates (see _top_range)
STRONG = 1e-2


def _passes(A, off, cut):
    """Orthonormal basis of range(off(A)), strongest direction first, where
    ``off`` projects a block off a fixed orthonormal set and the directions
    kept are those above ``cut``.

    Each pass projects A off that set and the blocks found so far and takes
    one ``eigh`` of its Gram ``G = A^T A``.  ``eigh`` resolves eigenvalues
    only to about eps |G|, so a pass keeps those above ``sqrt(eps) |G|``:
    there the thin SVD's left factor ``B = A V L^-1/2`` is orthonormal to
    within sqrt(eps), and one Newton-Schulz step ``B (3 I - B^T B) / 2``
    takes it to rounding.  ``L^-1/2`` amplifies the rounding A keeps along
    the set, so B is projected off it first.  The eigenvectors below that
    leave ``A V`` for the next pass, whose Gram is smaller.  The passes end
    when what is left has ``|A|_F^2`` at most ``cut``, or when a pass finds
    nothing above it.
    """
    eps = np.finfo(float).eps
    blocks = []

    def project(B):
        B = off(B)
        for P in blocks:
            B = B - P @ (P.T @ B)
        return B

    while np.vdot(A, A) > cut:
        A = project(A)
        lam, V = np.linalg.eigh(A.T @ A)
        keep = np.flatnonzero(lam > max(cut, np.sqrt(eps) * lam.max(initial=0.0)))[::-1]
        if not len(keep):
            break
        B = project(A @ (V[:, keep] / np.sqrt(lam[keep])))
        A = A @ V[:, : keep[-1]]  # what is left, and the lift is freed
        blocks.append(B @ (1.5 * np.eye(len(keep)) - 0.5 * (B.T @ B)))
    return np.hstack([A[:, :0], *blocks])


def _range_basis(A, Q):
    """Orthonormal basis of the part of range(A) orthogonal to the
    orthonormal columns Q, strongest direction first: :func:`_passes` with
    the rank cut ``(max(shape) eps |A|_F)^2`` of the original A, the thin
    SVD's cut squared.  One pass takes every direction of the lifts of
    uniform complexes.  Skewed weights make weaker ones: on complete(8,3)
    with facet weights spread over 6 decades a few lifts take a second
    pass, over 20 decades some take a third.
    """
    cut = (max(A.shape) * np.finfo(float).eps) ** 2 * np.vdot(A, A)
    return _passes(A, lambda B: B - Q @ (Q.T @ B), cut)


def _top_lift(X, k):
    """``(sub, a)`` for ``A = sqrt(W_k) diff(X, k-1) W_(k-1)^-1/2``, k >= 0:
    A has the entry ``a[t, c]`` at ``(t, sub[t, c])`` and no other, with
    ``sub = _sub(X, k)``."""
    sub = _sub(X, k)
    w = weight_vector(X, k - 1)
    return sub, np.sqrt(weight_vector(X, k))[:, None] / ((k + 1) * np.sqrt(w[sub]))


def _gather(sub, a, Y):
    """``A Y`` for Y with a row per (k-1)-face: one gather per column of
    ``sub``."""
    a = a.reshape(a.shape + (1,) * (Y.ndim - 1))
    out = Y[sub[:, 0]]
    out *= a[:, 0]
    for c in range(1, sub.shape[1]):
        part = Y[sub[:, c]]
        part *= a[:, c]
        out += part
    return out


def _scatter(sub, a, Z, m):
    """``A^T Z`` for Z with a row per k-face: one ``bincount`` over the
    entries of A and the columns of Z."""
    Z2 = Z.reshape(len(Z), -1)
    p = Z2.shape[1]
    pos = (sub[:, :, None] * p + np.arange(p)).ravel()
    out = np.bincount(pos, (a[:, :, None] * Z2[:, None, :]).ravel(), m * p)
    return out.reshape((m,) + Z.shape[1:])


# the worst per-face residual a CGLS projection aims at, in units of eps max|f|
CG_TARGET = 2.0


def _cgls(sub, a, d, sw, f, target, cap):
    """``(g, worst, steps)``: the cochain g of ``r / sw`` for r the
    least-squares residual ``y - A x`` of ``y = sw f``, with A the lift with
    the entry ``a[t, c]`` at ``(t, sub[t, c])`` and column norms d, its
    worst per-face residual ``|A^T r|_s / d_s`` in f's units and the CGLS
    iterations taken (Hestenes and Stiefel, 1952).  A is one gather and
    ``A^T`` one ``bincount``: no Gram is formed and nothing is factored.

    f is scaled by a power of two to max|f| in [0.5, 1), exactly, so no
    inner product overflows or underflows; a non-finite value raises a
    ComplexError.  The aim is every per-face residual at most ``target eps
    max|f|``.  A run of CG works on the n faces still above that, so
    rounding at faces of large weight does not steer the steps for faces of
    small weight.  It ends at the target or, once its ``|A^T r|^2`` is down
    to their rounding, ``(eps max|f|)^2 sum d^2``, after ``2 (n + 1)``
    steps that do not lower their worst residual: in exact arithmetic CG
    needs at most n steps, and under skewed weights its residuals rise for
    many steps before they fall.  The next run restarts from the true
    residual of the best iterate, until a restart does not halve the worst
    residual, or ``cap`` iterations are spent.  The residual returned is
    the best one seen, and the caller judges its worst.
    """
    m = len(d)
    peak = np.max(np.abs(f), initial=0.0)
    if not np.isfinite(peak):
        raise ComplexError("a cochain with a non-finite value cannot be projected")
    e = np.frexp(peak)[1]
    y = sw * np.ldexp(f, -e)
    eps, top = np.finfo(float).eps, np.ldexp(peak, -e)
    target = target * eps * top
    x, r, kept, best, steps = np.zeros(m), y, y, np.inf, 0
    while True:
        g = _scatter(sub, a, r, m)
        res = np.abs(g) / d
        worst = res.max()
        if worst < best:
            kept = r
        if worst <= target or not worst < best / 2 or steps >= cap:
            break
        on = res > target
        g[~on] = 0.0
        floor = (eps * top) ** 2 * (d[on] @ d[on])
        p, gamma, best, low, x_low = g, g @ g, worst, worst, x
        idle, patience, settled = 0, 2 * (np.count_nonzero(on) + 1), False
        while steps < cap:
            steps, idle = steps + 1, idle + 1
            q = _gather(sub, a, p)
            alpha = gamma / (q @ q)
            x, r = x + alpha * p, r - alpha * q
            g = _scatter(sub, a, r, m)
            g[~on] = 0.0
            now = np.max(np.abs(g) / d)
            if now < low:
                low, x_low, idle = now, x, 0
            gamma, previous = g @ g, gamma
            settled = settled or gamma <= floor
            if low <= target or (settled and idle >= patience):
                break
            p = g + (gamma / previous) * p
        x = x_low
        r = y - _gather(sub, a, x)
    return np.ldexp(kept / sw, e), np.ldexp(min(worst, best), e), steps


def _coords(sub, a, P, W, Y):
    """``U^T Y`` for the basis ``U = [A P, W]`` of :func:`_top_range`."""
    return np.concatenate([P.T @ _scatter(sub, a, Y, len(P)), W.T @ Y])


def _embed(sub, a, P, W, C):
    """``U C`` for the basis ``U = [A P, W]`` of :func:`_top_range`."""
    r = P.shape[1]
    out = _gather(sub, a, P @ C[:r])
    out += W @ C[r:]
    return out


def _top_range(X, k):
    """An orthonormal basis ``U = [A P, W]`` of range(A) as ``(P, W, lift)``
    for the top lift A of :func:`_top_lift`, k >= 0; ``lift(L)`` is
    ``U^T A L`` for L with a row per (k-1)-face.

    ``G = A^T A``, the symmetrized up-down walk, of norm 1, is one
    ``bincount`` over the (k+1)^2 subface pairs of every k-face.  One
    ``eigh`` of G gives its strong directions, eigenvalues at least
    ``STRONG |G|``, as ``P = V L^-1/2`` with one Newton-Schulz step on
    ``P^T G P``.  That Gram carries about eps |G| / L of rounding, so the
    step takes ``A P`` to within about 1e-15 of orthonormal only where L
    is strong.  The weaker directions of G, and those rounding hid in its
    null space, go to the passes of :func:`_passes` as rows of ``A V``,
    with A's thin-SVD rank cut, projected off ``A P`` through P; their
    blocks are W.  Uniform complexes have none: complete, partite and
    random_pure(30,2,900) complexes have no eigenvalue of G in (0, 0.04).
    The rank decision is that of the lower levels' passes: a pass cut of
    ``sqrt(eps) |G|`` at most, then passes on what is left down to the
    thin SVD's cut squared.
    """
    sub, a = _top_lift(X, k)
    m = X.n_faces(k - 1)
    cut = (max(len(sub), m) * np.finfo(float).eps) ** 2 * np.vdot(a, a)
    pairs = (sub[:, :, None] * m + sub[:, None, :]).ravel()
    G = np.bincount(pairs, (a[:, :, None] * a[:, None, :]).ravel(), m * m).reshape(m, m)
    lam, V = np.linalg.eigh(G)
    strong = lam > max(cut, STRONG * lam.max(initial=0.0))
    rest = _gather(sub, a, V[:, ~strong])
    P = V[:, strong][:, ::-1] / np.sqrt(lam[strong][::-1])
    del V
    GP = G @ P
    del G
    N = 1.5 * np.eye(P.shape[1]) - 0.5 * (P.T @ GP)
    P = P @ N

    def off(B):  # B off range(A P): (A P)^T B = P^T A^T B
        return B - _gather(sub, a, P @ (P.T @ _scatter(sub, a, B, m)))

    W = _passes(rest, off, cut)
    AW = _scatter(sub, a, W, m)

    def lift(L):  # U^T A L, with A^T A P = G P N
        return np.vstack([N.T @ (GP.T @ L), AW.T @ L])

    return P, W, lift


# the order at and below which _sign_lu_inverse eliminates one pivot at a time
LEAF = 16


def _sign_lu_inverse(A):
    """``(X, s)`` for a square A: ``X = (A - diag(s))^-1``, with each sign
    chosen as the LU of ``A - diag(s)`` with no pivoting reaches it,
    ``s_j = -sign(p_j)`` for its j-th pivot ``p_j`` before ``s_j`` is
    subtracted.  Every pivot ``p_j - s_j`` is then at least 1 in magnitude.

    Recursive halving: ``(X_1, s_1)`` of the leading half, then that of its
    Schur complement ``A_22 - A_21 X_1 A_12``, whose LU goes on with A's,
    and X from the block inverse, products only.  Blocks of at most LEAF
    rows are eliminated one pivot at a time on ``[A | I]``, down to
    ``L^-1``, then back to ``U^-1 L^-1``.
    """
    m = len(A)
    if m <= LEAF:
        G = np.hstack([A, np.eye(m)])
        s = np.empty(m)
        for j in range(m):
            s[j] = -math.copysign(1.0, G[j, j])
            G[j, j] -= s[j]
            G[j + 1:, j:] -= np.multiply.outer(G[j + 1:, j] / G[j, j], G[j, j:])
        X = G[:, m:]
        for j in range(m - 1, -1, -1):
            X[j] /= G[j, j]
            X[:j] -= np.multiply.outer(G[:j, j], X[j])
        return X, s
    h = m // 2
    X1, s1 = _sign_lu_inverse(A[:h, :h])
    B = X1 @ A[:h, h:]
    X2, s2 = _sign_lu_inverse(A[h:, h:] - A[h:, :h] @ B)
    C = X2 @ (A[h:, :h] @ X1)
    X = np.empty((m, m))
    X[:h, :h] = X1 + B @ C
    X[:h, h:] = -(B @ X2)
    X[h:, :h] = -C
    X[h:, h:] = X2
    return X, np.concatenate([s1, s2])


def _complement(Q):
    """Orthonormal basis of the orthogonal complement of range(Q), for Q
    of shape (n, r) with orthonormal columns: the last n - r columns of the
    product ``H = H_1 ... H_r`` of the reflectors of Q's Householder QR,
    built without that QR.

    Q's QR is ``Q = H [S; 0]`` with ``S = diag(s)``, ``s = +-1``: R is
    triangular and orthogonal.  Ballard, Demmel, Grigori, Jacquelin, Knight
    and Nguyen ("Reconstructing Householder vectors from tall-skinny QR",
    JPDC 2015) show that ``Q - [S; 0] = Y U`` is an LU with no pivoting,
    Y the reflector vectors and ``s_j = -sign`` of its j-th pivot, the
    sign LAPACK picks (:func:`_sign_lu_inverse`).  With ``Q_1`` the top r
    rows of Q, ``Q_2`` the rest and ``Q_1 - S = L U``, eliminating Y and
    the compact WY factor of ``H = I - Y T_w Y^T`` (Schreiber and Van Loan,
    1989) from ``H [S; 0] = Q`` leaves

        ``H[:, r:] = [-K; I] + Q S K``,  ``K = (Q_1^T - S)^-1 Q_2^T
        = (Q_2 U^-1 L^-1)^T``:

    one r x r inverse and two products, ``(n - r) x r x r`` and
    ``n x r x (n - r)``, and no ``n x n`` factor.  Where a column is
    already reduced, LAPACK takes no reflector (tau = 0) and the other
    sign; the reflector taken here instead flips only a row in which
    ``H[:, r:]`` is zero, so both give the same columns.
    """
    n, r = Q.shape
    X, s = _sign_lu_inverse(Q[:r])
    M = Q[r:] @ X  # K^T
    M *= s
    T = Q @ M.T
    M *= s  # s is +-1: K^T again, exactly
    T[:r] -= M.T
    T[np.arange(r, n), np.arange(n - r)] += 1.0
    return T


def _flag(X, k):
    """``(P, W, Qc, starts)``, k >= 0: the basis ``U = [A P, W]`` of
    range(A) of :func:`_top_range` and, in its coordinates ``c = U^T x``,
    the orthonormal stack ``Qc`` of the proper levels -1..k-2, level i
    being ``Qc[:, starts[i+1]:starts[i+2]]``.  Level k-1 is what they leave
    of range(A).

    Level i's lift ``sqrt(W_k) multi_up(X, i, k-i) W_i^-1/2`` is ``A L_i``
    with ``L_i = sqrt(W_(k-1)) multi_up(X, i, k-1-i) W_i^-1/2``, of
    ``n_(k-1)`` rows, and in c-coordinates it is ``U^T A L_i``, of ``r``
    rows, from which :func:`_range_basis` takes the level.  Projected off
    the stack, that block has the Gram the lift has in ``sqrt(w)``
    coordinates, so the levels and their bases are those of the k-face
    lifts.  Cached under ``("flag", k)``.
    """

    def build():
        P, W, lift = _top_range(X, k)
        s = np.sqrt(weight_vector(X, k - 1))[:, None]
        Qc = np.zeros((P.shape[1] + W.shape[1], 0))
        starts = [0]
        for i in range(-1, k - 1):
            # scaled by w_i^-1/2 the lift's Gram is the symmetrized up-down
            # walk, of norm 1: weak levels sit further above the rank cut
            L = s * multi_up(X, i, k - 1 - i).matrix
            L /= np.sqrt(weight_vector(X, i))
            Qc = np.hstack([Qc, _range_basis(lift(L), Qc)])
            starts.append(Qc.shape[1])
        return P, W, Qc, tuple(starts)

    return _cached_op(X, ("flag", k), build)


def _memory_room():
    """Bytes this process can still allocate, as far as it can read them:
    the smaller of what its soft address-space limit leaves above its
    present size and the system's ``MemAvailable``, or ``inf``.  Neither
    is set here."""
    import resource  # loaded by the first table build, not by importing hdxwalk

    room = [math.inf]
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    try:
        if soft != resource.RLIM_INFINITY:
            with open("/proc/self/statm") as fh:
                room.append(soft - int(fh.read().split()[0]) * resource.getpagesize())
        with open("/proc/meminfo") as fh:
            room += [int(line.split()[1]) * 1024 for line in fh if line.startswith("MemAvailable:")]
    except OSError:
        pass
    return min(room)


def _check_table_fits(k, n, m, r):
    """Refuse, before it is allocated, a level table of k-cochains that the
    process cannot hold, with n = n_k, m = n_(k-1) and r the stack's width.
    Its build holds at most ``n^2 + 2 n r + m r`` doubles: Q and T take
    ``n^2`` together, the gather that builds Q at most ``2 n r + m r``
    more, and K with the r x r inverse of :func:`_complement` less than
    ``2 n r``."""
    need = 8 * (n * n + 2 * n * r + m * r)
    room = _memory_room()
    if need > room:
        gib = 2.0**30
        raise ComplexError(
            f"the level table of {k}-cochains needs about {need / gib:.3g} GiB "
            f"(n_{k} = {n}, r = {r}), more than the {room / gib:.3g} GiB this "
            f"process can get"
        )


def _level_bases(X, k):
    """``(Q, T, starts)``, read-only and W-orthonormal: the stack ``Q`` of
    the proper levels -1..k-1, level i being ``Q[:, starts[i+1]:starts[i+2]]``,
    and the top level ``T``.

    The flag of :func:`_flag`, with level k-1 the complement of its stack
    in c-coordinates (:func:`_complement`, ``r`` rows), taken to k-face
    rows by one gather, ``sqrt(w) Q = U Qc``.  ``T`` is the complement of
    that ``sqrt(w)``-scaled stack; both are then divided by ``sqrt(w)`` in
    place.  The lifts are uniform averages, so no rank depends on weights.
    Once the flag gives r, a table the process cannot hold raises a
    ComplexError (:func:`_check_table_fits`).  Cached under
    ``("level_bases", k)``.
    """
    if not -1 <= k <= X.top_dim:
        raise ComplexError(f"level bases need -1 <= k <= {X.top_dim}, got {k}")

    def build():
        if k < 0:
            Q, starts = np.zeros((1, 0)), (0,)
        else:
            P, W, Qc, starts = _flag(X, k)
            _check_table_fits(k, X.n_faces(k), len(P), len(Qc))
            Qc = np.hstack([Qc, _complement(Qc)])
            sub, a = _top_lift(X, k)
            Q, starts = _embed(sub, a, P, W, Qc), starts + (Qc.shape[1],)
        T = _complement(Q)
        s = np.sqrt(weight_vector(X, k))[:, None]
        Q /= s
        T /= s
        return Q, T, starts

    return _cached_op(X, ("level_bases", k), build)


def level_space(X, k, i) -> LevelBasis:
    """i-level k-cochains under localization: the proper levels i..k, which
    span the W-complement of the lift from the (i-1)-faces, i.e. the
    cochains whose localized mean vanishes at every (i-1)-face."""
    if not 0 <= i <= k <= X.top_dim:
        raise ComplexError(f"level_space needs 0 <= i <= k <= {X.top_dim}")
    Q, T, starts = _level_bases(X, k)
    return LevelBasis(k, i, np.hstack([Q[:, starts[i + 1]:], T]))


def proper_level_basis(X, k, i) -> np.ndarray:
    """W-orthonormal basis of the proper i-level space (i-level and
    orthogonal to the (i+1)-level space); level -1 is the constants.  A
    read-only view into the cached table of :func:`_level_bases`."""
    if not -1 <= i <= k:
        raise ComplexError(f"proper levels of {k}-cochains run -1..{k}, got {i}")
    Q, T, starts = _level_bases(X, k)
    return T if i == k else Q[:, starts[i + 1]:starts[i + 2]]


@dataclass(frozen=True)
class LevelDecomposition:
    """Orthogonal split ``f = sum of components[i]`` into proper level
    cochains, with the constant part at level -1."""

    components: dict
    norms_sq: dict

    def reconstruction(self):
        return sum(f.values for f in self.components.values())


def _split(X, f, levels):
    """The :class:`LevelDecomposition` of f with the proper components
    ``levels``, ``(i, values)`` pairs for i = k..0; the constant part is
    what they leave over, so the components sum to ``f`` exactly."""
    components = {}
    residual = f.values.copy()
    for i, vals in levels:
        components[i] = Cochain(X, f.dim, vals)
        residual -= vals
    components[-1] = Cochain(X, f.dim, residual)
    return LevelDecomposition(components, {i: norm_sq(X, g) for i, g in components.items()})


def _cgls_levels(X, f):
    """The proper components k..0 of a k-cochain f, k >= 0, from one CGLS
    projection per range of the flag, or None when one misses its target.

    ``r_j`` is what f leaves off ``R_j = range(multi_up(X, j, k-j))``: the
    residual of :func:`_cgls` on that lift in ``sqrt(w)`` coordinates,
    ``sqrt(w_k) / d[sub]`` over ``sub = _subfaces(X, k, j)``, each column
    scaled to its norm ``d = sqrt(C(k+1, j+1) w_j)``.  ``(A^T r)_s / d_s``
    is then the localized mean of ``r_j`` at the j-face s, the defect of
    being (j+1)-level there.  Level k is ``r_(k-1)`` and level i < k is
    ``r_(i-1) - r_i``, with ``r_(-1)`` f less its constant part.

    Each projection may take ``n_j + 1`` iterations, the bound of CG in
    exact arithmetic, and must bring every localized mean to ``CG_TARGET
    eps max|f|``.  Expanding complexes take a few a level: 2-4 on complete
    ones, 17 and about 70 on random_pure(30,2,900).  Under skewed weights
    CG can need thousands (up to 3,648 on complete(8,3) at k = 2 and 3 with
    facet weights spread over 20 decades), where the flag takes a few
    milliseconds.  Rounding can also cost a few steps past the bound on
    small complexes that expand poorly: about 5% of the projections on
    random subsets of the facets of complete(n <= 7, d <= 3) with uniform
    weights miss it.
    """
    k = f.dim
    w = weight_vector(X, k)
    sw = np.sqrt(w)
    bar = CG_TARGET * np.finfo(float).eps * np.max(np.abs(f.values))
    r = []  # r_0..r_(k-1)
    for j in range(k):
        sub = _subfaces(X, k, j)
        d = np.sqrt(sub.shape[1] * weight_vector(X, j))
        g, worst, _ = _cgls(sub, sw[:, None] / d[sub], d, sw, f.values, CG_TARGET, len(d) + 1)
        if not worst <= bar:
            return None
        r.append(g)
    r = [f.values - w @ f.values, *r]  # r_(j-1) is r[j]
    return [(k, r[k]), *((i, r[i] - r[i + 1]) for i in range(k - 1, -1, -1))]


def _flag_levels(X, f):
    """The proper components k..0 of a k-cochain f, k >= 0, from the flag.

    Everything runs in the coordinates ``c = U^T r`` of range(A) for
    ``r = sqrt(w) f`` (:func:`_flag`), ``U^T`` one ``bincount`` and ``U``
    one gather, so no k-face lift, stack or basis is built.  The top level
    k is ``r`` less ``U c``, taken twice; the second pass also refines c.
    Level k-1 is c projected off the stack of levels -1..k-2 twice, and
    level 0 <= i < k-1 is c projected on level i, all taken back to k-face
    rows by one gather.
    """
    k = f.dim
    P, W, Qc, starts = _flag(X, k)
    sub, a = _top_lift(X, k)
    s = np.sqrt(weight_vector(X, k))
    x = s * f.values
    c = _coords(sub, a, P, W, x)
    top = x - _embed(sub, a, P, W, c)
    dc = _coords(sub, a, P, W, top)
    top -= _embed(sub, a, P, W, dc)
    c += dc
    y = c
    for _ in range(2):
        y = y - Qc @ (Qc.T @ y)
    levels = [y]  # level k-1, then k-2..0
    for i in range(k - 2, -1, -1):
        B = Qc[:, starts[i + 1]:starts[i + 2]]
        levels.append(B @ (B.T @ c))
    parts = _embed(sub, a, P, W, np.stack(levels, axis=1)) / s[:, None]
    return [(k, top / s), *zip(range(k - 1, -1, -1), parts.T)]


def proper_decompose(X, f: Cochain) -> LevelDecomposition:
    """Split a k-cochain into proper level components, top level first,
    with the constant part at level -1.

    The components come from one CGLS projection per range of the flag
    (:func:`_cgls_levels`): no basis, no Gram and nothing factored.  Where a projection misses its target within its iterations,
    as skewed weights can make it, the whole split comes from the flag's
    bases instead (:func:`_flag_levels`), one ``eigh`` of the top Gram and
    the lower levels' Grams, cached under ``("flag", k)``.  A cochain with
    a non-finite value raises a ComplexError.
    """
    _same_space(X, f)
    if not np.all(np.isfinite(f.values)):
        raise ComplexError("a cochain with a non-finite value cannot be decomposed")
    levels = []
    if f.dim >= 0:
        levels = _cgls_levels(X, f)
        if levels is None:
            levels = _flag_levels(X, f)
    return _split(X, f, levels)
