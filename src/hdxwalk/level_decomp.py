"""Link viewers, level-cochain spaces, and the orthogonal decomposition.

A link viewer is a linear, unit-preserving, composable way to see a global
cochain inside each link that is compatible with the weighted inner product
in expectation.  Two are implemented: restriction (copy values, no change
of dimension) and localization (``f_s(t) = f(s | t)``, dimension drops by
``dim(s) + 1``).

A k-cochain is *i-level* (localization viewer) when its viewed mean
vanishes at every (i-1)-face; equivalently it is W-orthogonal to the range
``R_{i-1}`` of the lift ``multi_up(X, i-1, k-i+1)``.  These ranges form a
flag ``R_{-1} <= R_0 <= ... <= R_{k-1}`` (``R_{-1}`` the constants), so one
block Gram-Schmidt over it gives every proper level ``R_i - R_{i-1}`` below
the top and the orthogonal decomposition ``f = f_{-1} + f_0 + ... + f_k``.

The flag is cached once, as the ``sqrt(w)``-scaled stack of levels -1..k-1
and the column where each starts.  Each level below the top comes from one
symmetric eigensolve of the Gram matrix of its lift projected off the
stack, and from further ones on what is left where skewed weights make
directions weaker than one eigensolve resolves; with the lift's columns
scaled by ``w^-1/2``, the Gram of the whole lift is the symmetrized
up-down walk, of norm 1.  Within a level the basis runs along that Gram's
eigenvectors, strongest first, and is otherwise free: where eigenvalues
repeat, rounding picks it.  The top level k is the
stack's complement; its basis is read off the Householder vectors of the
stack's own QR (one triangular solve and one product, no ``n_k x n_k``
factor), and is built only when a caller asks for it
(``proper_level_basis(X, k, k)``, ``level_space``, the certificates' level
masses).  :func:`proper_decompose` never does: its top component is
``sqrt(w) f`` projected off the stack twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .complex_core import ComplexError, _cached_op, _find, _over, canonical_face, link_of
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


def _range_basis(A, Q):
    """Orthonormal basis of the part of range(A) orthogonal to the
    orthonormal columns Q, strongest direction first.

    Each pass projects A off Q and the blocks found so far and takes one
    ``eigh`` of its Gram ``G = A^T A``.  ``eigh`` resolves eigenvalues only
    to about eps |G|, so a pass keeps those above ``sqrt(eps) |G|``: there
    the thin SVD's left factor ``B = A V L^-1/2`` is orthonormal to within
    sqrt(eps), and one Newton-Schulz step ``B (3 I - B^T B) / 2`` takes it
    to rounding.  ``L^-1/2`` amplifies the rounding A keeps in the stack,
    so B is projected off it first.  The eigenvectors below that leave
    ``A V`` for the next pass, whose Gram is smaller.  The passes end when
    what is left has ``|A|_F^2`` at most the rank cut
    ``(max(shape) eps |A|_F)^2`` of the original A, the thin SVD's cut
    squared, or when a pass finds nothing above it.  One pass takes every
    direction of the lifts of uniform complexes.  Skewed weights make
    weaker ones: on complete(8,3) with facet weights spread over 6 decades
    a few lifts take a second pass, over 20 decades some take a third.
    """
    eps = np.finfo(float).eps
    cut = (max(A.shape) * eps) ** 2 * np.vdot(A, A)
    blocks = []
    while np.vdot(A, A) > cut:
        for P in [Q, *blocks]:
            A = A - P @ (P.T @ A)
        lam, V = np.linalg.eigh(A.T @ A)
        keep = np.flatnonzero(lam > max(cut, np.sqrt(eps) * lam.max(initial=0.0)))[::-1]
        if not len(keep):
            break
        B = A @ (V[:, keep] / np.sqrt(lam[keep]))
        A = A @ V[:, : keep[-1]]  # what is left, and the lift is freed
        for P in [Q, *blocks]:
            B -= P @ (P.T @ B)
        blocks.append(B @ (1.5 * np.eye(len(keep)) - 0.5 * (B.T @ B)))
    return np.hstack([A[:, :0], *blocks])


def _complement(Q):
    """Orthonormal basis of the orthogonal complement of range(Q), for Q
    of shape (n, r) with orthonormal columns: the last n - r columns of the
    product ``H_1 ... H_r`` of the reflectors of Q's Householder QR.

    In compact WY form (Schreiber and Van Loan, 1989) that product is
    ``I - Y T Y^T``, with Y the unit lower trapezoidal reflector vectors
    and ``T = (I + diag(tau) striu(Y^T Y))^-1 diag(tau)``, so its last
    columns are ``[0; I] - Y T Y[r:]^T``: one unit triangular solve and one
    ``n x r`` by ``r x (n - r)`` product, and no ``n x n`` factor.  A zero
    tau (an identity reflector) needs no special case in this form.
    """
    n, r = Q.shape
    h, tau = np.linalg.qr(Q, mode="raw")
    Y = np.tril(h.T, -1)
    del h  # an n x r array the rest does not need
    diag = np.arange(r)
    Y[diag, diag] = 1.0
    A = Y.T @ Y  # made I + diag(tau) striu(Y^T Y) in place
    A[np.tri(r, dtype=bool)] = 0.0
    A *= tau[:, None]
    A[diag, diag] = 1.0
    A = np.linalg.solve(A, tau[:, None] * Y[r:].T)  # T Y[r:]^T; the system is freed
    C = Y @ A
    # 0 - x rather than -x: exact zeros stay +0.0, as the complete QR gives them
    np.subtract(0.0, C, out=C)
    C[np.arange(r, n), np.arange(n - r)] += 1.0
    return C


def _range_bases(X, k):
    """The read-only ``sqrt(w)``-scaled stack ``Q`` of the proper levels
    -1..k-1 and ``starts``: level i is ``Q[:, starts[i+1]:starts[i+2]]``.

    In ``sqrt(w)``-scaled coordinates level i < k is the new part of the
    lift block ``multi_up(X, i, k-i)``.  The lifts are uniform averages, so
    no rank depends on weights.  Cached under ``("range_bases", k)``.
    """
    if not -1 <= k <= X.top_dim:
        raise ComplexError(f"level bases need -1 <= k <= {X.top_dim}, got {k}")

    def build():
        s = np.sqrt(weight_vector(X, k))[:, None]
        Q = np.zeros((len(s), 0))
        starts = [0]
        for i in range(-1, k):
            # scaled by w_i^-1/2 the lift's Gram is the symmetrized up-down
            # walk, of norm 1: weak levels sit further above the rank cut
            A = s * multi_up(X, i, k - i).matrix
            A /= np.sqrt(weight_vector(X, i))
            Q = np.hstack([Q, _range_basis(A, Q)])
            starts.append(Q.shape[1])
        return Q, tuple(starts)

    return _cached_op(X, ("range_bases", k), build)


def _top_basis(X, k):
    """Read-only W-orthonormal basis of the proper level k: the complement
    of the range stack (:func:`_complement`) over ``sqrt(w)``.  Built on
    first use and cached under ``("top_basis", k)``."""
    Q, _ = _range_bases(X, k)

    def build():
        B = _complement(Q)
        B /= np.sqrt(weight_vector(X, k))[:, None]
        return B

    return _cached_op(X, ("top_basis", k), build)


def level_space(X, k, i) -> LevelBasis:
    """i-level k-cochains under localization: the proper levels i..k, which
    span the W-complement of the lift from the (i-1)-faces, i.e. the
    cochains whose localized mean vanishes at every (i-1)-face."""
    if not 0 <= i <= k <= X.top_dim:
        raise ComplexError(f"level_space needs 0 <= i <= k <= {X.top_dim}")
    return LevelBasis(k, i, np.hstack([proper_level_basis(X, k, j) for j in range(i, k + 1)]))


def proper_level_basis(X, k, i) -> np.ndarray:
    """W-orthonormal basis of the proper i-level space (i-level and
    orthogonal to the (i+1)-level space); level -1 is the constants."""
    if not -1 <= i <= k:
        raise ComplexError(f"proper levels of {k}-cochains run -1..{k}, got {i}")
    if i == k:
        return _top_basis(X, k)
    Q, starts = _range_bases(X, k)
    s = np.sqrt(weight_vector(X, k))[:, None]
    return Q[:, starts[i + 1]:starts[i + 2]] / s


@dataclass(frozen=True)
class LevelDecomposition:
    """Orthogonal split ``f = sum of components[i]`` into proper level
    cochains, with the constant part at level -1."""

    components: dict
    norms_sq: dict

    def reconstruction(self):
        return sum(f.values for f in self.components.values())


def proper_decompose(X, f: Cochain) -> LevelDecomposition:
    """Split a k-cochain into proper level components, top level first.

    The top level k is what the lower levels leave over: in ``sqrt(w)``
    coordinates, ``r = sqrt(w) f`` projected off the range stack ``Q`` of
    levels -1..k-1 twice, so no basis of level k is built.  Component
    0 <= i < k is ``B_i B_i^T W f`` for the W-orthonormal proper basis
    ``B_i``.  The constant part is what the levels 0..k leave over, so the
    components sum to ``f`` exactly.
    """
    _same_space(X, f)
    k = f.dim
    Q, _ = _range_bases(X, k)
    w = weight_vector(X, k)
    components = {}
    residual = f.values.copy()
    if k >= 0:
        s = np.sqrt(w)
        r = s * f.values
        for _ in range(2):
            r = r - Q @ (Q.T @ r)
        components[k] = Cochain(X, k, r / s)
        residual -= components[k].values
    wf = w * f.values
    for i in range(k - 1, -1, -1):
        B = proper_level_basis(X, k, i)
        vals = B @ (B.T @ wf)
        components[i] = Cochain(X, k, vals)
        residual -= vals
    components[-1] = Cochain(X, k, residual)
    norms_sq = {i: norm_sq(X, g) for i, g in components.items()}
    return LevelDecomposition(components, norms_sq)
