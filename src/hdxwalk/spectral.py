"""Spectra of walk operators under the weighted inner product.

The walk matrices are not symmetric as arrays, but detailed balance against
the face weights makes them self-adjoint in the weighted inner product.
Conjugating by ``W^(1/2)`` (``W`` the diagonal of face weights) exposes that
to a symmetric eigensolver, which is how every spectrum here is computed.

Link spectra live in one per-face table: ``link_lambda2(X, j)`` holds,
for every ``j``-face in canonical order, the second eigenvalue of the
non-lazy vertex walk on its link (cache key ``("link_lambda2", j)``).  It
builds no link complex.  The symmetrized link walk has the closed form
``w(s+uv) / ((j+3) sqrt(w(s+u) w(s+v)))``, so the walks of all links are
scattered from the subface arrays ``_sub(X, j+1)`` and ``_sub(X, j+2)``
(cache keys ``("sub", k, k-1)``) and the weights, and diagonalized in one
batched call per link size.  Connectivity is decided combinatorially on
the same edges; ``is_connected`` and ``random_pure`` in
:mod:`hdxwalk.cli_io` use that test too.
``gamma_profile`` (the worst value per ``j``), ``lambda2_skeleton`` (the
entry at ``j = -1``), ``is_local_spectral_expander`` and the link tables
of :mod:`hdxwalk.theorem_verify` all read this table; its numbers drive
every contraction bound there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complex_core import ComplexError, _cached_op, _face_at, _sub
from .cochain_ops import LinOp, weight_vector

__all__ = [
    "ExpanderReport",
    "GammaProfile",
    "HypothesisError",
    "Spectrum",
    "gamma_profile",
    "is_connected",
    "is_local_spectral_expander",
    "lambda2_skeleton",
    "link_lambda2",
    "selfadjoint_spectrum",
]

# asymmetry of W A allowed relative to min(1, max |W A|)
SELFADJOINT_TOL = 1e-10
SPECTRAL_TOL = 1e-9
# second eigenvalues this close count as tied when naming the worst link:
# the 241 exactly tied links of partite(6,6,6,6) spread over 2.7 eps when
# facet weights differ by an ulp
TIE_TOL = 32 * np.finfo(float).eps


class HypothesisError(ValueError):
    """A theorem hypothesis fails on this complex (e.g. disconnectedness)."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a self-adjoint operator, sorted descending."""

    eigenvalues: np.ndarray = field(repr=False)
    dim: int

    @property
    def top(self):
        return float(self.eigenvalues[0])

    @property
    def second(self):
        return float(self.eigenvalues[1])


@dataclass(frozen=True)
class GammaProfile:
    """Worst link second-eigenvalue per dimension j in -1..d-2.

    ``gamma[j]`` is the maximum over j-faces of the second-largest
    eigenvalue of the non-lazy vertex walk on the face's link (j = -1 is
    the complex itself), or an array of such maxima, one per complex.
    """

    gamma: dict

    def __getitem__(self, j):
        return self.gamma[j]

    def dims(self):
        return sorted(self.gamma)


@dataclass(frozen=True)
class ExpanderReport:
    passed: bool
    worst_face: tuple
    worst_value: float
    threshold: float


def _symmetrized(X, op: LinOp):
    """W^(1/2) A W^(-1/2), rejecting operators that are not self-adjoint:
    the asymmetry of W A may be at most SELFADJOINT_TOL times
    min(1, max |W A|), so never more than SELFADJOINT_TOL absolute."""
    if op.source_dim != op.target_dim:
        raise ComplexError("spectrum requires a square operator (equal dims)")
    w = weight_vector(X, op.source_dim)
    WA = w[:, None] * op.matrix
    scale = float(np.max(np.abs(WA))) if WA.size else 0.0
    asym = float(np.max(np.abs(WA - WA.T))) if WA.size else 0.0
    if asym > SELFADJOINT_TOL * min(1.0, scale):
        raise ComplexError(
            f"operator is not self-adjoint under the weighted inner product "
            f"(max asymmetry {asym:.3e})"
        )
    sq = np.sqrt(w)
    B = (sq[:, None] * op.matrix) / sq[None, :]
    return (B + B.T) / 2.0


def selfadjoint_spectrum(X, op: LinOp) -> Spectrum:
    """All eigenvalues of a weighted-self-adjoint operator, descending."""
    B = _symmetrized(X, op)
    vals = np.linalg.eigvalsh(B)
    return Spectrum(vals[::-1].copy(), op.source_dim)


def is_connected(X) -> bool:
    """Connectivity of the 1-skeleton, decided on the link graph of the
    empty face (see :func:`_link_graph`)."""
    if X.top_dim < 0:
        return False
    if X.n_faces(0) <= 1:
        return True
    return X.top_dim >= 1 and _link_graph(X, -1)[-1] is None


def _link_incidences(X, j):
    """Link vertices of the j-faces, grouped by face: the (j+1)-faces over a
    j-face sigma, in canonical order, are the vertices of sigma's link.

    Returns ``(counts, starts, gid)``: ``counts[sigma]`` link vertices
    start at ``starts[sigma]`` in the grouped order, and ``gid[t, c]`` is
    the grouped position of the (j+1)-face t seen from its subface
    ``_sub(X, j+1)[t, c]``.  :func:`link_lambda2` scatters its walks by
    it, and ``trickling_down_check`` its vertex links (j = 0)."""
    flat = _sub(X, j + 1).ravel()
    counts = np.bincount(flat, minlength=X.n_faces(j))
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    gid = np.empty(len(flat), dtype=np.intp)
    gid[np.argsort(flat, kind="stable")] = np.arange(len(flat))
    return counts, starts, gid.reshape(-1, j + 2)


def _link_edges(X, j, gid):
    """Every edge of every j-face's link with its symmetrized walk entry.

    A (j+2)-face rho and two of its positions a < b give the edge
    {rho_a, rho_b} in the link of sigma = rho - {rho_a, rho_b}; its link
    vertices are the (j+1)-faces ta = rho - rho_a and tb = rho - rho_b, and
    the entry of W^(1/2) M W^(-1/2) for the link's non-lazy vertex walk M is
    ``w(rho) / ((j+3) sqrt(w(ta) w(tb)))``.  Returns the grouped positions
    of the two endpoints and the entries."""
    sub = _sub(X, j + 2)
    pairs = np.array([(a, b) for b in range(j + 3) for a in range(b)]).T
    ta = sub[:, pairs[0]]
    tb = sub[:, pairs[1]]
    # sigma is ta minus rho_b, at position b-1 of ta, and tb minus rho_a,
    # at position a of tb
    u = gid[ta, pairs[1] - 1]
    v = gid[tb, pairs[0]]
    sq = np.sqrt(weight_vector(X, j + 1))
    vals = weight_vector(X, j + 2)[:, None] / ((j + 3) * (sq[ta] * sq[tb]))
    return u.ravel(), v.ravel(), vals.ravel()


def _components(n, u, v):
    """Connected-component label (its least member) of each of ``n`` nodes
    under the edges (u, v): hook roots onto smaller roots, then jump
    pointers, until every edge joins one root."""
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        if np.array_equal(lu, lv):
            return label
        low = np.minimum(lu, lv)
        np.minimum.at(label, lu, low)
        np.minimum.at(label, lv, low)
        while True:
            nxt = label[label]
            if np.array_equal(nxt, label):
                break
            label = nxt


def _link_graph(X, j):
    """The links of all j-faces as one graph on their grouped vertices
    (see :func:`_link_incidences` and :func:`_link_edges`).

    Returns ``(counts, starts, u, v, vals, bad)``: ``bad`` is the position
    of the first j-face whose link has a disconnected 1-skeleton, or None.
    """
    counts, starts, gid = _link_incidences(X, j)
    u, v, vals = _link_edges(X, j, gid)
    owner = np.repeat(np.arange(len(counts)), counts)
    label = _components(len(owner), u, v)
    split = owner[label != starts[owner]]
    bad = int(split.min()) if split.size else None
    return counts, starts, u, v, vals, bad


def link_lambda2(X, j) -> np.ndarray:
    """lambda2 of the non-lazy vertex walk on the link of every j-face, for
    -1 <= j <= d-2, in canonical face order (j = -1: the complex itself).

    No link complex is built: the symmetrized walks are scattered from the
    subface arrays and weights (see :func:`_link_edges`), grouped by vertex
    count, and diagonalized in one batched call per count.  Connectivity is
    decided on the same edges, combinatorially; a disconnected link raises
    HypothesisError naming the first such face.  Cached under
    ``("link_lambda2", j)``.
    """
    if not -1 <= j <= X.top_dim - 2:
        raise ComplexError(f"link spectra need -1 <= j <= {X.top_dim - 2}, got {j}")

    def build():
        counts, starts, u, v, vals, bad = _link_graph(X, j)
        if bad is not None:
            raise HypothesisError(f"link of {_face_at(X, j, bad)} has a disconnected 1-skeleton")
        face = np.repeat(np.arange(len(counts)), counts)[u]
        lu, lv = u - starts[face], v - starts[face]
        lam = np.empty(len(counts))
        for m in np.flatnonzero(np.bincount(counts)):  # the distinct sizes
            of_size = counts == m
            slot = np.cumsum(of_size) - 1  # position among the faces of size m
            e = np.flatnonzero(of_size[face])
            S = np.zeros((int(of_size.sum()), m, m))
            S[slot[face[e]], lu[e], lv[e]] = vals[e]
            S[slot[face[e]], lv[e], lu[e]] = vals[e]
            lam[of_size] = np.linalg.eigvalsh(S)[:, -2]
        return lam

    return _cached_op(X, ("link_lambda2", j), build)


def lambda2_skeleton(X) -> float:
    """Second-largest eigenvalue of the non-lazy vertex walk on the
    1-skeleton.  Requires dimension >= 1 and a connected skeleton."""
    if X.top_dim < 1:
        raise ComplexError("lambda2 needs a complex of dimension >= 1")
    try:
        return float(link_lambda2(X, -1)[0])
    except HypothesisError:
        raise HypothesisError("1-skeleton is disconnected") from None


def gamma_profile(X) -> GammaProfile:
    """gamma_j = max over j-faces of lambda2 of the face's link, j=-1..d-2."""
    if X.top_dim < 1:
        raise ComplexError("gamma profile needs dimension >= 1")
    return GammaProfile(
        {j: float(link_lambda2(X, j).max()) for j in range(-1, X.top_dim - 1)}
    )


def is_local_spectral_expander(X, lam) -> ExpanderReport:
    """Does every link (the complex itself included) have vertex-walk second
    eigenvalue at most ``lam``?  Tolerance 1e-9 on the comparison.  The
    worst value is the largest second eigenvalue; the worst face is the
    first face in (dimension, canonical) order within ``TIE_TOL`` of it, so
    links that tie in exact arithmetic do not leave the choice to rounding."""
    tables = [link_lambda2(X, j) for j in range(-1, X.top_dim - 1)]
    worst_value = max((float(vals.max()) for vals in tables), default=-np.inf)
    worst_face = None
    for j, vals in enumerate(tables, start=-1):
        near = np.flatnonzero(vals >= worst_value - TIE_TOL)
        if near.size:
            worst_face = _face_at(X, j, int(near[0]))
            break
    return ExpanderReport(
        passed=bool(worst_value <= lam + SPECTRAL_TOL),
        worst_face=worst_face,
        worst_value=worst_value,
        threshold=float(lam),
    )
