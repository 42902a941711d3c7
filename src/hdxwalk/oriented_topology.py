"""Oriented cochains, the coboundary operator, and minimal cochains.

Oriented cochains store one value per canonically sorted face and change
sign under odd permutations of the evaluation tuple; ascending vertex order
is the underlying orientation throughout.  The coboundary ``delta`` is the
usual alternating-sign difference operator (with the scalar-to-constant
convention at dimension -1, so the 0-dimensional coboundaries are exactly
the constants), and minimality of a cochain within its coset modulo
coboundaries is a weighted least-squares projection.

Perfectly balanced sets of faces live at the end of the module: a set of
k-faces whose weighted density looks the same from every i-face's link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .complex_core import ComplexError, _faces_over, canonical_face, link_of
from .cochain_ops import Cochain, LinOp, inner_product, weight_vector

__all__ = [
    "BalanceReport",
    "OrientedCochain",
    "balanced_check",
    "coboundary",
    "k_level_check",
    "local_minimality_residuals",
    "minimal_representative",
    "perm_sign",
]


def perm_sign(seq):
    """Sign of the permutation sorting ``seq`` (entries distinct)."""
    seq = list(seq)
    sign = 1
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return sign


@dataclass(frozen=True, eq=False)
class OrientedCochain:
    """Alternating real function on oriented ``dim``-faces.

    One representative per face is stored (canonical ascending order);
    :meth:`evaluate` applies the permutation sign for any other ordering.
    """

    complex: object
    dim: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.complex.n_faces(self.dim),):
            raise ComplexError(
                f"oriented cochain of dimension {self.dim} needs "
                f"{self.complex.n_faces(self.dim)} values"
            )
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_dict(cls, X, k, mapping):
        vals = np.zeros(X.n_faces(k))
        for face, value in mapping.items():
            face = tuple(face)
            vals[X.index_of(canonical_face(face))] = perm_sign(face) * float(value)
        return cls(X, k, vals)

    def evaluate(self, face_tuple):
        """Value on an arbitrarily ordered tuple of distinct vertices."""
        face = canonical_face(face_tuple)
        return perm_sign(face_tuple) * float(self.values[self.complex.index_of(face)])

    def as_cochain(self):
        return Cochain(self.complex, self.dim, self.values.copy())


def coboundary(X, i) -> LinOp:
    """Coboundary ``delta_i`` on oriented cochains: alternating sum of the
    values on the vertex-deleted subfaces.  ``delta_{-1}`` lifts the scalar
    at the empty face to the constant vertex function; ``delta delta = 0``.
    """
    if not -1 <= i <= X.top_dim - 1:
        raise ComplexError(f"coboundary needs -1 <= i < {X.top_dim}, got {i}")
    rows = X.faces(i + 1)
    mat = np.zeros((len(rows), X.n_faces(i)))
    for r, sigma in enumerate(rows):
        for j in range(len(sigma)):
            sub = sigma[:j] + sigma[j + 1 :]
            mat[r, X.face_index[sub]] += (-1.0) ** j
    return LinOp(i, i + 1, mat)


def minimal_representative(X, f: OrientedCochain) -> OrientedCochain:
    """Least-norm element of ``f + im(delta)``: the weighted-orthogonal
    projection of ``f`` off the coboundaries (minimality over the reals is
    a strictly convex problem, so the projection is the argmin)."""
    k = f.dim
    if k < 0:
        raise ComplexError("minimal_representative needs dimension >= 0")
    B = coboundary(X, k - 1).matrix
    w = weight_vector(X, k)
    sw = np.sqrt(w)
    g, *_ = np.linalg.lstsq(sw[:, None] * B, sw * f.values, rcond=None)
    return OrientedCochain(X, k, f.values - B @ g)


def local_minimality_residuals(X, f: OrientedCochain) -> dict:
    """Per-(k-1)-face defect of local minimality.

    The localization of ``f`` to a (k-1)-face ``s`` sends each link vertex
    ``v`` to the signed evaluation ``f(s, v)``; since the 0-dimensional
    coboundaries of a link are the constants, the localization is minimal
    exactly when its link-weighted mean vanishes.
    """
    k = f.dim
    if k < 1:
        raise ComplexError("local minimality needs dimension >= 1")
    residuals = {}
    for sigma in X.faces(k - 1):
        w_sigma = X.weight[sigma]
        acc = 0.0
        sset = set(sigma)
        for tau in _faces_over(X, sigma, k):
            (v,) = set(tau) - sset
            wv = X.weight[tau] / ((k + 1) * w_sigma)
            acc += wv * f.evaluate(sigma + (v,))
        residuals[sigma] = abs(acc)
    return residuals


def k_level_check(X, f: OrientedCochain) -> float:
    """Max over (k-1)-faces of |<localized f, 1>| in the face's link.

    Computes the same quantity as :func:`local_minimality_residuals` through
    the link/inner-product machinery instead of direct weight ratios; kept
    as an independent code path on purpose.
    """
    k = f.dim
    if k < 1:
        raise ComplexError("k_level_check needs dimension >= 1")
    worst = 0.0
    for sigma in X.faces(k - 1):
        link = link_of(X, sigma)
        vals = np.array([f.evaluate(sigma + (v,)) for (v,) in link.faces(0)])
        loc = Cochain(link, 0, vals)
        worst = max(worst, abs(inner_product(link, loc, Cochain.ones(link, 0))))
    return worst


@dataclass(frozen=True)
class BalanceReport:
    """Whether a set of k-faces carries the same weighted mass seen from
    every i-face's link as it does globally.

    ``companion_residual`` is the worst localization mean of the centered
    indicator over the i-faces, evaluated through the link machinery; for a
    perfectly balanced set it vanishes with the defect.
    """

    faces: tuple
    dim: int
    level: int
    defect: float
    companion_residual: float
    per_face: dict = field(repr=False)

    @property
    def balanced(self):
        return self.defect <= 1e-12


def balanced_check(X, S, i) -> BalanceReport:
    """Defect of perfect balance of ``S`` over links of dimension ``i``:
    ``max over i-faces s of | total weight of S - local S-mass in the link
    of s |``."""
    S = [canonical_face(t) for t in S]
    if not S:
        raise ComplexError("empty face set")
    k = len(S[0]) - 1
    if any(len(t) != k + 1 for t in S):
        raise ComplexError("faces in S have mixed dimensions")
    for t in S:
        if t not in X.weight or len(t) - 1 != k:
            raise ComplexError(f"face {t} is not a {k}-face of the complex")
    if not -1 <= i < k:
        raise ComplexError(f"balance level must satisfy -1 <= i < {k}")
    total = sum(X.weight[t] for t in S)
    denom = math.comb(k + 1, i + 1)
    over = {}  # i-face -> the faces of S containing it, in the order of S
    for t in S:
        for sigma in combinations(t, i + 1):
            over.setdefault(sigma, []).append(t)
    per_face = {}
    for sigma in X.faces(i):
        local = sum(
            X.weight[t] / (denom * X.weight[sigma]) for t in over.get(sigma, ())
        )
        per_face[sigma] = abs(total - local)
    defect = max(per_face.values())

    from .cochain_ops import localize

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
            loc = localize(X, centered, sigma, link=link)
            mean = inner_product(link, loc, Cochain.ones(link, loc.dim))
        companion = max(companion, abs(mean))
    return BalanceReport(
        tuple(sorted(S)), k, i, float(defect), float(companion), per_face
    )
