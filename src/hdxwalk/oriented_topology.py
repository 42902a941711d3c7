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

from dataclasses import dataclass, field

import numpy as np

from .complex_core import ComplexError, _cached_op, _sub, canonical_face
from .cochain_ops import Cochain, LinOp, multi_down, weight_vector

__all__ = [
    "BalanceReport",
    "OrientedCochain",
    "balanced_check",
    "coboundary",
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

    def build():
        sub = _sub(X, i + 1)
        mat = np.zeros((len(sub), X.n_faces(i)))
        # column j of sub drops the j-th vertex, which carries the sign (-1)^j
        mat[np.arange(len(sub))[:, None], sub] = (-1.0) ** np.arange(i + 2)
        return LinOp(i, i + 1, mat)

    return _cached_op(X, ("coboundary", i), build)


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
    exactly when its link-weighted mean vanishes.  That mean is one adjoint
    average of ``f``: ``|(delta^T W f)(s)| / ((k+1) w(s))`` with ``delta``
    the coboundary ``delta_{k-1}`` (the sign ``(-1)^k`` of moving ``v`` to
    its place cancels under the absolute value).
    """
    k = f.dim
    if k < 1:
        raise ComplexError("local minimality needs dimension >= 1")
    means = coboundary(X, k - 1).matrix.T @ (weight_vector(X, k) * f.values)
    residuals = np.abs(means) / ((k + 1) * weight_vector(X, k - 1))
    return dict(zip(X.faces(k - 1), residuals.tolist()))


@dataclass(frozen=True)
class BalanceReport:
    """Whether a set of k-faces carries the same weighted mass seen from
    every i-face's link as it does globally.

    ``companion_residual`` is the worst localization mean of the centered
    indicator over the i-faces, the same adjoint average applied to
    ``1_S - total`` instead of ``1_S``; for a perfectly balanced set it
    vanishes with the defect.
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
    of s |``.  The local S-masses are ``multi_down(X, i, k-i) @ 1_S``; the
    same matrix applied to the centered indicator gives the companion
    residual."""
    S = [canonical_face(t) for t in S]
    if not S:
        raise ComplexError("empty face set")
    k = len(S[0]) - 1
    if any(len(t) != k + 1 for t in S):
        raise ComplexError("faces in S have mixed dimensions")
    for t in S:
        if t not in X or len(t) - 1 != k:
            raise ComplexError(f"face {t} is not a {k}-face of the complex")
    if not -1 <= i < k:
        raise ComplexError(f"balance level must satisfy -1 <= i < {k}")
    indicator = np.zeros(X.n_faces(k))
    indicator[[X.face_index[t] for t in S]] = 1.0
    total = float(weight_vector(X, k) @ indicator)
    M = multi_down(X, i, k - i).matrix
    per_face = np.abs(total - M @ indicator)
    companion = np.abs(M @ (indicator - total))
    return BalanceReport(
        tuple(sorted(S)),
        k,
        i,
        float(per_face.max()),
        float(companion.max()),
        dict(zip(X.faces(i), per_face.tolist())),
    )
