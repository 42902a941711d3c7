"""Spectra of walk operators under the weighted inner product.

The walk matrices are not symmetric as arrays, but detailed balance against
the face weights makes them self-adjoint in the weighted inner product.
Conjugating by ``W^(1/2)`` (``W`` the diagonal of face weights) exposes that
to a symmetric eigensolver, which is how every spectrum here is computed.

``gamma_profile`` collects, per dimension ``j``, the worst second
eigenvalue of the vertex walk over all links of ``j``-faces; these numbers
drive every contraction bound in :mod:`hdxwalk.theorem_verify`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complex_core import ComplexError, _cached_op, link_of
from .cochain_ops import LinOp, nonlazy, weight_vector

__all__ = [
    "ExpanderReport",
    "GammaProfile",
    "HypothesisError",
    "Spectrum",
    "gamma_profile",
    "is_connected",
    "is_local_spectral_expander",
    "lambda2_skeleton",
    "psd_sqrt",
    "selfadjoint_spectrum",
]

SELFADJOINT_TOL = 1e-10
SPECTRAL_TOL = 1e-9


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
    the complex itself).
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
    """W^(1/2) A W^(-1/2), rejecting operators that are not self-adjoint."""
    if op.source_dim != op.target_dim:
        raise ComplexError("spectrum requires a square operator (equal dims)")
    w = weight_vector(X, op.source_dim)
    WA = w[:, None] * op.matrix
    asym = float(np.max(np.abs(WA - WA.T))) if WA.size else 0.0
    if asym > SELFADJOINT_TOL:
        raise ComplexError(
            f"operator is not self-adjoint under the weighted inner product "
            f"(max asymmetry {asym:.3e})"
        )
    sq = np.sqrt(w)
    B = (sq[:, None] * op.matrix) / sq[None, :]
    return (B + B.T) / 2.0, sq


def selfadjoint_spectrum(X, op: LinOp) -> Spectrum:
    """All eigenvalues of a weighted-self-adjoint operator, descending."""
    B, _ = _symmetrized(X, op)
    vals = np.linalg.eigvalsh(B)
    return Spectrum(vals[::-1].copy(), op.source_dim)


def psd_sqrt(X, op: LinOp) -> LinOp:
    """Square root of a PSD self-adjoint operator.

    Shares the operator's eigenvectors with square-rooted eigenvalues;
    eigenvalues in [-1e-6, 0) are treated as rounding and clamped to 0,
    anything smaller is rejected.
    """
    B, sq = _symmetrized(X, op)
    vals, vecs = np.linalg.eigh(B)
    if vals.size and vals[0] < -1e-6:
        raise ComplexError(f"operator is not PSD (eigenvalue {vals[0]:.3e})")
    vals = np.clip(vals, 0.0, None)
    Bs = (vecs * np.sqrt(vals)) @ vecs.T
    mat = (Bs / sq[:, None]) * sq[None, :]
    return LinOp(op.source_dim, op.target_dim, mat)


def is_connected(X) -> bool:
    """Union-find connectivity of the 1-skeleton."""
    if X.top_dim < 0:
        return False
    verts = X.faces(0)
    if len(verts) <= 1:
        return True
    if X.top_dim < 1:
        return False
    parent = {v: v for v in verts}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in X.faces(1):
        parent[find((u,))] = find((v,))
    root = find(verts[0])
    return all(find(v) == root for v in verts)


def lambda2_skeleton(X) -> float:
    """Second-largest eigenvalue of the non-lazy vertex walk on the
    1-skeleton.  Requires dimension >= 1 and a connected skeleton."""

    def build():
        if X.top_dim < 1:
            raise ComplexError("lambda2 needs a complex of dimension >= 1")
        if not is_connected(X):
            raise HypothesisError("1-skeleton is disconnected")
        return selfadjoint_spectrum(X, nonlazy(X, 0)).second

    return _cached_op(X, "lambda2", build)


def gamma_profile(X) -> GammaProfile:
    """gamma_j = max over j-faces of lambda2 of the face's link, j=-1..d-2."""

    def build():
        if X.top_dim < 1:
            raise ComplexError("gamma profile needs dimension >= 1")
        gamma = {}
        for j in range(-1, X.top_dim - 1):
            worst = -np.inf
            for sigma in X.faces(j):
                link = link_of(X, sigma)
                try:
                    val = lambda2_skeleton(link)
                except HypothesisError:
                    raise HypothesisError(
                        f"link of {sigma} has a disconnected 1-skeleton"
                    ) from None
                worst = max(worst, val)
            gamma[j] = worst
        return GammaProfile(gamma)

    return _cached_op(X, "gamma_profile", build)


def is_local_spectral_expander(X, lam) -> ExpanderReport:
    """Does every link (the complex itself included) have vertex-walk second
    eigenvalue at most ``lam``?  Tolerance 1e-9 on the comparison."""
    worst_face = None
    worst_value = -np.inf
    for j in range(-1, X.top_dim - 1):
        for sigma in X.faces(j):
            link = link_of(X, sigma)
            try:
                val = lambda2_skeleton(link)
            except HypothesisError:
                raise HypothesisError(
                    f"link of {sigma} has a disconnected 1-skeleton"
                ) from None
            if val > worst_value:
                worst_value = val
                worst_face = sigma
    return ExpanderReport(
        passed=bool(worst_value <= lam + SPECTRAL_TOL),
        worst_face=worst_face,
        worst_value=float(worst_value),
        threshold=float(lam),
    )
