"""Cochains and the averaging/walk operators of a weighted complex.

A ``k``-cochain is a real vector over the canonically ordered ``k``-faces,
paired with the weighted inner product ``<f, g> = sum_s w(s) f(s) g(s)``.
The multi-step averages ``multi_up`` (``d_{k+i-1} ... d_k``) and their
exact adjoints ``multi_down`` generate everything else: ``diff`` and
``adjoint_diff`` (``d_k`` and ``d*_k``) are their one-step case, and they
give the up-down, down-up and non-lazy walks.

Every operator is materialized as a dense matrix (rows indexed by target
faces, columns by source faces); the complexes here are desk scale, which
keeps adjointness and spectrum checks exact to near machine precision.
Each lift, its adjoint, the up-down walk and the non-lazy walk is its
closed form, one numpy scatter over a subface array
``complex_core._subfaces``; only the down-up walk is a product, of lifts
through the smaller dimension ``k - i``.  Each operator has this one route
here; the loop-based entrywise tables and the second routes of walk
identities that the tests compare them against live in ``tests/oracle.py``.
``weight_vector`` is re-exported from complex_core.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complex_core import (
    ComplexError,
    _cached_op,
    _over,
    _sub,
    _subfaces,
    canonical_face,
    link_of,
    weight_vector,
)

__all__ = [
    "Cochain",
    "LinOp",
    "adjoint_diff",
    "diff",
    "down_up",
    "inner_product",
    "localize",
    "multi_down",
    "multi_up",
    "nonlazy",
    "norm_sq",
    "up_down",
    "weight_vector",
]


@dataclass(frozen=True, eq=False)
class Cochain:
    """Real-valued function on the ``dim``-faces of ``complex``."""

    complex: object
    dim: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.complex.n_faces(self.dim),):
            raise ComplexError(
                f"cochain of dimension {self.dim} needs "
                f"{self.complex.n_faces(self.dim)} values, got {vals.shape}"
            )
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, X, k):
        return cls(X, k, np.zeros(X.n_faces(k)))

    @classmethod
    def ones(cls, X, k):
        return cls(X, k, np.ones(X.n_faces(k)))

    @classmethod
    def from_dict(cls, X, k, mapping, default=0.0):
        vals = np.full(X.n_faces(k), float(default))
        for face, value in mapping.items():
            vals[X.index_of(canonical_face(face))] = float(value)
        return cls(X, k, vals)

    def __call__(self, face):
        return float(self.values[self.complex.index_of(canonical_face(face))])


@dataclass(frozen=True, eq=False)
class LinOp:
    """Dense linear map between cochain spaces of one complex.

    ``matrix`` has shape ``(#target faces, #source faces)``.
    """

    source_dim: int
    target_dim: int
    matrix: np.ndarray = field(repr=False)

    def apply(self, f: Cochain) -> Cochain:
        if f.dim != self.source_dim:
            raise ComplexError(
                f"operator expects a {self.source_dim}-cochain, got dimension {f.dim}"
            )
        return Cochain(f.complex, self.target_dim, self.matrix @ f.values)

    def __call__(self, f: Cochain) -> Cochain:
        return self.apply(f)


def _same_space(X, f: Cochain):
    if f.complex is X:
        return
    if f.complex.top_dim == X.top_dim and f.complex.faces(f.dim) == X.faces(f.dim):
        return
    raise ComplexError("cochain does not live on the given complex")


def inner_product(X, f: Cochain, g: Cochain) -> float:
    """Weighted inner product ``sum_s w(s) f(s) g(s)`` of two k-cochains."""
    if f.dim != g.dim:
        raise ComplexError(f"dimension mismatch: {f.dim} vs {g.dim}")
    _same_space(X, f)
    _same_space(X, g)
    w = weight_vector(X, f.dim)
    return float(np.dot(w * f.values, g.values))


def norm_sq(X, f: Cochain) -> float:
    return inner_product(X, f, f)


def localize(X, f: Cochain, sigma) -> Cochain:
    """Localization ``f_sigma(t) = f(sigma | t)`` on the link of ``sigma``.

    Requires ``dim(sigma) < dim(f)``; the result lives on ``link_of(X,
    sigma)`` and has dimension ``dim(f) - dim(sigma) - 1``.  The p-th
    face of the link is the p-th face over ``sigma``, so the values are
    one gather.
    """
    _same_space(X, f)
    sigma = canonical_face(sigma)
    if sigma not in X:
        raise ComplexError(f"face {sigma} is not in the complex")
    i = len(sigma) - 1
    if i >= f.dim:
        raise ComplexError(
            f"cannot localize a {f.dim}-cochain at a face of dimension {i}"
        )
    if sigma == ():
        return f
    return Cochain(link_of(X, sigma), f.dim - i - 1, f.values[_over(X, sigma, f.dim)[0]])


def diff(X, k) -> LinOp:
    """Signless differential ``d_k``: average a k-cochain over the
    (k+1)-subfaces, ``(d f)(s) = mean of f over k-faces inside s``.

    Rows sum to 1 and constants are preserved.  Defined for ``-1 <= k < d``.
    """
    if not -1 <= k <= X.top_dim - 1:
        raise ComplexError(f"diff needs -1 <= k < {X.top_dim}, got {k}")
    return multi_up(X, k, 1)


def adjoint_diff(X, k) -> LinOp:
    """Adjoint ``d*_k`` of :func:`diff` under the weighted inner products.

    Explicitly, ``(d* f)(t) = sum over vertices v of the link of t of
    w_t(v) f(t | v)``, a link-weighted average one dimension down.
    """
    if not -1 <= k <= X.top_dim - 1:
        raise ComplexError(f"adjoint_diff needs -1 <= k < {X.top_dim}, got {k}")
    return multi_down(X, k, 1)


def multi_up(X, k, i) -> LinOp:
    """The average ``d_{k+i-1} ... d_k`` lifting k-cochains to (k+i)-cochains:
    the uniform mean over the k-subfaces of each (k+i)-face, the identity
    at ``i = 0``."""
    if i < 0 or not -1 <= k or k + i > X.top_dim:
        raise ComplexError(f"multi_up range violation: k={k}, i={i}, d={X.top_dim}")

    def build():
        sub = _subfaces(X, k + i, k)
        mat = np.zeros((len(sub), X.n_faces(k)))
        mat[np.arange(len(sub))[:, None], sub] = 1.0 / sub.shape[1]
        return LinOp(k, k + i, mat)

    return _cached_op(X, ("multi_up", k, i), build)


def multi_down(X, k, i) -> LinOp:
    """The W-adjoint ``d*_k ... d*_{k+i-1}`` of :func:`multi_up`, dropping
    (k+i)-cochains to k: each (k+i)-face t sends
    ``w(t) / (C(k+i+1, k+1) w(s))`` to each of its k-subfaces s."""
    if i < 0 or not -1 <= k or k + i > X.top_dim:
        raise ComplexError(f"multi_down range violation: k={k}, i={i}, d={X.top_dim}")

    def build():
        sub = _subfaces(X, k + i, k)
        mat = np.zeros((X.n_faces(k), len(sub)))
        mat[sub, np.arange(len(sub))[:, None]] = weight_vector(X, k + i)[:, None] / (
            sub.shape[1] * weight_vector(X, k)[sub]
        )
        return LinOp(k + i, k, mat)

    return _cached_op(X, ("multi_down", k, i), build)


def up_down(X, k, i=1) -> LinOp:
    """``i``-fold up-down walk on k-cochains: up ``i`` averaging steps, then
    down ``i`` adjoint steps (``d*_k ... d*_{k+i-1} d_{k+i-1} ... d_k``).

    Closed form: entry ``[s, t]`` is the sum of ``w(rho) / (c^2 w(s))`` over
    the (k+i)-faces ``rho`` containing both s and t, ``c = C(k+i+1, k+1)``
    the number of k-subfaces of each ``rho``.
    """
    if i < 1 or k < 0 or k + i > X.top_dim:
        raise ComplexError(f"up_down range violation: k={k}, i={i}, d={X.top_dim}")

    def build():
        # one bincount over the c^2 ordered pairs (p, q) of subfaces of every
        # rho: the diagonal collects a term from every coface, and for i >= 2
        # off-diagonal pairs repeat too.  Each term is rounded as the down
        # lift's entry w(rho) / (c w(s)) times the up lift's 1 / c.
        sub = _subfaces(X, k + i, k)
        n, c = X.n_faces(k), sub.shape[1]
        a = np.repeat(sub, c, axis=1)  # [rho, (p, q)] -> sub[rho, p]
        b = np.tile(sub, c)  # [rho, (p, q)] -> sub[rho, q]
        vals = (weight_vector(X, k + i)[:, None] / (c * weight_vector(X, k)[a])) * (1.0 / c)
        mat = np.bincount((a * n + b).ravel(), vals.ravel(), n * n).reshape(n, n)
        return LinOp(k, k, mat)

    return _cached_op(X, ("up_down", k, i), build)


def down_up(X, k, i=1) -> LinOp:
    """``i``-fold down-up walk on k-cochains: ``i`` adjoint steps down to
    dimension ``k-i``, then ``i`` averaging steps back up.

    ``i = k+1`` runs through the empty face and yields the projection onto
    constants (the lift of the weighted mean).
    """
    if i < 1 or k > X.top_dim or k - i < -1:
        raise ComplexError(f"down_up range violation: k={k}, i={i}")
    return _cached_op(
        X,
        ("down_up", k, i),
        lambda: LinOp(k, k, multi_up(X, k - i, i).matrix @ multi_down(X, k - i, i).matrix),
    )


def nonlazy(X, k) -> LinOp:
    """Non-lazy k-dimensional walk: move between two k-faces that span a
    common (k+1)-face, never stay in place.

    Entry ``[s, t] = w_s(t - s) / (k+1)`` when ``s | t`` is a (k+1)-face,
    zero otherwise (in particular on the diagonal).  Row-stochastic,
    self-adjoint under the weighted inner product, and equal to
    ``((k+2) U_k - I) / (k+1)``.
    """
    if not 0 <= k <= X.top_dim - 1:
        raise ComplexError(f"nonlazy needs 0 <= k < {X.top_dim}, got {k}")

    def build():
        # one scatter over the subface array of the (k+1)-faces: every
        # ordered pair (p, q) of subfaces of rho is a walk step; two
        # distinct k-faces span at most one (k+1)-face, so every entry is
        # written once
        sub = _sub(X, k + 1)
        a = np.repeat(sub, k + 2, axis=1)  # [rho, (p, q)] -> sub[rho, p]
        b = np.tile(sub, k + 2)  # [rho, (p, q)] -> sub[rho, q]
        off = a != b
        # w_s(v) / (k+1) = w(rho) / ((k+1)(k+2) w(s))
        vals = (1.0 / (k + 1)) * weight_vector(X, k + 1)[:, None] / (
            (k + 2) * weight_vector(X, k)[a]
        )
        n = X.n_faces(k)
        mat = np.zeros((n, n))
        mat[a[off], b[off]] = vals[off]
        return LinOp(k, k, mat)

    return _cached_op(X, ("nonlazy", k), build)
