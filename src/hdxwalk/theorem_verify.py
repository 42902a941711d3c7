"""Executable certificates for the spectral bounds on walk operators.

Every check evaluates both sides of a bound on concrete cochains and
reports the slack (bound minus quadratic form); a theorem "passes" when
the slack never drops below -1e-9.  The contraction coefficients all come
from one closed form over the gamma profile,

    lambda(i, k) = 1 - (1 / (k - i + 1)) * prod_{j=i-1}^{k-1} (1 - gamma_j),

which is the contraction certified for a proper i-level k-cochain; i = 0
recovers the single worst-case coefficient that ignores structure.

The four levelled bounds (advantage, fine-grained, Alev-Lau, up-down) are
evaluated on a block of cochains at once by :func:`check_block`: with the
level table built once per dimension, norms and means are column
reductions, the masses of the levels below the top are one product with
their stack, the top level's mass is the rest of the norm, and each
quadratic form is one matrix product, so a certificate over thousands of
cochains costs at most two matrix products per block.  The per-cochain
``*_check`` functions are one-column calls into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .complex_core import ComplexError, _rows, _sub
from .cochain_ops import (
    Cochain,
    _same_space,
    multi_down,
    nonlazy,
    up_down,
    weight_vector,
)
from .level_decomp import _level_bases
from .spectral import (
    GammaProfile,
    HypothesisError,
    _link_incidences,
    gamma_profile,
    lambda2_skeleton,
    link_lambda2,
    selfadjoint_spectrum,
)

__all__ = [
    "LEVELLED",
    "BlockReport",
    "BoundReport",
    "BootstrapCertificate",
    "LambdaTable",
    "TricklingReport",
    "advantage_check",
    "alev_lau_check",
    "bootstrap_certificate",
    "check_block",
    "fine_grained_check",
    "lambda_table",
    "levelled_dims",
    "random_mean_zero_block",
    "random_mean_zero_cochain",
    "trickling_down_check",
    "updown_corollary_check",
]

SLACK_TOL = 1e-9

# the bounds whose both sides are inner products against fixed matrices,
# so that check_block evaluates them on a block of cochains at once
LEVELLED = ("fine-grained", "alev-lau", "updown", "advantage")


@dataclass(frozen=True)
class LambdaTable:
    """Closed-form contraction coefficients over a gamma profile.

    ``value(i, k)`` is the certified bound on the Rayleigh quotient of the
    non-lazy k-walk on proper i-level cochains.
    """

    gamma: dict
    values: dict = field(repr=False)

    def value(self, i, k):
        return self.values[(i, k)]

    def coefficients(self, k):
        return {i: self.values[(i, k)] for i in range(0, k + 1)}


def lambda_table(profile) -> LambdaTable:
    """Fill the closed form for all 0 <= i <= k <= 1 + the profile's top
    dimension (k <= d-1 for a d-complex), entrywise when gammas are arrays."""
    gamma = dict(profile.gamma)
    values = {}
    for k in range(0, max(profile.dims()) + 2):
        for i in range(0, k + 1):
            prod = math.prod(1.0 - gamma[j] for j in range(i - 1, k))
            values[(i, k)] = 1.0 - prod / (k - i + 1)
    return LambdaTable(gamma, values)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: quadratic form (lhs), bound (rhs), and the
    per-level coefficients against the component masses."""

    lhs: float
    rhs: float
    per_level: dict
    details: dict = field(default_factory=dict)

    @property
    def slack(self):
        return self.rhs - self.lhs

    @property
    def passed(self):
        return self.slack >= -SLACK_TOL


@dataclass(frozen=True)
class BlockReport:
    """One bound evaluated on every column of a block of cochains: ``lhs``
    and ``rhs`` are arrays over the columns, ``per_level`` maps a level to
    (coefficient, column masses), and ``details`` holds scalars and column
    arrays."""

    lhs: np.ndarray
    rhs: np.ndarray
    per_level: dict
    details: dict = field(default_factory=dict)

    @property
    def slack(self):
        return self.rhs - self.lhs

    def column(self, c) -> BoundReport:
        """The report of column ``c`` alone."""
        return BoundReport(
            float(self.lhs[c]),
            float(self.rhs[c]),
            {i: (coeff, float(mass[c])) for i, (coeff, mass) in self.per_level.items()},
            {name: float(v[c]) if np.ndim(v) else v for name, v in self.details.items()},
        )


def _colsum(A, B):
    """Column sums of the entrywise product ``A * B``."""
    return np.einsum("ij,ij->j", A, B)


def _pairwise_colsum(A, B):
    """Column sums of ``A * B`` with the rows added pairwise, halving in
    place: a rounding error of about log2(n) eps, where the sequential sum
    of :func:`_colsum` was 47 eps off on 500 rows, for one more pass over
    the product."""
    P = A * B
    n = len(P)
    while n > 1:
        h = n // 2
        P[:h] += P[h:2 * h]
        if n % 2:
            P[h - 1] += P[n - 1]
        n = h
    return P[0].copy()


def levelled_dims(X, theorem) -> range:
    """The cochain dimensions k a levelled bound is stated for."""
    if theorem not in LEVELLED:
        raise ComplexError(f"unknown levelled theorem {theorem!r}")
    return range(1, X.top_dim + 1) if theorem == "advantage" else range(0, X.top_dim)


def check_block(X, theorem, k, F) -> BlockReport:
    """Evaluate one levelled bound (a name in :data:`LEVELLED`) on every
    column of ``F``, an ``n_k x m`` block of k-cochain values.

    Weighted norms are pairwise column sums (:func:`_pairwise_colsum`),
    means and quadratic forms column reductions.  The masses of the
    proper levels -1..k-1 are ``|B_i^T W F|^2`` per column, from one
    product with their W-orthonormal stack (:func:`_level_bases`).  The
    levels -1..k are complete and W-orthogonal, so the top level's mass is
    the rest of the norm, ``|f|^2`` less theirs, and the top basis, often
    the widest level, is never read.  Where a column has no top
    part, that mass is rounding of either sign, about eps ``|f|^2``, and
    is not clamped.  Against long-double bases (``tests/oracle.py``), on
    complete(9,3), complete(16,3), partite(5,5,5,5) and
    random_pure(30,2,900) at every k < d (50 random columns and every
    basis column), the remainder was at most 2.0e-15 ``|f|^2`` off in
    every cell, about the error of the lower masses (up to 2.1e-15), as
    ``|f|^2`` itself was at most 3.7e-16 off; ``|T^T W F|^2`` was up to
    3.3e-15 off.  With a sequential sum for ``|f|^2`` the remainder was
    8.7e-15 off on partite(5,5,5,5) at k = 2, on level-0 basis columns.
    The masses equal the ``norms_sq`` of :func:`proper_decompose`, the squared
    W-norms of its components, only up to rounding (on complete(9,3),
    k = 0..2, they differ by up to 1.3e-15 ``|f|^2``).  The quadratic form
    is one product with the dense walk.  Every column must be W-orthogonal
    to the constants: its weighted mean at most 1e-9 times its W-norm.
    """
    dims = levelled_dims(X, theorem)
    if k not in dims:
        raise ComplexError(
            f"{theorem} needs {dims.start} <= k <= {dims.stop - 1}, got k={k}"
        )
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] != X.n_faces(k):
        raise ComplexError(
            f"a block of {k}-cochains needs {X.n_faces(k)} rows, got shape {F.shape}"
        )
    w = weight_vector(X, k)
    WF = w[:, None] * F
    nsq = _pairwise_colsum(WF, F)
    if np.any(np.abs(w @ F) > 1e-9 * np.sqrt(nsq)):
        raise ComplexError("cochain has a nonzero constant component")
    if theorem == "advantage":
        gamma = lambda2_skeleton(X)
        down = multi_down(X, 0, k).matrix @ F
        lhs = _colsum(weight_vector(X, 0)[:, None] * down, down)
        coeff = 1.0 - (k / (k + 1)) * (1.0 - gamma)
        return BlockReport(lhs, coeff * nsq, {0: (coeff, nsq)}, {"gamma": gamma})

    table = lambda_table(gamma_profile(X))
    Q, _, starts = _level_bases(X, k)
    C = Q.T @ WF
    C *= C
    masses = {i: C[starts[i + 1]:starts[i + 2]].sum(axis=0) for i in range(-1, k)}
    masses[k] = nsq - sum(masses.values())
    if theorem == "updown":
        # the exact identity U = ((k+1) M + I) / (k+2) transports each
        # fine-grained coefficient to the lazy up-down walk
        walk = up_down(X, k, 1)
        coeffs = {i: ((k + 1) * table.value(i, k) + 1.0) / (k + 2) for i in range(k + 1)}
    else:
        walk = nonlazy(X, k)
        coeffs = table.coefficients(k)
    lhs = _colsum(WF, walk.matrix @ F)
    per_level = {i: (coeffs[i], masses[i]) for i in range(k + 1)}
    rhs = sum(coeff * mass for coeff, mass in per_level.values())
    if theorem == "fine-grained":
        return BlockReport(lhs, rhs, per_level, {"constant_mass": masses[-1]})
    if theorem == "updown":
        return BlockReport(lhs, rhs, per_level)
    coeff = table.value(0, k)
    worst = coeff * nsq
    return BlockReport(
        lhs,
        worst,
        {0: (coeff, nsq)},
        {"fine_grained_rhs": rhs, "dominance_gap": worst - rhs},
    )


def _check_column(X, theorem, k, f: Cochain) -> BoundReport:
    if f.dim != k:
        raise ComplexError(f"cochain dimension {f.dim} != k={k}")
    _same_space(X, f)
    return check_block(X, theorem, k, f.values[:, None]).column(0)


def advantage_check(X, k, f: Cochain) -> BoundReport:
    """Downward-energy bound for 0-level k-cochains:
    ``|d*_0 ... d*_{k-1} f|^2 <= (1 - (k/(k+1)) (1 - gamma)) |f|^2`` with
    gamma the second eigenvalue of the vertex walk."""
    return _check_column(X, "advantage", k, f)


def fine_grained_check(X, k, f: Cochain) -> BoundReport:
    """Level-resolved bound on the non-lazy k-walk: after the proper level
    decomposition, each component contracts by its own closed-form
    coefficient instead of the worst-case one."""
    return _check_column(X, "fine-grained", k, f)


def alev_lau_check(X, k, f: Cochain) -> BoundReport:
    """Worst-case bound (single coefficient ``lambda(0, k)``); also reports
    how much the fine-grained bound improves on it for this cochain."""
    return _check_column(X, "alev-lau", k, f)


def updown_corollary_check(X, k, f: Cochain) -> BoundReport:
    """The fine-grained bound transported to the (lazy) up-down walk through
    the exact identity ``U = ((k+1) M + I) / (k+2)``."""
    return _check_column(X, "updown", k, f)


@dataclass(frozen=True)
class BootstrapCertificate:
    """Numerical check of the two recursion conditions behind the bounds.

    ``worst_slack_first`` is the margin of the advantage condition
    (quadratic-form maximization over the 0-level subspace),
    ``worst_slack_second`` the margin of the link-to-global table
    condition.  Both must be >= -1e-9.  ``link_tables`` is the vertex
    links' tables as one, its gammas and values arrays over the vertices:
    entry p belongs to the p-th vertex.
    """

    k: int
    table: LambdaTable
    link_tables: LambdaTable
    worst_slack_first: float
    worst_slack_second: float

    @property
    def passed(self):
        return (
            self.worst_slack_first >= -SLACK_TOL
            and self.worst_slack_second >= -SLACK_TOL
        )


def bootstrap_certificate(X, k) -> BootstrapCertificate:
    """Certify the recursion that bootstraps vertex-walk expansion into the
    k-dimensional bound.

    Condition 2: for each level, the worst link coefficient one level down
    is dominated by the global coefficient.  Condition 1: on the 0-level
    subspace, ``lam(1,k) |g|^2 + (1 - lam(1,k)) E_v |const-part of g in the
    link of v|^2 <= lam(0,k) |g|^2``; the expectation collapses to
    ``|d*_0 ... d*_{k-1} g|^2``, whose worst ratio to ``|g|^2`` is
    lambda_2 of the k-fold vertex up-down walk ``up_down(X, 0, k)``, so
    the condition is one eigenvalue of an ``n_0 x n_0`` walk.  The vertex
    links' gammas are read off the per-face link spectra of ``X``
    (:func:`hdxwalk.spectral.link_lambda2`), one scatter-max over the rank
    rows ``_rows(X, j+1)`` per dimension into an array over the vertices,
    and the closed form runs once on those arrays; no link complex is built.
    """
    if not 1 <= k <= X.top_dim - 1:
        raise ComplexError(f"bootstrap_certificate needs 1 <= k < {X.top_dim}")
    table = lambda_table(gamma_profile(X))
    # the link of tau in link(v) is the link of tau + v in X, so gamma_j of
    # link(v) is the worst link_lambda2(X, j+1) over the (j+1)-faces at v
    gamma = {j: np.full(X.n_faces(0), -np.inf) for j in range(-1, X.top_dim - 2)}
    for j, row in gamma.items():
        np.maximum.at(row, _rows(X, j + 1), link_lambda2(X, j + 1)[:, None])
    link_tables = lambda_table(GammaProfile(gamma))
    worst_second = min(
        table.value(i, k) - link_tables.value(i - 1, k - 1).max() for i in range(1, k + 1)
    )

    # U = multi_up(X, 0, k) has W-adjoint D = multi_down(X, 0, k), so the
    # worst <g, U D g> / |g|^2 over 0-level g is the top eigenvalue of D U
    # off the constants, which hold its top eigenvalue 1
    lam0 = table.value(0, k)
    lam1 = table.value(1, k)
    mu = selfadjoint_spectrum(X, up_down(X, 0, k)).second
    worst_first = -((lam1 - lam0) + (1.0 - lam1) * mu)
    return BootstrapCertificate(k, table, link_tables, float(worst_first), float(worst_second))


@dataclass(frozen=True)
class TricklingReport:
    lambda_local: float
    bound: float
    actual: float
    advantage_residual: float
    advantage_tol: float
    passed: bool


def trickling_down_check(X, samples=5, seed=0) -> TricklingReport:
    """Certify that vertex-link expansion trickles down one dimension.

    With every vertex link a ``lam``-expander (lam < 1) and the complex
    connected, the global vertex walk is a ``lam / (1 - lam)``-expander.
    Also certifies the identity that powers the advantage here: averaging a
    restricted cochain over a vertex link equals the non-lazy walk applied
    at that vertex, on ``samples`` Gaussian vertex cochains drawn as one
    block: the walk is one matrix product, and each vertex restricts the
    block to its link with one gather.  Both sides are weighted averages of
    the samples, so the identity holds to ``1e-12 * max|F|`` over the block
    ``F`` (``advantage_tol``).  No link complex is built: the link
    of ``v``, grouped by ``_link_incidences(X, 0)`` as for ``link_lambda2``,
    holds the other endpoints of the edges over ``v`` in ascending position,
    ``u`` weighing ``w(uv) / (2 w(v))``.  A negative ``seed`` raises
    ComplexError.
    """
    if seed < 0:
        raise ComplexError(f"trickling_down_check needs a non-negative seed, got {seed}")
    if X.top_dim < 2:
        raise ComplexError("trickling down needs a complex of dimension >= 2")
    lam = float(link_lambda2(X, 0).max())
    actual = lambda2_skeleton(X)
    if lam >= 1.0 - 1e-12:
        raise HypothesisError(f"vertex links are not expanders (lambda={lam!r})")
    bound = lam / (1.0 - lam)

    # the samples are the rows of one draw, the same stream as drawing them
    # one by one; each vertex restricts all of them with one gather
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((max(samples, 0), X.n_faces(0))).T
    MF = nonlazy(X, 0).matrix @ F
    # edge e, seen from its endpoint ends[e, c], fills slot[e, c] of that
    # endpoint's link with its other endpoint, the reversed row's entry
    _, starts, slot = _link_incidences(X, 0)
    ends = _sub(X, 1)
    other, link_w = np.empty(ends.size, np.intp), np.empty(ends.size)
    other[slot] = ends[:, ::-1]
    link_w[slot] = weight_vector(X, 1)[:, None] / (2 * weight_vector(X, 0)[ends])
    residual = 0.0
    for pos, (nbrs, wl) in enumerate(zip(*(np.split(a, starts[1:]) for a in (other, link_w)))):
        gap = np.abs(F[nbrs].T @ wl - MF[pos])
        residual = max(residual, float(np.max(gap, initial=0.0)))
    tol = 1e-12 * float(np.max(np.abs(F), initial=0.0))
    passed = bool(actual <= bound + SLACK_TOL and residual <= tol)
    return TricklingReport(float(lam), float(bound), float(actual), float(residual), tol, passed)


def random_mean_zero_block(X, k, rng, m) -> np.ndarray:
    """``m`` standard-normal k-cochains as the columns of an ``n_k x m``
    block, each projected off the constants and normalized to unit
    weighted norm (uniform on the sphere of the 0-level space).

    The block is the transpose of one ``(m, n_k)`` draw, whose rows are
    the draws of ``m`` successive calls of :func:`random_mean_zero_cochain`.
    """
    w = weight_vector(X, k)
    G = rng.standard_normal((m, X.n_faces(k)))
    G -= (G @ w)[:, None]
    nrm = np.sqrt((G * G) @ w)
    if np.any(nrm < 1e-14):
        raise ComplexError("degenerate sample (no mean-zero directions)")
    G /= nrm[:, None]
    return G.T


def random_mean_zero_cochain(X, k, rng) -> Cochain:
    """One column of :func:`random_mean_zero_block`."""
    return Cochain(X, k, random_mean_zero_block(X, k, rng, 1)[:, 0])
