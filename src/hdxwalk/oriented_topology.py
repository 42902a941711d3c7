"""Oriented cochains, the coboundary operator, and minimal cochains.

Oriented cochains store one value per canonically sorted face and change
sign under odd permutations of the evaluation tuple; ascending vertex order
is the underlying orientation throughout.  The coboundary ``delta`` is the
usual alternating-sign difference operator (with the scalar-to-constant
convention at dimension -1, so the 0-dimensional coboundaries are exactly
the constants), and the minimal cochain of a coset modulo coboundaries is
the weighted-orthogonal projection off them, found by CGLS on the
column-scaled weighted coboundary with the sparse products of the level
flag's top lift (``level_decomp._gather`` and ``_scatter``).

Perfectly balanced sets of faces live at the end of the module: a set of
k-faces whose weighted density looks the same from every i-face's link.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complex_core import ComplexError, _cached_op, _sub, canonical_face
from .cochain_ops import Cochain, LinOp, multi_down, weight_vector
from .level_decomp import _gather, _scatter

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


# the worst local-minimality residual minimal_representative stops at, in
# units of eps max|f|
CG_TARGET = 2.0
# the worst residual, in units of eps max|f|, above which a projection that
# stalled or ran out of iterations is refused: about 2.3e-13 max|f|, far
# under the CLI's 1e-10 max|f| gate
CG_BOUND = 1024.0
# the CGLS iterations minimal_representative may take per (k-1)-face
CG_CAP = 32


def _signs(k):
    """``(-1)^c`` for column c of ``_sub(X, k)``: the c-th vertex dropped."""
    return (-1.0) ** np.arange(k + 1)


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
        mat[np.arange(len(sub))[:, None], sub] = _signs(i + 1)
        return LinOp(i, i + 1, mat)

    return _cached_op(X, ("coboundary", i), build)


def minimal_representative(X, f: OrientedCochain) -> OrientedCochain:
    """Least-norm element of ``f + im(delta)``: the weighted-orthogonal
    projection of ``f`` off the coboundaries (minimality over the reals is
    a strictly convex problem, so the projection is the argmin).

    In ``sqrt(w)`` coordinates it is ``y - A x`` for ``y = sqrt(w) f`` and
    x a least-squares solution of ``A x = y`` by CGLS (Hestenes and
    Stiefel, 1952), with A the weighted coboundary ``sqrt(W_k)
    delta_(k-1)`` with each column divided by its norm ``d = sqrt((k+1)
    w_(k-1))``.  A is one gather and ``A^T`` one ``bincount``: no matrix
    with a row per face is built, nothing is factored or cached.

    ``(A^T r)_s / d_s`` is the local-minimality residual at the (k-1)-face
    s, and the aim is every residual at most ``CG_TARGET eps max|f|``,
    rounding, not the CLI's gate.  A run of CG works on the n faces still
    above that, so rounding at faces of large weight does not steer the
    steps for faces of small weight.  It ends at the target or, once its
    ``|A^T r|^2`` is down to their rounding, ``(eps max|f|)^2 sum d^2``,
    after ``2 (n + 1)`` steps that do not lower their worst residual: in
    exact arithmetic CG needs at most n steps, and under skewed weights its
    residuals rise for many steps before they fall.  The next run restarts
    from the true residual of the best iterate, until a restart does not
    halve the worst residual, or ``CG_CAP (n_(k-1) + 1)`` iterations are
    spent.  If the worst residual is then above ``CG_BOUND eps max|f|`` a
    ComplexError is raised: an unconverged projection is never reported.
    """
    k = f.dim
    if k < 0:
        raise ComplexError("minimal_representative needs dimension >= 0")
    sub, m = _sub(X, k), X.n_faces(k - 1)
    sw = np.sqrt(weight_vector(X, k))
    d = np.sqrt((k + 1) * weight_vector(X, k - 1))
    a = sw[:, None] * _signs(k) / d[sub]
    # f scaled by a power of two to max|f| in [0.5, 1), exactly, so no
    # inner product overflows or underflows
    e = np.frexp(np.max(np.abs(f.values)))[1]
    y = sw * np.ldexp(f.values, -e)
    eps, top = np.finfo(float).eps, np.ldexp(np.max(np.abs(f.values)), -e)
    target, cap = CG_TARGET * eps * top, CG_CAP * (m + 1)
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
    if min(worst, best) > CG_BOUND * eps * top:
        raise ComplexError(
            f"the minimal representative of a {k}-cochain did not converge: "
            f"local residual {min(worst, best) / top:.2g} max|f| after {steps} CG iterations"
        )
    return OrientedCochain(X, k, np.ldexp(kept / sw, e))


def local_minimality_residuals(X, f: OrientedCochain) -> dict:
    """Per-(k-1)-face defect of local minimality.

    The localization of ``f`` to a (k-1)-face ``s`` sends each link vertex
    ``v`` to the signed evaluation ``f(s, v)``; since the 0-dimensional
    coboundaries of a link are the constants, the localization is minimal
    exactly when its link-weighted mean vanishes.  That mean is one adjoint
    average of ``f``: ``|(delta^T W f)(s)| / ((k+1) w(s))`` with ``delta``
    the coboundary ``delta_{k-1}`` (the sign ``(-1)^k`` of moving ``v`` to
    its place cancels under the absolute value), and ``delta^T W f`` is one
    ``bincount`` over the subfaces of the k-faces, signed ``(-1)^c``.
    """
    k = f.dim
    if k < 1:
        raise ComplexError("local minimality needs dimension >= 1")
    wf = weight_vector(X, k) * f.values
    means = np.bincount(_sub(X, k).ravel(), (wf[:, None] * _signs(k)).ravel(), X.n_faces(k - 1))
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
