"""Pure weighted simplicial complexes.

A pure ``d``-dimensional complex is a downward-closed family of faces in
which every face sits inside some ``d``-dimensional face.  Faces are stored
as ascending tuples of vertex ids, one lexicographically sorted list per
dimension from -1 (the empty face) up to ``d``.  Facet weights are
normalized to sum to 1 and propagated downward by averaged containment
counts, so the weights of each dimension form a probability distribution.

Instances are immutable after construction.  Derived data (links,
operator matrices, spectra, level bases) is memoized on the instance
through :func:`_cached_op`, without a lock.

Incidence is read from one structure, the star index: for each vertex
and dimension, the positions of the faces containing that vertex (the top
row is the facet star).  It is built once per complex and kept under the
cache key ``("star",)``.  Every "faces over sigma" query (links, cofaces)
intersects the stars of sigma's vertices instead of scanning all faces.
Downward incidence is one int array per dimension, ``_sub(X, k)``, the
positions of each k-face's (k-1)-subfaces (cache key ``("sub", k)``);
operator matrices and link spectra are scattered from it.
:meth:`PureComplex.validate` checks closure by building ``_sub`` and the
weight recursion by pushing the facet weights down it, one dimension at a
time.
"""

from __future__ import annotations

import math
import sys
from itertools import combinations

import numpy as np

__all__ = [
    "ComplexError",
    "PureComplex",
    "build_complex",
    "canonical_face",
    "faces",
    "link_of",
    "skeleton_of",
]

WEIGHT_TOL = 1e-12


class ComplexError(ValueError):
    """Invalid construction of, or query on, a simplicial complex."""


def canonical_face(vertices):
    """Sorted tuple of distinct non-negative vertex ids."""
    face = tuple(sorted(int(v) for v in vertices))
    if len(set(face)) != len(face):
        raise ComplexError(f"face {face} has repeated vertices")
    if face and face[0] < 0:
        raise ComplexError(f"face {face} has a negative vertex id")
    return face


class PureComplex:
    """Pure weighted simplicial complex.

    Not meant to be instantiated directly; use :func:`build_complex`,
    :func:`link_of` or :func:`skeleton_of`.
    """

    __slots__ = ("top_dim", "faces_by_dim", "weight", "face_index", "_cache")

    def __init__(self, top_dim, faces_by_dim, weight):
        self.top_dim = top_dim
        self.faces_by_dim = faces_by_dim
        self.weight = weight
        self.face_index = {}
        for k in range(-1, top_dim + 1):
            for pos, face in enumerate(faces_by_dim[k]):
                self.face_index[face] = pos
        self._cache = {}

    def faces(self, k):
        """Faces of dimension ``k`` in canonical (lexicographic) order."""
        if not -1 <= k <= self.top_dim:
            raise ComplexError(f"dimension {k} out of range -1..{self.top_dim}")
        return self.faces_by_dim[k]

    def n_faces(self, k):
        return len(self.faces(k))

    def __contains__(self, face):
        return tuple(face) in self.weight

    def index_of(self, face):
        try:
            return self.face_index[tuple(face)]
        except KeyError:
            raise ComplexError(f"face {tuple(face)} is not in the complex") from None

    @property
    def facets(self):
        return self.faces_by_dim[self.top_dim]

    def validate(self, tol=WEIGHT_TOL):
        """Check closure, purity, weight normalization and the recursion.

        Closure holds when the subface index :func:`_sub` of every
        dimension builds.  The facet weights are then pushed down it,
        ``e(s) = (sum of e(t) over the (k+1)-faces t over s) / (k+2)``;
        in a pure complex, skeletons included, that gives back ``w(s)``.
        A face with no pushed mass lies under no facet (purity), and one
        whose pushed mass is off its weight by more than ``tol`` breaks the
        recursion.  Raises ComplexError on the first violated invariant.
        """
        d = self.top_dim
        for k in range(-1, d + 1):
            lst = self.faces_by_dim[k]
            if sorted(lst) != list(lst):
                raise ComplexError(f"faces of dimension {k} are not sorted")
            for face in lst:
                if len(face) != k + 1:
                    raise ComplexError(f"face {face} filed under dimension {k}")
                if any(a >= b for a, b in zip(face, face[1:])):
                    raise ComplexError(f"face {face} is not strictly ascending")
                w = self.weight[face]
                if w <= 0:
                    raise ComplexError(f"non-positive weight on {face}")
                if not math.isfinite(w):
                    raise ComplexError(f"non-finite weight on {face}")
        for k in range(d + 1):
            try:
                _sub(self, k)
            except KeyError:
                sub, face = next(
                    (sub, face)
                    for face in self.faces_by_dim[k]
                    for sub in combinations(face, k)
                    if sub not in self.face_index
                )
                raise ComplexError(f"closure violated: {sub} missing under {face}") from None
        if abs(self.weight[()] - 1.0) > tol:
            raise ComplexError("weight of the empty face is not 1")
        stored = {
            k: np.array([self.weight[f] for f in self.faces_by_dim[k]])
            for k in range(-1, d + 1)
        }
        pushed = {d: stored[d]}
        for k in range(d - 1, -2, -1):
            mass = np.repeat(pushed[k + 1], k + 2)
            pushed[k] = np.bincount(_sub(self, k + 1).ravel(), mass, len(stored[k])) / (k + 2)
        for k in range(-1, d):
            lst = self.faces_by_dim[k]
            if not pushed[k].all():
                raise ComplexError(f"purity violated at {lst[np.argmin(pushed[k])]}")
            total = sum(self.weight[f] for f in lst)
            if abs(total - 1.0) > tol:
                raise ComplexError(f"weights of dimension {k} sum to {total!r}, not 1")
        if abs(sum(self.weight[f] for f in self.facets) - 1.0) > tol:
            raise ComplexError("facet weights do not sum to 1")
        for k in range(-1, d):
            off = np.abs(pushed[k] - stored[k]) > tol
            if off.any():
                face = self.faces_by_dim[k][np.argmax(off)]
                raise ComplexError(f"weight recursion violated at {face}")
        return True

    def is_close(self, other, tol=WEIGHT_TOL):
        """Same faces and the same weights up to ``tol``."""
        if self.top_dim != other.top_dim:
            return False
        for k in range(-1, self.top_dim + 1):
            if self.faces_by_dim[k] != other.faces_by_dim[k]:
                return False
        return all(abs(w - other.weight[f]) <= tol for f, w in self.weight.items())

    def __repr__(self):
        counts = ",".join(str(self.n_faces(k)) for k in range(self.top_dim + 1))
        return f"PureComplex(dim={self.top_dim}, faces=[{counts}])"


def build_complex(facets, facet_weights=None):
    """Downward closure of ``facets`` with the recursive weight function.

    All facets must have the same dimension ``d`` and be distinct.  When
    ``facet_weights`` is omitted the facets get uniform mass; otherwise the
    given finite positive weights are normalized to sum to 1.  Every lower
    face ``t`` of dimension ``i`` receives
    ``w(t) = sum(w(F) for facets F containing t) / C(d+1, i+1)``, and every
    weight must come out a normal float.
    """
    if not facets:
        raise ComplexError("facet list is empty")
    canon = [canonical_face(f) for f in facets]
    d = len(canon[0]) - 1
    if any(len(f) != d + 1 for f in canon):
        raise ComplexError("facets have mixed dimensions")
    if len(set(canon)) != len(canon):
        raise ComplexError("duplicate facet")
    if facet_weights is not None:
        if len(facet_weights) != len(canon):
            raise ComplexError("facet_weights length does not match facets")
        if not all(0 < w < math.inf for w in facet_weights):
            raise ComplexError("facet weights must be finite and positive")
    return _closure(canon, facet_weights)


def _closure(facets, facet_weights):
    """:func:`build_complex` on input it has checked already: a non-empty
    list of distinct canonical facets of one dimension and, if given, as
    many finite positive weights.  ``parse_complex`` checks the same line by
    line and calls this directly."""
    d = len(facets[0]) - 1
    if facet_weights is None:
        top_weights = [1.0 / len(facets)] * len(facets)
    else:
        total = float(sum(facet_weights))
        top_weights = [float(w) / total for w in facet_weights]

    faces_by_dim = {}
    weight = {}
    for k in range(-1, d + 1):
        # every k-subface of the facets, with the summed weight of the
        # facets over it added in facet order
        over = {}
        for F, wF in zip(facets, top_weights):
            for sub in combinations(F, k + 1):
                over[sub] = over.get(sub, 0.0) + wF
        denom = math.comb(d + 1, k + 1)
        faces_by_dim[k] = sorted(over)
        for face in faces_by_dim[k]:
            weight[face] = over[face] / denom
    if min(weight.values()) < sys.float_info.min:
        # the facet weights overflowed when summed, or span so many decades
        # that a normalized weight underflowed
        raise ComplexError("facet weights out of range: a weight is not a normal float")
    return PureComplex(d, faces_by_dim, weight)


def _cached_op(X, key, builder):
    """``builder()``, computed once per complex and key and kept in
    ``X._cache``; the one memo mechanism of the package."""
    if key not in X._cache:
        X._cache[key] = builder()
    return X._cache[key]


def _star(X):
    """The star index of ``X``: ``star[v][k]`` lists the ascending positions
    in ``X.faces(k)`` of the k-faces containing vertex ``v``; its top row
    ``star[v][X.top_dim]`` is the facet star.  Built once per complex under
    the cache key ``("star",)``."""

    def build():
        star = {v: [[] for _ in range(X.top_dim + 1)] for (v,) in X.faces_by_dim[0]}
        for k in range(X.top_dim + 1):
            for pos, face in enumerate(X.faces_by_dim[k]):
                for v in face:
                    star[v][k].append(pos)
        return star

    return _cached_op(X, ("star",), build)


def _sub(X, k):
    """The subface index array of dimension ``k`` (0 <= k <= top_dim): an
    int array of shape (n_k, k+1) whose column ``c`` holds the position in
    ``X.faces(k-1)`` of each k-face minus its c-th vertex.  Built once per
    complex under the cache key ``("sub", k)``; the operators of
    :mod:`hdxwalk.cochain_ops` and the link spectra of
    :mod:`hdxwalk.spectral` are scattered from it."""

    def build():
        index = X.face_index
        faces_k = X.faces_by_dim[k]
        sub = np.empty((len(faces_k), k + 1), dtype=np.intp)
        for c in range(k + 1):
            sub[:, c] = [index[f[:c] + f[c + 1 :]] for f in faces_k]
        return sub

    return _cached_op(X, ("sub", k), build)


def _faces_over(X, sigma, k):
    """The k-faces of ``X`` containing the non-empty face ``sigma``, in
    canonical order: the intersection of the stars of its vertices."""
    star = _star(X)
    rows = sorted((star[v][k] for v in sigma), key=len)
    common = rows[0] if len(rows) == 1 else sorted(set(rows[0]).intersection(*rows[1:]))
    faces_k = X.faces_by_dim[k]
    return [faces_k[pos] for pos in common]


def link_of(X, sigma):
    """Link of ``sigma``: the complex of ``t - sigma`` for faces ``t`` over it.

    Weights are induced: a ``j``-face ``t`` of the link of an ``i``-face
    weighs ``w(t | sigma) / (C(i+j+2, i+1) * w(sigma))``.  The link of the
    empty face is the complex itself.  The faces ``t`` over ``sigma`` come
    from the star index.
    """
    sigma = canonical_face(sigma)
    if sigma not in X.weight:
        raise ComplexError(f"face {sigma} is not in the complex")
    if sigma == ():
        return X
    i = len(sigma) - 1
    if i >= X.top_dim:
        raise ComplexError(f"link of top-dimensional face {sigma} is empty")

    def build():
        d_link = X.top_dim - i - 1
        sset = set(sigma)
        w_sigma = X.weight[sigma]
        faces_by_dim = {}
        weight = {}
        for j in range(-1, d_link + 1):
            denom = math.comb(i + j + 2, i + 1) * w_sigma
            lst = []
            for tau in _faces_over(X, sigma, i + j + 1):
                rho = tuple(v for v in tau if v not in sset)
                lst.append(rho)
                weight[rho] = X.weight[tau] / denom
            faces_by_dim[j] = sorted(lst)
        return PureComplex(d_link, faces_by_dim, weight)

    return _cached_op(X, ("link", sigma), build)


def skeleton_of(X, i):
    """Faces of dimension at most ``i``, keeping the original weights.

    Weights are copied, not recomputed.  They still satisfy the recursion
    from the skeleton's own top faces: in a pure complex the i-faces over a
    k-face carry ``C(i+1, k+1)`` times its weight.
    """
    if not 0 <= i <= X.top_dim:
        raise ComplexError(f"skeleton dimension {i} out of range 0..{X.top_dim}")
    if i == X.top_dim:
        return X
    faces_by_dim = {k: list(X.faces_by_dim[k]) for k in range(-1, i + 1)}
    weight = {f: X.weight[f] for k in range(-1, i + 1) for f in faces_by_dim[k]}
    return PureComplex(i, faces_by_dim, weight)


def faces(X, k):
    """Canonically ordered faces of dimension ``k`` (see PureComplex.faces)."""
    return X.faces(k)
