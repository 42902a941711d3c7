"""Pure weighted simplicial complexes.

A pure ``d``-dimensional complex is a downward-closed family of faces in
which every face sits inside some ``d``-dimensional face.  Facet weights
are normalized to sum to 1 and propagated downward by averaged containment
counts, so the weights of each dimension form a probability distribution.

A complex is stored once, as read-only arrays: its vertex ids, ascending
(cache key ``("vertex_ids",)``), and for each dimension k = -1..d the
k-faces as an (n_k, k+1) array of vertex ranks (positions among the ids),
each row ascending and the rows in lexicographic order (``("rows", k)``),
with their weights (``("weights", k)``).  The tuple lists ``X.faces(k)``
and the ``weight`` and ``face_index`` dicts are views, built from the
arrays when first asked for, to look up, name or write faces; the
numerics read the arrays.  Everything derived is memoized on the instance
through :func:`_cached_op`, without a lock, and every array the memo holds
is read-only (:func:`_read_only`).

Faces are found by integer keys (:func:`_keys`), and downward incidence is
one int array per pair of dimensions (:func:`_subfaces`), from which every
operator and the link spectra are scattered; :func:`_closure` builds the
keys and the one-step arrays (:func:`_sub`) with the complex, from one
sort per dimension whose inverse gives every facet subset its face
(:func:`_distinct`), so building searches no table.
Links are read off the rank rows: the k-faces over a face sigma are the
rows of ``_rows(X, k)`` that hold every rank of sigma, found by one mask
(:func:`_over`).  Removing sigma from the sets that contain it keeps
their lexicographic order, since the least element of the symmetric
difference of two of them does not change, so the p-th face over sigma
gives the p-th face of its link.
"""

from __future__ import annotations

import math
import sys
from itertools import chain, combinations

import numpy as np

__all__ = [
    "ComplexError",
    "PureComplex",
    "build_complex",
    "canonical_face",
    "link_of",
    "skeleton_of",
    "weight_vector",
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
    """Pure weighted simplicial complex, stored as the read-only arrays
    ``vertex_ids``, ``rows[k]`` and ``weights[k]`` (see the module docstring).

    Not meant to be instantiated directly; use :func:`build_complex`,
    :func:`link_of` or :func:`skeleton_of`.
    """

    __slots__ = ("top_dim", "_cache")

    def __init__(self, top_dim, vertex_ids, rows, weights):
        self.top_dim = top_dim
        self._cache = {("vertex_ids",): vertex_ids}
        for k in range(-1, top_dim + 1):
            self._cache["rows", k], self._cache["weights", k] = rows[k], weights[k]
        for array in self._cache.values():
            _read_only(array)

    def faces(self, k):
        """Faces of dimension ``k`` in canonical (lexicographic) order, as
        tuples of vertex ids; a view cached under ``("faces", k)``."""
        ids, rows = _vertex_ids(self), _rows(self, k)
        return _cached_op(self, ("faces", k), lambda: [*map(tuple, ids[rows].tolist())])

    def n_faces(self, k):
        return len(_rows(self, k))

    @property
    def faces_by_dim(self):
        return {k: self.faces(k) for k in range(-1, self.top_dim + 1)}

    @property
    def facets(self):
        return self.faces(self.top_dim)

    def _by_face(self, name, values):
        """The view cached under ``(name,)``: a dict from every face, one
        dimension after another, to ``values(k)``."""
        pairs = (zip(self.faces(k), values(k)) for k in range(-1, self.top_dim + 1))
        return _cached_op(self, (name,), lambda: dict(chain.from_iterable(pairs)))

    @property
    def weight(self):
        """Face -> weight; a view cached under ``("weight",)``."""
        return self._by_face("weight", lambda k: weight_vector(self, k).tolist())

    @property
    def face_index(self):
        """Face -> position in ``faces(k)``; a view cached under ``("face_index",)``."""
        return self._by_face("face_index", lambda k: range(self.n_faces(k)))

    def __contains__(self, face):
        return tuple(face) in self.weight

    def index_of(self, face):
        try:
            return self.face_index[tuple(face)]
        except KeyError:
            raise ComplexError(f"face {tuple(face)} is not in the complex") from None

    def validate(self):
        """Check order, closure, purity, weight normalization and the recursion.

        The rows of each dimension must be in lexicographic order, each row
        strictly ascending, and the weights finite and positive.  Closure
        holds when the subface index :func:`_sub` of every dimension builds.
        The facet weights are then pushed down it,
        ``e(s) = (sum of e(t) over the (k+1)-faces t over s) / (k+2)``;
        in a pure complex, skeletons included, that gives back ``w(s)``.
        A face with no pushed mass lies under no facet (purity), the weights
        of each dimension k = -1..d must sum to 1, and a face off by more
        than ``WEIGHT_TOL`` breaks the recursion.  Raises ComplexError on
        the first violated invariant.
        """
        d = self.top_dim
        for k in range(-1, d + 1):
            rows, w = _rows(self, k), weight_vector(self, k)
            if k >= 0:
                # each row against the next: their first differing rank must rise
                step = np.diff(rows, axis=0)
                if (step[np.arange(len(step)), (step != 0).argmax(axis=1)] < 0).any():
                    raise ComplexError(f"faces of dimension {k} are not sorted")
            # per face, the first of these checks it fails is reported
            faults = np.stack([(rows[:, 1:] <= rows[:, :-1]).any(axis=1), w <= 0, ~np.isfinite(w)])
            if faults.any():
                pos = np.argmax(faults.any(axis=0))
                face = _face_at(self, k, pos)
                raise ComplexError(
                    (
                        f"face {face} is not strictly ascending",
                        f"non-positive weight on {face}",
                        f"non-finite weight on {face}",
                    )[np.argmax(faults[:, pos])]
                )
        for k in range(d + 1):
            try:
                _sub(self, k)
            except KeyError:
                sub, face = next(
                    (sub, face)
                    for face in self.faces(k)
                    for sub in combinations(face, k)
                    if sub not in self.face_index
                )
                raise ComplexError(f"closure violated: {sub} missing under {face}") from None
        pushed = {d: weight_vector(self, d)}
        for k in range(d - 1, -2, -1):
            mass = np.repeat(pushed[k + 1], k + 2)
            pushed[k] = np.bincount(_sub(self, k + 1).ravel(), mass, self.n_faces(k)) / (k + 2)
        msg = {-1: "weight of the empty face is not 1", d: "facet weights do not sum to 1"}
        for k in range(-1, d + 1):
            if not pushed[k].all():
                raise ComplexError(f"purity violated at {_face_at(self, k, np.argmin(pushed[k]))}")
            total = math.fsum(weight_vector(self, k).tolist())
            if abs(total - 1.0) > WEIGHT_TOL:
                raise ComplexError(msg.get(k, f"weights of dimension {k} sum to {total!r}, not 1"))
        for k in range(-1, d):
            off = np.abs(pushed[k] - weight_vector(self, k)) > WEIGHT_TOL
            if off.any():
                face = _face_at(self, k, np.argmax(off))
                raise ComplexError(f"weight recursion violated at {face}")
        return True

    def is_close(self, other, tol=WEIGHT_TOL):
        """Same faces and the same weights up to ``tol``."""
        if self.top_dim != other.top_dim:
            return False
        return all(
            self.faces(k) == other.faces(k)
            and (np.abs(weight_vector(self, k) - weight_vector(other, k)) <= tol).all()
            for k in range(-1, self.top_dim + 1)
        )

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
    widths = set(map(len, facets))
    rows = None
    if len(widths) == 1:
        ids = list(map(int, chain.from_iterable(facets)))
        rows = _canonical_rows(ids, len(facets), widths.pop())
    weights_ok = facet_weights is None
    if not weights_ok and len(facet_weights) == len(facets):
        w = np.fromiter(map(float, facet_weights), float, len(facets))
        weights_ok = bool(((w > 0) & (w < math.inf)).all())
    if rows is None or not weights_ok:
        _check_facets(facets, facet_weights)
        raise AssertionError("the facet loop accepted what the array checks rejected")
    return _closure(rows, facet_weights)


def _check_facets(facets, facet_weights):
    """:func:`build_complex`'s checks one facet at a time, run only after the
    array checks found a fault: raises ComplexError naming the first one."""
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


def _id_array(ids, n, width):
    """The vertex ids ``ids`` (flat, or ``n`` sequences of ``width``) as an
    (n, width) array: int64, or object when an id needs more than 64 bits."""
    try:
        array = np.asarray(ids, dtype=np.int64)
    except OverflowError:
        array = np.array(ids, dtype=object)
    return array.reshape(n, width)


def _canonical_rows(ids, n, width):
    """``n`` faces of ``width`` vertex ids each (see :func:`_id_array`) as
    an (n, width) array with every row ascending, or None when a face
    repeats a vertex or has a negative one."""
    rows = np.sort(_id_array(ids, n, width), axis=1, kind="stable")
    if width and ((rows[:, 0] < 0).any() or (rows[:, 1:] == rows[:, :-1]).any()):
        return None
    return rows


def _distinct(values):
    """The distinct entries of the 1-D array ``values`` in ascending order,
    the position in ``values`` of one occurrence of each, and the inverse:
    the position of each entry of ``values`` among the distinct ones.  One
    sort of any kind gives all three, ``inverse[order] = cumsum(first) - 1``,
    since tied entries are equal whichever of them comes first.  Passed a
    temporary, it lets ``values`` go once sorted, so it holds at most three
    arrays of that length at once."""
    order = values.argsort()
    ordered = values[order]
    del values
    first = np.ones(len(ordered), bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct, rep = ordered[first], order[first]
    del ordered
    rank = np.cumsum(first, dtype=np.intp)
    rank -= 1
    inverse = np.empty_like(rank)
    inverse[order] = rank
    return distinct, rep, inverse


def _closure(facets, facet_weights):
    """The complex of the (m, d+1) array ``facets``, each row ascending and
    non-negative, with ``facet_weights`` None or m finite positive weights;
    :func:`build_complex` and ``parse_complex`` check both first.  Raises
    ComplexError on a duplicate facet or a weight that is not a normal float.

    One sort of the ids ranks the vertices: the ranks are its inverse
    (:func:`_distinct`).  Level by level every facet's k-subsets,
    facet-major, are keyed by (position of the subset minus its last vertex
    among the (k-1)-faces) * n_0 + (rank of its last vertex).  Keys ascend
    with the faces' lexicographic order and stay below n_(k-1) * n_0, so
    one sort of the keys gives the k-faces in canonical order, its distinct
    keys, and each subset's face, its inverse: no level searches.  A key
    names one face, so the rank row and the subface row read off any one
    subset with that key are the face's.  The facet weights are
    normalized by their ``math.fsum``, and the weights of a level are one
    ``bincount`` over those faces: the normalized facet weights over each
    face added in facet order from 0.0, as a dict closure adds them.  The
    stored arrays (vertex ids, rank rows, weights), the one-step subface
    arrays (:func:`_sub`) and the face keys all fall out of the same pass.
    """
    m, width = facets.shape
    d = width - 1
    if facet_weights is None:
        top = np.full(m, 1.0 / m)
    else:
        top = np.fromiter(map(float, facet_weights), float, m)
        try:
            # exactly rounded: the same on every interpreter and in any order
            total = math.fsum(facet_weights)
        except OverflowError:  # the weights sum past the largest float
            total = math.inf
        top /= total
    ids, _, ranks = _distinct(facets.ravel())
    ranks = ranks.reshape(m, width)
    n0 = len(ids)

    combos = [()]  # the column subsets of the previous level, in order
    inv = np.zeros((m, 1), np.intp)  # face of every facet's previous-level subset
    rows = {-1: np.zeros((1, 0), np.intp)}
    weights = {-1: np.bincount(inv.ravel(), top, 1)}
    cached = {}
    for k in range(d + 1):
        index = {c: i for i, c in enumerate(combos)}
        combos = list(combinations(range(width), k + 1))
        cols = np.array(combos)
        # drop[c, i]: the previous-level subset that is combo c minus its i-th column
        drop = np.array([[index[c[:i] + c[i + 1 :]] for i in range(k + 1)] for c in combos])
        # the subset keys, a temporary that _distinct lets go once sorted
        keys, rep, subset_face = _distinct(
            (inv[:, drop[:, k]] * n0 + ranks[:, cols[:, k]]).ravel()
        )
        f, c = np.divmod(rep, len(combos))
        rows[k] = ranks[f[:, None], cols[c]]
        cached[("keys", k)] = keys
        cached[("sub", k, k - 1)] = inv[f[:, None], drop[c]]
        over = np.bincount(subset_face, np.repeat(top, len(combos)), len(keys))
        weights[k] = over / math.comb(width, k + 1)
        inv = subset_face.reshape(m, len(combos))
    if len(rows[d]) < m:
        raise ComplexError("duplicate facet")
    if min(w.min() for w in weights.values()) < sys.float_info.min:
        # the facet weights overflowed when summed, or span so many decades
        # that a normalized weight underflowed
        raise ComplexError("facet weights out of range: a weight is not a normal float")
    X = PureComplex(d, ids, rows, weights)
    X._cache.update((key, _read_only(array)) for key, array in cached.items())
    return X


def _stored(X, name, k):
    """The stored array ``name`` ("rows" or "weights") of dimension ``k``."""
    if not -1 <= k <= X.top_dim:
        raise ComplexError(f"dimension {k} out of range -1..{X.top_dim}")
    return X._cache[(name, k)]


def weight_vector(X, k) -> np.ndarray:
    """Face weights of dimension ``k`` in canonical order (sums to 1): the
    read-only array stored under ``("weights", k)``."""
    return _stored(X, "weights", k)


def _read_only(value):
    """``value`` with the arrays it holds made read-only: itself, the entries
    of a tuple, or the ``matrix`` of a LinOp."""
    for part in value if isinstance(value, tuple) else (getattr(value, "matrix", value),):
        if isinstance(part, np.ndarray):
            part.flags.writeable = False
    return value


def _cached_op(X, key, builder):
    """``builder()``, computed once per complex and key and kept in
    ``X._cache`` with its arrays read-only (:func:`_read_only`): the one
    memo mechanism of the package, so no caller can corrupt a later one."""
    if key not in X._cache:
        X._cache[key] = _read_only(builder())
    return X._cache[key]


def _locate(table, values):
    """Positions of ``values`` in the ascending array ``table``; KeyError
    when one is absent."""
    pos = np.searchsorted(table, values)
    if values.size and not (len(table) and (table.take(pos, mode="clip") == values).all()):
        raise KeyError("not a face")
    return pos


def _vertex_ids(X):
    """The vertex ids of ``X`` in ascending order, an int (or object) array
    stored under ``("vertex_ids",)``; a vertex's rank is its position here."""
    return X._cache[("vertex_ids",)]


def _rows(X, k):
    """``X.faces(k)`` as the (n_k, k+1) array of vertex ranks stored under
    ``("rows", k)``."""
    return _stored(X, "rows", k)


def _face_at(X, k, pos):
    """The ``pos``-th k-face of ``X`` as a tuple of vertex ids, read off the
    arrays, for messages and reports that name a single face."""
    return tuple(_vertex_ids(X)[_rows(X, k)[pos]].tolist())


def _keys(X, k):
    """The integer keys of ``X.faces(k)``, k >= 0, ascending: (position of
    the face minus its last vertex in ``X.faces(k-1)``) * (number of vertex
    ids) + (rank of its last vertex).  Cached under ``("keys", k)``."""
    return _cached_op(
        X, ("keys", k), lambda: _sub(X, k)[:, k] * len(_vertex_ids(X)) + _rows(X, k)[:, k]
    )


def _find(X, rows):
    """Positions in ``X.faces(j)`` of the faces given as an (N, j+1) array of
    ascending vertex ranks, found through the keys of their prefixes;
    KeyError when one is not a face."""
    pos = np.zeros(len(rows), np.intp)  # the empty face
    for j in range(rows.shape[1]):
        pos = _locate(_keys(X, j), pos * len(_vertex_ids(X)) + rows[:, j])
    return pos


def _positions(X, faces):
    """Positions in ``X.faces(j)`` of the faces given as an (N, j+1) array of
    ascending vertex ids; KeyError when one is not a face of ``X``."""
    return _find(X, _locate(_vertex_ids(X), faces))


def _subfaces(X, k, j):
    """Positions in ``X.faces(j)`` of the j-subfaces of every k-face, -1 <= j
    <= k: an (n_k, C(k+1, j+1)) int array, one column per set of kept vertex
    columns in reverse lexicographic order, so at j = k-1 column ``c`` drops
    the c-th vertex; found by key (KeyError when one is missing).  Cached
    under ``("sub", k, j)``, where :func:`_closure` leaves those of j = k-1."""

    def build():
        kept = reversed(list(combinations(range(k + 1), j + 1)))
        return np.stack([_find(X, _rows(X, k)[:, list(c)]) for c in kept], axis=1)

    return _cached_op(X, ("sub", k, j), build)


def _sub(X, k):
    """``_subfaces(X, k, k-1)``, 0 <= k <= top_dim: column ``c`` holds each
    k-face minus its c-th vertex; the walks and link spectra scatter over it."""
    return _subfaces(X, k, k - 1)


def _over(X, sigma, k):
    """The k-faces of ``X`` over the face ``sigma``: their positions in
    ``X.faces(k)``, ascending, and their vertex ranks less sigma's, as an
    array of k - dim(sigma) columns; KeyError when a vertex of sigma is not
    a vertex id of ``X``."""
    ids = _vertex_ids(X)
    member = np.zeros(len(ids), bool)
    member[_locate(ids, _id_array(sigma, len(sigma), 1).ravel())] = True
    rows = _rows(X, k)
    hit = member[rows]
    pos = np.flatnonzero(hit.sum(axis=1) == len(sigma))
    return pos, rows[pos][~hit[pos]].reshape(len(pos), k + 1 - len(sigma))


def link_of(X, sigma):
    """Link of ``sigma``: the complex of ``t - sigma`` for faces ``t`` over it.

    Weights are induced: a ``j``-face ``t`` of the link of an ``i``-face
    weighs ``w(t | sigma) / (C(i+j+2, i+1) * w(sigma))``.  The link of the
    empty face is the complex itself.  The faces ``t`` over ``sigma`` come
    from one mask over the rank rows of each dimension (:func:`_over`); the
    link ranks its vertices among those over sigma.
    """
    sigma = canonical_face(sigma)
    if sigma not in X:
        raise ComplexError(f"face {sigma} is not in the complex")
    if sigma == ():
        return X
    i = len(sigma) - 1
    if i >= X.top_dim:
        raise ComplexError(f"link of top-dimensional face {sigma} is empty")

    def build():
        d_link = X.top_dim - i - 1
        w_sigma = weight_vector(X, i)[_over(X, sigma, i)[0][0]]  # the one i-face over sigma
        verts = _over(X, sigma, i + 1)[1].ravel()  # ascending ranks in X
        rows, weights = {}, {}
        for j in range(-1, d_link + 1):
            pos, rest = _over(X, sigma, i + j + 1)
            rows[j] = np.searchsorted(verts, rest)
            weights[j] = weight_vector(X, i + j + 1)[pos] / (math.comb(i + j + 2, i + 1) * w_sigma)
        return PureComplex(d_link, _vertex_ids(X)[verts], rows, weights)

    return _cached_op(X, ("link", sigma), build)


def skeleton_of(X, i):
    """Faces of dimension at most ``i``, keeping the original weights.

    The skeleton shares the arrays of ``X``.  Its weights still satisfy the
    recursion from its own top faces: in a pure complex the i-faces over a
    k-face carry ``C(i+1, k+1)`` times its weight.
    """
    if not 0 <= i <= X.top_dim:
        raise ComplexError(f"skeleton dimension {i} out of range 0..{X.top_dim}")
    if i == X.top_dim:
        return X
    dims = range(-1, i + 1)
    return PureComplex(
        i, _vertex_ids(X), {k: _rows(X, k) for k in dims}, {k: weight_vector(X, k) for k in dims}
    )
