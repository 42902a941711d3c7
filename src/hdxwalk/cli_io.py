"""Flat-file formats and complex generators.

Complex files are plain text: a ``dim <d>`` header, then one facet per
line as whitespace-separated vertex ids with an optional trailing weight
(all facets weighted or none); ``#`` starts a comment.  Cochain files look
the same with a mandatory trailing value, each face at most once, and
unlisted faces defaulting to zero.  Weights and values must be finite;
weights must also be normal positive floats, at least
``sys.float_info.min``.
Both formats round-trip bit-faithfully through ``repr`` floats.

A file whose header is its first line and whose first data line follows
it is read by one ``np.loadtxt`` call (:func:`_read`): numpy's C reader
splits the lines, checks every field count against the first line's, and
converts d+1 int64 ids and a float64 weight or value a line.  Each rule
above is a mask over those arrays; a complex's facets go to
``complex_core._closure`` as one int array, and a cochain's faces are
found by the complex's integer face keys.  Where the reader refuses the
text, a mask fires or a line ends at a break other than ``\n``, the token
route reads the file instead: its fields are split once, ids go through
``int`` and weights or values through ``float`` (the reader accepts a
subset of what they accept, with the same values), and each rule is a mask
over the data lines.  Its ParseError names the first line a rule rejects,
with the first rule it breaks, or else the first line with another field
count.  Scans that only locate a fault run once a check has failed.
"""

from __future__ import annotations

import re
import sys
import warnings
from itertools import combinations, product

import numpy as np

from .complex_core import (
    ComplexError,
    _closure,
    _first_broken,
    _id_array,
    _positions,
    _vertex_rules,
    build_complex,
)
from .cochain_ops import Cochain, weight_vector
from .spectral import HypothesisError, _link_graph

__all__ = [
    "ParseError",
    "generate",
    "parse_cochain",
    "parse_complex",
    "write_cochain",
    "write_complex",
]


class ParseError(ValueError):
    """Malformed complex or cochain file (message carries the line number)."""


RANDOM_PURE_RETRIES = 500  # facet sets random_pure draws before it gives up

# a comment runs to the end of its line, as ``str.splitlines`` ends lines
_COMMENT = re.compile(r"#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")
# the line breaks of ``str.splitlines`` at which numpy's reader goes on
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _read(text):
    """``(d, rows, values)``: the header's d and, read by one call of numpy's
    C reader, each data line's d+1 int64 ids, sorted, and float64 last field
    (None if the first data line has d+1 fields).  None unless the header and
    the first data line open the file, or if the reader refuses a token or a
    field count or warns, or a vertex rule rejects a face."""
    lines = text.lstrip().split("\n")
    header = lines[0].split("#", 1)[0].split()
    first = lines[1].split("#", 1)[0].split() if len(lines) > 1 else []
    if len(header) != 2 or header[0] != "dim" or any(c in text for c in _OTHER_BREAKS):
        return None
    try:
        d = int(header[1])
        if not first or len(first) - d not in (1, 2):  # d+1 or d+2 fields
            return None
        weighted = len(first) == d + 2
        dtype = [("ids", np.int64, (d + 1,)), ("value", float)][: 1 + weighted]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines[1:], dtype, comments="#", ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None
    rows = np.sort(table["ids"], axis=1, kind="stable")
    values = table["value"] if weighted else None
    return (d, rows, values) if _clean(_vertex_rules(rows)[1]) else None


def _fields(text, what):
    """A file's header dimension, the number and field count of each data
    line below it, and all their fields in one list; comments go by one
    substitution.  Raises the ParseError of a missing or malformed header."""
    text = _COMMENT.sub("", text)
    lines = text.splitlines()
    counts = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
    data = np.flatnonzero(counts)
    if not len(data):
        raise ParseError(f"empty {what} file")
    head, data = data[0], data[1:]
    header = lines[head].split()
    if len(header) != 2 or header[0] != "dim":
        raise ParseError(f"line {head + 1}: expected 'dim <n>' header, got {lines[head].strip()!r}")
    try:
        dim = int(header[1])
    except ValueError:
        raise ParseError(f"line {head + 1}: bad dimension {header[1]!r}") from None
    tokens = text.split()
    del tokens[:2]
    return dim, data + 1, counts[data], tokens


def _table(counts, widths):
    """How many data lines share the first one's field count (0 if not in ``widths``)."""
    if not len(counts) or counts[0] not in widths:
        return 0
    return int(np.argmax(counts != counts[0])) or len(counts)


def _convert(kind, tokens, n):
    """``kind`` (``int`` or ``float``) of every token, as a list, and the
    mask of the ``n`` lines the tokens fill that hold one it rejects, which
    reads as ``kind()``; token by token only after a ValueError."""
    try:
        return list(map(kind, tokens)), np.zeros(n, bool)
    except ValueError:
        values, rejected = [], []
    for token in tokens:
        try:
            values.append(kind(token))
            rejected.append(False)
        except ValueError:
            values.append(kind())
            rejected.append(True)
    return values, np.reshape(rejected, (n, -1)).any(axis=1)


def _weight_rules(tokens):
    """The weights of the weight tokens, one a line, as a list and an array,
    and the rules a line checks first: its token is a float, then finite."""
    weights, rejected = _convert(float, tokens, len(tokens))
    w = np.array(weights, dtype=float)
    nonfinite = ~np.isfinite(w)
    named = {i: tokens[i] for i in np.flatnonzero(rejected | nonfinite)}  # keeps no other token
    return weights, w, [
        (rejected, lambda i: f"bad weight {named[i]!r}"),
        (nonfinite, lambda i: f"non-finite weight {named[i]!r}"),
    ]


def _first_repeat(keys):
    """The mask of the first of ``keys`` that repeats one, by a set scan."""
    seen = set()
    for i, key in enumerate(keys):
        if key in seen:
            return np.arange(i + 1) == i
        seen.add(key)
    return np.zeros(0, bool)


def _clean(rules):
    """Whether no rule's mask marks a line; the scans do not run."""
    return not any(mask.any() for mask, _ in rules if not callable(mask))


def _first_fault(lines, n, rules, said=None):
    """The ParseError naming the first of the ``n`` table lines a rule
    rejects, with the first rule that does (``complex_core._first_broken``),
    else the next line with ``said``; None if neither exists."""
    row, message = _first_broken(rules, n, said if n < len(lines) else None)
    return None if message is None else ParseError(f"line {lines[row]}: {message}")


def parse_complex(text):
    """Build a complex from its facet file; see the module docstring."""
    d, rows, w = _read(text) or (-1, None, None)
    if d >= 0 and (w is None or ((w >= sys.float_info.min) & (w < np.inf)).all()):
        try:
            return _closure(rows, w)
        except ComplexError:  # a duplicate facet, or a face's weight not a normal float
            pass
    # the token route, which names the fault
    d, lines, counts, tokens = _fields(text, "complex")
    if d < 0:
        raise ParseError("dimension must be non-negative")
    if not len(lines):
        raise ParseError("no facets in file")
    n, width, changed = _table(counts, (d + 1, d + 2)), int(counts[0]), None
    if n < len(lines):  # the first line whose field count is not the table's
        fields = tokens[n * width : n * width + counts[n]]
        changed = f"expected {d + 1} vertices and an optional weight, got {len(fields)} fields"
        if len(fields) in (d + 1, d + 2):
            weight_rules = _weight_rules(fields[d + 1 :])[2]
            mix = "mixing weighted and unweighted facets"
            changed = next((say(0) for mask, say in weight_rules if mask.any()), mix)
        if not n:
            raise _first_fault(lines, 0, [], changed)
        del tokens[n * width :]
    weighted = width == d + 2
    weights, w, rules = _weight_rules(tokens[d + 1 :: width] if weighted else [])
    if weighted:
        del tokens[d + 1 :: width]
    ids, rejected = _convert(int, tokens, n)
    rows = np.sort(_id_array(ids, n, d + 1), axis=1, kind="stable")
    facet, vertex_rules = _vertex_rules(rows)
    scan = lambda stop: _first_repeat(map(tuple, rows[:stop].tolist()))  # noqa: E731
    duplicate = (scan, lambda i: f"duplicate facet {facet(i)}")
    rules += [
        (rejected, lambda i: "non-integer vertex id"),
        *vertex_rules,
        duplicate,
        (w <= 0, lambda i: f"non-positive weight {weights[i]!r}"),
        (w < sys.float_info.min, lambda i: f"subnormal weight {weights[i]!r}"),
    ]
    if changed is None and _clean(rules):
        try:
            return _closure(rows, w if weighted else None)
        except ComplexError as exc:  # a duplicate facet, or a face's weight not a normal float
            raise _first_fault(lines, n, [duplicate]) or ParseError(str(exc)) from None
    raise _first_fault(lines, n, rules, changed)


def _format(dim, faces, values):
    """A complex or cochain file: the header, then each face's vertex ids
    and the ``repr`` of its value."""
    line = " ".join(["{}"] * (dim + 1)) + " {!r}"
    return "\n".join([f"dim {dim}", *map(line.format, *zip(*faces), values)]) + "\n"


def write_complex(X):
    return _format(X.top_dim, X.facets, weight_vector(X, X.top_dim).tolist())


def _missing(X, faces):
    """The mask of the rows of ``faces`` that are not faces of ``X``: the
    rows are halved, down to single ones, only while their lookup fails."""
    try:
        _positions(X, faces)
        return np.zeros(len(faces), bool)
    except KeyError:
        if len(faces) == 1:
            return np.ones(1, bool)
    half = len(faces) // 2
    return np.concatenate([_missing(X, faces[:half]), _missing(X, faces[half:])])


def _cochain(X, k, faces, values):
    """The k-cochain of ``values`` on the rows of vertex ids ``faces``, and
    0 elsewhere; None when a face is not in ``X`` or is listed twice."""
    try:
        pos = _positions(X, faces)
    except KeyError:
        return None
    vals = np.zeros(X.n_faces(k))
    vals[pos] = values
    return Cochain(X, k, vals) if np.bincount(pos, minlength=1).max() < 2 else None


def parse_cochain(text, X):
    """Read a cochain over ``X`` (faces not listed get value 0)."""
    k, faces, values = _read(text) or (-1, None, None)
    if values is not None and k <= X.top_dim and np.isfinite(values).all():
        f = _cochain(X, k, faces, values)
        if f is not None:
            return f
    # the token route, which names the fault
    k, lines, counts, tokens = _fields(text, "cochain")
    if not -1 <= k <= X.top_dim:
        raise ParseError(f"cochain dimension {k} out of range for the complex")
    n = _table(counts, (k + 2,))
    del tokens[n * (k + 2) :]
    values, bad_value = _convert(float, tokens[k + 1 :: k + 2], n)
    nonfinite = ~np.isfinite(values)
    named = {i: tokens[i * (k + 2) + k + 1] for i in np.flatnonzero(nonfinite)}
    del tokens[k + 1 :: k + 2]
    ids, bad_id = _convert(int, tokens, n)
    faces = np.sort(_id_array(ids, n, k + 1), axis=1, kind="stable")
    face, vertex_rules = _vertex_rules(faces)
    repeat = lambda stop: _first_repeat(_positions(X, faces[:stop]).tolist())  # noqa: E731
    rules = [
        (bad_id | bad_value, lambda i: "malformed entry"),
        (nonfinite, lambda i: f"non-finite value {named[i]!r}"),
        *vertex_rules,
        (lambda stop: _missing(X, faces[:stop]), lambda i: f"face {face(i)} is not in the complex"),
        (repeat, lambda i: f"duplicate face {face(i)}"),
    ]
    f = _cochain(X, k, faces, values) if n == len(lines) and _clean(rules) else None
    if f is not None:
        return f
    raise _first_fault(lines, n, rules, f"expected {k + 1} vertices and a value")


def write_cochain(X, f):
    return _format(f.dim, X.faces(f.dim), f.values.tolist())


def _all_links_connected(X):
    for j in range(-1, X.top_dim - 1):
        *_, bad = _link_graph(X, j)
        if bad is not None:
            return False
    return True


def generate(kind, **params):
    """Fixture generators: ``complete(n, d)``, ``partite(parts)``,
    ``random_pure(n, d, m, seed)`` and ``two_triangles()``.

    ``random_pure`` draws ``m`` distinct facets uniformly and resamples
    (``RANDOM_PURE_RETRIES`` times) until every link of dimension <= d-2
    has a connected 1-skeleton; identical seeds give identical complexes.
    A parameter the kind does not take raises ComplexError.
    """
    # per kind, the required parameters and the optional ones
    signature = {
        "complete": (("n", "d"), ()),
        "partite": (("parts",), ("d",)),
        "random_pure": (("n", "d", "m"), ("seed",)),
        "two_triangles": ((), ()),
    }
    if kind not in signature:
        raise ComplexError(f"unknown generator kind {kind!r}")
    required, optional = signature[kind]
    unknown = sorted(set(params) - set(required + optional))
    if unknown:
        raise ComplexError(f"generate {kind} takes no parameter {', '.join(unknown)}")
    for name in required:
        if params.get(name) is None:
            raise ComplexError(f"generate {kind} needs the parameter {name}")
    if kind == "complete":
        n, d = int(params["n"]), int(params["d"])
        if n < d + 1 or d < 0:
            raise ComplexError(f"complete({n},{d}) is infeasible")
        return build_complex(list(combinations(range(n), d + 1)))
    if kind == "partite":
        parts = [int(p) for p in params["parts"]]
        if len(parts) < 1 or any(p < 1 for p in parts):
            raise ComplexError(f"bad partite sizes {parts}")
        d = params.get("d")
        if d is not None and int(d) != len(parts) - 1:
            raise ComplexError("partite dimension must be len(parts) - 1")
        groups = []
        start = 0
        for size in parts:
            groups.append(range(start, start + size))
            start += size
        return build_complex([tuple(sorted(t)) for t in product(*groups)])
    if kind == "random_pure":
        n, d, m = int(params["n"]), int(params["d"]), int(params["m"])
        seed = int(params.get("seed", 0))
        if seed < 0:
            raise ComplexError(f"generate random_pure needs a non-negative seed, got {seed}")
        pool = list(combinations(range(n), d + 1))
        if n < d + 1 or not 1 <= m <= len(pool):
            raise ComplexError(f"random_pure({n},{d},{m}) is infeasible")
        rng = np.random.default_rng(seed)
        for _ in range(RANDOM_PURE_RETRIES):
            idx = rng.choice(len(pool), size=m, replace=False)
            X = build_complex([pool[i] for i in sorted(idx)])
            if _all_links_connected(X):
                return X
        raise HypothesisError(
            f"random_pure({n},{d},{m},seed={seed}): no connected-link sample "
            f"within {RANDOM_PURE_RETRIES} retries"
        )
    return build_complex([(0, 1, 2), (1, 2, 3)])  # two_triangles
