"""Flat-file formats and complex generators.

Complex files are plain text: a ``dim <d>`` header, then one facet per
line as whitespace-separated vertex ids with an optional trailing weight
(all facets weighted or none); ``#`` starts a comment.  Cochain files look
the same with a mandatory trailing value, each face at most once, and
unlisted faces defaulting to zero.  Weights and values must be finite;
weights must also be normal positive floats, at least
``sys.float_info.min``.
Both formats round-trip bit-faithfully through ``repr`` floats.

A file is read on one token route: the text is split into its fields once,
vertex ids go through ``int`` and weights or values through ``float`` (so
they accept what ``int`` and ``float`` accept), and every rule above is
checked on the resulting arrays.  A complex's facets go to
``complex_core._closure`` as one int array; a cochain's faces are found by
the complex's integer face keys.  Only when a check fails is the file read
again line by line, to raise the ParseError that names the first bad line.
"""

from __future__ import annotations

import re
import sys
from itertools import combinations, product

import numpy as np

from .complex_core import (
    ComplexError,
    _canonical_rows,
    _closure,
    _positions,
    build_complex,
    canonical_face,
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


def _data_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_header(lines, what):
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise ParseError(f"empty {what} file") from None
    parts = line.split()
    if len(parts) != 2 or parts[0] != "dim":
        raise ParseError(f"line {lineno}: expected 'dim <n>' header, got {line!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise ParseError(f"line {lineno}: bad dimension {parts[1]!r}") from None


def _fields(text):
    """The data of a complex or cochain file on the token route: its header
    dimension, the number of data lines, their common field count (None
    when there are none) and all their fields in one list.  Comments go by
    one substitution, blank lines by their field count of 0.  None when the
    header is not ``dim <int>`` or the data lines differ in field count."""
    if "#" in text:
        text = _COMMENT.sub("", text)
    counts = np.array(list(map(len, map(str.split, text.splitlines()))), dtype=np.intp)
    counts = counts[counts > 0]
    tokens = text.split()
    if not len(counts) or counts[0] != 2 or tokens[0] != "dim":
        return None
    if (counts[1:] != counts[1:2]).any():
        return None
    try:
        dim = int(tokens[1])
    except ValueError:
        return None
    del tokens[:2]
    return dim, len(counts) - 1, (counts[1] if len(counts) > 1 else None), tokens


def _facet_table(text):
    """``(facets, weights)`` for ``_closure`` from a complex file on the
    token route, or None when a line breaks a rule of the format."""
    table = _fields(text)
    if table is None:
        return None
    d, n, width, tokens = table
    if d < 0 or width not in (d + 1, d + 2):
        return None
    weights = None
    try:
        if width == d + 2:
            weights = list(map(float, tokens[d + 1 :: width]))
            del tokens[d + 1 :: width]
        ids = list(map(int, tokens))
    except ValueError:
        return None
    facets = _canonical_rows(ids, n, d + 1)
    if facets is None:
        return None
    if weights is not None:
        w = np.array(weights)
        if not (np.isfinite(w) & (w >= sys.float_info.min)).all():
            return None
    return facets, weights


def parse_complex(text):
    """Build a complex from its facet file; see the module docstring."""
    table = _facet_table(text)
    if table is not None:
        try:
            return _closure(*table)
        except ComplexError as exc:
            _check_complex_lines(text)  # a duplicate facet is named by its line
            raise ParseError(str(exc)) from None
    _check_complex_lines(text)
    raise AssertionError("the line loop accepted a file the token route rejected")


def _check_complex_lines(text):
    """Read a complex file line by line, only to raise the ParseError that
    names its first bad line; returns when every line is well formed."""
    lines = _data_lines(text)
    d = _parse_header(lines, "complex")
    if d < 0:
        raise ParseError("dimension must be non-negative")
    seen = set()
    mode = None  # "weighted" | "plain"
    for lineno, line in lines:
        parts = line.split()
        if len(parts) == d + 1:
            line_mode, wt = "plain", None
        elif len(parts) == d + 2:
            line_mode = "weighted"
            try:
                wt = float(parts[-1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad weight {parts[-1]!r}") from None
            if not np.isfinite(wt):
                raise ParseError(f"line {lineno}: non-finite weight {parts[-1]!r}")
            parts = parts[:-1]
        else:
            raise ParseError(
                f"line {lineno}: expected {d + 1} vertices and an optional "
                f"weight, got {len(parts)} fields"
            )
        if mode is None:
            mode = line_mode
        elif mode != line_mode:
            raise ParseError(f"line {lineno}: mixing weighted and unweighted facets")
        try:
            ids = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex id") from None
        try:
            face = canonical_face(ids)
        except ComplexError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if face in seen:
            raise ParseError(f"line {lineno}: duplicate facet {face}")
        seen.add(face)
        if wt is not None:
            if wt <= 0:
                raise ParseError(f"line {lineno}: non-positive weight {wt!r}")
            if wt < sys.float_info.min:
                raise ParseError(f"line {lineno}: subnormal weight {wt!r}")
    if not seen:
        raise ParseError("no facets in file")


def _format(dim, faces, values):
    """A complex or cochain file: the header, then each face's vertex ids
    and the ``repr`` of its value."""
    line = " ".join(["{}"] * (dim + 1)) + " {!r}"
    return "\n".join([f"dim {dim}", *map(line.format, *zip(*faces), values)]) + "\n"


def write_complex(X):
    return _format(X.top_dim, X.facets, weight_vector(X, X.top_dim).tolist())


def _cochain_values(text, X):
    """The values of a cochain file over ``X`` on the token route, or None
    when a line breaks a rule of the format."""
    table = _fields(text)
    if table is None:
        return None
    k, n, width, tokens = table
    if not -1 <= k <= X.top_dim or width not in (None, k + 2):
        return None
    try:
        values = np.array(list(map(float, tokens[k + 1 :: k + 2])), dtype=float)
        del tokens[k + 1 :: k + 2]
        ids = list(map(int, tokens))
    except ValueError:
        return None
    faces = _canonical_rows(ids, n, k + 1)
    if faces is None or not np.isfinite(values).all():
        return None
    try:
        pos = _positions(X, faces)
    except KeyError:
        return None
    if (np.bincount(pos, minlength=1) > 1).any():
        return None
    vals = np.zeros(X.n_faces(k))
    vals[pos] = values
    return Cochain(X, k, vals)


def parse_cochain(text, X):
    """Read a cochain over ``X`` (faces not listed get value 0)."""
    f = _cochain_values(text, X)
    if f is not None:
        return f
    _check_cochain_lines(text, X)
    raise AssertionError("the line loop accepted a file the token route rejected")


def _check_cochain_lines(text, X):
    """Read a cochain file line by line, only to raise the ParseError that
    names its first bad line; returns when every line is well formed."""
    lines = _data_lines(text)
    k = _parse_header(lines, "cochain")
    if not -1 <= k <= X.top_dim:
        raise ParseError(f"cochain dimension {k} out of range for the complex")
    seen = set()
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != k + 2:
            raise ParseError(
                f"line {lineno}: expected {k + 1} vertices and a value"
            )
        try:
            ids = [int(p) for p in parts[:-1]]
            value = float(parts[-1])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed entry") from None
        if not np.isfinite(value):
            raise ParseError(f"line {lineno}: non-finite value {parts[-1]!r}")
        try:
            face = canonical_face(ids)
            pos = X.index_of(face)
        except ComplexError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if pos in seen:
            raise ParseError(f"line {lineno}: duplicate face {face}")
        seen.add(pos)


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
