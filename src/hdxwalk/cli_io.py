"""Flat-file formats and complex generators.

Complex files are plain text: a ``dim <d>`` header, then one facet per
line as whitespace-separated vertex ids with an optional trailing weight
(all facets weighted or none); ``#`` starts a comment.  Cochain files look
the same with a mandatory trailing value, each face at most once, and
unlisted faces defaulting to zero.  Weights and values must be finite;
weights must also be normal positive floats, at least
``sys.float_info.min``.
Both formats round-trip bit-faithfully through ``repr`` floats.
"""

from __future__ import annotations

import sys
from itertools import combinations, product

import numpy as np

from .complex_core import ComplexError, _closure, build_complex, canonical_face
from .cochain_ops import Cochain
from .spectral import _link_graph

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


def parse_complex(text):
    """Build a complex from its facet file; see the module docstring."""
    lines = _data_lines(text)
    d = _parse_header(lines, "complex")
    if d < 0:
        raise ParseError("dimension must be non-negative")
    facets = []
    weights = []
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
        facets.append(face)
        if wt is not None:
            if wt <= 0:
                raise ParseError(f"line {lineno}: non-positive weight {wt!r}")
            if wt < sys.float_info.min:
                raise ParseError(f"line {lineno}: subnormal weight {wt!r}")
            weights.append(wt)
    if not facets:
        raise ParseError("no facets in file")
    try:
        # every facet is canonical, distinct and of dimension d, and every
        # weight finite and positive: skip build_complex's second pass
        return _closure(facets, weights if mode == "weighted" else None)
    except ComplexError as exc:
        raise ParseError(str(exc)) from None


def write_complex(X):
    lines = [f"dim {X.top_dim}"]
    for face in X.facets:
        body = " ".join(str(v) for v in face)
        lines.append(f"{body} {X.weight[face]!r}")
    return "\n".join(lines) + "\n"


def parse_cochain(text, X):
    """Read a cochain over ``X`` (faces not listed get value 0)."""
    lines = _data_lines(text)
    k = _parse_header(lines, "cochain")
    if not -1 <= k <= X.top_dim:
        raise ParseError(f"cochain dimension {k} out of range for the complex")
    vals = np.zeros(X.n_faces(k))
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
        vals[pos] = value
    return Cochain(X, k, vals)


def write_cochain(X, f):
    lines = [f"dim {f.dim}"]
    for face, value in zip(X.faces(f.dim), f.values):
        body = " ".join(str(v) for v in face)
        lines.append(f"{body} {float(value)!r}")
    return "\n".join(lines) + "\n"


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
    (bounded retries) until every link of dimension <= d-2 has a connected
    1-skeleton; identical seeds give identical complexes.
    """
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
        retries = int(params.get("retries", 500))
        pool = list(combinations(range(n), d + 1))
        if n < d + 1 or not 1 <= m <= len(pool):
            raise ComplexError(f"random_pure({n},{d},{m}) is infeasible")
        rng = np.random.default_rng(seed)
        for _ in range(retries):
            idx = rng.choice(len(pool), size=m, replace=False)
            X = build_complex([pool[i] for i in sorted(idx)])
            if _all_links_connected(X):
                return X
        raise ComplexError(
            f"random_pure({n},{d},{m},seed={seed}): no connected-link sample "
            f"within {retries} retries"
        )
    if kind == "two_triangles":
        return build_complex([(0, 1, 2), (1, 2, 3)])
    raise ComplexError(f"unknown generator kind {kind!r}")
