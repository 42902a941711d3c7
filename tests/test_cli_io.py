import json
import math
import os
import random
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

import oracle
from hdxwalk import (
    Cochain,
    ComplexError,
    HypothesisError,
    ParseError,
    advantage_check,
    alev_lau_check,
    build_complex,
    cli,
    fine_grained_check,
    generate,
    parse_cochain,
    parse_complex,
    updown_corollary_check,
    weight_vector,
    write_cochain,
    write_complex,
)
from hdxwalk.complex_core import _sub
from hdxwalk import cli_io, level_decomp
from hdxwalk.level_decomp import proper_level_basis


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "hdxwalk.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


# ---------------------------------------------------------------- formats


def test_parse_complex_fixtures(t3, c42):
    X = parse_complex("dim 2\n0 1 2\n")
    assert X.is_close(t3, tol=1e-15)
    text = "dim 2\n0 1 2 0.25\n0 1 3 0.25\n0 2 3 0.25\n1 2 3 0.25\n"
    assert parse_complex(text).is_close(c42, tol=1e-15)


def test_complex_roundtrip(all_fixtures):
    for _, X in all_fixtures:
        Y = parse_complex(write_complex(X))
        assert Y.is_close(X, tol=1e-15)
        assert write_complex(Y) == write_complex(X)


def test_large_uniform_roundtrip_validates():
    # the 27,405 written facet weights are normalized by their exactly
    # rounded sum, so they sum to 1 on any interpreter; a sequential sum
    # left the empty face 1.2e-12 below 1 and validate() refused the file
    Y = parse_complex(write_complex(generate("complete", n=30, d=3)))
    assert Y.validate()
    assert abs(math.fsum(weight_vector(Y, 3).tolist()) - 1.0) <= 2 * np.spacing(1.0)


def test_parse_complex_comments_and_order():
    X = parse_complex("# fixture\ndim 2\n2 1 0  # facet\n")
    assert X.facets == [(0, 1, 2)]


def test_parse_complex_errors():
    with pytest.raises(ParseError, match="line 3"):
        parse_complex("dim 2\n0 1 2\n0 1 2\n")  # duplicate facet
    with pytest.raises(ParseError, match=r"line 3: duplicate facet \(0, 1, 2\)"):
        parse_complex("dim 2\n0 1 2\n2 0 1\n")  # equal once canonicalized
    with pytest.raises(ParseError, match="line 3: .* repeated vertices"):
        parse_complex("dim 2\n0 1 2\n1 3 3\n")
    with pytest.raises(ParseError, match="line 2: .* negative vertex id"):
        parse_complex("dim 2\n0 -1 2\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_complex("dim 2\n0 1\n")  # wrong arity
    with pytest.raises(ParseError, match="line 3"):
        parse_complex("dim 2\n0 1 2 0.5\n1 2 3\n")  # weight mixing
    with pytest.raises(ParseError, match="line 2"):
        parse_complex("dim 2\n0 1 x\n")
    with pytest.raises(ParseError, match="non-positive"):
        parse_complex("dim 2\n0 1 2 -1.0\n")
    for bad in ("nan", "inf", "1e400"):
        with pytest.raises(ParseError, match="line 3: non-finite weight"):
            parse_complex(f"dim 2\n0 1 2 0.5\n0 1 3 {bad}\n")
    for bad in ("1e-320", "2.2e-308"):
        with pytest.raises(ParseError, match="line 3: subnormal weight"):
            parse_complex(f"dim 2\n0 1 2 0.5\n0 1 3 {bad}\n")
    with pytest.raises(ParseError, match="not a normal float"):
        parse_complex("dim 2\n0 1 2 1e-200\n0 1 3 1e200\n")
    with pytest.raises(ParseError, match="header"):
        parse_complex("0 1 2\n")
    with pytest.raises(ParseError):
        parse_complex("")


def _assert_bitwise(X, Y):
    assert X.top_dim == Y.top_dim
    for k in range(-1, X.top_dim + 1):
        assert X.faces(k) == Y.faces(k)
    assert X.weight == Y.weight


def test_parse_complex_bitwise_parity(all_fixtures, skewed83):
    # parsing a written complex gives bitwise what the dict closure gives
    # for the facet weights the file holds
    named = all_fixtures + [("skewed_complete83", skewed83)]
    named += [("complete144", generate("complete", n=14, d=4))]
    named += [("complete302", generate("complete", n=30, d=2))]
    for _, X in named:
        Y = parse_complex(write_complex(X))
        _assert_bitwise(Y, oracle.closure_scan(X.facets, [X.weight[F] for F in X.facets]))
        for k in range(Y.top_dim + 1):
            assert np.array_equal(_sub(Y, k), oracle.sub_scan(Y, k))


def test_parse_complex_layout_variants():
    clean = "dim 2\n0 1 2 0.5\n1 2 3 0.25\n2 3 5 0.25\n"
    messy = [
        clean.replace("\n", "\r\n"),
        clean.replace("\n", "\r"),
        clean.replace(" ", "\t"),
        "# header next\ndim 2\n\n2 0 1 0.5  # a facet\n\n   \n3 2 1 0.25\n5 3 2 0.25",
        "dim 2\n+0 0001 2 0.5\n1 +2 0003 0.25\n2 3 0005 0.25\n",
        "dim\t2\r\n 0  1  2  0.5 \r\n1\t2\t3 2.5e-1\n2 3 5 .25\n\n",
    ]
    X = parse_complex(clean)
    for text in messy:
        _assert_bitwise(parse_complex(text), X)
    plain = parse_complex("dim 2\n0 1 2\n1 2 3\n")
    _assert_bitwise(parse_complex("dim 2\r\n# c\r\n2 1 0\r\n\r\n+3\t2 1"), plain)


def test_parse_complex_ids_beyond_64_bits():
    big = 2**70
    X = parse_complex(f"dim 1\n0 {big}\n{big} 00{big + 1}\n")
    assert X.faces(1) == [(0, big), (big, big + 1)]
    assert X.validate()
    f = parse_cochain(f"dim 1\n{big + 1} {big} 2.0\n", X)
    assert f.values.tolist() == [0.0, 2.0]


def test_parse_errors_behind_comments_and_blank_lines():
    # the line loop names the line also where comments and blank lines
    # shift the numbering
    with pytest.raises(ParseError, match=r"line 5: duplicate facet \(0, 1, 2\)"):
        parse_complex("dim 2\n# c\n0 1 2\n\n2 1 0 # again\n")
    with pytest.raises(ParseError, match="line 4: non-integer vertex id"):
        parse_complex("# c\ndim 2\n0 1 2\n0 1 y\n")
    with pytest.raises(ParseError, match="line 3: mixing weighted"):
        parse_complex("dim 2\n0 1 2\n1 2 3 1.0\n")
    with pytest.raises(ParseError, match="no facets in file"):
        parse_complex("dim 2\n# nothing\n\n")
    with pytest.raises(ParseError, match="dimension must be non-negative"):
        parse_complex("dim -1\n0\n")


def test_parse_complex_names_the_line_whose_field_count_changes():
    # the first line whose field count differs from the lines above it is
    # checked for its count, then for its weight, if it has one, then for
    # the mix; a fault on a line above it comes first
    cases = [
        ("dim 2\n0 1 2\n0 1 3 x\n", "line 3: bad weight 'x'"),
        ("dim 2\n0 1 2\n0 1 3 nan\n", "line 3: non-finite weight 'nan'"),
        ("dim 2\n0 1 2\n0 1 3 -1\n", "line 3: mixing weighted and unweighted facets"),
        ("dim 2\n0 1 2 0.5\n0 y y\n", "line 3: mixing weighted and unweighted facets"),
        (
            "dim 2\n0 1 2 0.5\n0 1 3 0.5\n0 1 3 4 0.5\n",
            "line 4: expected 3 vertices and an optional weight, got 5 fields",
        ),
        ("dim 2\n0 1\n0 1 2\n", "line 2: expected 3 vertices and an optional weight, got 2 fields"),
        ("dim 2\n0 1 2\n2 1 0\n0 1 3 x\n", "line 3: duplicate facet (0, 1, 2)"),
        ("dim 2\n0 1 2 x\n0 1 3 1 2\n", "line 2: bad weight 'x'"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as err:
            parse_complex(text)
        assert str(err.value) == message


def test_cochain_names_the_line_whose_field_count_changes(c42):
    with pytest.raises(ParseError, match=r"^line 3: expected 2 vertices and a value$"):
        parse_cochain("dim 1\n0 1 1.0\n0 1 2 3\n", c42)
    with pytest.raises(ParseError, match=r"^line 3: malformed entry$"):
        parse_cochain("dim 1\n0 2 1.0\n0 x 2.0\n1\n", c42)


# the whole-file error of the closure, which the line loop does not check
_NOT_NORMAL = "facet weights out of range: a weight is not a normal float"
_JUNK = [
    "x", "nan", "inf", "-inf", "1e400", "-1", "0", "-0.0", "1e-320", "2.2e-308",
    "1e-300", "1e300", "1.7e308", "+3", "0003", "3.0", "1_0", "dim", "\u0663",
    str(2**70), str(-(2**70)), "0.5", "1", "2", "4", "5", "-2",
]


def _mutate(text, rng):
    """``text`` with one to three edits: junk, dropped, inserted or shuffled
    tokens, duplicated, swapped or dropped lines, comments, blank lines and
    trailing fields; lines end in a drawn line break."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(1, len(lines)) if len(lines) > 1 and rng.random() < 0.85 else 0
        fields = lines[i].split(" ")
        edit = rng.randrange(10)
        if edit == 0:
            fields[rng.randrange(len(fields))] = rng.choice(_JUNK)
        elif edit == 1:
            del fields[rng.randrange(len(fields))]
        elif edit == 2:
            fields.insert(rng.randrange(len(fields) + 1), rng.choice(_JUNK + fields))
        elif edit == 3:
            fields.append(rng.choice(_JUNK))
        elif edit == 4:
            rng.shuffle(fields)
        elif edit == 5:
            fields.append("#" + rng.choice(_JUNK))
        if edit < 6:
            lines[i] = " ".join(fields)
        elif edit == 6:
            lines.insert(i, lines[i])
        elif edit == 7:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == 8:
            lines.insert(i, rng.choice(["", "  ", "\t", "# c", "# " + lines[i]]))
        else:
            del lines[i]
    return rng.choice(["\n", "\n", "\r\n", "\r"]).join(lines)


def _bits(X):
    return [(X.faces(k), weight_vector(X, k).tobytes()) for k in range(-1, X.top_dim + 1)]


def _complex_outcome(text):
    """What the line loop reads from a complex file: the ParseError message,
    or the dict closure of its facets; the closure's whole-file message where
    a face's weight is not a normal float."""
    try:
        X = oracle.closure_scan(*oracle.complex_lines(text))
    except ParseError as exc:
        return str(exc)
    except OverflowError:  # the facet weights sum past the largest float
        return _NOT_NORMAL
    if min(X.weight.values()) < sys.float_info.min:
        return _NOT_NORMAL
    return _bits(X)


def _cochain_outcome(text, X):
    try:
        k, values = oracle.cochain_lines(text, X)
    except ParseError as exc:
        return str(exc)
    expected = np.zeros(X.n_faces(k))
    expected[list(values)] = list(values.values())
    return k, expected.tobytes()


def _outcome(parse, *args):
    try:
        f = parse(*args)
    except ParseError as exc:
        return str(exc)
    return _bits(f) if parse is parse_complex else (f.dim, f.values.tobytes())


def test_parse_matches_the_line_loops():
    # 6,000 seeded mutations of written files, each read the same by the
    # package and by the oracle's line loops: the same complex or cochain,
    # bitwise, or the same ParseError message
    rng = np.random.default_rng(23)
    big = 2**70
    complexes = [
        build_complex(generate("complete", n=5, d=2).facets, list(10.0 ** rng.uniform(-3, 3, 10))),
        generate("two_triangles"),
        generate("partite", parts=[2, 2, 2]),
        build_complex([(0, big, big + 1), (big, big + 1, big + 5), (1, big, big + 5)]),
    ]
    files = [(parse_complex, write_complex(X), ()) for X in complexes]
    for X in complexes[::3]:
        for k in range(-1, X.top_dim + 1):
            f = Cochain(X, k, rng.standard_normal(X.n_faces(k)))
            files.append((parse_cochain, write_cochain(X, f), (X,)))
    draw = random.Random(23)
    read, messages = 0, set()
    for _ in range(6000):
        parse, text, args = draw.choice(files)
        text = _mutate(text, draw)
        expected = _complex_outcome(text) if parse is parse_complex else _cochain_outcome(text, *args)
        assert _outcome(parse, text, *args) == expected, text
        if isinstance(expected, str):
            messages.add(expected)
        else:
            read += 1
    # the mutations reach every rule, and a good share of them reads
    rules = [
        "header", "bad dimension", "must be non-negative", "no facets", "optional weight",
        "bad weight", "non-finite weight", "mixing", "non-integer", "repeated vertices",
        "negative vertex id", "duplicate facet", "non-positive weight", "subnormal weight",
        _NOT_NORMAL, "out of range for the complex", "vertices and a value", "malformed entry",
        "non-finite value", "not in the complex", "duplicate face (",
    ]
    assert [rule for rule in rules if not any(rule in m for m in messages)] == []
    assert read > 1000


# the line breaks of str.splitlines other than "\n", then characters that
# are whitespace to str.split but break no line, and NUL, which is neither
_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_SPACES = ["\t", "\xa0", "\x1f", "\x00"]
_ODD_IDS = [
    "1_0", "\u0663", "\u0661\u0660", "3.0", "1e3",
    str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1), str(2**64), str(2**70),
]
_ODD_LINES = ["", "   ", "\t", " \xa0\x1f ", "# c", "  # 0 1 2 0.5", "#"]


def _edge_cases(text, rng):
    """Seeded variants of the written file ``text``: every line break and
    space character as every line's end, in place of a separator and put in
    anywhere; every odd id in place of a vertex id; every odd line before
    the header, after it and anywhere."""
    lines = text.split("\n")
    seps = [i for i, c in enumerate(text) if c in " \n"]
    ids = [(i, j) for i in range(1, len(lines) - 1) for j in range(len(lines[i].split()) - 1)]
    for c in _BREAKS + _SPACES:
        yield text.replace("\n", c)
        yield text.replace("\n", c + "\n")
        for i in rng.sample(seps, 3):
            yield text[:i] + c + text[i + 1 :]
        for i in rng.sample(range(len(text) + 1), 3):
            yield text[:i] + c + text[i:]
    for odd in _ODD_IDS:
        for i, j in rng.sample(ids, min(3, len(ids))):
            fields = lines[i].split()
            fields[j] = odd
            yield "\n".join(lines[:i] + [" ".join(fields)] + lines[i + 1 :])
    for odd in _ODD_LINES:
        for i in [0, 1, *rng.sample(range(len(lines)), 2)]:
            yield "\n".join(lines[:i] + [odd] + lines[i:])


def test_reader_edge_cases_match_the_line_loops(monkeypatch):
    # numpy's reader and the token route read each edge case as the
    # oracle's line loops do: the same complex or cochain, bitwise, or the
    # same ParseError message; complexes with ids at the int64 bound and
    # past it reach both routes
    rng = np.random.default_rng(29)
    top = 2**63 - 1
    complexes = [
        build_complex(generate("complete", n=5, d=2).facets, list(10.0 ** rng.uniform(-3, 3, 10))),
        generate("partite", parts=[2, 2, 2]),
        build_complex([(top - 4, top - 1, top), (top - 3, top - 1, top), (top - 4, top - 3, top)]),
        build_complex([(0, top, top + 1), (top, top + 1, top + 5), (1, top, top + 5)]),
    ]
    files = [(parse_complex, write_complex(X), ()) for X in complexes]
    for X in complexes:
        for k in range(-1, X.top_dim + 1):
            f = Cochain(X, k, rng.standard_normal(X.n_faces(k)))
            files.append((parse_cochain, write_cochain(X, f), (X,)))
    token_route = []
    fields = cli_io._fields
    monkeypatch.setattr(cli_io, "_fields", lambda *a: token_route.append(a) or fields(*a))
    draw = random.Random(29)
    reads = {True: 0, False: 0}  # by the token route or not
    for parse, text, args in files:
        for variant in _edge_cases(text, draw):
            if parse is parse_complex:
                expected = _complex_outcome(variant)
            else:
                expected = _cochain_outcome(variant, *args)
            token_route.clear()
            assert _outcome(parse, variant, *args) == expected, repr(variant)
            if not isinstance(expected, str):
                reads[bool(token_route)] += 1
    assert min(reads.values()) > 300


def _relabeled(X, rng):
    """``X`` with its vertex ids drawn, as the benchmark draws them."""
    n = X.n_faces(0)
    ids = dict(zip(range(n), sorted(rng.choice(50 * n, size=n, replace=False).tolist())))
    return build_complex([tuple(ids[v] for v in F) for F in X.facets])


def test_written_benchmark_files_take_the_reader(monkeypatch):
    # a written file of every benchmark family is read by numpy's reader
    # alone: the token route is never reached
    rng = np.random.default_rng(41)
    families = [
        generate("complete", n=14, d=4),
        generate("complete", n=30, d=2),
        generate("partite", parts=[6, 6, 6, 6]),
        generate("random_pure", n=30, d=2, m=900, seed=5),
    ]
    families += [_relabeled(X, rng) for X in families]

    def refuse(*args):
        raise AssertionError("the token route was reached")

    monkeypatch.setattr(cli_io, "_fields", refuse)
    for X in families:
        Y = build_complex(X.facets, weight_vector(X, X.top_dim).tolist())
        _assert_bitwise(parse_complex(write_complex(X)), Y)
        for k in range(-1, X.top_dim + 1):
            f = Cochain(X, k, rng.standard_normal(X.n_faces(k)))
            assert parse_cochain(write_cochain(X, f), X).values.tobytes() == f.values.tobytes()


def test_cochain_token_route(c42):
    clean = parse_cochain("dim 1\n0 1 2.5\n2 3 -1.0\n", c42)
    messy = parse_cochain("# f\r\ndim 1\r\n\r\n3\t2 -1.0\r\n+1 0 2.5", c42)
    assert clean.values.tolist() == messy.values.tolist()
    assert parse_cochain("dim 0\n", c42).values.tolist() == [0.0] * 4
    assert parse_cochain("dim -1\n 4.5\n", c42).values.tolist() == [4.5]
    with pytest.raises(ParseError, match=r"line 2: face \(0, 5\) is not in the complex"):
        parse_cochain("dim 1\n0 5 1.0\n", c42)
    with pytest.raises(ParseError, match="line 3: duplicate face"):
        parse_cochain("dim -1\n1.0\n2.0\n", c42)


def test_cochain_roundtrip(c42):
    rng = np.random.default_rng(40)
    for k in range(-1, c42.top_dim + 1):
        f = Cochain(c42, k, rng.standard_normal(c42.n_faces(k)))
        g = parse_cochain(write_cochain(c42, f), c42)
        assert np.array_equal(f.values, g.values)


def test_cochain_defaults_and_errors(c42):
    f = parse_cochain("dim 1\n0 1 2.5\n", c42)
    assert f((0, 1)) == 2.5
    assert f((2, 3)) == 0.0
    with pytest.raises(ParseError, match="line 2"):
        parse_cochain("dim 1\n0 1\n", c42)
    with pytest.raises(ParseError):
        parse_cochain("dim 5\n", c42)
    for bad in ("nan", "-inf", "1e400"):
        with pytest.raises(ParseError, match="line 2: non-finite value"):
            parse_cochain(f"dim 1\n0 1 {bad}\n", c42)
    with pytest.raises(ParseError, match=r"line 4: duplicate face \(0, 1\)"):
        parse_cochain("dim 1\n0 1 1.0\n2 3 2.0\n1 0 5.0\n", c42)


# ---------------------------------------------------------------- generate


def test_generate_fixtures(t3, c42):
    assert generate("complete", n=4, d=2).is_close(c42)
    assert generate("complete", n=3, d=2).is_close(t3)
    X = generate("two_triangles")
    assert X.facets == [(0, 1, 2), (1, 2, 3)]


def test_generate_partite():
    X = generate("partite", parts=[2, 2, 2])
    assert X.top_dim == 2
    assert X.n_faces(2) == 8
    assert X.n_faces(0) == 6
    # transversals only: no facet inside one group
    for F in X.facets:
        assert len({v // 2 for v in F}) == 3
    X.validate()


def test_generate_random_pure_deterministic():
    A = generate("random_pure", n=7, d=2, m=12, seed=1)
    B = generate("random_pure", n=7, d=2, m=12, seed=1)
    assert A.is_close(B, tol=0.0)
    C = generate("random_pure", n=7, d=2, m=12, seed=2)
    assert A.facets != C.facets


def test_random_pure_gives_up_with_hypothesis_error():
    # the sampler redraws whole facet sets; (16, 2, 70) finds no sample
    # with connected links on seed 1
    with pytest.raises(
        HypothesisError,
        match=re.escape("random_pure(16,2,70,seed=1): no connected-link sample within 500 retries"),
    ):
        generate("random_pure", n=16, d=2, m=70, seed=1)


def test_generate_rejections():
    with pytest.raises(ComplexError):
        generate("complete", n=2, d=2)
    with pytest.raises(ComplexError):
        generate("random_pure", n=4, d=2, m=100, seed=0)
    with pytest.raises(ComplexError, match="non-negative seed, got -1"):
        generate("random_pure", n=7, d=2, m=12, seed=-1)
    with pytest.raises(ComplexError):
        generate("nonsense")


def test_generate_rejects_unknown_parameters():
    # a misspelt seed is an error, not seed 0
    with pytest.raises(ComplexError, match="generate random_pure takes no parameter sed"):
        generate("random_pure", n=7, d=2, m=12, seed=1, sed=4)
    with pytest.raises(ComplexError, match="generate complete takes no parameter m, seed"):
        generate("complete", n=4, d=2, m=3, seed=1)
    with pytest.raises(ComplexError, match="generate two_triangles takes no parameter n"):
        generate("two_triangles", n=4)
    r = run_cli("generate", "complete", "--n", "4", "--d", "2", "--seed", "1")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error:") and "no parameter seed" in r.stderr


# ---------------------------------------------------------------- CLI


@pytest.fixture(scope="module")
def c42_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "c42.cx"
    r = run_cli("generate", "complete", "--n", "4", "--d", "2", "-o", str(path))
    assert r.returncode == 0
    return str(path)


def test_cli_generate_matches_library(c42_file, c42):
    with open(c42_file) as fh:
        assert parse_complex(fh.read()).is_close(c42, tol=1e-15)


def test_cli_analyze(c42_file):
    r = run_cli("analyze", c42_file, "--json")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["dim"] == 2
    assert rep["face_counts"] == [4, 6, 4]
    assert rep["lambda2"] == pytest.approx(-1 / 3, abs=1e-9)
    # a threshold below gamma_{-1} flips the verdict and the exit code
    r2 = run_cli("analyze", c42_file, "--lambda", "-0.4", "--json")
    assert r2.returncode == 1
    rep2 = json.loads(r2.stdout)
    assert rep2["local_expander"]["pass"] is False
    assert rep2["local_expander"]["worst_value"] == pytest.approx(-1 / 3, abs=1e-9)


def test_cli_verify_all_theorems(c42_file):
    for theorem in ("fine-grained", "alev-lau", "advantage", "updown", "bootstrap", "trickling"):
        r = run_cli(
            "verify", c42_file, "--theorem", theorem, "--samples", "10", "--json"
        )
        assert r.returncode == 0, (theorem, r.stdout, r.stderr)
        rep = json.loads(r.stdout)
        assert set(rep) == {"theorem", "fixtures", "slacks", "pass"}
        assert rep["pass"] is True
        assert len(rep["fixtures"]) == len(rep["slacks"])
        assert all(s >= -1e-9 for s in rep["slacks"])


def test_cli_verify_t3_advantage_tight(tmp_path):
    path = tmp_path / "t3.cx"
    run_cli("generate", "complete", "--n", "3", "--d", "2", "-o", str(path))
    r = run_cli("verify", str(path), "--theorem", "advantage", "--samples", "20", "--json")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert min(rep["slacks"]) == pytest.approx(0.0, abs=1e-9)


def test_cli_verify_seeded_byte_identical(c42_file):
    a = run_cli("verify", c42_file, "--theorem", "fine-grained", "--seed", "7", "--json")
    b = run_cli("verify", c42_file, "--theorem", "fine-grained", "--seed", "7", "--json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_cli_decompose(c42_file, tmp_path):
    cpath = tmp_path / "fstar.cf"
    cpath.write_text("dim 1\n0 1 1\n0 2 -1\n1 3 -1\n2 3 1\n")
    r = run_cli("decompose", c42_file, "--cochain", str(cpath), "--json")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["pass"] is True
    assert rep["norms_sq"]["1"] == pytest.approx(2 / 3, abs=1e-9)
    assert rep["norms_sq"]["0"] == pytest.approx(0.0, abs=1e-9)
    assert rep["reconstruction_residual"] <= 1e-10
    assert rep["orthogonality_residual"] <= 1e-10


@pytest.mark.parametrize("scale", [1e4, 1e8, 1e-6])
def test_cli_decompose_residuals_relative_to_the_cochain(tmp_path, scale):
    # the orthogonality residual grows with |f|^2 and the reconstruction
    # residual with |f|, so a correct decomposition of a large cochain must
    # pass; an absolute 1e-10 failed it from a scale of 1e4 up
    X = generate("complete", n=22, d=2)
    f = Cochain(X, 2, scale * np.random.default_rng(0).standard_normal(X.n_faces(2)))
    cx, cf = tmp_path / "c222.cx", tmp_path / "f.cf"
    cx.write_text(write_complex(X))
    cf.write_text(write_cochain(X, f))
    r = run_cli("decompose", str(cx), "--cochain", str(cf), "--json")
    assert r.returncode == 0, r.stdout + r.stderr
    rep = json.loads(r.stdout)
    nsq = sum(rep["norms_sq"].values())
    assert rep["pass"] is True
    assert rep["reconstruction_residual"] <= 1e-10 * np.sqrt(nsq)
    assert rep["orthogonality_residual"] <= 1e-10 * nsq


def test_cli_minimize(c42_file, tmp_path):
    cpath = tmp_path / "flow.cf"
    cpath.write_text("dim 1\n0 1 1\n1 2 1\n0 2 -1\n")
    r = run_cli("minimize", c42_file, "--cochain", str(cpath), "--json")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["local_minimality_residual"] <= 1e-10
    assert rep["k_level_residual"] == rep["local_minimality_residual"]


@pytest.mark.parametrize("scale", [1e8, 1e-8])
def test_cli_minimize_residual_relative_to_the_cochain(tmp_path, scale):
    # the residual is a weighted mean of values, so its rounding grows with
    # the largest input value; an absolute 1e-10 failed a correct minimal
    # representative at scale 1e8
    X = generate("complete", n=14, d=4)
    f = Cochain(X, 3, scale * np.random.default_rng(0).standard_normal(X.n_faces(3)))
    cx, cf = tmp_path / "c144.cx", tmp_path / "f.cf"
    cx.write_text(write_complex(X))
    cf.write_text(write_cochain(X, f))
    r = run_cli("minimize", str(cx), "--cochain", str(cf), "--json")
    assert r.returncode == 0, r.stdout + r.stderr
    rep = json.loads(r.stdout)
    assert rep["pass"] is True
    assert rep["local_minimality_residual"] <= 1e-10 * np.max(np.abs(f.values))


def test_cli_main_builds_its_parser_once(c42_file, capsys, monkeypatch):
    # main() keeps the parser it built first; later calls in the process,
    # one after a usage error included, answer as a fresh process does
    from hdxwalk import cli

    cli.main(["analyze", c42_file, "--json"])
    capsys.readouterr()

    def refuse():
        raise AssertionError("main() built a second parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    argv = ["verify", c42_file, "--theorem", "nonsense"]
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    r = run_cli(*argv)
    assert err.value.code == r.returncode == 2
    assert capsys.readouterr().err == r.stderr
    for argv in (
        ["analyze", c42_file, "--json"],
        ["verify", c42_file, "--theorem", "updown", "--samples", "5", "--json"],
    ):
        code = cli.main(argv)
        r = run_cli(*argv)
        assert (code, capsys.readouterr().out) == (r.returncode, r.stdout)


def test_cli_out_of_memory_exits_2(c42_file, capsys, monkeypatch):
    # a run that cannot allocate its arrays refuses with exit 2 and a
    # message, not 1, the code of a violated bound, with a traceback
    def exhaust(*args):
        raise MemoryError("Unable to allocate 8.27 GiB for an array")

    monkeypatch.setattr(cli, "check_block", exhaust)
    code = cli.main(["verify", c42_file, "--theorem", "fine-grained", "--samples", "3"])
    out = capsys.readouterr()
    assert code == cli.EXIT_USAGE == 2
    assert out.err == "error: out of memory: Unable to allocate 8.27 GiB for an array\n"
    assert out.out == ""


def test_cli_negative_seed_exits_2(c42_file, capsys):
    # numpy refuses a negative seed; the CLI answers with a usage error,
    # not with exit 1, the code of a violated bound, and a traceback
    for theorem in cli.THEOREMS:
        code = cli.main(["verify", c42_file, "--theorem", theorem, "--seed", "-5"])
        out = capsys.readouterr()
        assert code == cli.EXIT_USAGE, theorem
        assert out.err == "error: --seed must be non-negative, got -5\n"
        assert out.out == ""
    argv = ["generate", "random_pure", "--n", "7", "--d", "2", "--m", "12", "--seed", "-1"]
    assert cli.main(argv) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.err == "error: generate random_pure needs a non-negative seed, got -1\n"
    assert out.out == ""


def test_cli_non_finite_lambda_exits_2(c42_file, capsys):
    # a NaN or infinite threshold is a usage error: it would otherwise print
    # NaN or Infinity, which is not JSON
    for value in ("nan", "inf", "-Infinity"):
        code = cli.main(["analyze", c42_file, f"--lambda={value}", "--json"])
        out = capsys.readouterr()
        assert code == cli.EXIT_USAGE, value
        assert out.err.startswith("error: --lambda must be finite, got ")
        assert out.out == ""


def test_cli_refuses_a_level_table_that_cannot_fit(c42_file, capsys, monkeypatch):
    # the size estimate refuses the table before it is allocated: exit 2
    # with a message naming the dimension and the size, nothing on stdout
    monkeypatch.setattr(level_decomp, "_memory_room", lambda: 100.0)
    code = cli.main(["verify", c42_file, "--theorem", "advantage", "--samples", "3"])
    out = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert out.err.startswith("error: the level table of 1-cochains needs about ")
    assert "(n_1 = 6, r = 4)" in out.err and out.err.endswith("GiB this process can get\n")
    assert out.out == ""


def test_cli_refuses_a_table_above_the_address_space_limit(tmp_path):
    # under an address-space limit set on the child process only, verify
    # refuses complete(36,2)'s top table (about 0.45 GiB, above what 512 MiB
    # leaves an interpreter with numpy loaded) with exit 2, not a traceback
    path = tmp_path / "c362.cx"
    path.write_text(write_complex(generate("complete", n=36, d=2)))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**29, resource.getrlimit(resource.RLIMIT_AS)[1]))

    r = subprocess.run(
        [sys.executable, "-m", "hdxwalk.cli", "verify", str(path), "--theorem", "advantage", "--samples", "2"],
        capture_output=True,
        text=True,
        preexec_fn=limit,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert r.returncode == 2, r.stderr
    assert re.fullmatch(
        r"error: the level table of 2-cochains needs about 0\.4\d GiB \(n_2 = 7140, r = 630\), "
        r"more than the \d\.\d+ GiB this process can get\n",
        r.stderr,
    ), r.stderr
    assert r.stdout == ""


def test_cli_exit_codes(tmp_path, c42_file):
    # usage: unknown theorem name
    r = run_cli("verify", c42_file, "--theorem", "nonsense")
    assert r.returncode == 2
    # usage: unreadable file
    r = run_cli("analyze", str(tmp_path / "missing.cx"))
    assert r.returncode == 2
    # usage: a negative sample count, for a levelled theorem and for trickling
    for theorem, samples in (("advantage", "-1"), ("trickling", "-5")):
        r = run_cli("verify", c42_file, "--theorem", theorem, "--samples", samples)
        assert r.returncode == 2, r.stdout
        assert r.stderr.startswith("error:") and "--samples" in r.stderr
        assert r.stdout == ""
    # usage: malformed file
    bad = tmp_path / "bad.cx"
    bad.write_text("dim 2\n0 1 2\n0 1 2\n")
    r = run_cli("analyze", str(bad))
    assert r.returncode == 2
    # usage: non-finite or subnormal weight, non-finite or repeated cochain entry
    for weight in ("nan", "1e-320"):
        bad.write_text(f"dim 2\n0 1 2 {weight}\n0 1 3 1.0\n")
        r = run_cli("analyze", str(bad))
        assert r.returncode == 2 and "line 2" in r.stderr
    cf = tmp_path / "bad.cf"
    for body, line in (("0 1 inf\n", 2), ("0 1 1.0\n0 1 5.0\n", 3)):
        cf.write_text("dim 1\n" + body)
        r = run_cli("decompose", c42_file, "--cochain", str(cf))
        assert r.returncode == 2 and f"line {line}" in r.stderr
    # hypothesis failure: disconnected complex
    disc = tmp_path / "disc.cx"
    disc.write_text("dim 2\n0 1 2\n3 4 5\n")
    r = run_cli("verify", str(disc), "--theorem", "trickling")
    assert r.returncode == 3
    r = run_cli("analyze", str(disc))
    assert r.returncode == 3
    # hypothesis failure: no random_pure sample with connected links
    r = run_cli("generate", "random_pure", "--n", "16", "--d", "2", "--m", "70", "--seed", "1")
    assert r.returncode == 3 and "within 500 retries" in r.stderr
    # usage: a generator parameter missing or not an integer
    for argv, named in (
        (("complete", "--d", "2"), "n"),
        (("random_pure", "--n", "7", "--d", "2"), "m"),
        (("partite",), "parts"),
        (("partite", "--parts", "2,x"), "parts"),
    ):
        r = run_cli("generate", *argv)
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error:") and named in r.stderr
        assert "Traceback" not in r.stderr


def _per_cochain_cases(X, theorem, samples, seed):
    """The verify enumeration one cochain at a time, as it ran before block
    evaluation: (label, slack) from one ``*_check`` call per cochain."""
    checks = {
        "fine-grained": fine_grained_check,
        "alev-lau": alev_lau_check,
        "updown": updown_corollary_check,
        "advantage": advantage_check,
    }
    rng = np.random.default_rng(seed)
    lo, hi = (1, X.top_dim) if theorem == "advantage" else (0, X.top_dim - 1)
    for k in range(lo, hi + 1):
        if X.n_faces(k) < 2:
            continue
        cochains = [
            (f"k={k}/random/{s}", Cochain(X, k, oracle.random_mean_zero(X, k, rng)))
            for s in range(samples)
        ]
        for i in range(0, k + 1):
            basis = proper_level_basis(X, k, i)
            cochains += [
                (f"k={k}/level{i}-basis/{c}", Cochain(X, k, basis[:, c]))
                for c in range(basis.shape[1])
            ]
        for label, f in cochains:
            rep = checks[theorem](X, k, f)
            yield label, rep.slack
            if theorem == "alev-lau":
                yield label + "/dominance", rep.details["dominance_gap"]


def _assert_same_cases(got, expected):
    assert [label for label, _ in got] == [label for label, _ in expected]
    for (label, a), (_, b) in zip(got, expected):
        assert abs(a - b) <= 1e-12, label


def test_cli_verify_blocks_match_per_cochain(tmp_path):
    # 170 cochains at k=2: the 50 samples and 120 basis vectors
    X = generate("complete", n=10, d=2)
    path = tmp_path / "c10.cx"
    path.write_text(write_complex(X))
    for theorem in ("alev-lau", "updown", "advantage"):
        argv = (
            "verify", str(path), "--theorem", theorem,
            "--samples", "50", "--seed", "3", "--json",
        )
        a, b = run_cli(*argv), run_cli(*argv)
        assert a.returncode == b.returncode == 0, a.stderr
        assert a.stdout == b.stdout
        rep = json.loads(a.stdout)
        _assert_same_cases(
            list(zip(rep["fixtures"], rep["slacks"])),
            list(_per_cochain_cases(X, theorem, 50, 3)),
        )


def test_verify_cases_across_chunk_boundaries():
    # 300 samples span three chunks of at most VERIFY_CHUNK = 128 columns
    assert cli.VERIFY_CHUNK == 128
    X = generate("complete", n=10, d=2)
    for theorem in ("fine-grained", "alev-lau", "updown", "advantage"):
        _assert_same_cases(
            [(label, float(s)) for label, s in cli._verify_cases(X, theorem, 300, 8)],
            list(_per_cochain_cases(X, theorem, 300, 8)),
        )
