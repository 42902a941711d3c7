import json
import subprocess
import sys

import numpy as np
import pytest

from hdxwalk import (
    Cochain,
    ComplexError,
    ParseError,
    generate,
    parse_cochain,
    parse_complex,
    write_cochain,
    write_complex,
)


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


def test_parse_complex_comments_and_order():
    X = parse_complex("# fixture\ndim 2\n2 1 0  # facet\n")
    assert X.facets == [(0, 1, 2)]


def test_parse_complex_errors():
    with pytest.raises(ParseError, match="line 3"):
        parse_complex("dim 2\n0 1 2\n0 1 2\n")  # duplicate facet
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


def test_generate_rejections():
    with pytest.raises(ComplexError):
        generate("complete", n=2, d=2)
    with pytest.raises(ComplexError):
        generate("random_pure", n=4, d=2, m=100, seed=0)
    with pytest.raises(ComplexError):
        generate("nonsense")


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


def test_cli_minimize(c42_file, tmp_path):
    cpath = tmp_path / "flow.cf"
    cpath.write_text("dim 1\n0 1 1\n1 2 1\n0 2 -1\n")
    r = run_cli("minimize", c42_file, "--cochain", str(cpath), "--json")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["local_minimality_residual"] <= 1e-10
    assert rep["k_level_residual"] <= 1e-10


def test_cli_exit_codes(tmp_path, c42_file):
    # usage: unknown theorem name
    r = run_cli("verify", c42_file, "--theorem", "nonsense")
    assert r.returncode == 2
    # usage: unreadable file
    r = run_cli("analyze", str(tmp_path / "missing.cx"))
    assert r.returncode == 2
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
