import json
import math
import os
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
from hdxwalk import level_decomp
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
