import numpy as np
import pytest

import oracle
from hdxwalk import (
    ComplexError,
    HypothesisError,
    build_complex,
    gamma_profile,
    generate,
    is_connected,
    is_local_spectral_expander,
    lambda2_skeleton,
    nonlazy,
    selfadjoint_spectrum,
    up_down,
    weight_vector,
)
from hdxwalk.cochain_ops import LinOp
from hdxwalk.spectral import TIE_TOL, link_lambda2

SPEC_TOL = 1e-9


def test_spectrum_examples(t3, c42):
    spec = selfadjoint_spectrum(t3, nonlazy(t3, 0))
    assert np.allclose(spec.eigenvalues, [1.0, -0.5, -0.5], atol=SPEC_TOL)
    ident = LinOp(0, 0, np.eye(3))
    assert np.allclose(selfadjoint_spectrum(t3, ident).eigenvalues, 1.0, atol=SPEC_TOL)
    spec1 = selfadjoint_spectrum(c42, nonlazy(c42, 1))
    assert np.allclose(spec1.eigenvalues, [1, 0, 0, 0, -0.5, -0.5], atol=SPEC_TOL)


def test_spectrum_matches_loop_oracle(all_fixtures):
    for _, X in all_fixtures:
        for k in range(0, X.top_dim):
            spec = selfadjoint_spectrum(X, nonlazy(X, k))
            expect = oracle.spectrum_loops(X, k, oracle.nonlazy_matrix_loops(X, k))
            assert np.allclose(spec.eigenvalues, expect, atol=SPEC_TOL)
            assert abs(spec.top - 1.0) <= SPEC_TOL
            assert np.all(spec.eigenvalues >= -1.0 - SPEC_TOL)
            assert np.all(spec.eigenvalues <= 1.0 + SPEC_TOL)


def test_non_selfadjoint_rejected(t3):
    bad = LinOp(0, 0, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(ComplexError, match="asymmetry"):
        selfadjoint_spectrum(t3, bad)


def test_selfadjoint_tolerance_relative_to_scale(skewed83):
    # any multiple of a walk is self-adjoint; at a scale where max |W A| is
    # 1e-9, an asymmetry of 1e-3 of that scale is 1e-12, far under an
    # absolute 1e-10, and must still be rejected
    X = skewed83
    for k in range(0, X.top_dim):
        selfadjoint_spectrum(X, nonlazy(X, k))
        selfadjoint_spectrum(X, up_down(X, k, 1))
    w = weight_vector(X, 0)
    M = nonlazy(X, 0).matrix
    A = M * (1e-9 / np.max(np.abs(w[:, None] * M)))
    selfadjoint_spectrum(X, LinOp(0, 0, A))
    bad = A.copy()
    bad[0, 1] += 1e-3 * 1e-9 / w[0]
    assert np.max(np.abs(w[:, None] * bad - (w[:, None] * bad).T)) < 1e-10
    with pytest.raises(ComplexError, match="asymmetry"):
        selfadjoint_spectrum(X, LinOp(0, 0, bad))
    # at a scale where max |W A| is 1e3 the bound stays 1e-10 absolute, as
    # tight as it ever was: an asymmetry of 1e-9, under 1e-10 of the scale,
    # is rejected
    A = M * (1e3 / np.max(np.abs(w[:, None] * M)))
    selfadjoint_spectrum(X, LinOp(0, 0, A))
    bad = A.copy()
    bad[0, 1] += 1e-9 / w[0]
    assert np.max(np.abs(w[:, None] * bad - (w[:, None] * bad).T)) < 1e-10 * 1e3
    with pytest.raises(ComplexError, match="asymmetry"):
        selfadjoint_spectrum(X, LinOp(0, 0, bad))


def test_lambda2_examples(t3, c42):
    assert lambda2_skeleton(t3) == pytest.approx(-0.5, abs=SPEC_TOL)
    assert lambda2_skeleton(c42) == pytest.approx(-1 / 3, abs=SPEC_TOL)


def test_lambda2_complete_closed_form():
    for n in range(3, 9):
        X = generate("complete", n=n, d=2)
        assert lambda2_skeleton(X) == pytest.approx(-1 / (n - 1), abs=SPEC_TOL)


def test_lambda2_disconnected_rejected():
    X = build_complex([(0, 1, 2), (3, 4, 5)])
    assert not is_connected(X)
    with pytest.raises(HypothesisError):
        lambda2_skeleton(X)


def test_gamma_profiles(t3, c42, k53):
    gt = gamma_profile(t3)
    assert gt[-1] == pytest.approx(-0.5, abs=SPEC_TOL)
    assert gt[0] == pytest.approx(-1.0, abs=SPEC_TOL)
    gc = gamma_profile(c42)
    assert gc[-1] == pytest.approx(-1 / 3, abs=SPEC_TOL)
    assert gc[0] == pytest.approx(-0.5, abs=SPEC_TOL)
    gk = gamma_profile(k53)
    assert gk[-1] == pytest.approx(-1 / 4, abs=SPEC_TOL)
    assert gk[0] == pytest.approx(-1 / 3, abs=SPEC_TOL)
    assert gk[1] == pytest.approx(-1 / 2, abs=SPEC_TOL)


def test_gamma_profile_complete_closed_form():
    # links of complete complexes are complete: gamma_j = -1/(n-j-2)
    for n, d in [(6, 2), (6, 3), (7, 4)]:
        X = generate("complete", n=n, d=d)
        g = gamma_profile(X)
        for j in range(-1, d - 1):
            assert g[j] == pytest.approx(-1.0 / (n - j - 2), abs=SPEC_TOL)


def test_gamma_profile_matches_per_link_maximum(all_fixtures):
    # definitional cross-check through the loop-based walk matrices, plus
    # the gamma_j <= 1 cap
    from hdxwalk import link_of

    for _, X in all_fixtures:
        g = gamma_profile(X)
        for j in range(-1, X.top_dim - 1):
            worst = -np.inf
            for sigma in X.faces(j):
                link = link_of(X, sigma)
                spec = oracle.spectrum_loops(link, 0, oracle.nonlazy_matrix_loops(link, 0))
                worst = max(worst, spec[1])
            assert abs(g[j] - worst) <= SPEC_TOL
            assert g[j] <= 1.0 + SPEC_TOL


def test_lambda2_messages():
    with pytest.raises(ComplexError, match=r"^lambda2 needs a complex of dimension >= 1$"):
        lambda2_skeleton(build_complex([(0,), (1,)]))
    with pytest.raises(HypothesisError, match=r"^1-skeleton is disconnected$"):
        lambda2_skeleton(build_complex([(0, 1, 2), (3, 4, 5)]))


def test_link_lambda2_matches_link_oracle(all_fixtures, skewed83):
    # the per-face table against links built by link_of, their walks built
    # by loops and diagonalized one at a time
    for _, X in all_fixtures + [("skewed_complete83", skewed83)]:
        for j in range(-1, X.top_dim - 1):
            got = link_lambda2(X, j)
            assert got.shape == (X.n_faces(j),)
            assert np.max(np.abs(got - oracle.link_lambda2_scan(X, j))) <= 1e-12
        with pytest.raises(ComplexError):
            link_lambda2(X, X.top_dim - 1)


def test_local_expander_worst_face_is_first_argmax(all_fixtures, skewed83):
    # the first face within TIE_TOL of the maximum, in (dimension, canonical) order
    for _, X in all_fixtures + [("skewed_complete83", skewed83)]:
        rep = is_local_spectral_expander(X, 0.0)
        ranked = [
            (val, sigma)
            for j in range(-1, X.top_dim - 1)
            for sigma, val in zip(X.faces(j), link_lambda2(X, j))
        ]
        worst = max(val for val, _ in ranked)
        assert rep.worst_value == worst
        assert rep.worst_face == next(sigma for val, sigma in ranked if val >= worst - TIE_TOL)


def test_local_expander_worst_face_ignores_rounding_among_ties():
    # every link of partite(6,6,6,6), the complex itself included, has the
    # same second eigenvalue; facet weights 1 or 1 + 1 ulp move the computed
    # values by a few eps, and must not move the face named worst
    facets = generate("partite", parts=[6, 6, 6, 6]).faces(3)
    faces, values = set(), []
    for seed in range(6):
        flip = np.random.default_rng(seed).random(len(facets)) < 0.5
        X = build_complex(facets, list(np.where(flip, np.nextafter(1.0, 2.0), 1.0)))
        rep = is_local_spectral_expander(X, 0.5)
        tables = [link_lambda2(X, j) for j in range(-1, X.top_dim - 1)]
        assert rep.worst_value == max(vals.max() for vals in tables)
        faces.add(rep.worst_face)
        values.append(rep.worst_value)
    assert faces == {()}
    assert max(values) - min(values) <= TIE_TOL


def test_disconnected_edge_link_named():
    # two tetrahedra sharing the edge (0, 1): the vertex links are
    # connected, the link of (0, 1) is the two edges {2, 3} and {4, 5}
    X = build_complex([(0, 1, 2, 3), (0, 1, 4, 5)])
    assert link_lambda2(X, 0).shape == (6,)
    message = r"^link of \(0, 1\) has a disconnected 1-skeleton$"
    with pytest.raises(HypothesisError, match=message):
        link_lambda2(X, 1)
    with pytest.raises(HypothesisError, match=message):
        gamma_profile(X)
    with pytest.raises(HypothesisError, match=message):
        is_local_spectral_expander(X, 0.5)


def test_gamma_profile_disconnected_link_named():
    # two tetrahedra glued along an edge: the link of that edge is two
    # isolated vertex pairs? no - glue along a single vertex instead
    X = build_complex([(0, 1, 2), (0, 3, 4)])
    with pytest.raises(HypothesisError, match=r"\(0,\)"):
        gamma_profile(X)


def test_local_expander_verdicts(t3, c42):
    rep = is_local_spectral_expander(c42, 0.0)
    assert rep.passed
    rep = is_local_spectral_expander(c42, -0.4)
    assert not rep.passed
    assert rep.worst_face == ()
    assert rep.worst_value == pytest.approx(-1 / 3, abs=SPEC_TOL)
    assert is_local_spectral_expander(t3, -0.5).passed


def test_spectrum_relabeling_invariance(c42):
    relabeled = build_complex([(10, 21, 32), (10, 21, 43), (10, 32, 43), (21, 32, 43)])
    for k in range(0, 2):
        a = selfadjoint_spectrum(c42, nonlazy(c42, k)).eigenvalues
        b = selfadjoint_spectrum(relabeled, nonlazy(relabeled, k)).eigenvalues
        assert np.allclose(a, b, atol=SPEC_TOL)


def test_psd_sqrt_examples(t3, c42):
    S = oracle.psd_sqrt(t3, up_down(t3, 0, 1))
    spec = selfadjoint_spectrum(t3, S)
    assert np.allclose(spec.eigenvalues, [1.0, 0.5, 0.5], atol=SPEC_TOL)
    ident = LinOp(0, 0, np.eye(3))
    assert np.allclose(oracle.psd_sqrt(t3, ident).matrix, np.eye(3), atol=SPEC_TOL)
    U = up_down(c42, 0, 1)
    S = oracle.psd_sqrt(c42, U)
    assert np.max(np.abs(S.matrix @ S.matrix - U.matrix)) <= SPEC_TOL


def test_psd_sqrt_commutes_and_rejects(all_fixtures, t3):
    for _, X in all_fixtures:
        U = up_down(X, 0, 1)
        S = oracle.psd_sqrt(X, U)
        assert np.max(np.abs(S.matrix @ U.matrix - U.matrix @ S.matrix)) <= SPEC_TOL
    with pytest.raises(ComplexError, match="PSD"):
        oracle.psd_sqrt(t3, nonlazy(t3, 0))  # eigenvalue -1/2
