import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracle
from hdxwalk import (
    Cochain,
    ComplexError,
    LOCALIZATION,
    RESTRICTION,
    build_complex,
    diff,
    down_up,
    generate,
    inner_product,
    level_space,
    link_of,
    multi_down,
    multi_up,
    nonlazy,
    norm_sq,
    proper_decompose,
    proper_level_basis,
    view,
    weight_vector,
)
from hdxwalk import level_decomp
from hdxwalk.theorem_verify import random_mean_zero_cochain

VIEW_TOL = 1e-12
WALK_TOL = 1e-10
LEVEL_TOL = 1e-10
SIGN_MARGIN = 1e-8  # a reflector sign pivot this far from 0 is not rounding


def _random_cochain(X, k, rng):
    return Cochain(X, k, rng.standard_normal(X.n_faces(k)))


def _viewer_dims(viewer, X, k):
    """Face dimensions at which viewing a k-cochain is defined."""
    if viewer is LOCALIZATION:
        return range(0, k)
    return range(0, X.top_dim - k)


def test_viewer_axioms(all_fixtures):
    rng = np.random.default_rng(10)
    for _, X in all_fixtures:
        for viewer in (LOCALIZATION, RESTRICTION):
            for k in range(1, X.top_dim):
                f = _random_cochain(X, k, rng)
                g = _random_cochain(X, k, rng)
                # unit preservation and linearity, viewed at every vertex
                for v in X.faces(0):
                    ones = view(viewer, X, Cochain.ones(X, k), v)
                    assert np.allclose(ones.values, 1.0, atol=VIEW_TOL)
                    comb = Cochain(X, k, f.values + 2.5 * g.values)
                    lhs = view(viewer, X, comb, v)
                    rhs = (
                        view(viewer, X, f, v).values
                        + 2.5 * view(viewer, X, g, v).values
                    )
                    assert np.allclose(lhs.values, rhs, atol=VIEW_TOL)
                    # constant dimension difference
                    assert k - lhs.dim == viewer.dim_diff
                # expectation law at every admissible dimension
                for i in _viewer_dims(viewer, X, k):
                    acc = 0.0
                    for sigma in X.faces(i):
                        link = link_of(X, sigma)
                        acc += X.weight[sigma] * inner_product(
                            link,
                            view(viewer, X, f, sigma),
                            view(viewer, X, g, sigma),
                        )
                    assert abs(acc - inner_product(X, f, g)) <= VIEW_TOL


def test_viewer_composition(all_fixtures):
    rng = np.random.default_rng(11)
    for _, X in all_fixtures:
        for viewer in (LOCALIZATION, RESTRICTION):
            k = X.top_dim - 1 if viewer is LOCALIZATION else 0
            if viewer is LOCALIZATION and k < 2:
                continue
            f = _random_cochain(X, k, rng)
            for sigma in X.faces(1):
                direct = view(viewer, X, f, sigma)
                for tau in [(sigma[0],), (sigma[1],)]:
                    rest = tuple(v for v in sigma if v not in tau)
                    link1 = link_of(X, tau)
                    step1 = view(viewer, X, f, tau)
                    step2 = view(viewer, link1, step1, rest)
                    assert np.allclose(step2.values, direct.values, atol=VIEW_TOL)


def test_restriction_copies_values(c42):
    f = Cochain(c42, 0, np.array([3.0, 1.0, 4.0, 1.0]))
    r = view(RESTRICTION, c42, f, (3,))
    assert np.allclose(r.values, [3.0, 1.0, 4.0], atol=VIEW_TOL)
    with pytest.raises(ComplexError):
        view(RESTRICTION, c42, Cochain.ones(c42, 2), (3,))


def test_cochain_from_another_complex_is_rejected():
    # f has other faces than X at its dimension, as many or more: the
    # viewers and proper_decompose refuse it rather than read its values
    # by X's faces
    X = generate("complete", n=5, d=2)
    f = Cochain.ones(generate("complete", n=6, d=2), 1)
    shifted = build_complex([[v + 1 for v in F] for F in X.facets])
    for viewer in (RESTRICTION, LOCALIZATION):
        with pytest.raises(ComplexError, match="does not live"):
            view(viewer, X, f, (0,))
    for g in (f, Cochain.ones(shifted, 2)):
        with pytest.raises(ComplexError, match="does not live"):
            proper_decompose(X, g)


def test_respects_walk_residual(all_fixtures):
    rng = np.random.default_rng(12)
    for _, X in all_fixtures:
        for k in range(1, X.top_dim):
            for _ in range(5):
                f = _random_cochain(X, k, rng)
                assert oracle.respects_walk_residual(LOCALIZATION, X, k, f) <= WALK_TOL
        for k in range(0, X.top_dim - 1):
            for _ in range(5):
                f = _random_cochain(X, k, rng)
                assert oracle.respects_walk_residual(RESTRICTION, X, k, f) <= WALK_TOL
        ones = Cochain.ones(X, 1)
        assert oracle.respects_walk_residual(LOCALIZATION, X, 1, ones) <= WALK_TOL


def test_level_space_examples(t3, c42):
    assert level_space(t3, 1, 1).dimension == 0
    L1 = level_space(c42, 1, 1)
    assert L1.dimension == 2
    fstar = Cochain.from_dict(
        c42, 1, {(0, 1): 1, (0, 2): -1, (0, 3): 0, (1, 2): 0, (1, 3): -1, (2, 3): 1}
    )
    P1 = oracle.level_projector(c42, 1, 1)
    assert np.max(np.abs(P1 @ fstar.values - fstar.values)) <= LEVEL_TOL
    # constants are excluded at level 0
    P0 = oracle.level_projector(c42, 1, 0)
    ones = np.ones(6)
    assert np.max(np.abs(P0 @ ones)) <= LEVEL_TOL


def test_level_basis_satisfies_constraints(all_fixtures):
    # the per-face constraint rows are an independent encoding of the same
    # space; every kernel basis vector must annihilate them
    for _, X in all_fixtures:
        for k in range(1, X.top_dim + 1):
            for i in range(0, k + 1):
                B = level_space(X, k, i).vectors
                C = oracle.level_constraint_matrix(X, k, i)
                if B.size:
                    assert np.max(np.abs(C @ B)) <= LEVEL_TOL
                # and the claimed kernel is not smaller than the true one
                rank_c = np.linalg.matrix_rank(C, tol=1e-10)
                assert B.shape[1] == X.n_faces(k) - rank_c


def test_level_nesting(all_fixtures):
    # an i-level cochain has zero viewed mean at every dimension below i
    for _, X in all_fixtures:
        k = X.top_dim - 1
        if k < 1:
            continue
        for i in range(0, k + 1):
            B = level_space(X, k, i).vectors
            for lower in range(0, i):
                C = oracle.level_constraint_matrix(X, k, lower)
                if B.size:
                    assert np.max(np.abs(C @ B)) <= LEVEL_TOL


def test_proper_decompose_examples(c42):
    fstar = Cochain.from_dict(
        c42, 1, {(0, 1): 1, (0, 2): -1, (0, 3): 0, (1, 2): 0, (1, 3): -1, (2, 3): 1}
    )
    d = proper_decompose(c42, fstar)
    assert d.norms_sq[1] == pytest.approx(norm_sq(c42, fstar), abs=1e-12)
    assert d.norms_sq[0] == pytest.approx(0.0, abs=1e-12)
    assert d.norms_sq[-1] == pytest.approx(0.0, abs=1e-12)

    g = Cochain(c42, 0, np.array([1.0, -1.0, 0.0, 0.0]))
    f = diff(c42, 0)(g)
    d2 = proper_decompose(c42, f)
    assert d2.norms_sq[0] == pytest.approx(norm_sq(c42, f), abs=1e-12)
    assert d2.norms_sq[1] == pytest.approx(0.0, abs=1e-12)
    assert d2.norms_sq[-1] == pytest.approx(0.0, abs=1e-12)

    ones = Cochain.ones(c42, 1)
    d3 = proper_decompose(c42, ones)
    assert d3.norms_sq[-1] == pytest.approx(1.0, abs=1e-12)
    assert d3.norms_sq[0] == pytest.approx(0.0, abs=1e-12)
    assert d3.norms_sq[1] == pytest.approx(0.0, abs=1e-12)


def test_proper_decompose_invariants(all_fixtures):
    rng = np.random.default_rng(13)
    for _, X in all_fixtures:
        for k in range(0, X.top_dim + 1):
            for _ in range(5):
                f = _random_cochain(X, k, rng)
                d = proper_decompose(X, f)
                assert np.max(np.abs(d.reconstruction() - f.values)) <= LEVEL_TOL
                levels = sorted(d.components)
                assert levels == list(range(-1, k + 1))
                for a in levels:
                    for b in levels:
                        if a < b:
                            ip = inner_product(X, d.components[a], d.components[b])
                            assert abs(ip) <= LEVEL_TOL
                total = sum(d.norms_sq.values())
                assert abs(total - norm_sq(X, f)) <= 1e-9
                # each component is i-level ...
                for i in range(0, k + 1):
                    C = oracle.level_constraint_matrix(X, k, i)
                    assert np.max(np.abs(C @ d.components[i].values)) <= LEVEL_TOL
                # ... and orthogonal to the next level up
                for i in range(0, k):
                    Pnext = oracle.level_projector(X, k, i + 1)
                    assert np.max(np.abs(Pnext @ d.components[i].values)) <= LEVEL_TOL


def _assert_matches_complete_route(X, rng, mass_tol):
    """proper_decompose against the route that builds every level basis in
    extended precision, the lower ones from thin SVDs and the top one from
    a complete QR, at every dimension of ``X``: level masses within
    ``mass_tol * max(1, |f|^2)``, components within ``LEVEL_TOL`` in the W-norm (entries on faces of
    weight w are only fixed to rounding over sqrt(w)), and at every level
    the same dimension and the same projector ``B B^T W`` within
    ``LEVEL_TOL``, compared in sqrt(w) coordinates where it is an
    orthogonal projector.  The bases themselves may differ: a basis inside
    a level is free, and levels with repeated Gram eigenvalues have no
    preferred one."""
    for k in range(0, X.top_dim + 1):
        f = _random_cochain(X, k, rng)
        got = proper_decompose(X, f)
        want = oracle.proper_decompose_complete(X, f)
        nsq = norm_sq(X, f)
        assert sorted(got.components) == list(range(-1, k + 1))
        for i in range(-1, k + 1):
            assert abs(got.norms_sq[i] - want.norms_sq[i]) <= mass_tol * max(1.0, nsq)
            gap = Cochain(X, k, got.components[i].values - want.components[i].values)
            assert np.sqrt(norm_sq(X, gap)) <= LEVEL_TOL * max(1.0, np.sqrt(nsq))
        bases = oracle.proper_bases_complete(X, k)
        s = np.sqrt(weight_vector(X, k))[:, None]
        for i in range(-1, k + 1):
            B = proper_level_basis(X, k, i) * s
            C = bases[i] * s
            assert B.shape == C.shape
            assert np.max(np.abs(B @ B.T - C @ C.T), initial=0.0) <= LEVEL_TOL


def test_proper_decompose_matches_complete_route(all_fixtures, skewed83):
    rng = np.random.default_rng(15)
    for _, X in all_fixtures + [("skewed83", skewed83)]:
        _assert_matches_complete_route(X, rng, 1e-15)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(X=oracle.weighted_pure_complexes(), seed=st.integers(0, 2**32 - 1))
@example(
    X=build_complex(
        [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4)],
        [0.2499999999697408, 0.25000000013508644, 0.25000000001499467, 0.2499999998801781],
    ),
    seed=5,
)
def test_proper_decompose_matches_complete_route_property(X, seed):
    # the package's masses carry a few ulps of |f|^2 of rounding and the
    # complete route's, in extended precision, far less: their difference
    # reached 9.2e-16 over 2000 draws.  With the complete route in double
    # the pinned example's level-0 masses at k = 3 differed by 2.22e-15,
    # the complete route 1.93e-15 off a 40-digit reference
    _assert_matches_complete_route(X, np.random.default_rng(seed), 2e-15)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(X=oracle.weighted_pure_complexes(), seed=st.integers(0, 2**32 - 1))
def test_walk_identities_and_projector_components_property(X, seed):
    # the package's single routes against the oracle's second routes on
    # random weighted complexes: the vertex walk from every i-fold up-down
    # walk, the down-up walk through the empty face, and each proper
    # component as the difference of two dense level projectors
    M = nonlazy(X, 0).matrix
    for i in range(1, X.top_dim + 1):
        assert np.allclose(oracle.nonlazy_from_iup(X, i).matrix, M, rtol=0.0, atol=1e-12)
    rng = np.random.default_rng(seed)
    for k in range(0, X.top_dim + 1):
        P = oracle.constant_projection(X, k).matrix
        assert np.allclose(down_up(X, k, k + 1).matrix, P, rtol=0.0, atol=1e-12)
        f = _random_cochain(X, k, rng)
        d = proper_decompose(X, f)
        scale = max(1.0, np.sqrt(norm_sq(X, f)))
        projected = [oracle.level_projector(X, k, i) @ f.values for i in range(k + 1)]
        want = {i: projected[i] - (projected[i + 1] if i < k else 0.0) for i in range(k + 1)}
        want[-1] = f.values - projected[0]
        assert sorted(d.components) == sorted(want)
        for i, values in want.items():
            gap = Cochain(X, k, d.components[i].values - values)
            assert np.sqrt(norm_sq(X, gap)) <= LEVEL_TOL * scale


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(X=oracle.weighted_pure_complexes())
def test_proper_level_dimensions_sum_to_face_count_property(X):
    for k in range(-1, X.top_dim + 1):
        dims = [proper_level_basis(X, k, i).shape[1] for i in range(-1, k + 1)]
        assert sum(dims) == X.n_faces(k)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(X=oracle.weighted_pure_complexes())
def test_proper_level_dimensions_ignore_weights_property(X):
    # the lifts are uniform averages, so no rank may depend on the weights:
    # spreads up to 12 decades give the level dimensions of the same facets
    # weighted uniformly
    U = build_complex(X.faces(X.top_dim))
    for k in range(-1, X.top_dim + 1):
        for i in range(-1, k + 1):
            assert proper_level_basis(X, k, i).shape == proper_level_basis(U, k, i).shape


def _scaled_table(X, k):
    """``(Q, T, starts)`` of ``level_decomp._level_bases(X, k)`` times
    sqrt(w), where the table is orthonormal."""
    Q, T, starts = level_decomp._level_bases(X, k)
    s = np.sqrt(weight_vector(X, k))[:, None]
    return Q * s, T * s, starts


def _skewed_complete(n, d, decades, seed=0):
    facets = list(combinations(range(n), d + 1))
    weights = 10 ** np.random.default_rng(seed).uniform(-decades, 0, len(facets))
    return build_complex(facets, list(weights))


def test_rank_cut_sits_in_a_gap(monkeypatch, all_fixtures, skewed83):
    # the flag keeps a direction of a lift when its squared singular value
    # off the stack, the exact Gram eigenvalue, is above the rank cut
    # (max(shape) eps |A|_F)^2, the thin SVD's cut squared.  Every one it
    # keeps is at least 1e3 times the cut and every one it drops at most
    # 1e-1 times it (measured: 1.3e16 and 8.6e-5 on skewed83, 1.3e9 and
    # 1.7e-4 over eight draws of complete(8,3) at 20 decades), so no rank
    # decision rests on rounding.  The eigenvalues come from an SVD here,
    # which resolves them far below eps |G|.  Measured on fresh copies,
    # whose stacks are not cached yet.
    calls = []
    original = level_decomp._range_basis

    def recording(A, Q):
        B = original(A, Q)
        calls.append((A, Q, B))
        return B

    monkeypatch.setattr(level_decomp, "_range_basis", recording)
    inputs = [X for _, X in all_fixtures] + [skewed83]
    inputs = [build_complex(X.faces(X.top_dim), list(weight_vector(X, X.top_dim))) for X in inputs]
    for X in inputs + [_skewed_complete(12, 3, 12), _skewed_complete(8, 3, 20)]:
        calls.clear()
        for k in range(-1, X.top_dim + 1):
            level_decomp._level_bases(X, k)
        assert calls
        for A, Q, B in calls:
            cut = (max(A.shape) * np.finfo(float).eps) ** 2 * np.vdot(A, A)
            for _ in range(2):
                A = A - Q @ (Q.T @ A)
            lam = np.linalg.svd(A, compute_uv=False) ** 2
            assert np.sum(lam > cut) == B.shape[1]
            assert np.all(lam[lam > cut] >= 1e3 * cut)
            assert np.all(lam[lam <= cut] <= 0.1 * cut)


@pytest.mark.parametrize("decades", [16, 20, 24])
def test_level_dimensions_ignore_weights_beyond_12_decades(decades):
    # one eigensolve resolves a Gram's eigenvalues only to eps |G|, and on
    # complete(8,3) with weights spread over 16 decades the new part of the
    # lift from the 2-faces has directions below that (a single pass lost
    # one in 4 of 8 draws, 2 or 3 in 6 of 8 at 18 decades and 2 to 5 in all
    # 8 at 20); the passes on what is left find them, so the level
    # dimensions are those of the uniform complex and the stack stays
    # orthonormal
    U = build_complex(generate("complete", n=8, d=3).facets)
    for seed in range(4):
        X = _skewed_complete(8, 3, decades, seed)
        for k in range(-1, 4):
            Q, _, starts = _scaled_table(X, k)
            assert starts == level_decomp._level_bases(U, k)[2]
            assert np.max(np.abs(Q.T @ Q - np.eye(Q.shape[1])), initial=0.0) <= 1e-13


def test_range_stack_orthonormal_under_skewed_weights(skewed83):
    # L^-1/2 amplifies rounding along weak directions: B projected off the
    # stack and one Newton-Schulz step keep both stacks within 1.4e-15; with
    # no projection of B skewed83's was off by 8.9e-12, with no
    # Newton-Schulz step by 1.5e-9
    for X in (skewed83, _skewed_complete(12, 3, 12)):
        for k in range(-1, X.top_dim + 1):
            Q, _, _ = _scaled_table(X, k)
            assert np.max(np.abs(Q.T @ Q - np.eye(Q.shape[1])), initial=0.0) <= 1e-13


def test_range_bases_take_no_svd(monkeypatch):
    # the flag comes from symmetric eigensolves of each lift's Gram matrix;
    # the thin SVD is the oracle's route
    def refuse(*args, **kwargs):
        raise AssertionError("SVD taken")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    X = generate("complete", n=8, d=3)
    for k in range(-1, 4):
        Q, _, starts = level_decomp._level_bases(X, k)
        assert Q.shape[1] == starts[-1]
    assert sum(proper_level_basis(X, 3, i).shape[1] for i in range(-1, 4)) == X.n_faces(3)


def _top_lift_dense(X, k):
    """``A = sqrt(W_k) diff(X, k-1) W_(k-1)^-1/2`` as a dense matrix."""
    A = np.sqrt(weight_vector(X, k))[:, None] * diff(X, k - 1).matrix
    return A / np.sqrt(weight_vector(X, k - 1))


def test_top_gram_rank_cut_sits_in_a_gap(monkeypatch, all_fixtures, skewed83):
    # the top Gram G = A^T A keeps as many directions of A as its thin SVD
    # has above (max(shape) eps |A|_F)^2, strong ones from one eigh of G and
    # weaker ones from passes, and the decision rests on a gap: every kept
    # squared singular value is at least 1e3 times the cut and every dropped
    # one at most 0.1 times it (measured: 3.9e9 and none on these inputs,
    # 1e23 and 4.4e-7 on partite(5,5,5,5), whose up-down walks have true
    # zero eigenvalues).  Measured on fresh copies, whose flags are not
    # cached yet.
    calls = []
    original = level_decomp._top_range

    def recording(X, k):
        out = original(X, k)
        calls.append((k, out))
        return out

    monkeypatch.setattr(level_decomp, "_top_range", recording)
    inputs = [X for _, X in all_fixtures] + [skewed83]
    inputs = [build_complex(X.faces(X.top_dim), list(weight_vector(X, X.top_dim))) for X in inputs]
    inputs += [_skewed_complete(12, 3, 12), _skewed_complete(8, 3, 20)]
    for X in inputs + [generate("partite", parts=[5, 5, 5, 5])]:
        calls.clear()
        for k in range(0, X.top_dim + 1):
            level_decomp._flag(X, k)
        assert [k for k, _ in calls] == list(range(X.top_dim + 1))
        for k, (P, W, _) in calls:
            A = _top_lift_dense(X, k)
            cut = (max(A.shape) * np.finfo(float).eps) ** 2 * np.vdot(A, A)
            lam = np.linalg.svd(A, compute_uv=False) ** 2
            assert np.sum(lam > cut) == P.shape[1] + W.shape[1]
            assert np.all(lam[lam > cut] >= 1e3 * cut)
            assert np.all(lam[lam <= cut] <= 0.1 * cut)


@pytest.mark.parametrize("decades", [16, 20, 24])
def test_proper_decompose_masses_beyond_12_decades(decades):
    # past 12 decades the top Gram has directions below sqrt(eps) |G|, which
    # the passes take in k-face rows; the masses still match the complete
    # route within 1e-15 |f|^2 (measured: 5.2e-16 at 16 decades), and the
    # components and level projectors within LEVEL_TOL (measured: 1.2e-14
    # at 24 decades; the complete route in double drifted to 2.6e-8 there)
    rng = np.random.default_rng(decades)
    for seed in range(4):
        _assert_matches_complete_route(_skewed_complete(8, 3, decades, seed), rng, 1e-15)


def test_top_decompose_builds_no_k_face_lift_or_stack():
    # a top cochain is decomposed by CGLS on the lifts' subface arrays: no
    # dense lift to the top faces, no level table and no flag enters the memo
    X = generate("complete", n=8, d=3)
    proper_decompose(X, _random_cochain(X, 3, np.random.default_rng(17)))
    assert not [key for key in X._cache if key[0] == "multi_up" and key[1] + key[2] == 3]
    assert ("level_bases", 3) not in X._cache
    assert ("flag", 3) not in X._cache


def test_top_decompose_at_scale_takes_no_flag(monkeypatch):
    # complete(30,3)'s top cochain took 10 s and 680 MB on the flag, most of
    # it one eigh of the 4,060 x 4,060 top Gram; CGLS takes a few steps a
    # level and must not fall back to it
    def refuse(X, k):
        raise AssertionError("flag built")

    monkeypatch.setattr(level_decomp, "_flag", refuse)
    X = generate("complete", n=30, d=3)
    f = _random_cochain(X, 3, np.random.default_rng(30))
    d = proper_decompose(X, f)
    nsq = norm_sq(X, f)
    w = weight_vector(X, 3)
    for i in range(1, 4):
        # level i is i-level: its localized mean vanishes at every (i-1)-face
        # (measured: at most 4.6e-17 max|f|, the inner products 4.2e-18 |f|^2)
        sub = level_decomp._subfaces(X, 3, i - 1)
        wg = np.repeat(w * d.components[i].values, sub.shape[1])
        means = np.bincount(sub.ravel(), wg) / (sub.shape[1] * weight_vector(X, i - 1))
        assert np.max(np.abs(means)) <= 1e-14 * np.max(np.abs(f.values))
    for a in range(-1, 4):
        for b in range(a + 1, 4):
            assert abs(inner_product(X, d.components[a], d.components[b])) <= 1e-14 * nsq
    assert np.max(np.abs(d.reconstruction() - f.values)) <= LEVEL_TOL


def test_skewed_top_decompose_falls_back_to_the_flag(monkeypatch):
    # at 16 decades of weight spread a projection misses its target within
    # n_j + 1 iterations, and the whole split comes from the flag
    X = _skewed_complete(8, 3, 16, 0)
    f = _random_cochain(X, 3, np.random.default_rng(16))
    assert level_decomp._cgls_levels(X, f) is None
    calls = []
    flag = level_decomp._flag
    monkeypatch.setattr(level_decomp, "_flag", lambda X, k: calls.append(k) or flag(X, k))
    got = proper_decompose(X, f)
    assert calls == [3]
    want = level_decomp._split(X, f, level_decomp._flag_levels(X, f))
    for i in range(-1, 4):
        assert np.array_equal(got.components[i].values, want.components[i].values)


def _assert_matches_flag_route(X, rng):
    """proper_decompose against the flag route called directly, at every
    dimension of ``X``: masses within ``2e-15 max(1, |f|^2)`` and
    components within ``LEVEL_TOL`` in the W-norm, whichever route
    proper_decompose takes."""
    for k in range(0, X.top_dim + 1):
        f = _random_cochain(X, k, rng)
        got = proper_decompose(X, f)
        want = level_decomp._split(X, f, level_decomp._flag_levels(X, f))
        nsq = norm_sq(X, f)
        assert sorted(got.components) == list(range(-1, k + 1))
        for i in range(-1, k + 1):
            assert abs(got.norms_sq[i] - want.norms_sq[i]) <= 2e-15 * max(1.0, nsq)
            gap = Cochain(X, k, got.components[i].values - want.components[i].values)
            assert np.sqrt(norm_sq(X, gap)) <= LEVEL_TOL * max(1.0, np.sqrt(nsq))


def test_proper_decompose_matches_flag_route(all_fixtures, skewed83):
    rng = np.random.default_rng(19)
    for _, X in all_fixtures + [("skewed83", skewed83)]:
        _assert_matches_flag_route(X, rng)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(X=oracle.weighted_pure_complexes(), seed=st.integers(0, 2**32 - 1))
def test_proper_decompose_matches_flag_route_property(X, seed):
    # over 1,739 cochains on such complexes the CGLS route's masses were at
    # most 1.1e-15 |f|^2 off the flag route's and off the complete route's;
    # 432 of them fell back to the flag
    _assert_matches_flag_route(X, np.random.default_rng(seed))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_proper_decompose_refuses_non_finite_values(bad):
    # a NaN once went through every projection and came out as NaN masses
    X = generate("complete", n=5, d=2)
    for k in range(-1, 3):
        f = _random_cochain(X, k, np.random.default_rng(5))
        f.values[-1] = bad
        with pytest.raises(ComplexError, match="non-finite"):
            proper_decompose(X, f)
    # and the CGLS projection refuses one itself
    f = _random_cochain(X, 2, np.random.default_rng(5))
    f.values[0] = -bad
    with pytest.raises(ComplexError, match="non-finite"):
        level_decomp._cgls_levels(X, f)


def test_level_dimensions_of_wide_lifts():
    # 150 random 4-subsets of 40 vertices have more 2-faces than 3-faces, so
    # the top Gram is larger than A A^T; the level dimensions are still
    # those of the thin-SVD route, run in double: it takes its ranks from
    # a double SVD in either precision
    rng = np.random.default_rng(17)
    facets = set()
    while len(facets) < 150:
        facets.add(tuple(sorted(rng.choice(40, 4, replace=False).tolist())))
    X = build_complex(sorted(facets))
    assert X.n_faces(2) > X.n_faces(3)
    for k in range(-1, 4):
        _, _, starts = level_decomp._level_bases(X, k)
        want = oracle.proper_bases_complete(X, k, dtype=float)
        assert list(np.diff(starts)) == [want[i].shape[1] for i in range(-1, k)]
        assert proper_level_basis(X, k, k).shape == want[k].shape


def test_level_bases_are_read_only_views_of_one_table(all_fixtures, skewed83):
    # every proper level basis is a view into the one cached table of its
    # dimension: a write raises, the levels below k share the stack's
    # memory, and the memo holds no second entry for the stack or the top
    for _, X in all_fixtures + [("skewed83", skewed83)]:
        for k in range(-1, X.top_dim + 1):
            bases = [proper_level_basis(X, k, i) for i in range(-1, k + 1)]
            for i, B in enumerate(bases, start=-1):
                with pytest.raises(ValueError):
                    B[...] = 5.0
                assert np.may_share_memory(B, proper_level_basis(X, k, i)) or not B.size
            stack = [B for B in bases[:-1] if B.size]
            assert all(np.may_share_memory(B, C) for B in stack for C in stack)
            assert all(B.base is not None and B.base is bases[0].base for B in bases[:-1])
            assert ("level_bases", k) in X._cache
        families = {key[0] for key in X._cache}
        assert not families & {"range_bases", "top_basis"}


def test_complement_edge_cases():
    # a full-rank Q leaves an (n, 0) complement; Q = e_1 and the 1 x 1 Q
    # give a zero tau, LAPACK's identity reflector
    for n in (1, 3, 6):
        Q = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))[0]
        assert level_decomp._complement(Q).shape == (n, 0)
    e1 = np.eye(3)[:, :1]
    assert np.linalg.qr(e1, mode="raw")[1][0] == 0.0
    C = level_decomp._complement(e1)
    assert np.array_equal(C, np.eye(3)[:, 1:])
    assert not np.signbit(C).any()
    assert level_decomp._complement(np.ones((1, 1))).shape == (1, 0)
    assert np.array_equal(level_decomp._complement(np.zeros((1, 0))), np.ones((1, 1)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(X=oracle.weighted_pure_complexes())
def test_complement_property(X):
    # the complement of every level stack: n_k - r orthonormal columns,
    # orthogonal to the stack, and the table's top level spans it; where
    # every pivot that picks a reflector's sign is well away from rounding,
    # also the complete QR's columns to rounding (the basis is not
    # continuous in the stack: a reflector's sign flips where its pivot
    # crosses zero, and two routes may round a tiny pivot to either side)
    for k in range(-1, X.top_dim + 1):
        Q, T, _ = _scaled_table(X, k)
        n, r = Q.shape
        C = level_decomp._complement(Q)
        assert C.shape == (n, n - r)
        assert np.all(np.abs(C.T @ C - np.eye(n - r)) <= 1e-14)
        assert np.all(np.abs(Q.T @ C) <= 1e-14)
        if (np.abs(oracle.presign_pivots(Q[:r])) > SIGN_MARGIN).all():
            assert np.all(np.abs(C - oracle.complement_complete(Q)) <= 1e-14)
        assert np.all(np.abs(C @ C.T - T @ T.T) <= 1e-14)


def _orthonormal_draw(rng, family, n, r):
    """An n x r matrix with orthonormal columns from one of the families
    that stress the sign-chosen LU of :func:`level_decomp._complement`."""
    if family == "gaussian":
        return np.linalg.qr(rng.standard_normal((n, r)))[0]
    if family == "tiny top":  # pivots of about 1e-12
        A = rng.standard_normal((n, r))
        A[:r] *= 1e-12
        return np.linalg.qr(A)[0]
    Q = np.zeros((n, r))
    rows = rng.permutation(n)
    if family == "zeros":  # disjoint column supports: one nonzero a row at most
        owner = np.concatenate([np.arange(r), rng.integers(-r, r, n - r)]) if r else []
        for c in range(r):
            v = rng.standard_normal(np.count_nonzero(owner == c))
            Q[rows[owner == c], c] = v / np.linalg.norm(v)
        return Q
    # signed identity columns (tau = 0, sign ties) beside Gaussian ones
    j = int(rng.integers(0, r + 1))
    Q[rows[:j], np.arange(j)] = rng.choice([-1.0, 1.0], j)
    Q[rows[j:], j:] = np.linalg.qr(rng.standard_normal((n - j, r - j)))[0]
    return Q[:, rng.permutation(r)]


@pytest.mark.parametrize("family", ["gaussian", "tiny top", "zeros", "identity"])
def test_complement_matches_complete_qr_on_adversarial_stacks(family):
    # the sign-chosen LU rebuilds the reflectors of the complete QR: its
    # columns agree within 1e-14 (measured: 1.3e-15 over 1200 draws), r = 0
    # and r = n included, and [Q, C] is orthogonal to rounding; sizes past
    # LEAF take the recursive halving
    rng = np.random.default_rng(["gaussian", "tiny top", "zeros", "identity"].index(family))
    shapes = [(5, 0), (5, 5), (1, 0), (1, 1), (70, 70), (90, 45), (200, 37)]
    shapes += [tuple(sorted(rng.integers(1, 60, 2))[::-1]) for _ in range(60)]
    for n, r in shapes:
        Q = _orthonormal_draw(rng, family, n, r)
        C = level_decomp._complement(Q)
        assert C.shape == (n, n - r)
        assert np.all(np.abs(C - oracle.complement_complete(Q)) <= 1e-14), (n, r)
        B = np.hstack([Q, C])
        assert np.all(np.abs(B.T @ B - np.eye(n)) <= 1e-14), (n, r)


def test_level_bases_take_no_qr_or_solve(monkeypatch):
    # the top level's basis comes from the stack's reflectors, rebuilt from
    # an r x r LU by products: building every table takes no QR of any mode
    # and no linear solve
    def refuse(*args, **kwargs):
        raise AssertionError("QR or solve taken")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for X in (generate("complete", n=8, d=3), generate("partite", parts=[3, 3, 3])):
        for k in range(-1, X.top_dim + 1):
            B = proper_level_basis(X, k, k)
            assert B.shape[1] == X.n_faces(k) - level_decomp._level_bases(X, k)[0].shape[1]


def test_level_table_refused_when_it_cannot_fit(monkeypatch):
    # before it allocates, a table larger than the memory the process can
    # get is refused with a ComplexError naming k, n_k, r and the size
    X = generate("complete", n=12, d=2)
    n, r = X.n_faces(2), X.n_faces(1)  # the lifts are averages: R_1 has rank n_1
    need = 8 * (n * n + 2 * n * r + r * r)
    monkeypatch.setattr(level_decomp, "_memory_room", lambda: need - 1)
    with pytest.raises(ComplexError) as exc:
        proper_level_basis(X, 2, 2)
    assert f"level table of 2-cochains needs about {need / 2**30:.3g} GiB" in str(exc.value)
    assert f"(n_2 = {n}, r = {r})" in str(exc.value)
    assert ("level_bases", 2) not in X._cache
    monkeypatch.setattr(level_decomp, "_memory_room", lambda: need)
    assert proper_level_basis(X, 2, 2).shape == (n, n - r)


def test_level_table_estimate_covers_its_build(all_fixtures, skewed83):
    # the refusal's estimate bounds what building a table holds at once:
    # tracemalloc's peak, the flag built before, is within it but for 64 KiB
    # of array headers and Python objects; the memory read is positive
    assert 0 < level_decomp._memory_room() <= np.inf
    inputs = [X for _, X in all_fixtures] + [skewed83, generate("complete", n=14, d=3)]
    for X in inputs:
        X = build_complex(X.faces(X.top_dim), list(weight_vector(X, X.top_dim)))
        for k in range(0, X.top_dim + 1):
            P, W, Qc, _ = level_decomp._flag(X, k)
            tracemalloc.start()
            try:
                level_decomp._level_bases(X, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            n, m, r = X.n_faces(k), len(P), len(Qc)
            assert peak <= 8 * (n * n + 2 * n * r + m * r) + 2**16, (X.n_faces(0), k)


def test_proper_decompose_builds_no_complement(monkeypatch):
    # the top level is a residual: decomposing on a fresh complex never
    # builds the complement of the stack, which only level k's basis needs
    def refuse(Q):
        raise AssertionError("complement formed")

    monkeypatch.setattr(level_decomp, "_complement", refuse)
    X = generate("complete", n=8, d=3)
    rng = np.random.default_rng(16)
    for k in range(0, 4):
        f = _random_cochain(X, k, rng)
        d = proper_decompose(X, f)
        assert np.max(np.abs(d.reconstruction() - f.values)) <= LEVEL_TOL
    # a (-1)-cochain is all constant part
    d = proper_decompose(X, Cochain(X, -1, np.array([3.0])))
    assert list(d.components) == [-1] and d.components[-1].values[0] == 3.0
    with pytest.raises(AssertionError, match="complement formed"):
        proper_level_basis(X, 3, 3)


def test_projector_algebra(all_fixtures):
    # the proper projectors are idempotent, mutually annihilating, and sum
    # to the identity as matrices
    for _, X in all_fixtures:
        k = min(1, X.top_dim - 1)
        if k < 0:
            continue
        n = X.n_faces(k)
        w = weight_vector(X, k)
        projs = []
        for i in range(-1, k + 1):
            B = proper_level_basis(X, k, i)
            projs.append(B @ (B.T * w[None, :]) if B.size else np.zeros((n, n)))
        total = np.zeros((n, n))
        for a, Pa in enumerate(projs):
            total += Pa
            assert np.max(np.abs(Pa @ Pa - Pa)) <= LEVEL_TOL
            for b, Pb in enumerate(projs):
                if a != b:
                    assert np.max(np.abs(Pa @ Pb)) <= LEVEL_TOL
        assert np.max(np.abs(total - np.eye(n))) <= LEVEL_TOL


def test_proper_bases_under_skewed_weights():
    # facet weights spread over twelve decades must not change the level
    # dimensions, which depend only on the face structure, nor break the
    # W-orthonormality of the combined basis
    skewed = _skewed_complete(12, 3, 12)
    for X in (build_complex(skewed.faces(3)), skewed):
        bases = [proper_level_basis(X, 3, i) for i in range(-1, 4)]
        assert [B.shape[1] for B in bases] == [1, 11, 54, 154, 275]
        B = np.hstack(bases)
        G = B.T @ (weight_vector(X, 3)[:, None] * B)
        assert np.max(np.abs(G - np.eye(X.n_faces(3)))) <= 1e-12


def test_localization_shifts_levels(all_fixtures):
    # an i-level cochain viewed in a vertex link is (i-1)-level there
    for _, X in all_fixtures:
        k = X.top_dim - 1
        if k < 2:
            continue
        for i in range(1, k + 1):
            B = level_space(X, k, i).vectors
            if not B.size:
                continue
            for v in X.faces(0):
                link = link_of(X, v)
                C = oracle.level_constraint_matrix(link, k - 1, i - 1)
                for c in range(B.shape[1]):
                    fv = view(LOCALIZATION, X, Cochain(X, k, B[:, c]), v)
                    assert np.max(np.abs(C @ fv.values)) <= LEVEL_TOL


def test_restriction_level_spaces(c42, two_tri):
    B0 = oracle.restriction_level_space(c42, 0).vectors
    w = weight_vector(c42, 0)
    assert B0.shape[1] == 3
    assert np.max(np.abs(w @ B0)) <= LEVEL_TOL
    # the complete complex has no 1-level vertex cochains ...
    assert oracle.restriction_level_space(c42, 1).dimension == 0
    # ... while two glued triangles have exactly one
    B1 = oracle.restriction_level_space(two_tri, 1).vectors
    assert B1.shape[1] == 1
    assert np.max(np.abs(nonlazy(two_tri, 0).matrix @ B1)) <= LEVEL_TOL
    assert np.max(np.abs(weight_vector(two_tri, 0) @ B1)) <= LEVEL_TOL
    with pytest.raises(ComplexError):
        oracle.restriction_level_space(c42, 2)


def test_lift_to_zero_t3(t3):
    g0 = Cochain(t3, 0, np.array([1.0, -1.0, 0.0]))
    f0 = diff(t3, 0)(g0)
    g, feq = oracle.lift_to_zero(t3, f0)
    assert np.allclose(feq.values, [0.5, -0.5, 0.0], atol=1e-9)
    assert norm_sq(t3, f0) == pytest.approx(1 / 6, abs=1e-12)
    assert norm_sq(t3, feq) == pytest.approx(1 / 6, abs=1e-9)
    down_energy = norm_sq(t3, multi_down(t3, 0, 1)(f0))
    up_energy = norm_sq(t3, multi_up(t3, 0, 1)(feq))
    assert down_energy == pytest.approx(1 / 24, abs=1e-12)
    assert up_energy == pytest.approx(1 / 24, abs=1e-9)


def test_lift_to_zero_properties(all_fixtures):
    rng = np.random.default_rng(14)
    for _, X in all_fixtures:
        for k in range(1, X.top_dim + 1):
            # seed with an honest lift of a mean-zero vertex cochain
            g0 = random_mean_zero_cochain(X, 0, rng)
            f0 = multi_up(X, 0, k)(g0)
            if norm_sq(X, f0) < 1e-20:
                continue
            g, feq = oracle.lift_to_zero(X, f0)
            assert abs(inner_product(X, feq, Cochain.ones(X, 0))) <= 1e-9
            assert abs(norm_sq(X, feq) - norm_sq(X, f0)) <= 1e-9
            lhs = norm_sq(X, multi_down(X, 0, k)(f0))
            rhs = norm_sq(X, multi_up(X, 0, k)(feq))
            assert abs(lhs - rhs) <= 1e-9


def test_lift_to_zero_zero_and_rejections(t3, c42):
    zero = Cochain.zeros(t3, 1)
    g, feq = oracle.lift_to_zero(t3, zero)
    assert np.allclose(g.values, 0.0, atol=1e-12)
    assert np.allclose(feq.values, 0.0, atol=1e-12)
    with pytest.raises(ComplexError, match="0-level"):
        oracle.lift_to_zero(t3, Cochain.ones(t3, 1))
    # mean-zero but not in the image of the lift from the vertices
    fstar = Cochain.from_dict(
        c42, 1, {(0, 1): 1, (0, 2): -1, (0, 3): 0, (1, 2): 0, (1, 3): -1, (2, 3): 1}
    )
    with pytest.raises(ComplexError, match="residual"):
        oracle.lift_to_zero(c42, fstar)
