import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from hdxwalk import (
    Cochain,
    ComplexError,
    balanced_check,
    build_complex,
    coboundary,
    generate,
    inner_product,
    local_minimality_residuals,
    minimal_representative,
    norm_sq,
    weight_vector,
    write_cochain,
    write_complex,
)
from hdxwalk.oriented_topology import OrientedCochain, perm_sign

TOL = 1e-12
RES_TOL = 1e-10


def _cyclic_flow(t3):
    return OrientedCochain.from_dict(t3, 1, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): -1.0})


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((2, 0, 1)) == 1
    assert perm_sign((5,)) == 1


def test_oriented_evaluation(t3):
    f = _cyclic_flow(t3)
    assert f.evaluate((0, 1)) == 1.0
    assert f.evaluate((1, 0)) == -1.0
    assert f.evaluate((2, 0)) == 1.0


def test_coboundary_vertex_example(t3):
    d0 = coboundary(t3, 0)
    out = d0.matrix @ np.array([1.0, 0.0, 0.0])
    # edges (01),(02),(12): df(u,v) = f(v) - f(u)
    assert np.allclose(out, [-1.0, -1.0, 0.0], atol=TOL)
    consts = d0.matrix @ np.ones(3)
    assert np.allclose(consts, 0.0, atol=TOL)


def test_coboundary_minus_one_lifts_constants(t3):
    dm1 = coboundary(t3, -1)
    assert np.allclose(dm1.matrix @ np.array([2.0]), 2.0, atol=TOL)


def test_coboundary_equals_scan(all_fixtures, skewed83):
    for _, X in all_fixtures + [("skewed_complete83", skewed83)]:
        for i in range(-1, X.top_dim):
            assert np.array_equal(coboundary(X, i).matrix, oracle.coboundary_scan(X, i))


def test_delta_delta_zero(all_fixtures):
    for _, X in all_fixtures:
        for i in range(-1, X.top_dim - 1):
            prod = coboundary(X, i + 1).matrix @ coboundary(X, i).matrix
            assert np.max(np.abs(prod)) <= TOL


def test_minimal_representative_examples(t3):
    f = OrientedCochain(t3, 0, np.array([1.0, 0.0, 0.0]))
    fmin = minimal_representative(t3, f)
    assert np.allclose(fmin.values, [2 / 3, -1 / 3, -1 / 3], atol=TOL)

    flow = _cyclic_flow(t3)
    fmin2 = minimal_representative(t3, flow)
    assert np.allclose(fmin2.values, flow.values, atol=TOL)  # already minimal

    g = np.array([0.3, -1.2, 0.7])
    fb = OrientedCochain(t3, 1, coboundary(t3, 0).matrix @ g)
    assert np.allclose(minimal_representative(t3, fb).values, 0.0, atol=TOL)


def test_minimal_representative_is_projection(all_fixtures):
    rng = np.random.default_rng(30)
    for _, X in all_fixtures:
        for k in range(0, X.top_dim + 1):
            f = OrientedCochain(X, k, rng.standard_normal(X.n_faces(k)))
            fmin = minimal_representative(X, f)
            again = minimal_representative(X, fmin)
            assert np.allclose(again.values, fmin.values, atol=RES_TOL)
            diff_part = Cochain(X, k, f.values - fmin.values)
            assert abs(inner_product(X, diff_part, fmin.as_cochain())) <= RES_TOL
            # certified against a basis of corrections
            B = coboundary(X, k - 1).matrix
            w = np.array([X.weight[s] for s in X.faces(k)])
            assert np.max(np.abs(B.T @ (w * fmin.values))) <= RES_TOL


def _worst_residual(X, f):
    return max(local_minimality_residuals(X, f).values())


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(X=oracle.weighted_pure_complexes(decades=20.0), seed=st.integers(0, 2**32 - 1))
def test_minimal_representative_matches_lstsq_route(X, seed):
    # Both routes project sqrt(w) f off the range of sqrt(W) delta, whose
    # condition grows with sqrt(w_max / w_min), so either may sit about
    # eps sqrt(w_max / w_min) |f|_W off the exact projection: over 1,000
    # draws the two were at most 11 such units apart in the W-norm.  An
    # error e moves the residual at a (k-1)-face s, |(delta^T W e)(s)| /
    # ((k+1) w(s)), by at most |e|_W / sqrt((k+1) w(s)), since the k-faces
    # over s weigh (k+1) w(s) together.
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    for k in range(X.top_dim + 1):
        f = OrientedCochain(X, k, rng.standard_normal(X.n_faces(k)))
        ours = minimal_representative(X, f)
        theirs = oracle.minimal_representative_lstsq(X, f)
        w = weight_vector(X, k)
        sw = np.sqrt(w)
        tol = 64 * eps * np.sqrt(w.max() / w.min()) * np.linalg.norm(sw * f.values)
        assert np.linalg.norm(sw * (ours.values - theirs.values)) <= tol
        if k:
            slack = tol / np.sqrt((k + 1) * weight_vector(X, k - 1).min())
            assert _worst_residual(X, ours) <= _worst_residual(X, theirs) + slack


def test_minimal_representative_beyond_20_decades():
    # complete(10,3) with facet weights 10^U(-20, 0), seed 2, at k = 3: the
    # dense lstsq route leaves a minimality residual of 1.1e-9 max|f|, above
    # the CLI's 1e-10 gate, and CGLS 4.8e-16 max|f|
    facets = generate("complete", n=10, d=3).facets
    X = build_complex(facets, list(10 ** np.random.default_rng(2).uniform(-20, 0, len(facets))))
    f = OrientedCochain(X, 3, np.random.default_rng(2).standard_normal(X.n_faces(3)))
    scale = np.max(np.abs(f.values))
    _worst_residual(X, f)  # the subface arrays and weights the projection reads
    memo = set(X._cache)
    ours = _worst_residual(X, minimal_representative(X, f))
    assert set(X._cache) == memo  # the projection caches nothing
    assert ours <= 1e-12 * scale
    assert ours < _worst_residual(X, oracle.minimal_representative_lstsq(X, f))
    assert not any(key[0] == "coboundary" for key in X._cache)


@pytest.mark.parametrize("seed", range(60))
def test_minimal_representative_passes_the_gate_on_skewed_halves(seed):
    # 17 of complete(7,3)'s 35 facets with weights 10^U(-20, 0), a 2-cochain:
    # projecting with one eigh of the unscaled Gram delta^T W delta, whose
    # column norms spread as the weights do, left 40 of these 60 above the
    # CLI's 1e-10 max|f| gate; CGLS on the column-scaled coboundary leaves
    # none above 1e-14 max|f|
    rng = np.random.default_rng(seed)
    facets = generate("complete", n=7, d=3).facets
    pick = sorted(rng.choice(len(facets), 17, replace=False))
    X = build_complex([facets[i] for i in pick], list(10 ** rng.uniform(-20, 0, 17)))
    f = OrientedCochain(X, 2, np.random.default_rng(1000 + seed).standard_normal(X.n_faces(2)))
    assert _worst_residual(X, minimal_representative(X, f)) <= 1e-10 * np.max(np.abs(f.values))


def test_minimal_representative_at_extreme_scales(c42):
    # scaling f by a power of two scales its representative exactly, near
    # the largest and smallest normal floats too, where the squared norms
    # CGLS takes of an unscaled f overflow or underflow
    f = np.random.default_rng(4).standard_normal(c42.n_faces(1))
    base = minimal_representative(c42, OrientedCochain(c42, 1, f)).values
    for e in (-900, 900):
        scaled = minimal_representative(c42, OrientedCochain(c42, 1, np.ldexp(f, e))).values
        assert np.array_equal(scaled, np.ldexp(base, e))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_minimal_representative_refuses_non_finite_values(bad):
    # a NaN once passed the convergence check, min(nan, inf) > bound being
    # false, and came back as a NaN cochain
    X = generate("complete", n=5, d=2)
    f = np.random.default_rng(5).standard_normal(X.n_faces(1))
    f[3] = bad
    with pytest.raises(ComplexError, match="non-finite"):
        minimal_representative(X, OrientedCochain(X, 1, f))


def _refused(X, f, tmp_path, capsys):
    # the CLI exits 2 with the projection's error, never 1 with a verdict on
    # an unconverged representative
    from hdxwalk import cli

    cx, cf = tmp_path / "X.cx", tmp_path / "f.cf"
    cx.write_text(write_complex(X))
    cf.write_text(write_cochain(X, f.as_cochain()))
    assert cli.main(["minimize", str(cx), "--cochain", str(cf), "--json"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "did not converge" in out.err


def test_minimal_representative_iteration_cap(c42, tmp_path, monkeypatch, capsys):
    # past CG_CAP iterations per (k-1)-face a residual above CG_BOUND is
    # refused
    from hdxwalk import oriented_topology

    f = OrientedCochain(c42, 1, np.random.default_rng(3).standard_normal(c42.n_faces(1)))
    monkeypatch.setattr(oriented_topology, "CG_CAP", 0)
    with pytest.raises(ComplexError, match="did not converge: .* after 0 CG iterations"):
        minimal_representative(c42, f)
    _refused(c42, f, tmp_path, capsys)


def test_minimal_representative_stall(c42, tmp_path, monkeypatch, capsys):
    # with no residual small enough, the restarts stall at rounding well
    # before the cap, and a stalled residual above CG_BOUND is refused too
    from hdxwalk import oriented_topology

    f = OrientedCochain(c42, 1, np.random.default_rng(3).standard_normal(c42.n_faces(1)))
    monkeypatch.setattr(oriented_topology, "CG_TARGET", 0.0)
    monkeypatch.setattr(oriented_topology, "CG_BOUND", 0.0)
    with pytest.raises(ComplexError, match="did not converge") as err:
        minimal_representative(c42, f)
    steps = int(str(err.value).split()[-3])  # "... after <steps> CG iterations"
    assert 0 < steps < oriented_topology.CG_CAP * (c42.n_faces(0) + 1)
    _refused(c42, f, tmp_path, capsys)


def test_norm_reduction_by_constant_shift(all_fixtures):
    # shifting by any a strictly between 0 and twice the mean shrinks the
    # weighted norm; spot-checked at a = m and a = 1.5 m
    rng = np.random.default_rng(31)
    for _, X in all_fixtures:
        f = rng.standard_normal(X.n_faces(0)) + 2.0
        fc = Cochain(X, 0, f)
        m = inner_product(X, fc, Cochain.ones(X, 0))
        assert abs(m) > 1e-6
        for a in (m, 1.5 * m):
            shifted = Cochain(X, 0, f - a)
            assert norm_sq(X, shifted) < norm_sq(X, fc)


def test_local_minimality_cyclic_flow(t3):
    flow = _cyclic_flow(t3)
    res = local_minimality_residuals(t3, flow)
    assert set(res) == {(0,), (1,), (2,)}
    assert max(res.values()) <= TOL
    assert oracle.k_level_scan(t3, flow) <= TOL


def test_coboundary_usually_not_locally_minimal(c42):
    g = np.zeros(4)
    g[0] = 1.0
    f = OrientedCochain(c42, 1, coboundary(c42, 0).matrix @ g)
    res = local_minimality_residuals(c42, f)
    assert max(res.values()) > 0.1


def test_constant_ones_fail_k_level(t3):
    ones = OrientedCochain(t3, 1, np.ones(3))
    res = local_minimality_residuals(t3, ones)
    # each localization is [-1, 1]-signed; residual depends on the signs
    assert max(res.values()) > 0.0
    f0 = OrientedCochain.from_dict(t3, 1, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
    assert max(local_minimality_residuals(t3, f0).values()) == pytest.approx(1.0)


def test_minimal_implies_locally_minimal_implies_k_level(all_fixtures):
    rng = np.random.default_rng(32)
    for _, X in all_fixtures:
        for k in range(1, X.top_dim + 1):
            for _ in range(50):
                raw = OrientedCochain(X, k, rng.standard_normal(X.n_faces(k)))
                fmin = minimal_representative(X, raw)
                res = local_minimality_residuals(X, fmin)
                assert max(res.values()) <= RES_TOL
                assert oracle.k_level_scan(X, fmin) <= RES_TOL


def test_k_level_matches_residuals(all_fixtures):
    # the coboundary product against the link-building scan
    rng = np.random.default_rng(33)
    for _, X in all_fixtures:
        k = X.top_dim
        f = OrientedCochain(X, k, rng.standard_normal(X.n_faces(k)))
        res = max(local_minimality_residuals(X, f).values())
        assert abs(res - oracle.k_level_scan(X, f)) <= TOL


def test_balanced_matching(c42):
    rep = balanced_check(c42, [(0, 1), (2, 3)], 0)
    assert rep.balanced
    assert rep.defect <= 1e-12
    # total weight 1/3 equals each vertex's local S-mass
    assert sum(c42.weight[t] for t in rep.faces) == pytest.approx(1 / 3, abs=TOL)


def test_balanced_single_edge_fails(c42):
    rep = balanced_check(c42, [(0, 1)], 0)
    assert not rep.balanced
    assert rep.per_face[(2,)] == pytest.approx(1 / 6, abs=TOL)


def test_balanced_full_set(all_fixtures):
    for _, X in all_fixtures:
        k = X.top_dim
        for i in range(-1, k):
            rep = balanced_check(X, X.faces(k), i)
            assert rep.defect <= 1e-12


def test_balanced_rejections(c42):
    with pytest.raises(ComplexError):
        balanced_check(c42, [(0, 5)], 0)
    with pytest.raises(ComplexError):
        balanced_check(c42, [(0, 1), (0, 1, 2)], 0)
    with pytest.raises(ComplexError):
        balanced_check(c42, [(0, 1)], 1)


def test_balanced_centered_indicator_is_level(c42):
    # balance over vertex links makes the centered indicator average to zero
    # in every vertex link, hence it sits inside the 0-level space (and in
    # fact one level higher)
    S = [(0, 1), (2, 3)]
    rep = balanced_check(c42, S, 0)
    assert rep.balanced
    assert rep.companion_residual <= 1e-12
    ind = np.zeros(6)
    for t in S:
        ind[c42.face_index[t]] = 1.0
    total = sum(c42.weight[t] for t in S)
    centered = ind - total
    # zero localization mean at every vertex, via the constraint rows
    C1 = oracle.level_constraint_matrix(c42, 1, 1)
    assert np.max(np.abs(C1 @ centered)) <= 1e-12
    # membership in the 0-level space (projection residual)
    P0 = oracle.level_projector(c42, 1, 0)
    assert np.max(np.abs(P0 @ centered - centered)) <= RES_TOL
    P1 = oracle.level_projector(c42, 1, 1)
    assert np.max(np.abs(P1 @ centered - centered)) <= RES_TOL


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(X=oracle.weighted_pure_complexes(), seed=st.integers(0, 2**32 - 1))
def test_residuals_and_balance_match_scans(X, seed):
    # Every localized mean is a convex combination (the link weights
    # w(t) / ((k+1) w(s)) sum to 1 at each face s), so rounding is relative
    # to max |f| for the residuals and to 1 for the S-masses, whatever the
    # spread of the weights.
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    for k in range(1, X.top_dim + 1):
        f = OrientedCochain(X, k, rng.standard_normal(X.n_faces(k)))
        res = local_minimality_residuals(X, f)
        assert list(res) == X.faces(k - 1)
        tol = 64 * eps * np.max(np.abs(f.values))
        assert abs(max(res.values()) - oracle.k_level_scan(X, f)) <= tol
        S = [t for t in X.faces(k) if rng.random() < 0.5] or X.faces(k)[:1]
        for i in range(-1, k):
            rep = balanced_check(X, S, i)
            per_face, companion = oracle.balance_scan(X, S, i)
            assert list(rep.per_face) == list(per_face)
            assert max(abs(rep.per_face[s] - per_face[s]) for s in per_face) <= 64 * eps
            assert rep.defect == max(rep.per_face.values())
            assert abs(rep.companion_residual - companion) <= 64 * eps
