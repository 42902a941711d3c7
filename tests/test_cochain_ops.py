import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from hdxwalk import (
    Cochain,
    ComplexError,
    LinOp,
    adjoint_diff,
    diff,
    down_up,
    generate,
    inner_product,
    link_of,
    localize,
    multi_down,
    multi_up,
    nonlazy,
    norm_sq,
    up_down,
    weight_vector,
)

TOL = 1e-12


def test_inner_product_examples(t3, c42):
    ones = Cochain.ones(t3, 0)
    assert abs(inner_product(t3, ones, ones) - 1.0) <= TOL
    f = Cochain(t3, 1, np.array([1.0, -1.0, 0.0]))
    assert abs(inner_product(t3, f, f) - 2 / 3) <= TOL
    ind = Cochain.from_dict(c42, 1, {(0, 1): 1.0})
    assert abs(inner_product(c42, ind, Cochain.ones(c42, 1)) - 1 / 6) <= TOL


def test_inner_product_properties(c42):
    rng = np.random.default_rng(0)
    for k in range(-1, c42.top_dim + 1):
        f = Cochain(c42, k, rng.standard_normal(c42.n_faces(k)))
        g = Cochain(c42, k, rng.standard_normal(c42.n_faces(k)))
        assert abs(
            inner_product(c42, f, g)
            - oracle.inner_product_loops(c42, k, f.values, g.values)
        ) <= TOL
        assert inner_product(c42, f, g) == pytest.approx(inner_product(c42, g, f))
        if np.any(f.values):
            assert norm_sq(c42, f) > 0
    with pytest.raises(ComplexError):
        inner_product(c42, Cochain.ones(c42, 0), Cochain.ones(c42, 1))


def test_localize_examples(t3):
    f = Cochain(t3, 1, np.array([1.0, -1.0, 0.0]))
    loc = localize(t3, f, (0,))
    assert loc.dim == 0
    assert np.allclose(loc.values, [1.0, -1.0], atol=TOL)
    assert localize(t3, f, ()) is f
    with pytest.raises(ComplexError):
        localize(t3, f, (0, 1))  # dim(sigma) not < dim(f)
    with pytest.raises(ComplexError):
        localize(t3, f, (9,))


def test_localize_expectation_law(c42):
    rng = np.random.default_rng(1)
    f = Cochain(c42, 2, rng.standard_normal(4))
    g = Cochain(c42, 2, rng.standard_normal(4))
    for i in (0, 1):
        acc = 0.0
        for sigma in c42.faces(i):
            link = link_of(c42, sigma)
            acc += c42.weight[sigma] * inner_product(
                link, localize(c42, f, sigma), localize(c42, g, sigma)
            )
        assert abs(acc - inner_product(c42, f, g)) <= TOL


def test_diff_examples(t3):
    f = Cochain.from_dict(t3, 0, {(0,): 1.0})
    df = diff(t3, 0)(f)
    assert df((0, 1)) == pytest.approx(0.5)
    assert df((1, 2)) == pytest.approx(0.0)
    # constants preserved, and the base case lifts the empty face value
    ones = Cochain.ones(t3, 0)
    assert np.allclose(diff(t3, 0)(ones).values, 1.0, atol=TOL)
    c = Cochain(t3, -1, np.array([2.5]))
    assert np.allclose(diff(t3, -1)(c).values, 2.5, atol=TOL)
    with pytest.raises(ComplexError):
        diff(t3, 2)


def test_diff_row_sums(all_fixtures):
    for _, X in all_fixtures:
        for k in range(-1, X.top_dim):
            assert np.allclose(diff(X, k).matrix.sum(axis=1), 1.0, atol=TOL)
            assert np.allclose(
                diff(X, k).matrix,
                np.array(
                    [
                        oracle.diff_loops(X, k, e)
                        for e in np.eye(X.n_faces(k))
                    ]
                ).T,
                atol=TOL,
            )


def test_adjoint_diff_example(t3):
    g = Cochain(t3, 1, np.array([1.0, -1.0, 0.0]))
    dg = adjoint_diff(t3, 0)(g)
    assert np.allclose(dg.values, [0.0, 0.5, -0.5], atol=TOL)
    assert np.allclose(adjoint_diff(t3, 0)(Cochain.ones(t3, 1)).values, 1.0, atol=TOL)
    with pytest.raises(ComplexError):
        adjoint_diff(t3, 2)


def test_adjointness_random_pairs(all_fixtures):
    rng = np.random.default_rng(2)
    for _, X in all_fixtures:
        for k in range(-1, X.top_dim):
            d = diff(X, k)
            ds = adjoint_diff(X, k)
            for _ in range(100):
                f = Cochain(X, k, rng.standard_normal(X.n_faces(k)))
                g = Cochain(X, k + 1, rng.standard_normal(X.n_faces(k + 1)))
                lhs = inner_product(X, d(f), g)
                rhs = inner_product(X, f, ds(g))
                assert abs(lhs - rhs) <= TOL
                assert np.allclose(
                    ds(g).values, oracle.adjoint_diff_loops(X, k, g.values), atol=TOL
                )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(X=oracle.weighted_pure_complexes(), seed=st.integers(0, 2**32 - 1))
def test_multi_step_adjointness_property(X, seed):
    # <multi_up f, g>_W = <f, multi_down g>_W for every i-step pair, relative
    # to |f|_W |g|_W: over 300 draws with weights over up to 12 decades the
    # gap stayed below 2 ulps of that scale, and the bound allows 45
    rng = np.random.default_rng(seed)
    for k in range(-1, X.top_dim):
        for i in range(1, X.top_dim - k + 1):
            f = Cochain(X, k, rng.standard_normal(X.n_faces(k)))
            g = Cochain(X, k + i, rng.standard_normal(X.n_faces(k + i)))
            lhs = inner_product(X, multi_up(X, k, i)(f), g)
            rhs = inner_product(X, f, multi_down(X, k, i)(g))
            assert abs(lhs - rhs) <= 1e-14 * np.sqrt(norm_sq(X, f) * norm_sq(X, g))


def test_adjoint_localizes(all_fixtures):
    # d*_t f_t = (d* f)_t in every link
    rng = np.random.default_rng(3)
    for _, X in all_fixtures:
        for k in range(1, X.top_dim):
            f = Cochain(X, k + 1, rng.standard_normal(X.n_faces(k + 1)))
            dsf = adjoint_diff(X, k)(f)
            for i in range(0, k):
                for tau in X.faces(i):
                    link = link_of(X, tau)
                    left = adjoint_diff(link, k - i - 1)(localize(X, f, tau))
                    right = localize(X, dsf, tau)
                    assert np.allclose(left.values, right.values, atol=TOL)


def test_diff_range_checks(c42):
    # diff and adjoint_diff return the i = 1 lifts, but check their own
    # range -1 <= k < d and name themselves when it is broken
    for k in (-2, c42.top_dim):
        with pytest.raises(ComplexError, match=re.escape(f"diff needs -1 <= k < 2, got {k}")) as err:
            diff(c42, k)
        assert str(err.value).startswith("diff needs")
        with pytest.raises(ComplexError, match=re.escape(f"adjoint_diff needs -1 <= k < 2, got {k}")):
            adjoint_diff(c42, k)


def test_multi_down_global_mean(t3):
    f = Cochain(t3, 1, np.array([1.0, 2.0, 4.0]))
    out = multi_down(t3, -1, 2)(f)
    mean = inner_product(t3, f, Cochain.ones(t3, 1))
    assert abs(out.values[0] - mean) <= TOL


def test_multi_up_constants(c42):
    for k in range(-1, c42.top_dim):
        for i in range(1, c42.top_dim - k + 1):
            out = multi_up(c42, k, i)(Cochain.ones(c42, k))
            assert np.allclose(out.values, 1.0, atol=TOL)
    with pytest.raises(ComplexError):
        multi_up(c42, 1, 5)


def test_up_down_tables(all_fixtures):
    for _, X in all_fixtures:
        for k in range(0, X.top_dim):
            assert np.allclose(
                up_down(X, k, 1).matrix, oracle.up_down_matrix_loops(X, k), atol=TOL
            )
        for k in range(1, X.top_dim + 1):
            assert np.allclose(
                down_up(X, k, 1).matrix, oracle.down_up_matrix_loops(X, k), atol=TOL
            )


def test_up_down_examples(t3, c42):
    U0 = up_down(t3, 0, 1)
    M0 = nonlazy(t3, 0)
    assert np.allclose(U0.matrix, (np.eye(3) + M0.matrix) / 2.0, atol=TOL)
    spec = np.sort(np.linalg.eigvals(U0.matrix).real)
    assert np.allclose(spec, [0.25, 0.25, 1.0], atol=1e-9)
    U1 = up_down(c42, 1, 1)
    assert np.allclose(np.diag(U1.matrix), 1 / 3, atol=TOL)


def test_walk_operators_stochastic_selfadjoint(all_fixtures):
    for _, X in all_fixtures:
        for k in range(0, X.top_dim):
            for op in (up_down(X, k, 1), down_up(X, k + 1, 1), nonlazy(X, k)):
                kk = op.source_dim
                assert np.allclose(op.matrix.sum(axis=1), 1.0, atol=TOL)
                w = weight_vector(X, kk)
                WA = w[:, None] * op.matrix
                assert np.max(np.abs(WA - WA.T)) <= TOL


def test_down_up_r_plus_one_is_constant_projection(c42):
    # composing through the empty face collapses to the weighted-mean lift
    P = down_up(c42, 1, 2)
    assert np.allclose(P.matrix, oracle.constant_projection(c42, 1).matrix, atol=TOL)
    f = Cochain(c42, 1, np.arange(6.0))
    lifted = P(f)
    mean = inner_product(c42, f, Cochain.ones(c42, 1))
    assert np.allclose(lifted.values, mean, atol=TOL)
    with pytest.raises(ComplexError):
        down_up(c42, 1, 3)


def test_nonlazy_entries_and_spectra(t3, c42):
    M = nonlazy(t3, 0)
    assert np.allclose(M.matrix, (np.ones((3, 3)) - np.eye(3)) / 2.0, atol=TOL)
    M1 = nonlazy(c42, 1)
    assert np.allclose(np.diag(M1.matrix), 0.0, atol=TOL)
    assert np.count_nonzero(M1.matrix[0]) == 4
    nz = M1.matrix[M1.matrix > 0]
    assert np.allclose(nz, 0.25, atol=TOL)
    with pytest.raises(ComplexError):
        nonlazy(c42, 2)


def test_nonlazy_properties(all_fixtures):
    for _, X in all_fixtures:
        for k in range(0, X.top_dim):
            M = nonlazy(X, k)
            w = weight_vector(X, k)
            assert np.allclose(np.diag(M.matrix), 0.0, atol=TOL)
            assert np.all(M.matrix >= -TOL)
            assert np.allclose(M.matrix.sum(axis=1), 1.0, atol=TOL)
            assert np.allclose(w @ M.matrix, w, atol=TOL)  # stationary
            WA = w[:, None] * M.matrix
            assert np.max(np.abs(WA - WA.T)) <= TOL
            U = up_down(X, k, 1).matrix
            I = np.eye(X.n_faces(k))
            assert np.allclose(
                M.matrix, ((k + 2) * U - I) / (k + 1), atol=TOL
            )
            assert np.allclose(M.matrix, oracle.nonlazy_matrix_loops(X, k), atol=TOL)


def test_nonlazy_from_iup(all_fixtures):
    for _, X in all_fixtures:
        M = nonlazy(X, 0).matrix
        for i in range(1, X.top_dim + 1):
            assert np.allclose(oracle.nonlazy_from_iup(X, i).matrix, M, atol=TOL)
    X = all_fixtures[0][1]
    with pytest.raises(ComplexError):
        oracle.nonlazy_from_iup(X, 0)
    with pytest.raises(ComplexError):
        oracle.nonlazy_from_iup(X, X.top_dim + 1)


def test_all_walks_fix_constants(all_fixtures):
    for _, X in all_fixtures:
        for k in range(0, X.top_dim):
            for op in (nonlazy(X, k), up_down(X, k, 1), down_up(X, k + 1, 1)):
                ones = Cochain.ones(X, op.source_dim)
                assert np.allclose(op(ones).values, 1.0, atol=TOL)


def test_multi_vs_closed_form(all_fixtures, skewed83):
    # every lift and its adjoint against its closed form; entries are at
    # most 1, so 1e-15 is rounding
    for _, X in all_fixtures + [("skewed_complete83", skewed83)]:
        for k in range(-1, X.top_dim + 1):
            for i in range(0, X.top_dim - k + 1):
                expect = oracle.multi_up_matrix_loops(X, k, i)
                assert np.max(np.abs(multi_up(X, k, i).matrix - expect)) <= 1e-15
                expect = oracle.multi_down_matrix_loops(X, k, i)
                assert np.max(np.abs(multi_down(X, k, i).matrix - expect)) <= 1e-15


def test_up_down_closed_form(all_fixtures, skewed83):
    # every up-down walk, its closed form scattered over the subface pairs,
    # against the product of its two lifts; entries are at most 1, so
    # 1e-15 is rounding
    for _, X in all_fixtures + [("skewed_complete83", skewed83)]:
        for k in range(0, X.top_dim):
            for i in range(1, X.top_dim - k + 1):
                expect = oracle.up_down_product(X, k, i).matrix
                assert np.max(np.abs(up_down(X, k, i).matrix - expect)) <= 1e-15


def test_operators_equal_loop_routes(all_fixtures, skewed83):
    # the scatters over the subface arrays against the defining loops, one
    # basis cochain at a time; entries are at most 1, so 1e-15 is rounding
    def by_columns(apply, X, k, n):
        return np.array([apply(X, k, e) for e in np.eye(n)]).T

    for _, X in all_fixtures + [("skewed_complete83", skewed83)]:
        for k in range(-1, X.top_dim):
            expect = by_columns(oracle.diff_loops, X, k, X.n_faces(k))
            assert np.max(np.abs(diff(X, k).matrix - expect)) <= 1e-15
            expect = by_columns(oracle.adjoint_diff_loops, X, k, X.n_faces(k + 1))
            assert np.max(np.abs(adjoint_diff(X, k).matrix - expect)) <= 1e-15
        for k in range(0, X.top_dim):
            expect = oracle.nonlazy_matrix_loops(X, k)
            assert np.max(np.abs(nonlazy(X, k).matrix - expect)) <= 1e-15


def test_each_lift_is_one_memo_entry():
    # the longest lift and its adjoint are one scatter each: building
    # either adds its own operator to the memo and no shorter one
    X = generate("complete", n=6, d=3)

    def n_ops():
        return sum(isinstance(v, LinOp) for v in X._cache.values())

    for build in (lambda: multi_up(X, -1, 4), lambda: multi_down(X, 0, 3)):
        before = n_ops()
        build()
        assert n_ops() == before + 1


def test_each_walk_is_one_memo_entry():
    # an up-down walk is one scatter: building it adds its own operator to
    # the memo and neither of the lifts it is the product of
    X = generate("complete", n=6, d=3)
    for k, i in ((0, 3), (1, 1)):
        before = set(X._cache)
        up_down(X, k, i)
        added = set(X._cache) - before
        assert [key for key in added if isinstance(X._cache[key], LinOp)] == [("up_down", k, i)]
        assert not [key for key in X._cache if key[0] in ("multi_up", "multi_down")]
