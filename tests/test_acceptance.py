"""Acceptance suite: one test per criterion, each printing a verdict line.

Run ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
All tolerances are pinned here: structural identities at 1e-12, membership
and residual checks at 1e-10, spectral slacks at 1e-9.
"""

import json
import subprocess
import sys
from contextlib import contextmanager

import numpy as np

import oracle
from hdxwalk import (
    Cochain,
    adjoint_diff,
    advantage_check,
    alev_lau_check,
    balanced_check,
    bootstrap_certificate,
    coboundary,
    diff,
    down_up,
    fine_grained_check,
    gamma_profile,
    generate,
    inner_product,
    lambda_table,
    link_of,
    local_minimality_residuals,
    minimal_representative,
    nonlazy,
    norm_sq,
    parse_complex,
    proper_decompose,
    proper_level_basis,
    selfadjoint_spectrum,
    trickling_down_check,
    up_down,
    view,
    write_complex,
)
from hdxwalk.level_decomp import LOCALIZATION, RESTRICTION
from hdxwalk.oriented_topology import OrientedCochain
from hdxwalk.theorem_verify import random_mean_zero_cochain

STRUCT = 1e-12
MEMBER = 1e-10
SLACK = 1e-9


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {description}")


def _fstar(c42):
    return Cochain.from_dict(
        c42, 1, {(0, 1): 1, (0, 2): -1, (0, 3): 0, (1, 2): 0, (1, 3): -1, (2, 3): 1}
    )


def test_criterion_1_operator_identities(t3, c42, k53, random7):
    fixtures = [t3, c42, k53, *random7]
    rng = np.random.default_rng(101)
    with criterion(1, "operator identity suite (tables, laziness, adjointness)"):
        for X in fixtures:
            for k in range(0, X.top_dim):
                U = up_down(X, k, 1).matrix
                assert np.max(np.abs(U - oracle.up_down_matrix_loops(X, k))) <= STRUCT
                D = down_up(X, k + 1, 1).matrix
                assert np.max(np.abs(D - oracle.down_up_matrix_loops(X, k + 1))) <= STRUCT
                M = nonlazy(X, k).matrix
                I = np.eye(X.n_faces(k))
                assert np.max(np.abs(M - ((k + 2) * U - I) / (k + 1))) <= STRUCT
            for i in range(1, X.top_dim + 1):
                resid = np.abs(oracle.nonlazy_from_iup(X, i).matrix - nonlazy(X, 0).matrix)
                assert np.max(resid) <= STRUCT
            for k in range(-1, X.top_dim):
                d_op, ds_op = diff(X, k), adjoint_diff(X, k)
                for _ in range(100):
                    f = Cochain(X, k, rng.standard_normal(X.n_faces(k)))
                    g = Cochain(X, k + 1, rng.standard_normal(X.n_faces(k + 1)))
                    gap = inner_product(X, d_op(f), g) - inner_product(X, f, ds_op(g))
                    assert abs(gap) <= STRUCT


def test_criterion_2_weights_and_links(all_fixtures):
    import math

    with criterion(2, "weight sums, link weights, link composition"):
        for _, X in all_fixtures:
            for k in range(-1, X.top_dim + 1):
                assert abs(sum(X.weight[f] for f in X.faces(k)) - 1.0) <= STRUCT
            for i in range(0, X.top_dim):
                for sigma in X.faces(i):
                    L = link_of(X, sigma)
                    for j in range(-1, L.top_dim + 1):
                        for rho in L.faces(j):
                            lhs = (
                                L.weight[rho]
                                * math.comb(i + j + 2, i + 1)
                                * X.weight[sigma]
                            )
                            top = tuple(sorted(set(sigma) | set(rho)))
                            assert abs(lhs - X.weight[top]) <= STRUCT
            for sigma in X.faces(1):
                full = link_of(X, sigma)
                for tau in [(sigma[0],), (sigma[1],)]:
                    rest = tuple(v for v in sigma if v not in tau)
                    assert link_of(link_of(X, tau), rest).is_close(full, tol=STRUCT)


def test_criterion_3_viewer_suite(all_fixtures):
    rng = np.random.default_rng(103)
    with criterion(3, "viewer axioms and walk compatibility, 50 samples each"):
        for _, X in all_fixtures:
            for viewer in (LOCALIZATION, RESTRICTION):
                kmax = X.top_dim - 1 if viewer is LOCALIZATION else X.top_dim - 2
                kmin = 1 if viewer is LOCALIZATION else 0
                for k in range(kmin, kmax + 1):
                    vertex_links = [(v, link_of(X, v)) for v in X.faces(0)]
                    for _ in range(50):
                        f = Cochain(X, k, rng.standard_normal(X.n_faces(k)))
                        g = Cochain(X, k, rng.standard_normal(X.n_faces(k)))
                        ip = inner_product(X, f, g)
                        acc = 0.0
                        for v, link in vertex_links:
                            fv = view(viewer, X, f, v)
                            gv = view(viewer, X, g, v)
                            # linearity + unit preservation
                            comb = Cochain(X, k, f.values + 2.0 * g.values)
                            cv = view(viewer, X, comb, v)
                            assert np.max(np.abs(cv.values - fv.values - 2.0 * gv.values)) <= STRUCT
                            ones = view(viewer, X, Cochain.ones(X, k), v)
                            assert np.max(np.abs(ones.values - 1.0)) <= STRUCT
                            assert k - fv.dim == viewer.dim_diff
                            acc += X.weight[v] * inner_product(link, fv, gv)
                        assert abs(acc - ip) <= STRUCT  # expectation law
                        assert oracle.respects_walk_residual(viewer, X, k, f) <= MEMBER
                # viewer composition through a shared edge
                k = kmin if viewer is RESTRICTION else min(2, X.top_dim - 1)
                if viewer is LOCALIZATION and k < 2:
                    continue
                f = Cochain(X, k, rng.standard_normal(X.n_faces(k)))
                for sigma in X.faces(1):
                    direct = view(viewer, X, f, sigma)
                    tau = (sigma[0],)
                    rest = (sigma[1],)
                    link1 = link_of(X, tau)
                    two_step = view(viewer, link1, view(viewer, X, f, tau), rest)
                    assert np.max(np.abs(two_step.values - direct.values)) <= STRUCT


def test_criterion_4_decomposition_suite(all_fixtures, c42):
    rng = np.random.default_rng(104)
    with criterion(4, "proper decomposition: reconstruction, orthogonality, Parseval"):
        for _, X in all_fixtures:
            for k in range(0, X.top_dim + 1):
                for _ in range(10):
                    f = Cochain(X, k, rng.standard_normal(X.n_faces(k)))
                    d = proper_decompose(X, f)
                    assert np.max(np.abs(d.reconstruction() - f.values)) <= MEMBER
                    levels = sorted(d.components)
                    for a in levels:
                        for b in levels:
                            if a < b:
                                gap = inner_product(X, d.components[a], d.components[b])
                                assert abs(gap) <= MEMBER
                    assert abs(sum(d.norms_sq.values()) - norm_sq(X, f)) <= SLACK
                    for i in range(0, k + 1):
                        C = oracle.level_constraint_matrix(X, k, i)
                        assert np.max(np.abs(C @ d.components[i].values)) <= MEMBER
        dims = [proper_level_basis(c42, 1, i).shape[1] for i in (-1, 0, 1)]
        assert dims == [1, 3, 2]


def test_criterion_5_advantage(all_fixtures, t3):
    rng = np.random.default_rng(105)
    with criterion(5, "advantage bound, tight on the single triangle"):
        for _, X in all_fixtures:
            for k in range(1, X.top_dim + 1):
                if X.n_faces(k) < 2:
                    continue
                for _ in range(50):
                    f = random_mean_zero_cochain(X, k, rng)
                    assert advantage_check(X, k, f).slack >= -SLACK
        rep = advantage_check(t3, 1, Cochain(t3, 1, np.array([1.0, -1.0, 0.0])))
        assert abs(rep.lhs - 1 / 6) <= STRUCT
        assert abs(rep.rhs - 1 / 6) <= STRUCT


def test_criterion_6_fine_grained(all_fixtures, c42):
    rng = np.random.default_rng(106)
    with criterion(6, "fine-grained bound with pinned tight cases"):
        for _, X in all_fixtures:
            for k in range(0, X.top_dim):
                for _ in range(50):
                    f = random_mean_zero_cochain(X, k, rng)
                    assert fine_grained_check(X, k, f).slack >= -SLACK
        fstar = _fstar(c42)
        rep = fine_grained_check(c42, 1, fstar)
        assert abs(rep.slack) <= SLACK
        assert abs(rep.per_level[1][0] + 0.5) <= STRUCT
        lifted = diff(c42, 0)(Cochain(c42, 0, np.array([1.0, -1.0, 0.0, 0.0])))
        rep2 = fine_grained_check(c42, 1, lifted)
        assert abs(rep2.slack) <= SLACK
        assert abs(rep2.per_level[0][0]) <= STRUCT
        al = alev_lau_check(c42, 1, fstar)
        assert al.rhs - rep.rhs >= 0.499 * norm_sq(c42, fstar)


def test_criterion_7_alev_lau_dominance(all_fixtures, c42):
    rng = np.random.default_rng(107)
    with criterion(7, "fine-grained never worse than the worst-case bound"):
        for _, X in all_fixtures:
            for k in range(0, X.top_dim):
                for _ in range(50):
                    f = random_mean_zero_cochain(X, k, rng)
                    rep = alev_lau_check(X, k, f)
                    assert rep.details["dominance_gap"] >= -SLACK
        spec = selfadjoint_spectrum(c42, nonlazy(c42, 1))
        coeff = lambda_table(gamma_profile(c42)).value(0, 1)
        assert abs(spec.eigenvalues[1] - coeff) <= SLACK
        assert abs(coeff) <= SLACK


def test_criterion_8_bootstrap(all_fixtures):
    rng = np.random.default_rng(108)
    with criterion(8, "bootstrapping recursion conditions and table agreement"):
        for _, X in all_fixtures:
            for k in range(1, X.top_dim):
                cert = bootstrap_certificate(X, k)
                assert cert.worst_slack_first >= -SLACK
                assert cert.worst_slack_second >= -SLACK
                f = random_mean_zero_cochain(X, k, rng)
                rep = fine_grained_check(X, k, f)
                for i, (coeff, _) in rep.per_level.items():
                    assert abs(coeff - cert.table.value(i, k)) <= STRUCT


def test_criterion_9_trickling_down(all_fixtures):
    with criterion(9, "trickling down, tight on complete complexes"):
        for name, X in all_fixtures:
            if X.top_dim < 2:
                continue
            rep = trickling_down_check(X)
            assert rep.passed, name
        for n in range(4, 9):
            X = generate("complete", n=n, d=2)
            rep = trickling_down_check(X)
            assert abs(rep.actual - rep.bound) <= SLACK
            assert abs(rep.actual + 1.0 / (n - 1)) <= SLACK


def test_criterion_10_oriented_suite(all_fixtures, c42):
    rng = np.random.default_rng(110)
    with criterion(10, "coboundary, minimality chain, balanced matching"):
        for _, X in all_fixtures:
            for i in range(-1, X.top_dim - 1):
                prod = coboundary(X, i + 1).matrix @ coboundary(X, i).matrix
                assert np.max(np.abs(prod)) <= STRUCT
            for k in range(1, X.top_dim + 1):
                for _ in range(50):
                    raw = OrientedCochain(X, k, rng.standard_normal(X.n_faces(k)))
                    fmin = minimal_representative(X, raw)
                    assert max(local_minimality_residuals(X, fmin).values()) <= MEMBER
                    assert oracle.k_level_scan(X, fmin) <= MEMBER
        rep = balanced_check(c42, [(0, 1), (2, 3)], 0)
        assert rep.defect <= STRUCT
        assert rep.companion_residual <= STRUCT
        centered = np.array([1.0, 0, 0, 0, 0, 1.0]) - 1 / 3
        P0 = oracle.level_projector(c42, 1, 0)
        assert np.max(np.abs(P0 @ centered - centered)) <= MEMBER


def test_criterion_11_cli(tmp_path, all_fixtures):
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "hdxwalk.cli", *args], capture_output=True, text=True
        )

    with criterion(11, "CLI round trip, seeded determinism, exit codes"):
        for _, X in all_fixtures:
            text = write_complex(X)
            assert parse_complex(text).is_close(X, tol=1e-15)
            assert write_complex(parse_complex(text)) == text
        path = tmp_path / "c42.cx"
        assert run("generate", "complete", "--n", "4", "--d", "2", "-o", str(path)).returncode == 0
        a = run("verify", str(path), "--theorem", "bootstrap", "--seed", "3", "--json")
        b = run("verify", str(path), "--theorem", "bootstrap", "--seed", "3", "--json")
        assert a.returncode == 0 and a.stdout == b.stdout
        rep = json.loads(a.stdout)
        assert set(rep) == {"theorem", "fixtures", "slacks", "pass"}
        # exit-code contract on crafted fixtures
        assert run("analyze", str(path), "--lambda", "-0.4").returncode == 1
        assert run("verify", str(path), "--theorem", "nonsense").returncode == 2
        disc = tmp_path / "disc.cx"
        disc.write_text("dim 2\n0 1 2\n3 4 5\n")
        assert run("verify", str(disc), "--theorem", "trickling").returncode == 3
