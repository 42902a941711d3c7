import math
import re
from itertools import combinations

import numpy as np
import pytest

import oracle
from hdxwalk import (
    ComplexError,
    build_complex,
    faces,
    generate,
    link_of,
    skeleton_of,
)
from hdxwalk.complex_core import PureComplex

TOL = 1e-12


def test_t3_weights(t3):
    assert t3.top_dim == 2
    assert t3.weight[(0, 1, 2)] == 1.0
    for e in t3.faces(1):
        assert abs(t3.weight[e] - 1 / 3) <= TOL
    for v in t3.faces(0):
        assert abs(t3.weight[v] - 1 / 3) <= TOL
    assert t3.weight[()] == 1.0


def test_c42_weights(c42):
    for e in c42.faces(1):
        assert abs(c42.weight[e] - 1 / 6) <= TOL
    for v in c42.faces(0):
        assert abs(c42.weight[v] - 1 / 4) <= TOL


def test_two_triangle_weights():
    X = build_complex([(0, 1, 2), (1, 2, 3)])
    assert abs(X.weight[(1, 2)] - 1 / 3) <= TOL
    assert abs(X.weight[(0, 1)] - 1 / 6) <= TOL


def test_weights_match_bruteforce(all_fixtures):
    for _, X in all_fixtures:
        expect = oracle.weights_from_facets(X.facets, [X.weight[F] for F in X.facets])
        assert set(expect) == set(X.weight)
        for face, w in expect.items():
            assert abs(w - X.weight[face]) <= TOL


def test_per_dimension_sums(all_fixtures):
    for _, X in all_fixtures:
        for k in range(-1, X.top_dim + 1):
            assert abs(sum(X.weight[f] for f in X.faces(k)) - 1.0) <= TOL


def test_recursive_consistency_every_dimension(all_fixtures):
    # w(t) = sum of w(s) over j-faces s containing t, divided by C(j+1, i+1),
    # for every pair i < j, not only against the top dimension
    for _, X in all_fixtures:
        for j in range(0, X.top_dim + 1):
            for i in range(-1, j):
                denom = math.comb(j + 1, i + 1)
                sums = {}
                for sigma in X.faces(j):
                    for tau in combinations(sigma, i + 1):
                        sums[tau] = sums.get(tau, 0.0) + X.weight[sigma]
                for tau in X.faces(i):
                    assert abs(sums[tau] / denom - X.weight[tau]) <= TOL


def test_validate_passes(all_fixtures):
    for _, X in all_fixtures:
        assert X.validate()
        assert oracle.validate_scan(X)


def _two_triangles_with(change):
    """Two triangles on (0,1,2), (1,2,3), built directly after ``change``
    edits copies of their face lists and weights."""
    X = build_complex([(0, 1, 2), (1, 2, 3)])
    faces_by_dim = {k: list(lst) for k, lst in X.faces_by_dim.items()}
    weight = dict(X.weight)
    change(faces_by_dim, weight)
    return PureComplex(X.top_dim, faces_by_dim, weight)


def _drop_facet(faces_by_dim, weight):
    faces_by_dim[2].remove((1, 2, 3))
    del weight[(1, 2, 3)]


def _drop_edge(faces_by_dim, weight):
    faces_by_dim[1].remove((1, 3))
    del weight[(1, 3)]


def _perturb_edges(faces_by_dim, weight):
    weight[(0, 1)] += 1e-6
    weight[(0, 2)] -= 1e-6


def _unsort_edges(faces_by_dim, weight):
    faces_by_dim[1].reverse()


def _misfile_triangle(faces_by_dim, weight):
    faces_by_dim[1].append((2, 3, 4))


def _halve_empty_face(faces_by_dim, weight):
    weight[()] = 0.5


def _double_vertex(faces_by_dim, weight):
    weight[(0,)] *= 2


BROKEN = [
    (_drop_facet, "purity violated at (3,)"),
    (_drop_edge, "closure violated: (1, 3) missing under (1, 2, 3)"),
    (_perturb_edges, "weight recursion violated at (0, 1)"),
    (_unsort_edges, "faces of dimension 1 are not sorted"),
    (_misfile_triangle, "face (2, 3, 4) filed under dimension 1"),
    (_halve_empty_face, "weight of the empty face is not 1"),
    (_double_vertex, "weights of dimension 0 sum to "),
]


@pytest.mark.parametrize("change, message", BROKEN)
def test_validate_rejects_broken(change, message):
    with pytest.raises(ComplexError, match=re.escape(message)):
        _two_triangles_with(change).validate()


@pytest.mark.parametrize("change, message", BROKEN)
def test_validate_scan_agrees_on_broken(change, message):
    with pytest.raises(ComplexError, match=re.escape(message)):
        oracle.validate_scan(_two_triangles_with(change))


def test_validate_rejects_non_finite_weights_and_unordered_faces():
    # the complex the weight recursion makes from facet weights [nan, 1.0]
    X = build_complex([(0, 1, 2), (1, 2, 3)])
    nan_weights = {face: math.nan for face in X.weight}
    with pytest.raises(ComplexError, match=re.escape("non-finite weight on ()")):
        PureComplex(X.top_dim, X.faces_by_dim, nan_weights).validate()
    inf_edge = dict(X.weight)
    inf_edge[(0, 1)] = math.inf
    with pytest.raises(ComplexError, match=re.escape("non-finite weight on (0, 1)")):
        PureComplex(X.top_dim, X.faces_by_dim, inf_edge).validate()
    edge = PureComplex(
        1,
        {-1: [()], 0: [(0,), (1,)], 1: [(1, 0)]},
        {(): 1.0, (0,): 0.5, (1,): 0.5, (1, 0): 1.0},
    )
    with pytest.raises(ComplexError, match=re.escape("(1, 0) is not strictly")):
        edge.validate()


def test_build_rejections():
    with pytest.raises(ComplexError):
        build_complex([])
    with pytest.raises(ComplexError):
        build_complex([(0, 1, 2), (0, 1, 2)])
    with pytest.raises(ComplexError):
        build_complex([(0, 1, 2), (0, 1)])
    with pytest.raises(ComplexError):
        build_complex([(0, 1, 2)], [0.0])
    with pytest.raises(ComplexError):
        build_complex([(0, 1, 2)], [1.0, 2.0])
    with pytest.raises(ComplexError):
        build_complex([(0, 1, 1)])
    for bad in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ComplexError, match="finite and positive"):
            build_complex([(0, 1, 2), (1, 2, 3)], [bad, 1.0])
    for weights in ([1e308, 1e308], [1e-200, 1e200], [1e-320, 1.0]):
        with pytest.raises(ComplexError, match="not a normal float"):
            build_complex([(0, 1, 2), (1, 2, 3)], weights)


def test_weighted_facets_normalized():
    X = build_complex([(0, 1, 2), (1, 2, 3)], [3.0, 1.0])
    assert abs(X.weight[(0, 1, 2)] - 0.75) <= TOL
    assert abs(X.weight[(1, 2)] - 1.0 / 3) <= TOL  # (3/4 + 1/4) / 3


def test_degenerate_single_vertex():
    X = build_complex([(5,)])
    assert X.top_dim == 0
    assert X.faces(0) == [(5,)]
    assert X.weight[(5,)] == 1.0
    with pytest.raises(ComplexError):
        link_of(X, (5,))


def test_link_of_c42_vertex(c42):
    L = link_of(c42, (0,))
    assert L.top_dim == 1
    assert L.faces(0) == [(1,), (2,), (3,)]
    for e in L.faces(1):
        assert abs(L.weight[e] - 1 / 3) <= TOL
    for v in L.faces(0):
        assert abs(L.weight[v] - 1 / 3) <= TOL
    L.validate()


def test_link_of_t3_edge(t3):
    L = link_of(t3, (0, 1))
    assert L.top_dim == 0
    assert L.faces(0) == [(2,)]
    assert abs(L.weight[(2,)] - 1.0) <= TOL


def test_link_of_empty_is_identity(c42):
    assert link_of(c42, ()) is c42


def test_link_rejections(t3):
    with pytest.raises(ComplexError):
        link_of(t3, (0, 1, 2))  # top-dimensional face, empty link
    with pytest.raises(ComplexError):
        link_of(t3, (7,))


def test_link_weight_consistency(all_fixtures):
    for _, X in all_fixtures:
        for i in range(0, X.top_dim):
            for sigma in X.faces(i):
                L = link_of(X, sigma)
                for j in range(-1, L.top_dim + 1):
                    for rho in L.faces(j):
                        lhs = L.weight[rho] * math.comb(i + j + 2, i + 1) * X.weight[sigma]
                        top = tuple(sorted(set(sigma) | set(rho)))
                        assert abs(lhs - X.weight[top]) <= TOL


def test_link_composition(all_fixtures):
    for _, X in all_fixtures:
        for sigma in X.faces(1):
            full = link_of(X, sigma)
            for tau in [(sigma[0],), (sigma[1],)]:
                rest = tuple(v for v in sigma if v not in tau)
                two_step = link_of(link_of(X, tau), rest)
                assert two_step.is_close(full, tol=TOL)


def test_skeleton_copies_weights(c42):
    S = skeleton_of(c42, 1)
    assert S.top_dim == 1
    assert S.faces(1) == c42.faces(1)
    for e in S.faces(1):
        assert S.weight[e] == c42.weight[e]
    for v in S.faces(0):
        assert S.weight[v] == c42.weight[v]
    S.validate()  # per-dimension sums still 1; recursion not re-checked


def test_skeleton_identity_and_zero(t3):
    assert skeleton_of(t3, 2) is t3
    S0 = skeleton_of(t3, 0)
    assert S0.top_dim == 0
    assert [S0.weight[v] for v in S0.faces(0)] == pytest.approx([1 / 3] * 3)
    with pytest.raises(ComplexError):
        skeleton_of(t3, 3)
    with pytest.raises(ComplexError):
        skeleton_of(t3, -1)


def test_faces_order(t3, c42):
    assert faces(t3, 1) == [(0, 1), (0, 2), (1, 2)]
    assert faces(t3, -1) == [()]
    assert faces(c42, 2) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for k in range(-1, c42.top_dim + 1):
        lst = faces(c42, k)
        assert lst == sorted(lst)
        for pos, f in enumerate(lst):
            assert c42.face_index[f] == pos
    with pytest.raises(ComplexError):
        faces(c42, 3)


def test_purity_and_closure_of_derived(all_fixtures):
    for _, X in all_fixtures:
        for sigma in X.faces(0):
            link_of(X, sigma).validate()
        if X.top_dim >= 1:
            skeleton_of(X, X.top_dim - 1).validate()


def _assert_same_link(L, S):
    assert L.top_dim == S.top_dim
    for j in range(-1, L.top_dim + 1):
        assert L.faces(j) == S.faces(j)
    assert L.weight == S.weight


def test_link_of_equals_link_scan(all_fixtures):
    # the star-index link and the scan over every face agree exactly: the
    # same faces in the same order and bitwise equal weights, on skewed
    # weights and on links of links too
    rng = np.random.default_rng(12)
    facets = generate("complete", n=8, d=3).facets
    skewed = build_complex(facets, list(10.0 ** rng.uniform(0.0, 12.0, len(facets))))
    for _, X in all_fixtures + [("skewed_complete83", skewed)]:
        for i in range(0, X.top_dim):
            for sigma in X.faces(i):
                _assert_same_link(link_of(X, sigma), oracle.link_scan(X, sigma))
        for v in X.faces(0):
            L = link_of(X, v)
            for i in range(0, L.top_dim):
                for tau in L.faces(i):
                    _assert_same_link(link_of(L, tau), oracle.link_scan(L, tau))
