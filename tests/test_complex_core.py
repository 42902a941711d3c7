import ast
import importlib
import math
import pkgutil
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
import hdxwalk
from hdxwalk import (
    RESTRICTION,
    Cochain,
    ComplexError,
    OrientedCochain,
    PureComplex,
    bootstrap_certificate,
    build_complex,
    canonical_face,
    gamma_profile,
    generate,
    is_local_spectral_expander,
    link_of,
    localize,
    minimal_representative,
    nonlazy,
    parse_complex,
    proper_decompose,
    proper_level_basis,
    skeleton_of,
    trickling_down_check,
    view,
    weight_vector,
    write_complex,
)
from hdxwalk.complex_core import _distinct, _keys, _rows, _sub, _vertex_ids
from hdxwalk.spectral import link_lambda2
from hdxwalk.theorem_verify import LEVELLED, check_block, levelled_dims, random_mean_zero_block

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
    return oracle.complex_from_faces(X.top_dim, faces_by_dim, weight)


def _drop_facet(faces_by_dim, weight):
    faces_by_dim[2].remove((1, 2, 3))
    del weight[(1, 2, 3)]


def _drop_edge(faces_by_dim, weight):
    faces_by_dim[1].remove((1, 3))
    del weight[(1, 3)]


def _drop_vertex(faces_by_dim, weight):
    faces_by_dim[0].remove((3,))
    del weight[(3,)]


def _perturb_edges(faces_by_dim, weight):
    weight[(0, 1)] += 1e-6
    weight[(0, 2)] -= 1e-6


def _unsort_edges(faces_by_dim, weight):
    faces_by_dim[1].reverse()


def _halve_empty_face(faces_by_dim, weight):
    weight[()] = 0.5


def _double_vertex(faces_by_dim, weight):
    weight[(0,)] *= 2


BROKEN = [
    (_drop_facet, "purity violated at (3,)"),
    (_drop_edge, "closure violated: (1, 3) missing under (1, 2, 3)"),
    (_drop_vertex, "closure violated: (3,) missing under (1, 3)"),
    (_perturb_edges, "weight recursion violated at (0, 1)"),
    (_unsort_edges, "faces of dimension 1 are not sorted"),
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
        oracle.complex_from_faces(X.top_dim, X.faces_by_dim, nan_weights).validate()
    inf_edge = dict(X.weight)
    inf_edge[(0, 1)] = math.inf
    with pytest.raises(ComplexError, match=re.escape("non-finite weight on (0, 1)")):
        oracle.complex_from_faces(X.top_dim, X.faces_by_dim, inf_edge).validate()
    edge = oracle.complex_from_faces(
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
    with pytest.raises(ComplexError, match="negative vertex id"):
        build_complex([(0, 1, 2), (-1, 1, 2)])
    with pytest.raises(ComplexError, match="duplicate facet"):
        build_complex([(0, 1, 2), (2, 1, 0)])  # equal once canonicalized
    assert build_complex([(2, 1, 0), (3, 2, 1)]).facets == [(0, 1, 2), (1, 2, 3)]
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
    S.validate()  # the recursion holds from the skeleton's own top faces


def test_skeleton_recursion_checked(c42):
    # edge weights moved by +-1e-6 keep every per-dimension sum, but pushed
    # down from the skeleton's top faces they miss the vertex weights
    weight = dict(c42.weight)
    weight[(0, 1)] += 1e-6
    weight[(0, 2)] -= 1e-6
    X = oracle.complex_from_faces(c42.top_dim, c42.faces_by_dim, weight)
    with pytest.raises(ComplexError, match=re.escape("weight recursion violated at (1,)")):
        skeleton_of(X, 1).validate()


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(X=oracle.weighted_pure_complexes())
def test_validate_accepts_random_complexes_links_and_skeletons(X):
    derived = [X] + [link_of(X, v) for v in X.faces(0)]
    derived += [skeleton_of(X, i) for i in range(X.top_dim)]
    for Y in derived:
        assert Y.validate()
        assert oracle.validate_scan(Y)


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
    assert t3.faces(1) == [(0, 1), (0, 2), (1, 2)]
    assert t3.faces(-1) == [()]
    assert c42.faces(2) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for k in range(-1, c42.top_dim + 1):
        lst = c42.faces(k)
        assert lst == sorted(lst)
        for pos, f in enumerate(lst):
            assert c42.face_index[f] == pos
    with pytest.raises(ComplexError):
        c42.faces(3)


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


def test_link_of_equals_link_scan(all_fixtures, skewed83):
    # the masked link and the scan over every face agree exactly: the
    # same faces in the same order and bitwise equal weights, on skewed
    # weights and on links of links too
    for _, X in all_fixtures + [("skewed_complete83", skewed83)]:
        for i in range(0, X.top_dim):
            for sigma in X.faces(i):
                _assert_same_link(link_of(X, sigma), oracle.link_scan(X, sigma))
        for v in X.faces(0):
            L = link_of(X, v)
            for i in range(0, L.top_dim):
                for tau in L.faces(i):
                    _assert_same_link(link_of(L, tau), oracle.link_scan(L, tau))


def _assert_same_view(seen, scan):
    """Same dimension, same faces underneath and bitwise equal values."""
    assert seen.dim == scan.dim
    assert seen.complex.faces(seen.dim) == scan.complex.faces(scan.dim)
    assert seen.values.tobytes() == scan.values.tobytes()


def _assert_links_and_views_by_scan(X, rng):
    """At every face of ``X`` but the facets, the localization and
    restriction of a Gaussian cochain of every admissible dimension, and the
    link unless the face is empty (``link_of`` returns ``X`` itself there,
    where the scan divides by w(())), equal the scans bitwise."""
    f = {k: Cochain(X, k, rng.standard_normal(X.n_faces(k))) for k in range(-1, X.top_dim + 1)}
    for i in range(-1, X.top_dim):
        for sigma in X.faces(i):
            if sigma:
                _assert_same_link(link_of(X, sigma), oracle.link_scan(X, sigma))
            for k in range(i + 1, X.top_dim + 1):
                _assert_same_view(localize(X, f[k], sigma), oracle.localize_scan(X, f[k], sigma))
            for k in range(-1, X.top_dim - i):
                seen = view(RESTRICTION, X, f[k], sigma)
                _assert_same_view(seen, oracle.restrict_scan(X, f[k], sigma))


def test_views_equal_face_by_face_scans(all_fixtures, skewed83):
    # localization and restriction gather the values at the faces over
    # sigma; they equal the face-by-face lookups, in each complex and in
    # each of its vertex links
    rng = np.random.default_rng(13)
    for _, X in all_fixtures + [("skewed_complete83", skewed83)]:
        for Y in [X] + [link_of(X, v) for v in X.faces(0)]:
            _assert_links_and_views_by_scan(Y, rng)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    X=st.one_of(
        oracle.weighted_pure_complexes(),
        oracle.relabeled_facets().map(lambda drawn: build_complex(*drawn)),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_link_of_and_views_equal_scans_property(X, seed):
    # weights over up to 12 decades, and sparse ids up to 10**12 in dimension
    # up to 6, where a vertex's rank and id differ
    _assert_links_and_views_by_scan(X, np.random.default_rng(seed))


def _assert_bitwise(X, Y):
    """Same faces in the same order and bitwise equal weights."""
    assert X.top_dim == Y.top_dim
    for k in range(-1, X.top_dim + 1):
        assert X.faces(k) == Y.faces(k)
    assert X.weight == Y.weight


def _assert_sub_by_scan(X):
    """Every subface array of ``X`` (from the closure, or by key lookup on
    a copy built from its face lists) equals the dict lookup, and so do the
    cached weight vectors."""
    copy = oracle.complex_from_faces(X.top_dim, X.faces_by_dim, X.weight)
    for k in range(X.top_dim + 1):
        expect = oracle.sub_scan(X, k)
        assert np.array_equal(_sub(X, k), expect)
        assert np.array_equal(_sub(copy, k), expect)
    for k in range(-1, X.top_dim + 1):
        assert weight_vector(X, k).tolist() == [X.weight[f] for f in X.faces(k)]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn=st.one_of(oracle.weighted_facets(), oracle.relabeled_facets()))
def test_closure_matches_closure_scan(drawn):
    # faces, weights and subface arrays agree bitwise with the dict closure,
    # also on ids up to 10**12 in dimension up to 6, and on the links and
    # skeletons built from the result
    facets, weights = drawn
    X = build_complex(facets, weights)
    _assert_bitwise(X, oracle.closure_scan([canonical_face(F) for F in facets], weights))
    _assert_sub_by_scan(X)
    for v in X.faces(0)[:3]:
        if X.top_dim >= 1:
            _assert_sub_by_scan(link_of(X, v))
    if X.top_dim >= 1:
        _assert_sub_by_scan(skeleton_of(X, X.top_dim - 1))


def test_closure_matches_closure_scan_on_generated(all_fixtures, skewed83):
    named = all_fixtures + [("skewed_complete83", skewed83)]
    named += [("complete144", generate("complete", n=14, d=4))]
    named += [("partite6666", generate("partite", parts=[6, 6, 6, 6]))]
    # the sizes the benchmark parses
    named += [("complete302", generate("complete", n=30, d=2))]
    named += [("complete163", generate("complete", n=16, d=3))]
    for _, X in named:
        weights = [X.weight[F] for F in X.facets]
        _assert_bitwise(build_complex(X.facets, weights), oracle.closure_scan(X.facets, weights))
        _assert_sub_by_scan(X)


def _heavy_repeats(ints):
    """Lists of up to 300 entries drawn from a pool of at most 6 of ``ints``."""
    pool = st.lists(ints, min_size=1, max_size=6)
    return pool.flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=300))


@settings(max_examples=100, deadline=None)
@given(
    values=st.one_of(
        _heavy_repeats(st.integers(-(2**63), 2**63 - 1)).map(lambda v: np.array(v, np.int64)),
        _heavy_repeats(st.one_of(st.integers(0, 9), st.integers(2**64, 2**80))).map(
            lambda v: np.array(v, dtype=object)
        ),
    )
)
def test_distinct_values_occurrences_and_inverse(values):
    # one unstable sort: rep may name any occurrence of a tied value
    distinct, rep, inverse = _distinct(values)
    assert (distinct[1:] > distinct[:-1]).all()
    assert (values[rep] == distinct).all()
    assert (distinct[inverse] == values).all()


def test_ids_beyond_64_bits():
    # ids that fit no int64 take an object array through the same route
    big = 2**70
    X = build_complex([(big, 3, 5), (3, 5, 10**20), (5, big, 10**20)])
    assert X.faces(0) == [(3,), (5,), (10**20,), (big,)]
    assert X.validate()
    _assert_bitwise(X, oracle.closure_scan([canonical_face(F) for F in X.facets]))
    _assert_sub_by_scan(X)
    _assert_sub_by_scan(link_of(X, (5,)))
    _assert_links_and_views_by_scan(X, np.random.default_rng(0))


def test_sub_lookup_raises_key_error_on_missing_face():
    # the key lookup of a complex built without its edge (1, 3)
    X = _two_triangles_with(_drop_edge)
    assert np.array_equal(_sub(X, 1), oracle.sub_scan(X, 1))
    with pytest.raises(KeyError):
        _sub(X, 2)


def test_exports_listed_in_module_all():
    # every name a module lists in __all__ exists, and every name the
    # package imports from a module is in that module's __all__
    for info in pkgutil.iter_modules(hdxwalk.__path__):
        module = importlib.import_module(f"hdxwalk.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"hdxwalk.{info.name}.__all__ lists missing names {missing}"
    with open(hdxwalk.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        listed = importlib.import_module(f"hdxwalk.{node.module}").__all__
        unlisted = [a.name for a in node.names if a.name not in listed]
        assert not unlisted, f"hdxwalk exports {unlisted} not in {node.module}.__all__"


VIEW_KEYS = ("faces", "weight", "face_index")


def _assert_views_match_arrays(X):
    """The tuple lists and both dicts equal what the stored arrays say: the
    faces are ids[rows], and each face maps to its weight and position."""
    ids = _vertex_ids(X)
    for k in range(-1, X.top_dim + 1):
        faces = [tuple(ids[row].tolist()) for row in _rows(X, k)]
        assert X.faces(k) == X.faces_by_dim[k] == faces
        assert X.n_faces(k) == len(faces)
        for pos, (face, w) in enumerate(zip(faces, weight_vector(X, k).tolist())):
            assert face in X and X.weight[face] == w
            assert X.face_index[face] == X.index_of(face) == pos
    assert X.facets == X.faces(X.top_dim)
    assert len(X.weight) == len(X.face_index) == sum(map(len, X.faces_by_dim.values()))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    X=st.one_of(
        oracle.weighted_pure_complexes(),
        oracle.relabeled_facets().map(lambda drawn: build_complex(*drawn)),
    )
)
def test_views_equal_stored_arrays_property(X):
    # closure-built complexes, their vertex links and their skeletons
    derived = [X] + [link_of(X, v) for v in X.faces(0)[:3] if X.top_dim >= 1]
    derived += [skeleton_of(X, i) for i in range(X.top_dim)]
    for Y in derived:
        _assert_views_match_arrays(Y)


def test_stored_arrays_are_read_only(c42, skewed83):
    for X in (c42, skewed83, link_of(c42, (0,)), skeleton_of(skewed83, 1)):
        stored = [_vertex_ids(X)]
        for k in range(-1, X.top_dim + 1):
            stored += [_rows(X, k), weight_vector(X, k)]
        assert not any(a.flags.writeable for a in stored)
        with pytest.raises(ValueError):
            weight_vector(X, 0)[0] = 1.0


def test_parse_validate_and_check_block_build_no_views():
    # the numerics read the arrays: parsing, validating and a fine-grained
    # check_block at every dimension leave no tuple list or dict behind
    X = parse_complex(write_complex(generate("complete", n=9, d=3)))
    assert X.validate()
    rng = np.random.default_rng(5)
    for k in range(X.top_dim):
        check_block(X, "fine-grained", k, random_mean_zero_block(X, k, rng, 4))
    assert not [key for key in X._cache if key[0] in VIEW_KEYS]


def _memo_arrays(X):
    """Every array the memo of ``X`` holds: stored directly, inside a tuple,
    as a LinOp's matrix, or in the memo of a cached link."""
    for value in X._cache.values():
        for part in value if isinstance(value, tuple) else (getattr(value, "matrix", value),):
            if isinstance(part, np.ndarray):
                yield part
            elif isinstance(part, PureComplex):
                yield from _memo_arrays(part)


def test_memo_holds_only_read_only_arrays():
    # after every certificate has run, the memo holds no writable array, so
    # a caller writing into a table it was handed cannot corrupt a later
    # reader, as gamma_profile reads link_lambda2
    X = parse_complex(write_complex(generate("complete", n=9, d=3)))
    assert X.validate()
    is_local_spectral_expander(X, 0.5)
    rng = np.random.default_rng(9)
    for theorem in LEVELLED:
        for k in levelled_dims(X, theorem):
            check_block(X, theorem, k, random_mean_zero_block(X, k, rng, 3))
    for k in range(1, X.top_dim):
        bootstrap_certificate(X, k)
    trickling_down_check(X)
    for k in range(X.top_dim + 1):
        f = Cochain(X, k, rng.standard_normal(X.n_faces(k)))
        proper_decompose(X, f)
        minimal_representative(X, OrientedCochain(X, k, f.values))
        if k:
            localize(X, f, (0,))
    families = {key[0] for key in X._cache}
    assert {"sub", "keys", "link_lambda2", "nonlazy", "up_down", "multi_down"} <= families
    assert {"level_bases", "coboundary", "link"} <= families
    arrays = list(_memo_arrays(X))
    assert len(arrays) > 4 * (X.top_dim + 2)
    assert not any(a.flags.writeable for a in arrays)
    handed = [_sub(X, 1), _keys(X, 1), link_lambda2(X, 0), nonlazy(X, 0).matrix]
    handed += [proper_level_basis(X, k, k) for k in range(-1, X.top_dim + 1)]
    for array in handed:
        with pytest.raises(ValueError):
            array[:] = 5
    # the vertex links are complete(8,2), whose vertex walk has lambda2 = -1/7
    assert abs(gamma_profile(X).gamma[0] + 1 / 7) <= TOL
