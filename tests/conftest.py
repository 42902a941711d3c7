import os

import numpy as np
import pytest

import hdxwalk
from hdxwalk import build_complex, generate

# The CLI tests run `python -m hdxwalk.cli` in subprocesses; point them at
# the package these tests import, also when pytest found it via `pythonpath`.
_SRC = os.path.dirname(os.path.dirname(hdxwalk.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(scope="session")
def t3():
    return build_complex([(0, 1, 2)])


@pytest.fixture(scope="session")
def c42():
    return generate("complete", n=4, d=2)


@pytest.fixture(scope="session")
def k53():
    return generate("complete", n=5, d=3)


@pytest.fixture(scope="session")
def two_tri():
    return generate("two_triangles")


@pytest.fixture(scope="session")
def random7():
    return [generate("random_pure", n=7, d=2, m=12, seed=s) for s in (1, 2, 3)]


@pytest.fixture(scope="session")
def all_fixtures(t3, c42, k53, two_tri, random7):
    named = [("T3", t3), ("C42", c42), ("complete53", k53), ("two_triangles", two_tri)]
    named += [(f"random7_seed{s}", X) for s, X in zip((1, 2, 3), random7)]
    return named


@pytest.fixture(scope="session")
def skewed83():
    """complete(8,3) with facet weights spread over 12 decades."""
    rng = np.random.default_rng(12)
    facets = generate("complete", n=8, d=3).facets
    return build_complex(facets, list(10.0 ** rng.uniform(0.0, 12.0, len(facets))))
