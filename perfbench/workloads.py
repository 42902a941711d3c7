"""Seeded inputs and job lists of the three benchmark workloads.

A *pass* is one workload's whole job list, run one job after another.
Every pass draws fresh inputs from ``(seed, pass index, job index)``, so no
process ever sees the same (complex file, command) pair twice and an
in-process memo keyed on inputs cannot shorten a pass.

Complete and partite complexes get vertex ids drawn from the seed (the
complex is the same up to renaming, so the closed-form gamma profiles
still hold); ``random_pure`` inputs are drawn with a per-job seed and stay
2-dimensional because the generator's rejection sampling often gives up at
d = 3.

The 12-decade weighted complete(12,3) advantage job is not in any timed
job list: on some of its inputs its k = 3 proper-level dimensions
over-count the 495-dimensional space and ``verify`` exits 2, so a timed
pass would fail on some seeds and not on others.  It runs as the defect
probe of ``top_level_certify`` instead, untimed and on inputs of its own,
and every run reports how many of them failed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np


@dataclass
class Fixture:
    """A generated complex, what the benchmark knows about it independently
    of the program, and the file it was written to."""

    label: str
    facets: list
    weights: list | None
    counts: list  # face counts n_0..n_d
    gamma: dict | None  # closed-form gamma profile, when one exists
    path: str = ""

    @property
    def dim(self):
        return len(self.counts) - 1

    def face_weights(self, k):
        """Weights of the k-faces by the downward recursion, computed here
        and not by the program."""
        d = self.dim
        m = len(self.facets)
        top = self.weights if self.weights is not None else [1.0] * m
        total = math.fsum(top)
        acc = {}
        for F, wF in zip(self.facets, top):
            for sub in combinations(F, k + 1):
                acc[sub] = acc.get(sub, 0.0) + wF / total
        denom = math.comb(d + 1, k + 1)
        return {face: w / denom for face, w in acc.items()}


@dataclass
class Job:
    """One unit of work: a CLI command, or the ``validate`` library call."""

    kind: str  # verify | decompose | analyze | minimize | validate
    fixture: Fixture
    argv: list = field(default_factory=list)
    theorem: str = ""
    samples: int = 0
    cochain: np.ndarray | None = None  # values written to the cochain file
    cochain_faces: list = field(default_factory=list)

    @property
    def label(self):
        extra = f" {self.theorem}" if self.theorem else ""
        return f"{self.kind}{extra} {self.fixture.label}"


def _complete(hdx, rng, n, d):
    ids = sorted(int(v) for v in rng.choice(50 * n, size=n, replace=False))
    facets = list(combinations(ids, d + 1))
    counts = [math.comb(n, k + 1) for k in range(d + 1)]
    gamma = {j: -1.0 / (n - j - 2) for j in range(-1, d - 1)}
    return Fixture(f"complete({n},{d})", facets, None, counts, gamma)


def _skewed_complete(hdx, rng, n, d, decades):
    fx = _complete(hdx, rng, n, d)
    fx.label = f"complete({n},{d}) weights 1e-{decades}..1"
    fx.weights = [float(w) for w in 10.0 ** rng.uniform(-decades, 0.0, len(fx.facets))]
    fx.gamma = None
    return fx


def _partite(hdx, rng, parts):
    n = sum(parts)
    ids = [int(v) for v in rng.choice(50 * n, size=n, replace=False)]
    groups, start = [], 0
    for size in parts:
        groups.append(ids[start : start + size])
        start += size
    facets = sorted(tuple(sorted(t)) for t in product(*groups))
    d = len(parts) - 1
    counts = [
        sum(math.prod(c) for c in combinations(parts, k + 1)) for k in range(d + 1)
    ]
    gamma = {j: 0.0 for j in range(-1, d - 1)}
    name = ",".join(str(p) for p in parts)
    return Fixture(f"partite({name})", facets, None, counts, gamma)


def _random_pure(hdx, rng, n, d, m):
    seed = int(rng.integers(2**31))
    X = hdx.generate("random_pure", n=n, d=d, m=m, seed=seed)
    facets = list(X.facets)
    counts = [
        len({sub for F in facets for sub in combinations(F, k + 1)}) for k in range(d + 1)
    ]
    return Fixture(f"random_pure({n},{d},{m})", facets, None, counts, None)


GENERATORS = {
    "complete": _complete,
    "skewed": _skewed_complete,
    "partite": _partite,
    "random_pure": _random_pure,
}


# (kind, complex spec, options); a spec is (generator, *args)
PLANS = {
    "top_level_certify": [
        ("verify", ("complete", 14, 3), {"theorem": "advantage", "samples": 20}),
        ("verify", ("complete", 20, 2), {"theorem": "advantage", "samples": 20}),
        ("verify", ("random_pure", 30, 2, 900), {"theorem": "advantage", "samples": 20}),
        ("decompose", ("complete", 14, 3), {}),
        ("decompose", ("complete", 22, 2), {}),
        ("decompose", ("random_pure", 30, 2, 900), {}),
    ],
    "link_spectra": [
        (kind, spec, opts)
        for spec in (
            ("complete", 14, 4),
            # not complete(40,2): validating it took 3.4-6.7 s, 40% of a pass,
            # and its time varied 2x on one input from call to call
            ("complete", 30, 2),
            ("partite", (6, 6, 6, 6)),
            ("random_pure", 30, 2, 900),
        )
        for kind, opts in (
            ("validate", {}),
            ("analyze", {}),
            ("verify", {"theorem": "trickling", "samples": 50}),
            ("minimize", {}),
        )
    ],
    "cochain_sweep": [
        ("verify", spec, {"theorem": theorem, "samples": samples})
        for theorem in ("fine-grained", "alev-lau", "updown")
        for spec, samples in (
            (("complete", 16, 3), 200),
            (("partite", (5, 5, 5, 5)), 200),
            (("random_pure", 30, 2, 900), 500),
        )
    ]
    + [
        ("verify", ("complete", 14, 3), {"theorem": "bootstrap"}),
        ("verify", ("partite", (5, 5, 5, 5)), {"theorem": "bootstrap"}),
    ],
}

# a known defect, run untimed after the passes; see the module docstring
DEFECT_PROBES = {
    "top_level_certify": ("verify", ("skewed", 12, 3, 12), {"theorem": "advantage", "samples": 20}),
}
DEFECT_PROBE_INPUTS = 8

ANALYZE_LAMBDA = 0.5


def make_job(hdx, kind, spec, opts, rng, stem):
    """Generate a job's complex (and cochain) from ``rng``, write them to
    ``stem``.cx (and ``stem``.cf), and return the job."""
    gen, *args = spec
    fx = GENERATORS[gen](hdx, rng, *args)
    fx.path = stem + ".cx"
    X = hdx.build_complex(fx.facets, fx.weights)
    with open(fx.path, "w", encoding="utf-8") as fh:
        fh.write(hdx.write_complex(X))
    job = Job(kind, fx, theorem=opts.get("theorem", ""), samples=opts.get("samples", 0))
    if kind == "verify":
        job.argv = [
            "verify", fx.path, "--theorem", job.theorem, "--samples", str(job.samples),
            "--seed", str(int(rng.integers(2**31))), "--json",
        ]
    elif kind == "analyze":
        job.argv = ["analyze", fx.path, "--lambda", str(ANALYZE_LAMBDA), "--json"]
    elif kind in ("decompose", "minimize"):
        k = fx.dim if kind == "decompose" else fx.dim - 1
        job.cochain_faces = list(X.faces(k))
        job.cochain = rng.standard_normal(len(job.cochain_faces))
        with open(stem + ".cf", "w", encoding="utf-8") as fh:
            fh.write(hdx.write_cochain(X, hdx.Cochain(X, k, job.cochain)))
        job.argv = [kind, fx.path, "--cochain", stem + ".cf", "--json"]
    return job


def make_pass(hdx, workload, seed, pass_index, workdir):
    """Generate and write one pass's inputs; return its jobs in run order."""
    return [
        make_job(
            hdx, kind, spec, opts,
            np.random.default_rng([seed, pass_index, j]),
            os.path.join(workdir, f"p{pass_index}-j{j}"),
        )
        for j, (kind, spec, opts) in enumerate(PLANS[workload])
    ]


def make_probes(hdx, workload, seed, workdir):
    """Generate and write the inputs of the workload's defect probe, if it
    has one."""
    if workload not in DEFECT_PROBES:
        return []
    kind, spec, opts = DEFECT_PROBES[workload]
    return [
        make_job(
            hdx, kind, spec, opts,
            np.random.default_rng([seed, 2**31, i]),
            os.path.join(workdir, f"probe-{i}"),
        )
        for i in range(DEFECT_PROBE_INPUTS)
    ]
