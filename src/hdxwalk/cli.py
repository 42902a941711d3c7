"""Command-line surface: generate fixtures and run the certificates.

Exit codes: 0 all checks pass, 1 a bound or verdict is violated, 2 usage
or file errors, or a run that cannot allocate its arrays, 3 a theorem
hypothesis fails (disconnected complex or non-expanding links).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .cli_io import (
    ParseError,
    generate,
    parse_cochain,
    parse_complex,
    write_cochain,
    write_complex,
)
from .cochain_ops import Cochain, inner_product, norm_sq, weight_vector
from .complex_core import ComplexError
from .level_decomp import proper_decompose, proper_level_basis
from .oriented_topology import (
    OrientedCochain,
    local_minimality_residuals,
    minimal_representative,
)
from .spectral import (
    HypothesisError,
    gamma_profile,
    is_local_spectral_expander,
    lambda2_skeleton,
)
from .theorem_verify import (
    LEVELLED,
    SLACK_TOL,
    bootstrap_certificate,
    check_block,
    levelled_dims,
    random_mean_zero_block,
    trickling_down_check,
)

THEOREMS = ("fine-grained", "alev-lau", "advantage", "trickling", "bootstrap", "updown")

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3

# columns per check_block call in verify; bounds the temporaries of one
# call, where stacking every column of a dimension raises peak memory
VERIFY_CHUNK = 128


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _load_complex(path):
    return parse_complex(_read(path))


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        for key in sorted(report):
            print(f"{key}: {report[key]}")


def cmd_generate(args):
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.d is not None:
        params["d"] = args.d
    if args.m is not None:
        params["m"] = args.m
    if args.seed is not None:
        params["seed"] = args.seed
    if args.parts is not None:
        try:
            params["parts"] = [int(p) for p in args.parts.split(",")]
        except ValueError:
            raise ParseError(f"--parts needs comma-separated integers, got {args.parts!r}") from None
    X = generate(args.kind, **params)
    text = write_complex(X)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def cmd_analyze(args):
    if args.threshold is not None and not math.isfinite(args.threshold):
        raise ParseError(f"--lambda must be finite, got {args.threshold}")
    X = _load_complex(args.file)
    profile = gamma_profile(X)
    report = {
        "dim": X.top_dim,
        "face_counts": [X.n_faces(k) for k in range(X.top_dim + 1)],
        "weight_sums": [math.fsum(weight_vector(X, k).tolist()) for k in range(X.top_dim + 1)],
        "gamma_profile": {str(j): profile[j] for j in profile.dims()},
        "lambda2": lambda2_skeleton(X),
    }
    code = EXIT_PASS
    if args.threshold is not None:
        verdict = is_local_spectral_expander(X, args.threshold)
        report["local_expander"] = {
            "threshold": verdict.threshold,
            "pass": verdict.passed,
            "worst_face": list(verdict.worst_face),
            "worst_value": verdict.worst_value,
        }
        if not verdict.passed:
            code = EXIT_VIOLATION
    _emit(report, args.json)
    return code


def cmd_decompose(args):
    X = _load_complex(args.file)
    f = parse_cochain(_read(args.cochain), X)
    decomp = proper_decompose(X, f)
    # the orthogonality residual scales with |f|^2 and the reconstruction
    # residual with |f|, so each is judged relative to that scale
    scale_sq = float(norm_sq(X, f))
    recon = float(
        np.sqrt(norm_sq(X, Cochain(X, f.dim, f.values - decomp.reconstruction())))
    )
    ortho = 0.0
    levels = sorted(decomp.components)
    for a in levels:
        for b in levels:
            if a < b:
                ortho = max(
                    ortho,
                    abs(inner_product(X, decomp.components[a], decomp.components[b])),
                )
    report = {
        "dim": f.dim,
        "norms_sq": {str(i): decomp.norms_sq[i] for i in levels},
        "reconstruction_residual": recon,
        "orthogonality_residual": ortho,
        "pass": bool(recon <= 1e-10 * np.sqrt(scale_sq) and ortho <= 1e-10 * scale_sq),
    }
    _emit(report, args.json)
    return EXIT_PASS if report["pass"] else EXIT_VIOLATION


def cmd_minimize(args):
    X = _load_complex(args.file)
    f0 = parse_cochain(_read(args.cochain), X)
    f = OrientedCochain(X, f0.dim, f0.values)
    fmin = minimal_representative(X, f)
    # the worst localized mean over the (k-1)-faces, reported under both keys;
    # a weighted mean of values, so its rounding scales with the largest input
    local = max(local_minimality_residuals(X, fmin).values()) if f.dim >= 1 else 0.0
    report = {
        "dim": f.dim,
        "values": [float(v) for v in fmin.values],
        "norm": float(np.sqrt(norm_sq(X, fmin.as_cochain()))),
        "local_minimality_residual": float(local),
        "k_level_residual": float(local),
        "pass": bool(local <= 1e-10 * np.max(np.abs(f0.values))),
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(write_cochain(X, fmin.as_cochain()))
    _emit(report, args.json)
    return EXIT_PASS if report["pass"] else EXIT_VIOLATION


def _verify_cases(X, theorem, samples, seed):
    """Yield (label, slack) pairs for one theorem over random admissible
    cochains plus every proper-level basis vector.

    A levelled theorem evaluates each dimension's sample block and level
    bases in column chunks of at most ``VERIFY_CHUNK``, as views.
    """
    rng = np.random.default_rng(seed)
    if theorem in LEVELLED:
        for k in levelled_dims(X, theorem):
            if X.n_faces(k) < 2:
                continue  # no nonzero admissible cochains at this dimension
            blocks = [("random", random_mean_zero_block(X, k, rng, samples))]
            blocks += [
                (f"level{i}-basis", proper_level_basis(X, k, i)) for i in range(k + 1)
            ]
            for name, block in blocks:
                for start in range(0, block.shape[1], VERIFY_CHUNK):
                    rep = check_block(X, theorem, k, block[:, start:start + VERIFY_CHUNK])
                    gaps = rep.details.get("dominance_gap")
                    for c, slack in enumerate(rep.slack):
                        label = f"k={k}/{name}/{start + c}"
                        yield label, slack
                        if gaps is not None:
                            yield label + "/dominance", gaps[c]
    elif theorem == "bootstrap":
        for k in range(1, X.top_dim):
            cert = bootstrap_certificate(X, k)
            yield f"k={k}/condition1", cert.worst_slack_first
            yield f"k={k}/condition2", cert.worst_slack_second
    elif theorem == "trickling":
        rep = trickling_down_check(X, samples=samples, seed=seed)
        yield "walk-bound", rep.bound - rep.actual
        yield "advantage-identity", rep.advantage_tol - rep.advantage_residual
    else:  # pragma: no cover - argparse restricts the choices
        raise ParseError(f"unknown theorem {theorem!r}")


def cmd_verify(args):
    if args.samples < 0:
        raise ParseError(f"--samples must be non-negative, got {args.samples}")
    if args.seed < 0:
        raise ParseError(f"--seed must be non-negative, got {args.seed}")
    X = _load_complex(args.file)
    fixtures = []
    slacks = []
    for label, slack in _verify_cases(X, args.theorem, args.samples, args.seed):
        fixtures.append(label)
        slacks.append(float(slack))
    passed = bool(all(s >= -SLACK_TOL for s in slacks))
    report = {
        "theorem": args.theorem,
        "fixtures": fixtures,
        "slacks": slacks,
        "pass": passed,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for label, slack in zip(fixtures, slacks):
            print(f"{label}: slack={slack:.3e}")
        print(f"pass: {passed} (min slack {min(slacks):.3e})" if slacks else "pass: True")
    return EXIT_PASS if passed else EXIT_VIOLATION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hdxwalk",
        description="Spectral certificates for random walks on weighted simplicial complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a fixture complex file")
    p.add_argument("kind", choices=("complete", "partite", "random_pure", "two_triangles"))
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--parts", help="comma-separated group sizes for partite")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="face counts, gamma profile, expander verdict")
    p.add_argument("file")
    p.add_argument("--lambda", dest="threshold", type=float)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decompose", help="proper level decomposition of a cochain")
    p.add_argument("file")
    p.add_argument("--cochain", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="run a theorem certificate on a complex")
    p.add_argument("file")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("minimize", help="minimal representative of an oriented cochain")
    p.add_argument("file")
    p.add_argument("--cochain", required=True)
    p.add_argument("-o", "--output", help="write the representative as a cochain file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_minimize)

    return parser


@functools.cache
def _parser():
    """:func:`build_parser`, built on the first :func:`main` call and kept
    for the rest of the process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ComplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # the input is too large for this machine; no bound was violated
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
