"""Output checks for every benchmark job.

Checks use closed forms where they exist and invariants otherwise, never
bytes of an earlier run's output, so a numerically different but correct
program still passes.  ``check`` returns None when a job's result holds,
or a one-line reason when it does not.
"""

from __future__ import annotations

import json
import math

SLACK_TOL = 1e-9
RESIDUAL_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-12
GAMMA_TOL = 1e-9
REL_TOL = 1e-9

LEVELLED = ("fine-grained", "alev-lau", "updown", "advantage")


def expected_fixtures(job):
    """Fixture count ``verify`` must report: per certified dimension k, the
    random samples plus one basis vector per proper-level dimension, which
    sum to n_k - 1 once the constants are left out."""
    d = job.fixture.dim
    counts = job.fixture.counts
    if job.theorem in LEVELLED:
        lo, hi = (1, d) if job.theorem == "advantage" else (0, d - 1)
        total = sum(job.samples + counts[k] - 1 for k in range(lo, hi + 1) if counts[k] >= 2)
        return 2 * total if job.theorem == "alev-lau" else total
    if job.theorem == "bootstrap":
        return 2 * (d - 1)
    return 2  # trickling: walk bound and advantage identity


def _exit_matches(code, passed):
    if code != (0 if passed else 1):
        return f"exit code {code} disagrees with verdict pass={passed}"
    return None


def _check_verify(job, code, rep):
    fixtures, slacks = rep["fixtures"], rep["slacks"]
    want = expected_fixtures(job)
    if len(fixtures) != want or len(slacks) != want:
        return f"{len(fixtures)} fixtures and {len(slacks)} slacks, expected {want}"
    bad = [s for s in slacks if not s >= -SLACK_TOL]
    if bad:
        return f"{len(bad)} slacks below -{SLACK_TOL:g} (worst {min(bad)!r})"
    if rep["pass"] is not True:
        return "verdict is fail although every slack holds"
    return _exit_matches(code, rep["pass"])


def _check_decompose(job, code, rep):
    w = job.fixture.face_weights(job.fixture.dim)
    norm_f = math.fsum(w[s] * v * v for s, v in zip(job.cochain_faces, job.cochain))
    want_keys = {str(i) for i in range(-1, job.fixture.dim + 1)}
    norms = rep["norms_sq"]
    if set(norms) != want_keys:
        return f"levels {sorted(norms)}, expected {sorted(want_keys)}"
    if min(norms.values()) < -REL_TOL * norm_f:
        return f"negative level mass {min(norms.values())!r}"
    total = math.fsum(norms.values())
    if abs(total - norm_f) > REL_TOL * norm_f:
        return f"level masses sum to {total!r}, |f|^2 is {norm_f!r}"
    for key in ("reconstruction_residual", "orthogonality_residual"):
        if not rep[key] <= RESIDUAL_TOL:
            return f"{key} {rep[key]!r} above {RESIDUAL_TOL:g}"
    if rep["pass"] is not True:
        return "verdict is fail although the residuals hold"
    return _exit_matches(code, rep["pass"])


def _check_minimize(job, code, rep):
    k = job.fixture.dim - 1
    w = job.fixture.face_weights(k)
    values = rep["values"]
    if len(values) != len(job.cochain_faces):
        return f"{len(values)} values, expected {len(job.cochain_faces)}"
    norm_in = math.fsum(w[s] * v * v for s, v in zip(job.cochain_faces, job.cochain))
    norm_out = math.fsum(w[s] * v * v for s, v in zip(job.cochain_faces, values))
    if abs(math.sqrt(norm_out) - rep["norm"]) > REL_TOL * max(1.0, rep["norm"]):
        return f"reported norm {rep['norm']!r} does not match the returned values"
    if norm_out > norm_in * (1.0 + REL_TOL):
        return f"representative is longer than the input ({norm_out!r} > {norm_in!r})"
    for key in ("local_minimality_residual", "k_level_residual"):
        if not rep[key] <= RESIDUAL_TOL:
            return f"{key} {rep[key]!r} above {RESIDUAL_TOL:g}"
    if rep["pass"] is not True:
        return "verdict is fail although the residuals hold"
    return _exit_matches(code, rep["pass"])


def _check_analyze(job, code, rep):
    fx = job.fixture
    if rep["face_counts"] != fx.counts:
        return f"face counts {rep['face_counts']}, expected {fx.counts}"
    sums = rep["weight_sums"]
    if len(sums) != fx.dim + 1 or any(not abs(s - 1.0) <= WEIGHT_SUM_TOL for s in sums):
        return f"weight sums {sums} not within {WEIGHT_SUM_TOL:g} of 1"
    gamma = {int(j): g for j, g in rep["gamma_profile"].items()}
    if sorted(gamma) != list(range(-1, fx.dim - 1)):
        return f"gamma profile over dimensions {sorted(gamma)}"
    for j, g in gamma.items():
        want = fx.gamma[j] if fx.gamma is not None else None
        if want is not None and not abs(g - want) <= GAMMA_TOL:
            return f"gamma[{j}] = {g!r}, closed form {want!r}"
        if not -1.0 - GAMMA_TOL <= g <= 1.0 + GAMMA_TOL:
            return f"gamma[{j}] = {g!r} outside [-1, 1]"
    if not abs(rep["lambda2"] - gamma[-1]) <= GAMMA_TOL:
        return f"lambda2 {rep['lambda2']!r} differs from gamma[-1] {gamma[-1]!r}"
    verdict = rep["local_expander"]
    worst = max(gamma.values())
    if not abs(verdict["worst_value"] - worst) <= GAMMA_TOL:
        return f"worst link value {verdict['worst_value']!r}, gamma profile max {worst!r}"
    if verdict["pass"] != (worst <= verdict["threshold"] + SLACK_TOL):
        return f"expander verdict {verdict['pass']} contradicts worst value {worst!r}"
    return _exit_matches(code, verdict["pass"])


CHECKS = {
    "verify": _check_verify,
    "decompose": _check_decompose,
    "minimize": _check_minimize,
    "analyze": _check_analyze,
}


def check(job, code, output):
    """None when the job's result holds, else why it does not.

    ``output`` is the CLI's stdout, or for ``validate`` the face counts the
    loaded complex reports.
    """
    if job.kind == "validate":
        if code != 0:
            return "validate() did not return True"
        if output != job.fixture.counts:
            return f"loaded face counts {output}, expected {job.fixture.counts}"
        return None
    if code not in (0, 1):
        return f"exit code {code}"
    try:
        rep = json.loads(output)
        return CHECKS[job.kind](job, code, rep)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def corrupted(job, output):
    """A copy of a correct output with one defect the checker must catch:
    ``verify`` loses its last fixture, ``analyze`` has gamma[-1] off by 1e-6."""
    rep = json.loads(output)
    if job.kind == "verify":
        rep["fixtures"].pop()
        rep["slacks"].pop()
    elif job.kind == "analyze":
        rep["gamma_profile"]["-1"] += 1e-6
    else:
        raise ValueError(f"no corruption defined for {job.kind}")
    return json.dumps(rep)
