"""hdxwalk certificate benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload top_level_certify --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

One run is one closed loop: a single client in a fresh process runs the
workload's jobs one after another, in process through
``hdxwalk.cli.main(argv)`` (plus the library job ``parse_complex`` +
``PureComplex.validate()``), on files generated from ``--seed``.  A pass
is the whole job list on fresh inputs; passes repeat until ``--seconds``
would be exceeded; a time is the sum over jobs of each job's median over
passes, scaled to a reference speed (see ``REF_SECONDS``).  Every job's
output is checked (see ``checks.py``).  After the passes, a workload's
defect probe (see ``workloads.py``), if it has one, runs untimed and is
reported on its own.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` the first pass runs under the tracer of ``tracer.py`` and
the result carries per-layer metrics; the remaining passes run untraced to
give the tracing overhead.  The last line of stdout is the JSON result;
lines before it are a readable report.  ``--workload all`` runs every
workload, each in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import inspect
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np

import checks
import workloads
from tracer import MODULES, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKDIR = HERE / "_work"
OUTDIR = HERE / "_out"
IMPORT_SAMPLES = 7

# The CPUs the benchmark runs on may be shared.  On a 2-vCPU Xeon VM a pass
# took 1.0x-2.5x its usual wall time over minutes, for two reasons:
#  - the hypervisor stole up to 40% of the CPU time.  So every time is read
#    from the benchmark thread's CPU clock (time.thread_time), which stops
#    while the thread is stolen or blocked (file I/O, a BLAS worker that is
#    not done) and otherwise runs like a wall clock: the jobs run on that
#    thread, and it takes part in BLAS calls too.
#  - the thread ran slower while it ran, the interpreter by up to 1.8x and
#    BLAS kernels much less.  So before each untraced job the benchmark
#    also times ``reference_loop``, a fixed Python kernel of its own that
#    no change to hdxwalk can speed up, enough times for REF_SAMPLES per
#    pass; a time t taken in a pass whose loops took r seconds on average
#    is reported as t * (REF_SECONDS / r) ** REF_EXPONENT[workload].
# REF_EXPONENT is the share of a workload's time that slows with the
# interpreter: the least-squares slope of log pass time on log loop time
# over 53-73 passes per workload on that VM, rounded to 0.05.  With
# exponent 1 the BLAS-bound workloads spread more than unscaled.
# A loop of small BLAS calls was tried as reference as well; it slowed by
# 50% where the jobs slowed by 18%.  Wall times are in the report lines.
REF_SECONDS = 0.019  # about the median of reference_loop() between jobs on that VM
REF_SAMPLES = 16
REF_EXPONENT = {"top_level_certify": 0.35, "link_spectra": 0.85, "cochain_sweep": 0.45}

# functions whose inclusive seconds and calls the traced report lists
TRACED_FUNCTIONS = (
    "level_decomp.proper_level_basis",
    "level_decomp.level_projector",
    "level_decomp.proper_decompose",
    "complex_core.validate",
    "complex_core.link_of",
    "cli_io.parse_complex",
    "spectral.gamma_profile",
    "spectral.lambda2_skeleton",
    "oriented_topology.k_level_check",
    "oriented_topology.local_minimality_residuals",
    "cochain_ops.nonlazy",
)


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import hdxwalk from this checkout's ``src``, never from elsewhere."""
    package = SRC / "hdxwalk"
    if not (package / "__init__.py").is_file():
        die(f"no hdxwalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hdxwalk
    import hdxwalk.cli  # noqa: F401  (the package does not import its CLI)

    if Path(hdxwalk.__file__).resolve().parent != package.resolve():
        die(f"imported hdxwalk from {hdxwalk.__file__}, not from {package}")
    return hdxwalk


def import_seconds():
    """Thread seconds to import hdxwalk in a fresh interpreter, and of
    ``reference_loop`` in that interpreter just before; one sample."""
    code = (
        "import sys, time\nfrom itertools import combinations\n"
        + inspect.getsource(reference_loop)
        + "r = reference_loop()\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "t = time.thread_time()\n"
        "import hdxwalk\n"
        "print(time.thread_time() - t, r)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        die(f"importing hdxwalk failed: {proc.stderr.strip()}")
    return tuple(float(x) for x in proc.stdout.split())


def reference_loop():
    """Thread seconds of a fixed loop of Python dict updates, unrelated to
    hdxwalk."""
    t0 = time.thread_time()
    counts = {}
    for facet in combinations(range(48), 3):
        for edge in combinations(facet, 2):
            counts[edge] = counts.get(edge, 0) + 1
    return time.thread_time() - t0


def blas_threads():
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def run_job(hdx, job):
    """Run one job in process; return (exit code, output to check)."""
    if job.kind == "validate":
        with open(job.fixture.path, encoding="utf-8") as fh:
            X = hdx.cli_io.parse_complex(fh.read())
        code = 0 if X.validate() is True else 1
        return code, [X.n_faces(k) for k in range(X.top_dim + 1)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = hdx.cli.main(job.argv)
    return code, out.getvalue()


def run_pass(hdx, jobs, tracer=None):
    """Run a job list; return (thread seconds per job, exit code per job,
    failures, thread seconds of the reference loops, if untraced).

    A failure is (job label, reason, silent); silent means the program
    reported success but its output failed the check.
    """
    seconds = []
    codes = []
    failures = []
    refs = []
    ref_per_job = -(-REF_SAMPLES // len(jobs))
    for job_id, job in enumerate(jobs):
        call = lambda job=job: run_job(hdx, job)  # noqa: E731
        if not tracer:
            refs += [reference_loop() for _ in range(ref_per_job)]
        t0 = time.thread_time()
        try:
            code, output = tracer.job(job_id, call) if tracer else call()
        except Exception as exc:  # a crash inside the program is a failed job
            code, reason = None, f"raised {type(exc).__name__}: {exc}"
        seconds.append(time.thread_time() - t0)
        codes.append(code)
        if code is not None:
            reason = checks.check(job, code, output)
        if reason:
            failures.append((job.label, reason, code == 0))
    return seconds, codes, failures, refs


def self_test(hdx, workdir):
    """Feed the checker real outputs and corrupted copies of them; return
    the problems found (none when the checker accepts the former and
    rejects the latter).  Also warms up the code paths before timing."""
    problems = []
    rng = np.random.default_rng(0)
    stem = os.path.join(workdir, "selftest")
    for kind, opts in (("analyze", {}), ("verify", {"theorem": "fine-grained", "samples": 3})):
        job = workloads.make_job(hdx, kind, ("complete", 5, 2), opts, rng, stem)
        code, output = run_job(hdx, job)
        reason = checks.check(job, code, output)
        if reason:
            problems.append(f"{job.label}: correct output rejected: {reason}")
        elif checks.check(job, code, checks.corrupted(job, output)) is None:
            problems.append(f"{job.label}: corrupted output accepted")
    return problems


def benchmark_spec():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def median(values):
    return statistics.median(values) if values else 0.0


def measure(hdx, args, workdir):
    """Run the workload's passes; return the result and the report lines."""
    spec = benchmark_spec()
    imports = [import_seconds() for _ in range(IMPORT_SAMPLES)]
    problems = self_test(hdx, workdir)
    start = time.perf_counter()
    tracer = Tracer(hdx) if args.trace else None
    traced = None  # (seconds, exit codes) per job of the traced pass
    gen_s = []  # per pass
    wall_s = []  # per untraced pass
    job_s = []  # per untraced pass, per job
    job_codes = []  # likewise
    ref_s = []  # per untraced pass, mean reference loop seconds
    scaled_gen_s = []  # per untraced pass
    failures = []
    attempted = 0
    while True:
        index = len(gen_s)
        t0 = time.perf_counter()
        thread_t0 = time.thread_time()
        jobs = workloads.make_pass(hdx, args.workload, args.seed, index, workdir)
        gen_s.append(time.thread_time() - thread_t0)
        wall_t0 = time.perf_counter()
        if tracer and index == 0:
            tracer.install()
            try:
                seconds, codes, failed, _ = run_pass(hdx, jobs, tracer)
            finally:
                tracer.uninstall()
            traced = (seconds, codes)
        else:
            seconds, codes, failed, refs = run_pass(hdx, jobs)
            wall_s.append(time.perf_counter() - wall_t0)
            job_s.append(seconds)
            job_codes.append(codes)
            ref_s.append(statistics.fmean(refs))
            scaled_gen_s.append(gen_s[-1] * REF_SECONDS / ref_s[-1])
        failures += failed
        attempted += len(jobs)
        for name in os.listdir(workdir):
            if name.startswith(f"p{index}-"):
                os.remove(os.path.join(workdir, name))
        now = time.perf_counter()
        if job_s and (now - start) + (now - t0) > args.seconds:
            break

    probes = workloads.make_probes(hdx, args.workload, args.seed, workdir)
    probe_failures = []
    for job in probes:
        try:
            code, output = run_job(hdx, job)
            reason = checks.check(job, code, output)
        except Exception as exc:
            code, reason = None, f"raised {type(exc).__name__}: {exc}"
        if reason:
            probe_failures.append((job.label, reason, code == 0))

    # a median per job, so a stall in one job of one pass does not move the sum
    unscaled_per_job = [median(column) for column in zip(*job_s)]
    a = REF_EXPONENT[args.workload]
    scaled = [[t * (REF_SECONDS / r) ** a for t in seconds] for seconds, r in zip(job_s, ref_s)]
    per_job = [median(column) for column in zip(*scaled)]
    kind_s = {}
    for job, sec in zip(jobs, per_job):
        kind_s[job.kind] = kind_s.get(job.kind, 0.0) + sec
    import_s = median([t * REF_SECONDS / r for t, r in imports])
    e2e = {
        "run_s": (sum(per_job), "s"),
        "verify_s": (kind_s.get("verify", 0.0), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (import_s + median(scaled_gen_s), "s"),
    }
    report = [
        f"workload {args.workload} seed {args.seed} passes {len(gen_s)} "
        f"({len(job_s)} untraced) jobs/pass {len(jobs)}",
        "env " + json.dumps(environment(), sort_keys=True),
        f"why {next(w['why'] for w in spec['workloads'] if w['name'] == args.workload)}",
    ]
    report += [f"job {job.label} faces {job.fixture.counts}" for job in jobs]
    report.append(
        f"setup import_s {import_s:.6g} s, inputs_s {median(scaled_gen_s):.6g} s (scaled); "
        f"unscaled import_s {median(t for t, _ in imports):.6g} s, inputs_s {median(gen_s):.6g} s"
    )
    report += [
        f"pass {' '.join(f'{t:.3f}' for t in seconds)} s, reference loop {r:.6g} s, "
        f"wall {w:.3f} s"
        for seconds, r, w in zip(job_s, ref_s, wall_s)
    ]
    report.append(f"metric unscaled_run_s {sum(unscaled_per_job):.6g} s")
    report.append(f"metric wall_pass_s {median(wall_s):.6g} s")
    report += [f"metric {name} {value:.6g} {unit}" for name, (value, unit) in e2e.items()]
    report += [
        f"metric {kind}_s {value:.6g} s" for kind, value in kind_s.items() if kind != "verify"
    ]
    report.append(f"metric fail_ratio {len(failures) / attempted:.6g} ratio")
    report += [f"failed {label}: {reason}" for label, reason, _ in failures]
    if probes:
        report.append(
            f"defect probe {probes[0].kind} {probes[0].theorem} {probes[0].fixture.label}: "
            f"failed on {len(probe_failures)} of {len(probes)} inputs (untimed, not in failed)"
        )
    report += [f"defect probe failed {label}: {reason}" for label, reason, _ in probe_failures]
    report += [f"self-test problem: {p}" for p in problems]

    if args.trace:
        layers = layer_metrics(tracer, overhead_ratio(traced, unscaled_per_job, job_codes))
        OUTDIR.mkdir(exist_ok=True)
        path = OUTDIR / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.save(path)
        report.append(f"spans {len(tracer.start)} written to {path.relative_to(HERE.parent)}")
        report += [f"layer {name} {value:.6g} {unit}" for name, (value, unit) in layers.items()]
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    result = {
        "correct": not problems
        and not any(silent for _, _, silent in failures + probe_failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, report


def overhead_ratio(traced, per_job, job_codes):
    """Traced over untraced seconds, minus 1, over the jobs whose exit code
    in the traced pass is their most common one in the untraced passes, so
    that a job ending early on some inputs does not pass for tracing cost."""
    seconds, codes = traced
    typical = [Counter(column).most_common(1)[0][0] for column in zip(*job_codes)]
    same = [j for j, code in enumerate(codes) if code == typical[j]]
    return sum(seconds[j] for j in same) / sum(per_job[j] for j in same) - 1.0


def layer_metrics(tr, overhead):
    """Per-layer figures of the traced pass.  Counts repeat exactly on the
    same inputs; a layer a workload never enters reads 0."""
    m = {}
    for mod in MODULES + ("numpy.linalg", "bench"):
        m[f"{mod}.self_s"] = (tr.self_s[mod], "s")
        m[f"{mod}.calls"] = (tr.calls[mod], "count")
    m["numpy.linalg.flop_est"] = (tr.flops, "flop")
    for fn in TRACED_FUNCTIONS:
        m[f"{fn}.s"] = (tr.incl_s[fn], "s")
        m[f"{fn}.calls"] = (tr.calls[fn], "count")
    lookups = tr.hits + tr.misses
    m["cache.hits"] = (tr.hits, "count")
    m["cache.misses"] = (tr.misses, "count")
    m["cache.hit_ratio"] = (tr.hits / lookups if lookups else 0.0, "ratio")
    m["cache.peak_mb"] = (tr.cache_peak / 2**20, "MB")
    m["trace.wall_s"] = (tr.wall_s(), "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def run_all(args):
    """Run every workload in its own process, one after another."""
    code = 0
    for name in workloads.PLANS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.PLANS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    hdx = load_program()
    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        result, report = measure(hdx, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
