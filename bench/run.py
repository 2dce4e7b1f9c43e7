#!/usr/bin/env python3
"""poslinops benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  A full record, with the environment, goes
to .bench_results/.  See bench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported, here and in the set-up subprocesses.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)
# numpy asks for transparent huge pages for arrays of 4 MB and more; whether
# the kernel has any free depends on the other tenants of the host, which made
# large-array work vary by 30 % from minute to minute.  Small pages only.
HUGEPAGE = {"NUMPY_MADVISE_HUGEPAGE": "0"}
os.environ.update(HUGEPAGE)

import argparse
import json
import pickle
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import hostspeed
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_FILE = os.path.join(ROOT, "BENCHMARK.json")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")

SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 5
MIN_PASSES = 3
TRACE_MIN_PASSES = 2
LAYER_PACKAGES = ("numpy", "mpmath", "scipy", "poslinops")


def _import_package():
    sys.path.insert(0, SRC)
    try:
        import poslinops
    except ImportError as exc:
        sys.exit(f"error: cannot import poslinops from {SRC}: {exc}")
    if os.path.dirname(os.path.abspath(poslinops.__file__)) != os.path.join(SRC, "poslinops"):
        sys.exit(f"error: poslinops imported from {poslinops.__file__}, not {SRC}")


def _child_env():
    return dict(os.environ, PYTHONPATH=SRC)


def _time_interpreter(code):
    t0 = time.perf_counter()
    # No timeout: Popen.wait(timeout) polls in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(), check=True)
    return time.perf_counter() - t0


def measure_setup():
    """Median wall time of a fresh interpreter importing poslinops, each
    rescaled by the start-up probe timed right before it (hostspeed.py).
    Returns the rescaled and the unscaled median."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        ref = _time_interpreter(hostspeed.STARTUP_PROBE)
        took = _time_interpreter("import poslinops")
        raw.append(took)
        scaled.append(took * hostspeed.STARTUP_REFERENCE_S / ref)
    return statistics.median(scaled), statistics.median(raw)


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)")


def measure_import_layers():
    """Median self import time per top-level package, from -X importtime."""
    samples = {pkg: [] for pkg in LAYER_PACKAGES}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import poslinops"],
            cwd=ROOT, env=_child_env(), check=True, timeout=120,
            capture_output=True, text=True)
        totals = dict.fromkeys(LAYER_PACKAGES, 0)
        for match in _IMPORTTIME.finditer(proc.stderr):
            top = match.group(3).split(".")[0]
            if top in totals:
                totals[top] += int(match.group(1))
        for pkg, us in totals.items():
            samples[pkg].append(us / 1e6)
    return {pkg: statistics.median(v) for pkg, v in samples.items()}


def run_passes(tasks, seconds, min_passes, workdir, tracer=None, probe=None):
    """Run the whole task list repeatedly within ``seconds`` (at least min_passes).

    Returns per-pass wall times (sum of timed task durations), per-pass
    lists of task (start, end) times, the attempt count and the failure
    messages.  With a probe, the host speed is sampled between tasks.
    """
    walls, times, failures = [], [], []
    attempted = 0
    end = time.perf_counter() + seconds
    # Start another pass only while a typical pass still fits in the window.
    while (len(walls) < min_passes
           or time.perf_counter() + statistics.median(walls) <= end):
        wall = 0.0
        times.append([])
        for task in tasks:
            attempted += 1
            if tracer is not None:
                tracer.new_task()
            if probe is not None:
                probe.maybe_sample()
            t0 = time.perf_counter()
            try:
                out = task.run(workdir)
            except Exception:
                problem = traceback.format_exc(limit=3)
            else:
                problem = None
            t1 = time.perf_counter()
            wall += t1 - t0
            times[-1].append((t0, t1))
            if problem is None:
                problem = task.check(out)
            if problem is not None:
                failures.append(f"{task.name}: {problem}")
        walls.append(wall)
    if probe is not None:
        probe.sample()
    return walls, times, attempted, failures


def _pass_in_child(tasks, workdir):
    """One pass in a forked child; returns run_passes' result for it and the
    child's probe samples."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            probe = hostspeed.Probe()
            result = run_passes(tasks, 0, 1, workdir, probe=probe)
            with os.fdopen(wfd, "wb") as fh:
                pickle.dump((result, probe.at, probe.took), fh)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"pass worker exited with wait status {status}")
    return pickle.loads(payload)


def forked_passes(tasks, seconds, min_passes, workdir, probe):
    """run_passes with every pass in a fresh fork of this process.

    Each pass then starts from the same interpreter and allocator state, as
    each CLI run starts from a fresh process.  Passes run in one process left
    it, by chance, in one of two states after the first pass, one of them
    40 % slower on order_r's first command (see bench/README.md).
    """
    walls, times, failures = [], [], []
    attempted = 0
    end = time.perf_counter() + seconds
    while (len(walls) < min_passes
           or time.perf_counter() + statistics.median(walls) <= end):
        (pass_walls, pass_times, n, pass_failures), at, took = _pass_in_child(tasks, workdir)
        walls += pass_walls
        times += pass_times
        attempted += n
        failures += pass_failures
        probe.at += at
        probe.took += took
    return walls, times, attempted, failures


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def end_to_end(tasks, seconds, workdir):
    """Timed run: set-up time, then passes in forked children.  Task
    latencies are rescaled to reference host speed and each task's median
    over the passes is kept; wall time is the sum of those medians and the
    percentiles are taken over them."""
    setup_s, raw_setup_s = measure_setup()
    probe = hostspeed.Probe()
    walls, times, attempted, failures = forked_passes(tasks, seconds, MIN_PASSES,
                                                      workdir, probe)
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    per_task = [statistics.median(probe.scale(t1 - t0, t0, t1) for t0, t1 in runs)
                for runs in zip(*times)]
    raw_per_task = [statistics.median(t1 - t0 for t0, t1 in runs) for runs in zip(*times)]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_task), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "latency_p50_ms": (1e3 * statistics.median(per_task), "ms"),
        "latency_p99_ms": (1e3 * percentile(per_task, 99), "ms"),
    }
    info = {"passes": len(walls), "pass_walls_s": walls,
            "latency_samples": len(per_task),
            "host_speed": probe.speed(), "probes": len(probe.took),
            "unscaled": {"setup_s": raw_setup_s, "wall_s": sum(raw_per_task),
                         "latency_p50_ms": 1e3 * statistics.median(raw_per_task),
                         "latency_p99_ms": 1e3 * percentile(raw_per_task, 99)}}
    return metrics, attempted, failures, info


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, mem, passes):
    """Per-pass per-layer metrics from a tracer that ran ``passes`` passes;
    peak allocations come from ``mem``, the tracer of the memory pass."""
    s, c, n = tracer.self_s, tracer.calls, tracer.count

    def self_of(*keys):
        return sum(s[k] for k in keys) / passes

    def calls_of(*keys):
        return sum(c[k] for k in keys) / passes

    out = {f"{layer}.self_s": (sum(v for k, v in s.items()
                                   if k.startswith(layer + ".")) / passes, "s")
           for layer in spans.LAYERS}
    out.update({
        "basis.bernstein_weights_s": (self_of("basis.bernstein_weights"), "s"),
        "basis.szasz_weights_s": (self_of("basis.szasz_weights"), "s"),
        "basis.rows": (calls_of("basis.bernstein_weights", "basis.szasz_weights"), "count"),
        "basis.szasz_K_max": (n["basis.szasz_K_max"], "count"),
        "operators.weight_matrix_s": (self_of("operators.bernstein_weight_matrix",
                                              "operators.szasz_weight_matrix"), "s"),
        "operators.weight_matrix.builds": (n["operators.weight_matrix.builds"] / passes,
                                           "count"),
        "operators.weight_matrix.repeat_frac": (
            _frac(n["operators.weight_matrix.repeats"],
                  n["operators.weight_matrix.builds"]), "fraction"),
        "operators.eval_grid_s": (self_of("operators.eval_grid"), "s"),
        "operators.eval_grid.calls": (calls_of("operators.eval_grid"), "count"),
        "operators.eval_grid.points": (n["operators.eval_grid.points"] / passes, "count"),
        "operators.eval_grid.repeat_frac": (
            _frac(n["operators.eval_grid.repeats"],
                  n["operators.eval_grid.builds"]), "fraction"),
        "operators.apply_on_grid_s": (self_of("operators.apply_on_grid"), "s"),
        "operators.contraction_gflop": (n["operators.contraction_gflop"] / passes,
                                        "GFLOP-computed"),
        "operators.apply_s": (self_of("operators.apply"), "s"),
        "operators.apply.calls": (calls_of("operators.apply"), "count"),
        "operators.apply.peak_mb": (mem.count["operators.apply.peak_mb"], "MB"),
        "corpus.f_eval_s": (self_of("corpus.f_eval"), "s"),
        "corpus.f_eval.calls": (calls_of("corpus.f_eval"), "count"),
        "corpus.f_eval.points": (n["corpus.f_eval.points"] / passes, "count"),
        "corpus.deriv_eval_s": (self_of("corpus.deriv_eval"), "s"),
        "corpus.deriv_eval.calls": (calls_of("corpus.deriv_eval"), "count"),
        "moduli.full_modulus_s": (self_of("moduli.full_modulus"), "s"),
        "moduli.partial_moduli_s": (self_of("moduli.partial_moduli"), "s"),
        "moduli.weighted_modulus_s": (self_of("moduli.weighted_modulus"), "s"),
        "bounds.sup_distance_power_s": (self_of("bounds.sup_distance_power_operator"), "s"),
        "bounds.sup_distance_power.peak_mb": (
            mem.count["bounds.sup_distance_power_operator.peak_mb"], "MB"),
        "bounds.sup_error_on_grid_s": (self_of("bounds.sup_error_on_grid"), "s"),
        "bounds.checks_s": (self_of("bounds.check_theorem_3_3",
                                    "bounds.theorem_4_1_bound"), "s"),
        "taylor.apply_rth_on_grid_s": (self_of("taylor.apply_rth_on_grid"), "s"),
        "taylor.fd_deriv_s": (self_of("taylor.fd_deriv"), "s"),
        "taylor.fd_deriv.calls": (calls_of("taylor.fd_deriv"), "count"),
        "taylor.lipschitz_estimate_s": (self_of("taylor.f_rth_lipschitz_estimate",
                                                "taylor.directional_rth_derivative"), "s"),
        "weighted.operator_rho_norm_bound.calls": (
            calls_of("weighted.operator_rho_norm_bound"), "count"),
    })
    return out


def traced_passes(tasks, seconds, min_passes, workdir, memory=False):
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, memory)
    try:
        return tracer, run_passes(tasks, seconds, min_passes, workdir, tracer)
    finally:
        restore()


def per_layer(tasks, seconds, workdir):
    """Untraced passes, then traced passes, over half of ``seconds`` each,
    then one pass that records peak allocations."""
    imports = measure_import_layers()
    plain, _, attempted0, failures0 = run_passes(tasks, seconds / 2, TRACE_MIN_PASSES,
                                                 workdir)
    tracer, (traced, _, attempted1, failures1) = traced_passes(
        tasks, seconds / 2, TRACE_MIN_PASSES, workdir)
    mem, (_, _, attempted2, failures2) = traced_passes(tasks, 0, 1, workdir, memory=True)
    metrics = {f"setup.import.{pkg}{'_self' if pkg == 'poslinops' else ''}_s": (v, "s")
               for pkg, v in imports.items()}
    metrics.update(layer_metrics(tracer, mem, len(traced)))
    accounted = sum(tracer.self_s.values())
    metrics.update({
        "trace.wall_s": (statistics.median(traced), "s"),
        "trace.untraced_wall_s": (statistics.median(plain), "s"),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(plain) - 1.0,
                                "fraction"),
        "trace.accounted_frac": (accounted / sum(traced), "fraction"),
    })
    info = {"untraced_passes": len(plain), "traced_passes": len(traced)}
    return (metrics, attempted0 + attempted1 + attempted2,
            failures0 + failures1 + failures2, info)


def git_commit():
    """The checkout's commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed):
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "seed": seed,
        "git_commit": git_commit(),
    }


def declared_metrics(trace_on):
    with open(BENCH_FILE) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace_on else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import workloads

    if args.workload not in workloads.WHY:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WHY)}")
    declared = declared_metrics(args.trace)
    tasks = workloads.build_tasks(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as workdir:
        if args.trace:
            metrics, attempted, failures, info = per_layer(tasks, args.seconds, workdir)
        else:
            metrics, attempted, failures, info = end_to_end(tasks, args.seconds, workdir)

    wrong = [m["name"] for m in declared
             if metrics.get(m["name"], (None, None))[1] != m["unit"]]
    if wrong:
        sys.exit(f"error: metrics not measured with their declared unit: {wrong}")
    info.update(tasks=len(tasks), attempted=attempted, failed=len(failures),
                failed_frac=len(failures) / attempted)
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(args.seed), "info": info,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
        "failures": failures,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS_DIR, name), "w") as fh:
        json.dump(record, fh, indent=2)

    for msg in failures[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    for key, val in record["environment"].items():
        print(f"# {key}: {val}")
    print(f"# tasks per pass: {len(tasks)}; {info}")
    for m in declared:
        print(f"{m['name']} = {metrics[m['name']][0]:.6g} {m['unit']}")
    print(f"failed_frac = {info['failed_frac']:.6g} fraction")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
