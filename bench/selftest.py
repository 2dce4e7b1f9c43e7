#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny inputs.

    python3 bench/selftest.py

Checks that every declared metric is emitted with its declared unit, that
the output checker flags a perturbed reference value and an exit status 2,
that failures in forked passes reach the parent, that the host-speed probe
rescales times, and that the traced self times add up to the traced wall
time within 5 %.
Exits non-zero on the first failed check.
"""

import copy
import os
import sys
import tempfile

import run

run._import_package()

import poslinops.cli  # noqa: E402

import check  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

TINY_CLI = [
    ["converge", "--function", "smooth", "--schedule", "10,20", "--grid", "21"],
    ["check-thm33", "--function", "smooth", "--moduli-source", "grid", "--grid", "21"],
    ["check-thm41", "--function", "smooth", "--r", "2", "--m", "10", "--n", "10",
     "--grid", "11"],
    ["check-thm41", "--function", "holder_half", "--r", "1", "--m", "5", "--n", "5",
     "--grid", "11"],
    ["modulus", "--function", "holder_half", "--grid", "41", "--delta", "0.1"],
    ["weighted", "--function", "rho_growth", "--m", "10", "--n", "10", "--grid", "21"],
]


def expect(condition, message):
    if not condition:
        sys.exit(f"FAIL: {message}")
    print(f"PASS: {message}")


def tiny_cli_tasks(workdir):
    """CLI tasks with references recorded from one run of the same code."""
    tasks = []
    for i, argv in enumerate(TINY_CLI):
        out = os.path.join(workdir, "ref.csv")
        rc = poslinops.cli.main(argv + ["--out", out])
        with open(out) as fh:
            lines = fh.read().splitlines()
        ref = {"exit_status": rc, "header": lines[0].split(","),
               "rows": [line.split(",") for line in lines[1:]]}
        tasks.append(workloads.CliTask(argv, ref, i))
    return tasks


def check_metrics(metrics, trace_on):
    declared = {m["name"]: m["unit"] for m in run.declared_metrics(trace_on)}
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    expect(emitted == declared,
           f"--trace {trace_on}: all {len(declared)} declared metrics emitted "
           "with their units")


def check_probe():
    probe = hostspeed.Probe()
    probe.at = [float(i) for i in range(10)]
    probe.took = [2.0 * hostspeed.REFERENCE_S] * 5 + [hostspeed.REFERENCE_S] * 5
    expect(abs(probe.scale(1.0, 0.5, 1.5) - 0.5) < 1e-12
           and abs(probe.scale(1.0, 8.5, 9.5) - 1.0) < 1e-12,
           "host-speed probe halves times measured while the kernel ran twice as long")


def main():
    check_probe()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=run.ROOT) as workdir:
        cli = tiny_cli_tasks(workdir)
        points = workloads.point_tasks(seed=7, per_cell=4, per_degree_y0=1)
        tasks = cli + points

        metrics, attempted, failures, _ = run.end_to_end(tasks, 0.0, workdir)
        expect(not failures and attempted == 3 * len(tasks),
               f"untraced tiny run: {attempted} tasks attempted, none failed")
        check_metrics(metrics, 0)

        metrics, _, failures, _ = run.per_layer(tasks, 0.0, workdir)
        expect(not failures, "traced tiny run: no task failed")
        check_metrics(metrics, 1)
        accounted = metrics["trace.accounted_frac"][0]
        expect(abs(accounted - 1.0) <= 0.05,
               f"traced self times sum to {accounted:.4f} of traced wall time")
        expect(metrics["moduli.self_s"][0] > 0 and metrics["corpus.f_eval.calls"][0] > 0
               and metrics["taylor.fd_deriv.calls"][0] > 0,
               "spans recorded in moduli, corpus and the finite-difference provider")

        task = cli[0]
        result = task.run(workdir)
        expect(task.check(result) is None, "unperturbed reference matches")
        bad = copy.deepcopy(task.ref)
        col = bad["header"].index("sup_error")
        bad["rows"][1][col] = repr(float(bad["rows"][1][col]) * (1 + 1e-6))
        expect(check.check_cli_output(*result, bad) is not None,
               "checker flags a reference value perturbed by 1e-6 relative")

        point = points[0]
        value, mom, rth = point.run(workdir)
        expect(point.check((value * (1 + 1e-6) + 1e-6, mom, rth)) is not None,
               "checker flags a perturbed point value")

        broken = workloads.CliTask(["eval", "--function", "no_such_function"],
                                   task.ref, 99)
        expect(broken.check(broken.run(workdir)) is not None,
               "checker flags exit status 2")
        _, _, attempted, failures = run.forked_passes([broken], 0.0, 2, workdir,
                                                      hostspeed.Probe())
        expect(attempted == 2 and len(failures) == 2,
               "failures in forked passes reach the parent")


if __name__ == "__main__":
    main()
