"""The four benchmark workloads and their tasks.

A task is one unit a user waits for: one CLI command, one library grid call
or one point query.  ``run(workdir)`` is timed; ``check(out)`` is not, and
returns a failure message or None.  Library functions are looked up through
the ``poslinops`` namespaces at call time, so the traced run sees the
wrapped versions.
"""

from __future__ import annotations

import json
import os

import numpy as np

import poslinops
import poslinops.cli

import check

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

SCHEDULE = ",".join(str(10 * 2**i) for i in range(8))  # 10, 20, ..., 1280
HOLDER_SHIFT = ["--alpha1", "1", "--beta1", "2", "--alpha2", "1", "--beta2", "2"]

CLI_TASKS = {
    "grid_sweep": [
        ["converge", "--function", "smooth", "--schedule", SCHEDULE, "--grid", "201"],
        ["converge", "--function", "holder_half", "--schedule", SCHEDULE,
         "--grid", "201", *HOLDER_SHIFT],
        ["converge", "--function", "prod", "--schedule", SCHEDULE, "--grid", "201",
         "--A", "4"],
        ["check-thm33", "--function", "linear", "--m", "400", "--n", "400"],
        ["check-thm33", "--function", "linear", "--m", "1000", "--n", "1000"],
    ],
    "order_r": [
        ["check-thm41", "--function", "smooth", "--r", "2", "--m", "80", "--n", "80",
         "--grid", "101"],
        ["check-thm41", "--function", "smooth", "--r", "1", "--gamma", "0.5",
         "--m", "40", "--n", "40", "--grid", "101"],
        ["check-thm41", "--function", "holder_half", "--r", "1", "--m", "20",
         "--n", "20", "--grid", "51"],
        ["check-thm41", "--function", "smooth", "--r", "2", "--m", "160",
         "--n", "160", "--mode", "modulus"],
        ["check-thm41", "--function", "smooth", "--r", "2", "--m", "160",
         "--n", "160", "--mode", "lipschitz"],
        *[["rth", "--function", "holder_half", "--r", "1", "--m", "20", "--n", "20",
           "--x", x, "--y", y]
          for x, y in (("0", "0"), ("0.3", "0.7"), ("0.62", "1.5"), ("1", "0.25"))],
        # Exits 1 at the seed: lhs 1.7e-12 > rhs 0 (Poisson tail not propagated).
        ["check-thm41"],
    ],
    "moduli_checks": [
        ["check-thm33", "--function", "smooth", "--m", "40", "--n", "40",
         "--moduli-source", "grid", "--grid", "201"],
        ["check-thm33", "--function", "holder_half", "--m", "80", "--n", "80",
         "--moduli-source", "grid", "--grid", "201"],
        ["modulus", "--function", "smooth", "--grid", "401", "--delta", "0.1"],
        ["modulus", "--function", "holder_half", "--grid", "301", "--delta", "0.2"],
        ["weighted", "--function", "rho_growth", "--m", "40", "--n", "40"],
    ],
}

WHY = {
    "grid_sweep": "the paper's convergence experiment: weight rows, f on the "
                  "node grid and the WX @ F @ WY.T contraction; no moduli or Taylor",
    "point_queries": "2064 single points at degrees 10..2000 and rates up to 1e4: "
                     "one anchor per row and a dense node table per point",
    "order_r": "order-r checks: the distance-power sup and Taylor derivative "
               "tables dominate; weight rows are a small share",
    "moduli_checks": "grid moduli of continuity and the weighted checkers; "
                     "the operator is a small share",
}


def task_id(argv):
    return " ".join(argv)


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


class CliTask:
    """One ``poslinops`` command run in-process, writing a CSV to workdir."""

    def __init__(self, argv, ref, index):
        self.argv = list(argv)
        self.name = task_id(argv)
        self.ref = ref
        self.index = index

    def run(self, workdir):
        out = os.path.join(workdir, f"task{self.index}.csv")
        return poslinops.cli.main(self.argv + ["--out", out]), out

    def check(self, result):
        rc, out = result
        return check.check_cli_output(rc, out, self.ref)


class BernsteinGridTask:
    """apply_on_grid with the Bernstein x Bernstein family on [0,1]^2."""

    name = "apply_on_grid bernstein_bernstein smooth m=n=1000 G=201"
    m = n = 1000
    grid = 201

    def __init__(self):
        self.params = poslinops.StancuParams(1.0, 2.0, 0.5, 1.5)
        self.xs = np.linspace(0.0, 1.0, self.grid)

    def run(self, workdir):
        f = poslinops.corpus_lookup("smooth").function
        return poslinops.apply_on_grid(
            f, self.params, self.m, self.n, self.xs, self.xs,
            family=poslinops.KernelFamily.BERNSTEIN_BERNSTEIN)

    def check(self, L):
        if L.shape != (self.grid, self.grid):
            return f"shape {L.shape}"
        for i in range(0, self.grid, 20):
            for j in range(0, self.grid, 20):
                want = check.smooth_oracle(self.params, self.m, self.n,
                                           self.xs[i], self.xs[j], "bernstein")
                if not check.close(L[i, j], want, check.ORACLE_RTOL,
                                   check.ORACLE_ATOL):
                    return f"L[{i},{j}] = {L[i, j]!r}, closed form {want!r}"
        return None


# point_queries: the composition is fixed and the seed jitters each point
# within its stratum, so latency percentiles compare across seeds.
DEGREES = (10, 64, 65, 200, 1000, 2000)
RATE_DECADES = (-2, -1, 0, 1, 2, 3)  # n*y in [1e-2, 1e4]
POINT_FUNCTIONS = ("smooth", "linear", "quad", "holder_half")
RTH_MAX_DEGREE = 200
RTH_ORDER = 2


class PointTask:
    """apply, moments_closed_form and (polynomials, m <= 200) apply_rth at a point."""

    def __init__(self, fname, params, m, n, x, y):
        self.fname, self.params, self.m, self.n = fname, params, m, n
        self.x, self.y = x, y
        self.rth = fname in ("linear", "quad") and m <= RTH_MAX_DEGREE
        self.name = f"point {fname} m={m} n={n} x={x!r} y={y!r} {params}"

    def run(self, workdir):
        entry = poslinops.corpus_lookup(self.fname)
        p = poslinops.Point2D(self.x, self.y)
        value = poslinops.apply(entry.function, self.params, self.m, self.n, p)
        mom = poslinops.moments_closed_form(self.params, self.m, self.n, p)
        rth = None
        if self.rth:
            rth = poslinops.apply_rth(entry.derivative_provider, self.params,
                                      self.m, self.n, RTH_ORDER, p)
        return value, mom, rth

    def check(self, result):
        value, mom, rth = result
        rtol, atol = check.ORACLE_RTOL, check.ORACLE_ATOL
        t, tau, sq = check.moment_oracle(self.params, self.m, self.n, self.x, self.y)
        for label, got, want in (("one", mom.one, 1.0), ("t", mom.t, t),
                                 ("tau", mom.tau, tau),
                                 ("t2_plus_tau2", mom.t2_plus_tau2, sq)):
            if not check.close(got, want, rtol, atol):
                return f"moment {label} = {got!r}, closed form {want!r}"
        want = check.point_oracle(self.fname, self.params, self.m, self.n,
                                  self.x, self.y)
        if not check.close(value, want, rtol, atol):
            return f"apply = {value!r}, closed form {want!r}"
        if self.rth:
            # degree <= r polynomials are reproduced by the order-r operator
            exact = check.POLYNOMIALS[self.fname](self.x, self.y)
            if not check.close(rth, exact, rtol, atol):
                return f"apply_rth = {rth!r}, f(p) = {exact!r}"
        return None


def _params(rng):
    b1, b2 = 3.0 * rng.random(2)
    if rng.random() < 0.25:  # alpha = beta
        return poslinops.StancuParams(b1, b1, b2, b2)
    return poslinops.StancuParams(b1 * rng.random(), b1, b2 * rng.random(), b2)


def point_tasks(seed, per_cell=56, per_degree_y0=8):
    """Stratified point queries: per_cell points per (degree m, rate decade).

    In each cell the rates n*y are stratified over the decade and the
    functions take the strata in turn, so the costliest points are the same
    kind for every seed; eight points per cell sit on the edges x = 0 and
    x = 1, and per_degree_y0 more points per degree sit on y = 0.
    """
    rng = np.random.default_rng(seed)
    k = len(POINT_FUNCTIONS)
    tasks = []
    for m in DEGREES:
        for d in RATE_DECADES:
            rates = 10.0 ** (d + (np.arange(per_cell) + rng.random(per_cell)) / per_cell)
            edges = {int(i): float(j % 2) for j, i in
                     enumerate(rng.permutation(per_cell)[: 2 * k])}
            for j, rate in enumerate(rates):
                n = int(rng.choice(DEGREES))
                x = edges.get(j, float(rng.random()))
                tasks.append(PointTask(POINT_FUNCTIONS[j % k], _params(rng), m, n, x,
                                       float(rate / n)))
        for j in range(per_degree_y0):
            n = int(rng.choice(DEGREES))
            tasks.append(PointTask(POINT_FUNCTIONS[j % k], _params(rng), m, n,
                                   float(rng.random()), 0.0))
    rng.shuffle(tasks)
    return tasks


def build_tasks(workload, seed):
    """The workload's task list.

    The seed draws the point queries.  The batch workloads are the fixed
    command lists above, run in order, so their outputs can be checked
    against recorded references; the seed does not change them.
    """
    if workload == "point_queries":
        return point_tasks(seed)
    ref = load_reference()
    tasks = [CliTask(argv, ref[task_id(argv)], i)
             for i, argv in enumerate(CLI_TASKS[workload])]
    if workload == "grid_sweep":
        tasks.append(BernsteinGridTask())
    return tasks
