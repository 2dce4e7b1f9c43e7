"""Memory at huge degrees on coarse lattices, where each point's windows lie
far apart: ``band_blocks`` gives such an axis about one point per block, so a
sweep holds each point's own windows, not the columns between them.

The CLI runs go to a child process under an address-space limit and a
timeout, so a regression fails here instead of exhausting the machine.
"""

import json
import os
import resource
import subprocess
import sys
import tracemalloc

import pytest

import poslinops
from poslinops import StancuParams
from poslinops.bounds import sup_distance_power_operator
from poslinops.operators import blocked_bands, lattice

ADDRESS_SPACE = 2 * 2**30  # bytes; these runs peak near 0.2 GB of RSS
TIMEOUT = 60  # seconds; each run takes well under one


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("argv", [
    # each was 76.3 GiB (exit 2) and 3.81 GiB (killed) as one band of far windows
    "check-thm41 --function smooth --r 3 --m 100000 --n 100000 --grid 11 --M 100",
    "check-thm41 --function prod --m 5000 --n 100000 --grid 2 --gamma 1e-9",
    "converge --function smooth --A 4 --schedule 100000 --grid 41",
])
def test_a_huge_degree_cli_run_fits_in_two_gigabytes(argv, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(poslinops.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = "1"  # BLAS reserves address space per thread
    out = tmp_path / "run.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "poslinops.cli", *argv.split(), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=TIMEOUT,
        preexec_fn=limit_address_space)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.with_suffix(".json").read_text())["error"] is None


@pytest.mark.parametrize("A, G, p_exp", [(1.0, 11, 2.0), (4.0, 5, 3.5)])
def test_distance_power_sweep_holds_one_point_over_its_own_windows(A, G, p_exp):
    """At m = n = 10^5 every block holds one point, so the sweep's peak is a
    small multiple of one point's x window times its y window: 2 arrays of
    that shape, the sum of squared distances and its power."""
    bands = blocked_bands(StancuParams(), 10**5, 10**5, *lattice(A, G))
    for _, blocks, _ in bands:
        assert all(rows.stop - rows.start == 1 for rows, _, _ in blocks)
    wx, wy = (max(W.shape[1] for _, W, _ in blocks) for _, blocks, _ in bands)
    tracemalloc.start()
    try:
        value = sup_distance_power_operator(bands, p_exp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < value < 1.0
    assert peak <= 3 * wx * wy * 8  # the lattice's union band is 10^5 by 4 10^5
