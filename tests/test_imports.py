"""Runtime dependencies: importing the package loads only what it needs."""

import os
import subprocess
import sys

import pytest

import poslinops


@pytest.mark.parametrize("package", ["scipy", "mpmath"])
def test_import_loads_no_scipy(package):
    src = os.path.dirname(os.path.dirname(os.path.abspath(poslinops.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import poslinops, sys; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert proc.stdout.strip() == "[]"
