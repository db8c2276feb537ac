"""Every command starts by importing the package, so its start-up time
counts that import.  The test-only dependencies (sympy, mpmath, scipy and
hypothesis) must stay out of it."""

import os
import subprocess
import sys
from pathlib import Path

TEST_ONLY = ("sympy", "mpmath", "scipy", "hypothesis")


def test_importing_the_package_and_its_cli_loads_no_test_only_dependency():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = ("import sys, quadineq, quadineq.cli; "
             f"print(sorted(m for m in sys.modules if m.split('.')[0] in {TEST_ONLY!r}))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
