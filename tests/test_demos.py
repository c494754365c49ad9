"""End-to-end smoke runs of the narrative demos."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["03_translation_convolution.py",
                                  "04_resolvent_kernels.py",
                                  "05_tauberian_lab.py",
                                  "06_harmonic_iteration.py"])
def test_demo_runs(demo):
    # a RuntimeWarning (overflow, invalid value) fails the demo, as in tier-1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(ROOT / "demos" / demo)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
