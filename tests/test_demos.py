"""The demo scripts run from a checkout: each exits 0 and prints the report
whose SHA-256 is recorded below, so a change that moves a printed byte shows."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# measure_change.py was re-recorded when the Esscher study's standard errors
# came to be paired path by path: its two z values and the summary moved
STDOUT_SHA256 = {
    "convergence_rates.py": "ef83f4bf0ed6dc547f8c5754e743629f594ed9c77cc33d2d8924666ce88b9de1",
    "innovations_martingale.py": "7cc91ac8bbb671892763bda30cbeb5e4d57f370632128a28dda1e5a5b85fdff4",
    "measure_change.py": "b9a852529f540ce3699da849a3707628f1c704ff1c1f1b4261d747a6b8fa9e04",
    "quickstart_filtering.py": "cb696f7770e20f253a1347089e635df5d438c600fcda1b9edb0328bc220ab764",
}


def test_there_are_demos():
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert done.stdout.strip()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo.name]
