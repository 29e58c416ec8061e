"""Every demo script runs to completion against the package sources and
prints exactly what it printed when its digest was recorded."""

import hashlib
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: sha256 of each demo's stdout, the same on Python 3.10, 3.11 and 3.12
STDOUT_SHA256 = {
    "01_truncated_series.py": "0e2ddb2b1aac2813befa604927c97cabefc7fe219a6559924759180862a1b9bc",
    "02_eta_products_and_j.py": "be23117214cad03a5e442b89fa495625f77e3300d73b9620765611513a0f9154",
    "03_quantum_periods.py": "3e246a5de60442f67ef32d94bb92a0cbf71bb0050e2cae83d01d5bc848a4a62e",
    "04_moonshine_identities.py": "d5b4b7893834dc85f2319761f3c546bd2fda5d1c1793fcc0a3131e4393a38123",
    "05_mathieu_mason.py": "10a3bae67f5440e7018862cdf58310737cefc0886d848801319b0d10e104bad3",
}


@lru_cache(maxsize=None)
def run(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script):
    result = run(script)
    assert result.returncode == 0, result.stderr.decode()


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_stdout_matches_digest(script):
    assert hashlib.sha256(run(script).stdout).hexdigest() == STDOUT_SHA256[script.name]
