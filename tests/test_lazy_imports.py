"""Import cost: `import gfano` loads no process-pool machinery."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
POOL_MODULES = ("concurrent.futures", "multiprocessing")


def test_import_loads_no_pool_modules():
    # A fresh interpreter: the test session itself may have imported them.
    probe = ("import json, sys, gfano, gfano.cli; "
             "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = [m for m in json.loads(result.stdout) if m.startswith(POOL_MODULES)]
    assert not loaded, f"import gfano loads {loaded}"
