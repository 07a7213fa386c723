"""The benchmark harness still runs against this tree's ``src/``.

``hsibench/`` traces the program by patching and calling its functions
(``nn.attention_head``, ``ad.log_softmax``, ``ad.bilinear_upsample``, ...), so
a change to ``src/`` can break the benchmark without breaking any other
test. This runs ``hsibench/smoke.py`` (every workload at tiny sizes, traced
and untraced) on a copy of the tree, so that its trace output stays out of
the repository.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_passes(tmp_path):
    skip = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "hsibench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "hsibench/smoke.py"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
