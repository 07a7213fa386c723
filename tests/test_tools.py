"""The scripts under ``tools/`` still import and run against this tree's ``src/``.

They sit outside the test paths, so a renamed function they import would
otherwise break them without failing any test.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_criterion8_sweep_runs_an_empty_range(capsys):
    spec = importlib.util.spec_from_file_location(
        "criterion8_sweep", ROOT / "tools" / "criterion8_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    sweep.main(["--first", "0", "--count", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("seed  soft_oa")
    assert lines[-1] == "0 of 0 seeds below soft-voted OA 0.95: []"
