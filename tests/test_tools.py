"""The scripts under ``tools/`` still import and run against this tree's ``src/``.

They sit outside the test paths, so a renamed function they import would
otherwise break them without failing any test.
"""

import importlib.util
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_criterion8_sweep_runs_an_empty_range(capsys):
    sweep = _load("criterion8_sweep")
    sweep.main(["--first", "0", "--count", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("seed  soft_oa")
    assert lines[-1] == "0 of 0 seeds below soft-voted OA 0.95: []"


def _ab_one_tree_against_itself(tmp_path, capsys, *options):
    skip = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "hsibench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    ab = _load("ab_infer")
    ab.main([str(tmp_path), str(tmp_path), *options, "--pairs", "1", "--seconds", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"pair 1: A [\d.]+ images/s [\d.]+ MB  B [\d.]+ images/s [\d.]+ MB"
                        r"  \(A first\)", lines[0])
    assert lines[1] in ("B faster in 0 of 1 pairs", "B faster in 1 of 1 pairs")
    for side, line in zip("AB", lines[2:4]):
        assert re.fullmatch(side + r": median [\d.]+ images/s, IQR 0\.0 \([\d.]+-[\d.]+\); "
                            r"peak RSS median [\d.]+ MB, IQR 0\.0", line)


def test_ab_infer_runs_one_tree_against_itself(tmp_path, capsys):
    _ab_one_tree_against_itself(tmp_path, capsys, "--workload", "scene")


def test_ab_infer_times_the_training_schedule(tmp_path, capsys):
    _ab_one_tree_against_itself(tmp_path, capsys, "--workload", "ensemble", "--op", "train")


def test_fingerprint_prints_the_same_lines_twice(capsys):
    fingerprint = _load("fingerprint")
    runs = []
    for _ in range(2):
        fingerprint.main()
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    assert len(runs[0]) == 7
    assert re.fullmatch(r"net B=4 32x32 Z=16 loss [\d.e-]+ \(float32\)", runs[0][0])
    assert re.fullmatch(r"generate_set G=15 195 bands 32x32: 455 images [0-9a-f]{64}",
                        runs[0][-1])
