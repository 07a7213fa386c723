"""The scripts under ``tools/`` still run against this tree's ``src/`` and ``BENCHMARK.json``.

They sit outside the test paths, so a renamed function they import would
otherwise break them without failing any test.
"""

import importlib.util
import json
import re
import shutil
import statistics
import sys
from pathlib import Path

import pytest

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


# A benchmark stand-in: every end-to-end metric reads scale * (100 + seed). With
# ``flaky`` set, seed 2 exits 1, seed 3 prints an incorrect result and seed 5
# exits 0 without a result line.
STUB_RUN = """import argparse, json, sys
ap = argparse.ArgumentParser()
for option in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(option)
seed = int(ap.parse_args().seed)
if {flaky} and seed == 2:
    sys.exit("hsibench: stub failure")
if {flaky} and seed == 5:
    sys.exit(print("done"))
metrics = {{name: {{"value": {scale} * (100 + seed), "unit": ""}} for name in {names!r}}}
print(json.dumps({{"correct": not ({flaky} and seed == 3), "attempted": 1, "failed": 0,
                  "metrics": metrics}}))
"""


def _stub_tree(path, scale, flaky):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(ROOT / "src", path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", path)
    (path / "hsibench").mkdir()
    names = [m["name"] for m in spec["end_to_end"]]
    (path / "hsibench" / "run.py").write_text(STUB_RUN.format(flaky=flaky, scale=scale,
                                                              names=names))
    return str(path)


def test_ab_pairs_two_trees_and_judges_each_metric_against_its_bound(tmp_path, capsys):
    parent = _stub_tree(tmp_path / "parent", 1.0, flaky=False)
    change = _stub_tree(tmp_path / "change", 1.1, flaky=True)
    out = tmp_path / "bench.json"
    ab = _load("ab")
    assert ab.main([parent, change, "--pairs", "5", "--seconds", "0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())

    runs = report["runs"]
    assert [(r["seed"], r["workload"], r["side"]) for r in runs[:8]] == [
        (1, "scene", "parent"), (1, "scene", "change"),
        (1, "ensemble", "parent"), (1, "ensemble", "change"),
        (2, "scene", "change"), (2, "scene", "parent"),
        (2, "ensemble", "change"), (2, "ensemble", "parent")]
    assert len(runs) == 20
    failed = [r for r in runs if "result" not in r]
    assert [(r["seed"], r["side"], r["exit"], r["stderr"]) for r in failed] == [
        (2, "change", 1, "hsibench: stub failure")] * 2 + [(5, "change", 0, "")] * 2
    incorrect = [r for r in runs if "result" in r and not r["result"]["correct"]]
    assert [(r["seed"], r["side"]) for r in incorrect] == [(3, "change")] * 2

    parent_values, change_values = [101.0, 104.0], [1.1 * 101, 1.1 * 104]
    for workload in ("scene", "ensemble"):
        summary = report["workloads"][workload]
        assert summary["pairs"] == 2  # pairs 1 and 4
        metrics = summary["metrics"]
        assert len(metrics) == 6
        for values, side in ((parent_values, "parent"), (change_values, "change")):
            q1, _, q3 = statistics.quantiles(values, n=4)
            assert metrics["train_images_per_s"][side] == pytest.approx(
                {"median": statistics.median(values), "q1": q1, "q3": q3})
        higher, lower = metrics["train_images_per_s"], metrics["peak_rss_mb"]
        assert higher["change_of_median"] == pytest.approx(0.1)
        assert (higher["wins"], higher["bound"], higher["worse_beyond_bound"]) == (2, 0.25, False)
        assert lower["change_of_median"] == pytest.approx(0.1)
        assert (lower["wins"], lower["bound"], lower["worse_beyond_bound"]) == (0, 0.05, True)
        assert metrics["setup_s"]["worse_beyond_bound"] is False  # +10 % is inside 25 %

    assert "--seed" in report["command"] and report["machine"]["cores"] >= 1
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    assert report["src_lines"] == {"parent": src_lines, "change": src_lines}
    assert report["fingerprint_equal"] is True
    assert report["fingerprint_errors"] == {"parent": None, "change": None}
    assert capsys.readouterr().out.splitlines()[:2] == ["pair 1 scene parent: correct True",
                                                       "pair 1 scene change: correct True"]


def test_ab_records_a_failing_fingerprint_and_a_hung_run(tmp_path):
    parent = _stub_tree(tmp_path / "parent", 1.0, flaky=False)
    change = _stub_tree(tmp_path / "change", 1.0, flaky=False)
    (Path(parent) / "src" / "hsiseg" / "__init__.py").write_text("raise ImportError('old API')\n")
    out = tmp_path / "bench.json"
    ab = _load("ab")
    assert ab.main([parent, change, "--pairs", "1", "--seconds", "0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["fingerprint_equal"] is False
    assert report["fingerprint_errors"] == {"parent": "ImportError: old API", "change": None}
    assert report["workloads"]["scene"]["pairs"] == 1

    assert ab.run([sys.executable, "-c", "import time; time.sleep(5)"], 0.2) == (
        "timeout", "", "no exit after 0.2 s")


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
