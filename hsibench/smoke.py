"""Smoke test of the benchmark harness at tiny sizes; runs in seconds.

    python3 hsibench/smoke.py

Runs every workload, untraced and traced, on shrunken scenes with short
schedules and no training-quality thresholds, then checks that each result
line has the shape BENCHMARK.json promises and that every correctness check
passed. Exits 0 on success.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import replace

import run

TINY = {
    "scene": dict(size=32, labels_per_class=20, areas=16, epochs=1, round_s=0.0,
                  loss_must_fall=False),
    "ensemble": dict(size=16, bands=30, labels_per_class=4, groups=6, train_images=4,
                     epochs=1, round_s=0.0, loss_must_fall=False),
}


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        print("smoke: BENCHMARK.json workloads differ from run.py")
        return 1
    bad = 0
    for name, tiny in TINY.items():
        wl = replace(run.WORKLOADS[name], **tiny)
        for traced in (0, 1):
            line, messages = run.run(wl, seed=0, seconds=0.0, traced=bool(traced),
                                     setup_probes=1)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            values = [v["value"] for v in line["metrics"].values()]
            ok = (line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
                  and got == wanted[traced]
                  and all(isinstance(v, (int, float)) and math.isfinite(v) for v in values))
            print(f"smoke: {name} trace={traced} {'ok' if ok else 'FAILED'}")
            for msg in messages:
                print(f"  {msg}")
            bad += not ok
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
