"""hsiseg benchmark: one seeded synthetic workload per process.

    python3 hsibench/run.py --workload scene --seed 3 --seconds 60 --trace 0

Runs tri-spectral generation, training, ensemble inference and voting on a
scene made by ``synth_scene`` from ``--seed``, checks every output against
computations made apart from the program, and prints one JSON object as the
last line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run is traced and the metrics are the per-layer ones, and
the spans and counts go to ``hsibench/out/trace-<workload>-<seed>.json``.
See hsibench/README.md for the workloads and what each metric should move.

The program is imported from ``src/`` next to this directory; without it the
run exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

if not os.path.isfile(os.path.join(SRC, "hsiseg", "__init__.py")):
    sys.exit(f"hsibench: no hsiseg sources under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from hsiseg import errors, pipeline, trispec  # noqa: E402
from hsiseg.model import BackboneConfig, DualContextNet  # noqa: E402
from hsiseg.synth import synth_scene  # noqa: E402

PROGRAM_ERRORS = (errors.FormatError, errors.DataError, errors.ConfigError,
                  errors.ContractError, errors.GradCheckError)

# The desk net of acceptance criterion 8; only the area count Z varies.
WIDTHS, CONVS, CHANNELS, ITERATIONS, HEADS, NET_SEED = (16, 32, 64, 64), (1, 1, 2, 2), 32, 3, 2, 1
TRAIN = dict(lr=0.001, momentum=0.95, weight_decay=0.0001,
             head_lr_multiplier=10.0, seed=1, val_fraction=0.0)
SETUP_PROBES_PER_ROUND = 2

E2E_UNITS = {
    "setup_s": "s",
    "generate_images_per_s": "images/s",
    "train_images_per_s": "images/s",
    "infer_images_per_s": "images/s",
    "vote_maps_per_s": "maps/s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "trispec.group_s": "s", "trispec.stretch_s": "s",
    "model.backbone.fwd_s": "s", "model.backbone.bwd_s": "s",
    "model.heads.fwd_s": "s", "model.heads.bwd_s": "s",
    "model.loss.fwd_s": "s", "model.loss.bwd_s": "s", "model.loss.rows": "count",
    "cluster.fwd_s": "s", "cluster.affinity_entries": "count", "cluster.window_fill": "ratio",
    "dcm.regional.fwd_s": "s", "dcm.regional.bwd_s": "s",
    "dcm.global.fwd_s": "s", "dcm.global.bwd_s": "s", "dcm.encoder_calls": "count",
    "nn.attention_calls": "count", "nn.head_calls": "count",
    "autodiff.tape_nodes": "count", "autodiff.sgd_step_s": "s",
    "autodiff.backward_s": "s", "autodiff.foreign_dtype_nodes": "count",
    "pipeline.predict_s": "s", "pipeline.hard_vote_s": "s", "pipeline.soft_vote_s": "s",
    "pipeline.evaluate_s": "s", "pipeline.maps_held_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # scene height and width
    bands: int
    classes: int
    labels_per_class: int
    groups: int  # G; the set holds G(G-1)(G-2)/6 images
    areas: int  # Z
    epochs: int  # of one train() call
    batch: int
    round_s: float  # length of one round of train, generate, infer and vote
    shares: tuple  # of a round for train, generate, infer, vote
    train_images: int = 0  # train on the first n images; 0 = the whole set
    loss_must_fall: bool = True


WORKLOADS = {
    # Pavia-like: 128x128 maps put the cost in large-array kernels and O(N*Z) clustering
    "scene": Workload("scene", 128, 20, 9, 100, 5, 64, epochs=1, batch=1, round_s=4.5,
                      shares=(0.3, 0.05, 0.5, 0.1), train_images=5),
    # Indian-Pines-shaped: 455 images, forward only with an untrained net, then voting;
    # its training is the desk net on 32x32 maps, where per-op overhead dominates
    "ensemble": Workload("ensemble", 32, 195, 16, 20, 15, 16, epochs=1, batch=4, round_s=8.0,
                         shares=(0.15, 0.06, 0.65, 0.06), train_images=32),
}


class ClockedNet(DualContextNet):
    """The workload's net, stamping the time each ``zero_grad`` call starts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stamps = []

    def zero_grad(self):
        self.stamps.append(time.perf_counter())
        super().zero_grad()


def build_net(wl: Workload, cls=DualContextNet):
    return cls(num_classes=wl.classes,
               backbone=BackboneConfig(widths=WIDTHS, convs_per_stage=CONVS),
               channels=CHANNELS, num_areas=wl.areas, iterations=ITERATIONS,
               heads=HEADS, seed=NET_SEED)


def warm_up(wl: Workload, net):
    pipeline.predict_image(net, np.full((3, wl.size, wl.size), 128, np.uint8))


def setup_probe(wl: Workload):
    """Child side of ``measure_setup``: construct, warm up, report ready."""
    warm_up(wl, build_net(wl))
    print("ready", flush=True)


def measure_setup(wl: Workload):
    """Seconds from process launch until a fresh process has imported the
    program, built the workload's net and made one warm-up prediction."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, os.path.abspath(__file__), "--setup-probe",
                           "--workload", wl.name], stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        took = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe exited with {code}")
    return took


class Ledger:
    """Operations attempted and failed; a failed operation yields None."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except PROGRAM_ERRORS as exc:
            self.failed += 1
            self.errors.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return None


def interleave(budget, round_s, phases, tracer):
    """Rounds of every phase in turn until one more round would pass
    ``budget`` seconds. In each round a phase runs its op whole until the op
    would pass its share of ``round_s``, and at least once. An op returns the
    seconds of its program calls, or None if one failed. Spreading every
    phase over the whole window keeps a slow stretch of a shared machine from
    landing on one phase only. Returns {phase: [seconds of each op]}."""
    times = {name: [] for name, _, _ in phases}
    spent = 0.0
    while True:
        start = time.perf_counter()
        for name, share, op in phases:
            used, done = 0.0, times[name]
            while True:
                began = time.perf_counter()
                with _span(tracer, name):
                    seconds = op()
                used += time.perf_counter() - began
                if seconds is not None:
                    done.append(seconds)
                if used + (statistics.median(done) if done else 0.0) > share * round_s:
                    break
        took = time.perf_counter() - start
        spent += took
        if spent + took > budget:
            return times


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class _Abort(Exception):
    """A phase produced nothing to measure or check."""


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def slow_decile(seconds):
    """The 90th percentile of op times.

    On a shared machine op times fall in two modes: a contended one, where
    most of the time is spent, and stretches up to 1.8x faster whose share
    of a run varies from run to run. The median moves with that share, and
    the upper quartile does once fast stretches hold three quarters of a
    run; the 90th percentile stays in the contended mode unless a run is
    nine tenths fast."""
    return float(np.percentile(seconds, 90))


def iteration_seconds(stamps, end, n_train, batch, epochs):
    """Seconds per image of each iteration of one ``train()`` call.

    ``train`` calls ``model.zero_grad`` once as each iteration starts, which
    the benchmark's net stamps."""
    sizes = ([batch] * (n_train // batch) + [n_train % batch] * bool(n_train % batch)) * epochs
    if len(stamps) != len(sizes):
        raise _Abort(f"train() made {len(stamps)} zero_grad calls for {len(sizes)} iterations")
    bounds = list(stamps) + [end]
    return [(bounds[i + 1] - bounds[i]) / b for i, b in enumerate(sizes)]


def run(wl: Workload, seed, seconds, traced, setup_probes=SETUP_PROBES_PER_ROUND):
    """One workload run; returns (result dict, failure messages)."""
    cube, truth, labels = synth_scene(seed, wl.size, wl.size, wl.bands, wl.classes,
                                      labels_per_class=wl.labels_per_class)
    net = build_net(wl, ClockedNet)
    infer_net = build_net(wl)  # untrained, so every inference op does the same work
    warm_up(wl, net)
    ledger = Ledger()
    problems = []
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.instrument(tracer, [net, infer_net])

    try:
        first = ledger.call(trispec.generate_set, cube, wl.groups)
        if first is None:
            raise _Abort("generate_set failed")
        m = len(first.images)
        n_train = wl.train_images or m
        train_set = trispec.TriSpectralSet(first.images[:n_train], first.manifest[:n_train],
                                           first.degenerate[:n_train])
        cfg = pipeline.TrainConfig(epochs=wl.epochs, batch=wl.batch, **TRAIN)
        state = {"tri": first, "held": None, "class_maps": None, "voted": None}
        loss_rows, train_seconds_per_image, fused, setup_times = [], [], [], []

        def setup():
            start = time.perf_counter()
            setup_times.extend(measure_setup(wl) for _ in range(setup_probes))
            return time.perf_counter() - start

        def train_op():
            net.stamps.clear()
            if tracer is not None:
                tracer.capturing = True
            result, took = _timed(lambda: ledger.call(pipeline.train, train_set, labels,
                                                      net, cfg))
            end = time.perf_counter()
            if tracer is not None:
                tracer.capturing = False
            if result is None:
                return None
            loss_rows.extend(result.train_rows)
            train_seconds_per_image.extend(
                iteration_seconds(net.stamps, end, n_train, wl.batch, wl.epochs))
            return took

        def generate():
            tri, took = _timed(lambda: ledger.call(trispec.generate_set, cube, wl.groups))
            if tri is None:
                return None
            state["tri"] = tri
            return took

        def infer():
            state["held"] = state["class_maps"] = None
            out, took = _timed(lambda: ledger.call(pipeline.run_inference_set, infer_net,
                                                   state["tri"], truth=truth))
            if out is None:
                return None
            state["held"] = out
            state["class_maps"] = [pipeline.classify(p) for p in out[0]]
            fused.append((out[1].labels, out[2].labels))
            return took

        def vote():
            if state["held"] is None:
                return None
            start = time.perf_counter()
            h = ledger.call(pipeline.hard_vote, state["class_maps"])
            s = ledger.call(pipeline.soft_vote, state["held"][0])
            took = time.perf_counter() - start
            state["voted"] = (h, s)
            return took if h is not None and s is not None else None

        phases = [("setup", 0.0, setup), ("train", wl.shares[0], train_op),
                  ("generate", wl.shares[1], generate), ("infer", wl.shares[2], infer),
                  ("vote", wl.shares[3], vote)]
        times = interleave(seconds, wl.round_s, phases, tracer)
        if not train_seconds_per_image or state["voted"] is None or None in state["voted"]:
            raise _Abort("the last train, inference or vote failed")
        tri = state["tri"]
        probs, hard, soft, rep = state["held"]
        class_maps = state["class_maps"]

        layers = None
        if tracer is not None:
            tracer.restore()
            layers = tracing.layer_metrics(tracer, tracing.probe(tracer, tri.images[0], labels))
    finally:
        if tracer is not None:
            tracer.restore()

    # correctness, outside every timed region
    problems += checks.capacity(tri, wl.groups)
    problems += checks.stretch_sample(cube, wl.groups, tri)
    if not all(np.array_equal(a, b) for a, b in zip(first.images, tri.images)):
        problems.append("repeated generate_set calls disagree")
    per_epoch = math.ceil(n_train / cfg.batch)
    problems += checks.losses(loss_rows, per_epoch, wl.loss_must_fall)
    problems += checks.probabilities(probs)
    problems += checks.votes(probs, class_maps, hard, soft)
    problems += checks.votes(probs, class_maps, *state["voted"])
    problems += checks.report(rep, hard, soft, class_maps, truth)
    if any(not (np.array_equal(h, fused[0][0]) and np.array_equal(s, fused[0][1]))
           for h, s in fused):
        problems.append("repeated run_inference_set calls disagree")

    rates = {
        "setup_s": statistics.median(setup_times),
        "generate_images_per_s": m / slow_decile(times["generate"]),
        "train_images_per_s": 1.0 / slow_decile(train_seconds_per_image),
        "infer_images_per_s": m / slow_decile(times["infer"]),
        "vote_maps_per_s": m / slow_decile(times["vote"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"ops-{wl.name}-{seed}-{int(traced)}.json"), "w") as fh:
        json.dump({"train_iterations": train_seconds_per_image, **times}, fh)
    if traced:
        tracer.write(os.path.join(OUT, f"trace-{wl.name}-{seed}.json"),
                     {"workload": wl.name, "seed": seed, "traced_rates": rates,
                      "metrics": layers, "problems": problems + ledger.errors})
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": rates[k], "unit": u} for k, u in E2E_UNITS.items()}
    result_line = {"correct": not problems, "attempted": ledger.attempted,
                   "failed": ledger.failed, "metrics": metrics}
    return result_line, problems + ledger.errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(wl)
        return 0
    try:
        line, messages = run(wl, args.seed, args.seconds, bool(args.trace))
    except _Abort as exc:
        print(f"hsibench: {exc}", file=sys.stderr)
        return 1
    for msg in messages:
        print(f"hsibench: {msg}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
