"""Command-line entry point.

Subcommands: synth, generate, areas, train, predict, vote, eval, gradcheck.
Every stage reads and writes the package's binary formats so the whole
pipeline can run as independent processes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import pipeline, trispec
from .cluster import run_clustering
from .config import Config, describe_defaults, dump_config, load_config
from .errors import ConfigError, FormatError, GradCheckError
from .formats import (
    LabelMap,
    labels_to_image,
    load_class_map,
    load_cube,
    load_labels,
    load_probmap,
    read_ppm,
    save_class_map,
    save_cube,
    save_labels,
    write_atomic,
    write_class_ppm,
    write_ppm,
)
from .gradcheck import full_report
from .model import STRIDE, BackboneConfig, DualContextNet
from .synth import synth_scene


def model_from_config(cfg: Config, num_classes, seed=0) -> DualContextNet:
    args = cfg.arguments()
    return DualContextNet(num_classes, backbone=BackboneConfig(**args[BackboneConfig]),
                          seed=seed, **args[DualContextNet])


def _cmd_synth(args):
    cube, truth, train = synth_scene(args.seed, args.height, args.width,
                                     args.bands, args.classes,
                                     labels_per_class=args.labels_per_class)
    os.makedirs(args.out, exist_ok=True)
    save_cube(cube, os.path.join(args.out, "scene.hsc"))
    save_labels(truth, os.path.join(args.out, "truth.lbl"))
    save_labels(train, os.path.join(args.out, "train.lbl"))
    print(f"wrote synthetic scene ({args.height}x{args.width}x{args.bands}, "
          f"{args.classes} classes) to {args.out}")
    return 0


def _cmd_generate(args):
    cube = load_cube(args.cube)
    ts = trispec.generate_set(cube, args.groups, out_dir=args.out,
                              wavelength_descending=args.wavelength_descending)
    print(f"wrote {ts.capacity} tri-spectral images to {args.out}")
    return 0


def _cmd_train(args):
    cfg = load_config(args.config) if args.config else Config()
    tri_set = trispec.load_set(args.set)
    labels = load_labels(args.labels)
    num_classes = cfg.get("model.classes") or labels.num_classes
    settings = cfg.arguments()[pipeline.TrainConfig]
    if args.seed is not None:
        settings["seed"] = args.seed
    tc = pipeline.TrainConfig(**settings)
    model = model_from_config(cfg, num_classes, seed=tc.seed)
    result = pipeline.train(tri_set, labels, model, tc,
                            out_dir=os.path.dirname(os.path.abspath(args.out)))
    model.save(args.out)
    sidecar = {key: text for key, text in cfg.text.items() if not key.startswith("train.")}
    dump_config({**sidecar, "model.classes": str(num_classes)}, args.out + ".cfg")
    final_loss = result.train_rows[-1][2]
    print(f"trained {len(result.train_rows)} iterations, final loss {final_loss:.6f}; "
          f"checkpoint at {args.out}")
    return 0


def _load_model(ckpt_path):
    sidecar = ckpt_path + ".cfg"
    if not os.path.exists(sidecar):
        raise ConfigError(f"no sidecar config {sidecar} next to the checkpoint")
    cfg = load_config(sidecar)
    model = model_from_config(cfg, cfg.get("model.classes"))
    model.load(ckpt_path)
    return model, cfg


def _cmd_predict(args):
    model, _ = _load_model(args.ckpt)
    tri_set = trispec.load_set(args.set)
    truth = load_labels(args.truth) if args.truth else None
    pipeline.run_inference_set(model, tri_set, out_dir=args.out, truth=truth,
                               jobs=args.jobs)
    print(f"predicted {tri_set.capacity} images into {args.out}")
    return 0


def _cmd_vote(args):
    """Fuse the maps 0..M-1 that ``predict`` wrote, M being its report's image count."""
    with open(os.path.join(args.in_dir, "report.json")) as fh:
        report = json.load(fh)
    count = report.get("images") if isinstance(report, dict) else None
    if type(count) is not int:
        raise FormatError(f"report.json under {args.in_dir} holds no image count")
    name, load, vote = (("cls_{}.lbl", load_class_map, pipeline.hard_vote) if args.mode == "hard"
                        else ("prob_{}.prb", load_probmap, pipeline.soft_vote))
    fused = vote(load(os.path.join(args.in_dir, name.format(i))) for i in range(count))
    save_class_map(fused, args.out)
    write_class_ppm(fused, args.out + ".ppm")
    print(f"{args.mode} vote over {count} maps written to {args.out}")
    return 0


def _cmd_eval(args):
    pred = load_class_map(args.pred)
    truth = load_labels(args.truth)
    metrics = pipeline.evaluate(pred, truth)
    write_atomic(args.report, json.dumps(metrics.to_dict(), indent=2))
    kappa = "undefined" if math.isnan(metrics.kappa) else f"{metrics.kappa:.6f}"
    print(f"OA {metrics.oa:.6f}  AA {metrics.aa:.6f}  kappa {kappa}")
    return 0


def _cmd_areas(args):
    image = read_ppm(args.image)
    if args.checkpoint:
        model, cfg = _load_model(args.checkpoint)
        features = model.features(image).data
        scale = STRIDE
    else:
        cfg = Config()
        features = image[None].astype(np.float64) / 255.0
        scale = 1
    num_areas = args.areas if args.areas is not None else cfg.get("dcm.Z")
    iters = args.iters if args.iters is not None else cfg.get("dcm.T")
    assignment = run_clustering(features, num_areas, iters)
    grid = assignment.label_grid()[0]
    full = np.kron(grid, np.ones((scale, scale), dtype=grid.dtype))
    full = full[:image.shape[1], :image.shape[2]]

    os.makedirs(args.out, exist_ok=True)
    save_labels(LabelMap(full.astype(np.uint16) + 1),
                os.path.join(args.out, "areas.lbl"))
    boundary = np.zeros(full.shape, dtype=bool)
    boundary[:, 1:] |= full[:, 1:] != full[:, :-1]
    boundary[1:, :] |= full[1:, :] != full[:-1, :]
    overlay = image.copy()
    overlay[0][boundary] = 255
    overlay[1][boundary] = 0
    overlay[2][boundary] = 0
    write_ppm(overlay, os.path.join(args.out, "areas.ppm"))
    write_ppm(labels_to_image(full + 1), os.path.join(args.out, "areas_color.ppm"))
    print(f"{num_areas} areas after {iters} iterations written to {args.out}")
    return 0


def _cmd_gradcheck(args):
    rows = full_report(seed=args.seed)
    worst = max(err for _, err in rows)
    width = max(len(name) for name, _ in rows)
    for name, err in rows + [("worst", worst)]:
        print(f"{name:<{width}} {err:.3e}")
    return 0 if worst < 1e-4 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hsiseg",
        description="Hyperspectral segmentation via tri-spectral ensembles "
                    "with dual-context transformer voting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--bands", type=int, default=20)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--labels-per-class", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("generate", help="build the tri-spectral image set")
    p.add_argument("--cube", required=True)
    p.add_argument("--groups", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--wavelength-descending", action="store_true")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "train", help="train the segmentation network",
        epilog=describe_defaults(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--set", required=True, help="tri-spectral image directory")
    p.add_argument("--labels", required=True, help="LBL1 training labels")
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="run per-image inference over a set")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", help="optional LBL1 truth for a metrics report")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("vote", help="fuse per-image predictions")
    p.add_argument("--mode", choices=("hard", "soft"), required=True)
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_vote)

    p = sub.add_parser("eval", help="score a prediction against labeled truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("areas", help="export the homogeneous area map of an image")
    p.add_argument("--image", required=True, help="tri-spectral PPM")
    p.add_argument("--checkpoint", help="cluster on model features instead of raw pixels")
    p.add_argument("--areas", type=int, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_areas)

    p = sub.add_parser("gradcheck", help="finite-difference verification of all blocks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError, GradCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
