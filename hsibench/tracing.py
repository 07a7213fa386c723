"""Spans and counts for the traced run, taken from outside the program.

Every span is recorded around a call into one of hsiseg's public functions
or methods by wrapping that attribute for the length of the run; the
program's sources are never touched. Spans (name, start, end, parent) and
counts stay in memory and are written to a JSON file when the run ends.

Backward times cannot be taken from the training step itself, where one
``backward()`` covers the whole network. They come from probes: the inputs a
layer saw on the last training image are captured, the layer's public
callable is re-run on leaf copies of them, and ``backward()`` is timed from a
fixed random cotangent.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from hsiseg import autodiff as ad
from hsiseg import dcm, model, nn, pipeline, trispec

PROBE_REPEATS = 7
MIB = 1024.0 * 1024.0


class Tracer:
    """In-memory spans and counts; patches are undone by ``restore``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self.captured = {}
        self.capturing = False
        self._open = []
        self._undo = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def innermost(self):
        return self.spans[self._open[-1]][0] if self._open else None

    def patch(self, owner, attr, make):
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def timed(self, owner, attr, name, after=None):
        """Wrap ``owner.attr`` in a span; ``after(args, result)`` records counts."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    out = fn(*args, **kwargs)
                if after is not None:
                    after(args, out)
                return out

            return wrapper

        self.patch(owner, attr, make)

    def counted(self, owner, attr, key, amount=lambda args: 1):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[key] += amount(args)
                return fn(*args, **kwargs)

            return wrapper

        self.patch(owner, attr, make)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading spans back -------------------------------------------------

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self, name):
        """Span durations minus the time their direct children cover."""
        covered = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (n, start, end, _) in enumerate(self.spans) if n == name]

    def write(self, path, extra):
        doc = dict(extra)
        doc["spans"] = [{"name": n, "start": s, "end": e, "parent": p}
                        for n, s, e, p in self.spans]
        doc["counts"] = dict(self.counts)
        with open(path, "w") as fh:
            json.dump(doc, fh)


class _TimedCall:
    """Stands in for a model sub-block so calls to it open a span."""

    def __init__(self, tracer, name, inner):
        self._tracer, self._name, self._inner = tracer, name, inner

    def __call__(self, *args, **kwargs):
        with self._tracer.span(self._name):
            return self._inner(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def instrument(tracer: Tracer, nets):
    """Wrap every layer boundary the per-layer metrics read."""
    capture = tracer.captured

    def keep(key, value):
        if tracer.capturing:
            capture[key] = value

    # trispec
    tracer.timed(trispec, "group_and_aggregate", "trispec.group")
    tracer.timed(trispec, "linear_stretch", "trispec.stretch")

    # model
    def after_backbone(args, out):
        keep("backbone.x", args[1].data)
        keep("heads.stage3", out[0].data)

    def after_forward(args, out):
        keep("net", args[0])

    def after_loss(args, out):
        keep("loss.args", (args[1].data, args[2].data, args[3]))

    tracer.timed(model.Backbone, "forward", "model.backbone", after_backbone)
    tracer.timed(model.DualContextNet, "forward_from_tensor", "model.forward", after_forward)
    tracer.timed(model.DualContextNet, "loss", "model.loss", after_loss)

    def rows_in_loss(args):
        return args[0].shape[0] if tracer.innermost() == "model.loss" else 0

    tracer.counted(ad, "log_softmax", "loss_rows", rows_in_loss)

    # cluster
    def after_cluster(args, areas):
        entries = areas.affinity.size
        tracer.samples["affinity_entries"].append(entries)
        tracer.samples["window_fill"].append(
            int(np.count_nonzero(areas.layout.window_mask)) / entries)

    tracer.timed(dcm, "run_clustering", "cluster", after_cluster)

    # dcm: the module's self time, with clustering, the positional conv and
    # the regional encoder as children, is its global branch
    def after_context(args, out):
        keep("heads.enriched", out[0].data)

    def after_regions(args, out):
        keep("regional.args", (args[0], args[1].data, args[2].data, args[3]))
        keep("global.regional", out.data)

    tracer.timed(dcm.DualContextModule, "__call__", "dcm", after_context)
    tracer.timed(dcm.DualContextModule, "encode_regions", "dcm.regional", after_regions)
    tracer.counted(nn.TransformerEncoderLayer, "__call__", "encoder_calls")
    tracer.counted(nn.MultiHeadAttention, "__call__", "attention_calls")
    tracer.counted(nn, "attention_head", "head_calls")
    for net in nets:
        tracer.patch(net, "reduce", lambda inner: _TimedCall(tracer, "model.reduce", inner))
        tracer.patch(net.context, "pos_map",
                     lambda inner: _TimedCall(tracer, "dcm.pos_map", inner))

    # autodiff
    tracer.timed(ad.Tensor, "backward", "autodiff.backward")
    tracer.timed(ad.SGD, "step", "autodiff.sgd_step")

    # pipeline
    def held(key, nbytes):
        def after(args, out):
            tracer.samples[key].append(sum(nbytes(m) for m in args[0]))
        return after

    tracer.timed(pipeline, "predict_image", "pipeline.predict")
    tracer.timed(pipeline, "hard_vote", "pipeline.hard_vote",
                 held("hard_bytes", lambda m: m.labels.nbytes))
    tracer.timed(pipeline, "soft_vote", "pipeline.soft_vote",
                 held("soft_bytes", lambda m: m.values.nbytes))
    tracer.timed(pipeline, "evaluate", "pipeline.evaluate")


# -- backward probes -----------------------------------------------------------


def _leaf(array):
    return ad.Tensor(array, requires_grad=True)


def _time_backward(build, params):
    """Median seconds of ``backward()`` over outputs of ``build()`` against
    fixed random cotangents."""
    times = []
    cotangents = None
    for _ in range(PROBE_REPEATS):
        outs = build()
        if cotangents is None:
            rng = np.random.default_rng(0)
            cotangents = [ad.Tensor(rng.standard_normal(o.shape).astype(o.dtype)) for o in outs]
        scalar = None
        for o, c in zip(outs, cotangents):
            term = (o * c).sum()
            scalar = term if scalar is None else scalar + term
        start = time.perf_counter()
        scalar.backward()
        times.append(time.perf_counter() - start)
        for p in params:
            p.grad = None
    return statistics.median(times)


def _walk_tape(out):
    """Op nodes reachable from ``out`` and how many differ from its dtype."""
    seen, stack, nodes = set(), [out], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._parents:
            nodes.append(node)
        stack.extend(node._parents)
    return nodes


def probe(tracer: Tracer, image, labels):
    """Backward times of each layer and the tape of one training image."""
    cap = tracer.captured
    net = cap["net"]
    ctx = net.context
    params = net.parameters()
    out = {}

    x = cap["backbone.x"]
    out["model.backbone.bwd_s"] = _time_backward(
        lambda: net.backbone.forward(_leaf(x)), params)

    enriched, stage3 = cap["heads.enriched"], cap["heads.stage3"]
    out["model.heads.bwd_s"] = _time_backward(
        lambda: (ad.bilinear_upsample(net.head(_leaf(enriched)), 4),
                 ad.bilinear_upsample(net.aux_head(_leaf(stage3)), 4)), params)

    main, aux, lab = cap["loss.args"]
    out["model.loss.bwd_s"] = _time_backward(
        lambda: (net.loss(_leaf(main), _leaf(aux), lab),), params)

    module, tokens, pos, areas = cap["regional.args"]
    out["dcm.regional.bwd_s"] = _time_backward(
        lambda: (module.encode_regions(_leaf(tokens), _leaf(pos), areas),), params)

    regional = cap["global.regional"]

    def global_branch():
        reg = _leaf(regional)
        summaries, valid = ctx.build_descriptors(reg, areas)
        encoded = ctx.summary_encoder(summaries, pos=ctx.pos_seq(summaries), key_mask=valid)
        return (ctx.context_decoder(reg, encoded, key_mask=valid),)

    out["dcm.global.bwd_s"] = _time_backward(global_branch, params)

    nodes = _walk_tape(net.loss_on(image, labels))
    out["autodiff.tape_nodes"] = len(nodes)
    out["autodiff.foreign_dtype_nodes"] = sum(n.dtype != net.dtype for n in nodes)
    net.zero_grad()
    return out


def layer_metrics(tracer: Tracer, probes):
    """Every per-layer metric, from the spans, counts and probes of one run."""
    med = statistics.median
    images = len(tracer.durations("model.forward"))
    contexts = len(tracer.durations("dcm"))
    losses = len(tracer.durations("model.loss"))
    m = {
        "trispec.group_s": med(tracer.durations("trispec.group")),
        "trispec.stretch_s": med(tracer.durations("trispec.stretch")),
        "model.backbone.fwd_s": med(tracer.durations("model.backbone")),
        "model.heads.fwd_s": med(tracer.self_times("model.forward")),
        "model.loss.fwd_s": med(tracer.durations("model.loss")),
        "model.loss.rows": tracer.counts["loss_rows"] / losses,
        "cluster.fwd_s": med(tracer.durations("cluster")),
        "cluster.affinity_entries": med(tracer.samples["affinity_entries"]),
        "cluster.window_fill": med(tracer.samples["window_fill"]),
        "dcm.regional.fwd_s": med(tracer.durations("dcm.regional")),
        "dcm.global.fwd_s": med(tracer.self_times("dcm")),
        "dcm.encoder_calls": tracer.counts["encoder_calls"] / contexts,
        "nn.attention_calls": tracer.counts["attention_calls"] / images,
        "nn.head_calls": tracer.counts["head_calls"] / images,
        "autodiff.sgd_step_s": med(tracer.durations("autodiff.sgd_step")),
        "autodiff.backward_s": med(tracer.durations("autodiff.backward")),
        "pipeline.predict_s": med(tracer.durations("pipeline.predict")),
        "pipeline.hard_vote_s": med(tracer.durations("pipeline.hard_vote")),
        "pipeline.soft_vote_s": med(tracer.durations("pipeline.soft_vote")),
        "pipeline.evaluate_s": med(tracer.durations("pipeline.evaluate")),
        "pipeline.maps_held_mb": (max(tracer.samples["hard_bytes"])
                                  + max(tracer.samples["soft_bytes"])) / MIB,
    }
    m.update(probes)
    return m
