"""The full segmentation network.

A truncated VGG-style backbone keeps the feature map at stride 4 (pools only
after the first two stages), a 3x3 convolution reduces the width to the
context channel count, the dual context module enriches the map, and a 3x3
classifier head produces stride-4 logits, which inference upsamples x4
bilinearly to dense logits. An auxiliary head reads the stage-3 feature; it
serves only the loss, so prediction never runs it. The loss is softmax cross
entropy over labeled pixels with the auxiliary term weighted 0.4; training
samples the stride-4 logits at the labeled pixels only, which equals
upsampling and then selecting them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .dcm import DualContextModule
from .errors import ConfigError, ContractError, DataError
from .formats import LabelMap, load_checkpoint, save_checkpoint
from .nn import Module, uniform_init

STRIDE = 4  # the two 2x2 max pools: logits and areas sit on a grid this much coarser


@dataclass
class BackboneConfig:
    widths: tuple = (16, 32, 64, 64)
    convs_per_stage: tuple = (2, 2, 3, 3)

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        self.convs_per_stage = tuple(int(c) for c in self.convs_per_stage)
        if len(self.widths) != 4 or len(self.convs_per_stage) != 4:
            raise ConfigError("backbone needs exactly four stages")
        if min(self.widths) < 1 or min(self.convs_per_stage) < 1:
            raise ConfigError("backbone widths and depths must be positive")


class Conv3x3(Module):
    """3x3 "same" convolution with bias; ``relu=True`` fuses a ReLU into it."""

    def __init__(self, in_ch, out_ch, rng, group, name, relu=False):
        self.weight = Parameter(uniform_init(rng, (out_ch, in_ch, 3, 3), in_ch * 9),
                                group=group, name=f"{name}.weight")
        self.bias = Parameter(np.zeros(out_ch), group=group, name=f"{name}.bias")
        self.relu = relu

    def __call__(self, x):
        return ad.conv2d(x, self.weight, self.bias, relu=self.relu)


class Backbone(Module):
    """Four conv-relu stages at widths[i]; 2x2 max pools after stages 1 and 2."""

    def __init__(self, cfg: BackboneConfig, rng):
        self.cfg = cfg
        self.stages = []
        prev = 3  # the tri-spectral image's three bands
        for si, (width, depth) in enumerate(zip(cfg.widths, cfg.convs_per_stage)):
            stage = []
            for ci in range(depth):
                stage.append(Conv3x3(prev, width, rng, "backbone",
                                     f"backbone.stage{si + 1}.conv{ci}", relu=True))
                prev = width
            self.stages.append(stage)

    def forward(self, x):
        """Returns (stage3 feature, stage4 feature), both at stride 4."""
        h = x
        stage3 = None
        for si, stage in enumerate(self.stages):
            for conv in stage:
                h = conv(h)
            if si < 2:
                h = ad.maxpool2d(h, 2)
            if si == 2:
                stage3 = h
        return stage3, h


def _logit_factor(logit_shape, label_shape):
    """1 for full-resolution logits, STRIDE for the backbone's map of the padded input."""
    logit_shape, label_shape = tuple(logit_shape), tuple(label_shape)
    if logit_shape == label_shape:
        return 1
    if logit_shape == tuple(-(-n // STRIDE) for n in label_shape):
        return STRIDE
    raise ContractError(f"labels {label_shape} do not match logits {logit_shape}")


class DualContextNet(Module):
    """Backbone + reduction conv + dual context module + classifier heads."""

    def __init__(self, num_classes, backbone=None, channels=32, num_areas=16,
                 iterations=5, heads=2, mlp_ratio=2, use_input=True,
                 use_regional=True, use_global=True,
                 input_mean=0.5, input_std=0.25, seed=0, dtype=np.float32):
        if num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {num_classes}")
        if not math.isfinite(input_mean):
            raise ConfigError(f"input_mean must be finite, got {input_mean}")
        if not (math.isfinite(input_std) and input_std > 0):
            raise ConfigError(f"input_std must be finite and positive, got {input_std}")
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.float32, np.float64):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype}")
        rng = np.random.default_rng(seed)
        cfg = backbone if backbone is not None else BackboneConfig()
        self.num_classes = num_classes
        self.input_mean = float(input_mean)
        self.input_std = float(input_std)
        self.backbone = Backbone(cfg, rng)
        self.reduce = Conv3x3(cfg.widths[3], channels, rng, "head", "reduce")
        self.context = DualContextModule(
            channels, num_areas, iterations=iterations, heads=heads,
            mlp_ratio=mlp_ratio, use_input=use_input, use_regional=use_regional,
            use_global=use_global, rng=rng)
        self.head = Conv3x3(self.context.out_channels, num_classes, rng, "head", "head")
        self.aux_head = Conv3x3(cfg.widths[2], num_classes, rng, "head", "aux_head")
        for p in self.parameters():  # the blocks draw in float64; dtype decides here alone
            p.data = p.data.astype(self.dtype)

    # -- parameter plumbing ----------------------------------------------------

    def named_parameters(self):
        return [(p.name, p) for p in self.parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    # -- forward passes -----------------------------------------------------------

    def prepare_input(self, image):
        """uint8 (3, H, W) image or (B, 3, H, W) batch -> normalized (B, 3, H', W')
        tensor, reflect-padded to stride 4, plus the unpadded (H, W)."""
        img = np.asarray(image)
        if img.ndim == 3:
            img = img[None]
        if img.ndim != 4 or img.shape[0] < 1 or img.shape[1] != 3:
            raise ContractError(
                f"expected a (3, H, W) image or (B, 3, H, W) batch, got {img.shape}")
        h, w = img.shape[2:]
        if h < 8 or w < 8:
            raise ContractError(f"image {h}x{w} is too small (needs >= 8)")
        x = (img.astype(self.dtype) / 255.0 - self.input_mean) / self.input_std
        ph, pw = (-h) % STRIDE, (-w) % STRIDE
        if ph or pw:
            x = np.pad(x, ((0, 0), (0, 0), (0, ph), (0, pw)), mode="reflect")
        return Tensor(x), (h, w)

    def forward_from_tensor(self, x):
        """Run the padded, normalized (B, 3, H', W') tensor through the network.

        Returns (main logits, stage-3 feature, areas), all at stride 4: the
        main logits are (B, num_classes, H'/4, W'/4). The auxiliary head is a
        training-only loss term, so ``loss_on`` applies it to the stage-3
        feature and prediction never runs it."""
        stage3, stage4 = self.backbone.forward(x)
        features = self.reduce(stage4)
        enriched, areas = self.context(features)
        return self.head(enriched), stage3, areas

    def features(self, image):
        """The reduced stride-4 (B, C, H'/4, W'/4) feature map the context module
        clusters on, computed without recording a tape."""
        with ad.no_grad():
            x, _ = self.prepare_input(image)
            return self.reduce(self.backbone.forward(x)[1])

    # -- loss and prediction ----------------------------------------------------------

    def loss(self, main_logits, aux_logits, labels):
        """Cross entropy over labeled pixels only: main + 0.4 * auxiliary.

        The (B, K, h, w) logits are either full resolution, matching the
        (H, W) label map that every image shares, or the stride-4 maps of the
        reflect-padded input, (ceil(H/4), ceil(W/4)). Either way they are
        sampled bilinearly at the labeled pixels, at factor 1 or 4; at factor
        1 the sample is the pixel itself. Every image has the same P labeled
        pixels, so the mean over all B*P rows is the mean of the per-image
        losses."""
        lab = labels.labels if isinstance(labels, LabelMap) else np.asarray(labels)
        if main_logits.ndim != 4:
            raise ContractError(f"expected (B, K, h, w) logits, got {main_logits.shape}")
        factor = _logit_factor(main_logits.shape[2:], lab.shape)
        if aux_logits.shape != main_logits.shape:
            raise ContractError(
                f"aux logits {aux_logits.shape} do not match main logits {main_logits.shape}")
        ys, xs = np.nonzero(lab)
        if ys.size == 0:
            raise ContractError("loss needs at least one labeled pixel")
        ids = lab[ys, xs].astype(np.int64)
        if ids.max() > self.num_classes:
            raise ContractError(
                f"label id {ids.max()} exceeds the net's {self.num_classes} classes")
        rows = main_logits.shape[0] * ys.size
        onehot = np.zeros((ys.size, self.num_classes), dtype=main_logits.dtype)
        onehot[np.arange(ys.size), ids - 1] = 1.0
        onehot = Tensor(np.tile(onehot, (main_logits.shape[0], 1)))

        def labeled_ce(logits):
            sampled = ad.reshape(ad.sample_bilinear(logits, ys, xs, factor),
                                 (rows, self.num_classes))
            return (ad.log_softmax(sampled, axis=-1) * onehot).sum() * (-1.0 / rows)

        return labeled_ce(main_logits) + 0.4 * labeled_ce(aux_logits)

    def loss_on(self, image, labels):
        """Mean loss of one (3, H, W) image or a (B, 3, H, W) batch, on one tape."""
        x, _ = self.prepare_input(image)
        main, stage3, _ = self.forward_from_tensor(x)
        return self.loss(main, self.aux_head(stage3), labels)

    def predict_probabilities(self, image):
        """Softmax of the main logits of one (3, H, W) image or a (B, 3, H, W)
        batch, as a float32 (num_classes, H, W) or (B, num_classes, H, W) array.

        The whole batch runs one forward; its stride-4 main logits are
        upsampled x4 and cropped to the image, and the softmax runs over the
        class axis. The upsample writes C-ordered class planes, so the result
        is C-contiguous without a reorder."""
        with ad.no_grad():
            x, (h, w) = self.prepare_input(image)
            main, _, _ = self.forward_from_tensor(x)
            dense = ad.bilinear_upsample(main, STRIDE).data[:, :, :h, :w]
            probs = ad.softmax(Tensor(dense), axis=1).data.astype(np.float32, copy=False)
        return probs[0] if np.ndim(image) == 3 else probs

    # -- persistence -------------------------------------------------------------------

    def save(self, path):
        save_checkpoint([(name, p.data) for name, p in self.named_parameters()], path)

    def load(self, path, strict=True):
        """Load parameters by name. ``strict=False`` fills whatever names the
        file provides (e.g. an externally converted backbone) and returns the
        names that stayed at their initialization. Every parameter is checked
        before any is replaced, so a rejected file leaves the net as it was."""
        loaded = load_checkpoint(path)
        missing, accepted = [], []
        for name, p in self.named_parameters():
            if name not in loaded:
                if strict:
                    raise ContractError(f"checkpoint is missing parameter {name}")
                missing.append(name)
                continue
            arr = loaded[name]
            if arr.shape != p.data.shape:
                raise ContractError(
                    f"checkpoint parameter {name} has shape {arr.shape}, expected {p.data.shape}")
            if not np.isfinite(arr).all():
                raise DataError(f"checkpoint parameter {name} holds non-finite values")
            accepted.append((p, arr))
        for p, arr in accepted:
            p.data = arr.astype(self.dtype)
        return missing
