"""Fingerprints of the program's numeric outputs, for bit-identity checks.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<tree>/src python3 tools/fingerprint.py > <tree>.txt

Run it once per source tree and ``diff`` the two outputs: equal lines mean
the two trees compute the same bits. For the benchmark's desk net (widths
16,32,64,64; convs 1,1,2,2; C=32; T=3; h=2; 9 classes; net seed 1; float32)
at (B=4, 32x32, Z=16) and at (B=1, 128x128, Z=64) it prints the float32
loss of ``loss_on``, a SHA-256 over the parameter gradients in parameter
order (each with its name), and a SHA-256 of ``predict_probabilities``.
Then it prints a SHA-256 of ``generate_set``'s images and degenerate flags
at the ``ensemble`` workload's shape (G=15, 195 bands, 32x32).

The inputs are seeded uint8 images and label maps and a seeded synthetic
scene. Run both trees with the same BLAS thread count (one, as above),
since the thread count can change the order of a matrix product's sums.
"""

from __future__ import annotations

import hashlib

import numpy as np

from hsiseg.model import BackboneConfig, DualContextNet
from hsiseg.synth import synth_scene
from hsiseg.trispec import generate_set

CLASSES = 9
NETS = ((4, 32, 16), (1, 128, 64))  # (B, size, Z)


def net_lines(batch, size, areas):
    rng = np.random.default_rng(size)
    images = rng.integers(0, 256, (batch, 3, size, size), dtype=np.uint8)
    labels = np.zeros(size * size, np.uint16)
    labeled = rng.choice(size * size, size=4 * CLASSES, replace=False)
    labels[labeled] = np.arange(labeled.size) % CLASSES + 1
    labels = labels.reshape(size, size)
    model = DualContextNet(
        CLASSES, backbone=BackboneConfig(widths=(16, 32, 64, 64), convs_per_stage=(1, 1, 2, 2)),
        channels=32, num_areas=areas, iterations=3, heads=2, seed=1, dtype=np.float32)
    model.zero_grad()
    loss = model.loss_on(images, labels)
    loss.backward()
    grads = hashlib.sha256()
    for name, p in model.named_parameters():
        grads.update(name.encode())
        grads.update(b"none" if p.grad is None else np.ascontiguousarray(p.grad).tobytes())
    probs = np.ascontiguousarray(model.predict_probabilities(images))
    tag = f"net B={batch} {size}x{size} Z={areas}"
    return [f"{tag} loss {float(loss.data)!r} ({loss.data.dtype})",
            f"{tag} grads {grads.hexdigest()}",
            f"{tag} probs {hashlib.sha256(probs.tobytes()).hexdigest()} {probs.shape}"]


def set_line():
    cube, _, _ = synth_scene(0, 32, 32, 195, 16, labels_per_class=20)
    tri = generate_set(cube, 15)
    digest = hashlib.sha256()
    for img in tri.images:
        digest.update(np.ascontiguousarray(img).tobytes())
    digest.update(bytes(bool(flag) for flag in tri.degenerate))
    return f"generate_set G=15 195 bands 32x32: {len(tri.images)} images {digest.hexdigest()}"


def main():
    for batch, size, areas in NETS:
        for line in net_lines(batch, size, areas):
            print(line)
    print(set_line())


if __name__ == "__main__":
    main()
