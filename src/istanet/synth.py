"""Synthetic two-entity interaction corpus.

Four motion classes with asymmetric entity roles (entity 0 is the anchor,
entity 1 the actor), so entity ordering carries spurious information that
entity rearrangement is supposed to remove:

    0 approach: the actor closes in on a stationary anchor
    1 retreat:  the actor backs away from a stationary anchor
    2 orbit:    the actor circles the anchor at fixed radius
    3 follow:   the anchor translates and the actor trails behind it

Each entity is a 5-joint rigid cluster; per-coordinate Gaussian noise is
added on top. Emits `.iskel` files plus a manifest, so training and the
acceptance suite need no external data.
"""

import os

import numpy as np

from .data import SkeletonSequence, serialize_iskel

CLASS_NAMES = ("approach", "retreat", "orbit", "follow")

# fixed joint offsets around the entity center (5 joints, 3D)
_JOINT_OFFSETS = np.array([
    [0.0, 0.0, 0.0],
    [0.15, 0.0, 0.0],
    [-0.15, 0.0, 0.0],
    [0.0, 0.15, 0.0],
    [0.0, 0.0, 0.15],
])


def _trajectories(label, t, rng):
    """Center paths (t,3) for anchor and actor."""
    theta = rng.uniform(0.0, 2 * np.pi)
    direction = np.array([np.cos(theta), np.sin(theta), 0.0])
    tt = np.linspace(0.0, 1.0, t)[:, None]
    anchor = np.zeros((t, 3))
    if label == 0:    # approach
        dist = 2.0 - 1.6 * tt
        actor = direction * dist
    elif label == 1:  # retreat
        dist = 0.4 + 1.6 * tt
        actor = direction * dist
    elif label == 2:  # orbit
        phase = theta + 1.5 * np.pi * tt[:, 0]
        actor = np.stack([np.cos(phase), np.sin(phase),
                          np.zeros(t)], axis=1)
    elif label == 3:  # follow
        anchor = direction * (1.5 * tt)
        actor = anchor - 0.5 * direction
    else:
        raise ValueError(f"unknown class label {label}")
    return anchor, actor


def make_sample(label, t=40, j=5, noise=0.02, rng=None):
    """One (3,t,j,2) sequence of the given class."""
    rng = rng if rng is not None else np.random.default_rng(0)
    if j > len(_JOINT_OFFSETS):
        reps = -(-j // len(_JOINT_OFFSETS))
        offsets = np.tile(_JOINT_OFFSETS, (reps, 1))[:j]
    else:
        offsets = _JOINT_OFFSETS[:j]
    anchor, actor = _trajectories(label, t, rng)
    data = np.empty((3, t, j, 2))
    for e, center in enumerate((anchor, actor)):
        pts = center[:, None, :] + offsets[None, :, :]      # (t,j,3)
        pts = pts + rng.normal(0.0, noise, size=pts.shape)
        data[:, :, :, e] = pts.transpose(2, 0, 1)
    return SkeletonSequence(data=data, label=label)


def generate_corpus(out_dir, num_train=64, num_val=32, t=40, j=5, noise=0.02,
                    seed=0, folds=0):
    """Write a balanced 4-class corpus plus manifest.txt; returns its path.

    With folds > 0, samples get fold tags instead of train/val splits.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    counts = ([("train", num_train), ("val", num_val)] if folds == 0
              else [("fold", num_train + num_val)])
    idx = 0
    for tag, total in counts:
        for i in range(total):
            label = i % len(CLASS_NAMES)
            seq = make_sample(label, t=t, j=j, noise=noise, rng=rng)
            name = f"sample_{idx:04d}.iskel"
            with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
                f.write(serialize_iskel(seq))
            sample_tag = tag if folds == 0 else f"fold{i % folds}"
            lines.append(f"{name} {label} {sample_tag}")
            idx += 1
    manifest_path = os.path.join(out_dir, "manifest.txt")
    with open(manifest_path, "w", encoding="utf-8") as f:
        f.write("# synthetic 2-entity interaction corpus\n")
        f.write("\n".join(lines) + "\n")
    return manifest_path
