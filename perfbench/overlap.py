"""Oriented-bounding-box overlap count over simulation logs.

Counts agent pairs whose boxes overlap at the same step. Each box is
(x, y, heading, length, width) with the heading along the length; the
test is the separating-axis theorem over the four box axes, and boxes
that only touch do not overlap. Run this file to self-test the counter.
"""

import csv
import math
import os
from collections import defaultdict

import numpy as np


def boxes_overlap(a, b):
    """True when boxes ``a`` and ``b`` share interior area."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    axes_a = ((math.cos(a[2]), math.sin(a[2])),
              (-math.sin(a[2]), math.cos(a[2])))
    axes_b = ((math.cos(b[2]), math.sin(b[2])),
              (-math.sin(b[2]), math.cos(b[2])))
    for ux, uy in axes_a + axes_b:
        ra = (a[3] / 2 * abs(ux * axes_a[0][0] + uy * axes_a[0][1])
              + a[4] / 2 * abs(ux * axes_a[1][0] + uy * axes_a[1][1]))
        rb = (b[3] / 2 * abs(ux * axes_b[0][0] + uy * axes_b[0][1])
              + b[4] / 2 * abs(ux * axes_b[1][0] + uy * axes_b[1][1]))
        if abs(ux * dx + uy * dy) >= ra + rb:
            return False
    return True


def count_pair_overlaps(frames):
    """Overlapping pairs summed over frames; each frame is an (n, 5) array.

    Pairs whose bounding circles are apart are skipped before the exact
    test.
    """
    total = 0
    for boxes in frames:
        boxes = np.asarray(boxes, dtype=float)
        if len(boxes) < 2:
            continue
        radius = 0.5 * np.hypot(boxes[:, 3], boxes[:, 4])
        d = np.hypot(boxes[:, None, 0] - boxes[None, :, 0],
                     boxes[:, None, 1] - boxes[None, :, 1])
        near = np.triu(d < radius[:, None] + radius[None, :], k=1)
        for i, j in zip(*np.nonzero(near)):
            total += boxes_overlap(boxes[i], boxes[j])
    return total


def count_log_overlaps(logs_dir, sizes):
    """Overlapping agent pair-steps over every CSV log in ``logs_dir``.

    ``sizes`` maps (scene_id, agent_id) to (length, width).
    """
    total = 0
    for name in sorted(os.listdir(logs_dir)):
        if not name.endswith(".csv"):
            continue
        steps = defaultdict(list)
        with open(os.path.join(logs_dir, name)) as fh:
            for row in csv.DictReader(fh):
                length, width = sizes[(row["scene_id"],
                                       int(row["agent_id"]))]
                steps[row["t"]].append((float(row["x"]), float(row["y"]),
                                        float(row["psi"]), length, width))
        total += count_pair_overlaps(steps.values())
    return total


def self_test():
    """Hand-built pairs: one overlapping pair counts 1, others count 0."""
    car = (4.5, 1.8)
    cases = [
        # offset along and across, slightly rotated: overlaps
        ([(0.0, 0.0, 0.0) + car, (3.0, 0.5, 0.3) + car], 1),
        # side by side with a 0.2 m gap
        ([(0.0, 0.0, 0.0) + car, (0.0, 2.0, 0.0) + car], 0),
        # bounding circles overlap, but a box axis separates them
        ([(0.0, 0.0, 0.0) + car, (4.0, 1.9, math.pi / 2) + car], 0),
    ]
    for boxes, want in cases:
        got = count_pair_overlaps([boxes])
        if got != want:
            raise AssertionError(f"overlap count {got} != {want} for {boxes}")


if __name__ == "__main__":
    self_test()
    print("overlap self-test passed")
