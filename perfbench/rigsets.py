"""Seeded inputs for the benchmark, built through the program's own types.

Every list here is a pure function of its seed.  Rigs come in two kinds:

* general rigs: relative rotation with a uniform random axis and an angle
  uniform in [0, max_angle], unit baseline in a uniform random direction,
  each camera with its own focal length, aspect and principal point;
* near-rectified stereo heads: relative rotation of at most 3 degrees,
  baseline within about 3 degrees of the x axis, near-identical intrinsics
  with the principal point within 1 % of the grid centre.

Both cameras of a rig share one image size, drawn from ``SIZES``.
"""
from __future__ import annotations

import math

import numpy as np

from minrect import Camera, StereoRig

SIZES = ((64, 48), (160, 120), (320, 240), (640, 480), (1280, 720),
         (1920, 1080), (2592, 1944), (3840, 2160))
HEAD_MAX_ANGLE = math.radians(3.0)


def rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    K = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _intrinsics(fx, fy, cx, cy) -> np.ndarray:
    return np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])


def _camera(A, R, center, size) -> Camera:
    return Camera(A=A, R=R, t=-R @ center, width=size[0], height=size[1])


def rig_params(rng: np.random.Generator, head: bool, max_angle: float):
    """Plain-array parameters of one rig: ((A1, R1, c1), (A2, R2, c2), size)."""
    w, h = SIZES[rng.integers(len(SIZES))]
    if head:
        f = w * rng.uniform(0.6, 1.6)
        cams = []
        for _ in range(2):
            fx = f * rng.uniform(0.98, 1.02)
            fy = fx * rng.uniform(0.995, 1.005)
            cx = (w - 1) / 2.0 + w * rng.uniform(-0.01, 0.01)
            cy = (h - 1) / 2.0 + h * rng.uniform(-0.01, 0.01)
            cams.append(_intrinsics(fx, fy, cx, cy))
        R2 = rotation(_unit(rng), rng.uniform(0.0, HEAD_MAX_ANGLE))
        c2 = np.array([1.0, *rng.uniform(-0.035, 0.035, size=2)])
        c2 /= np.linalg.norm(c2)
    else:
        cams = []
        for _ in range(2):
            fx = w * rng.uniform(0.5, 2.0)
            fy = fx * rng.uniform(0.9, 1.1)
            cams.append(_intrinsics(fx, fy, w * rng.uniform(0.3, 0.7), h * rng.uniform(0.3, 0.7)))
        R2 = rotation(_unit(rng), rng.uniform(0.0, max_angle))
        c2 = _unit(rng)
    return (cams[0], np.eye(3), np.zeros(3)), (cams[1], R2, c2), (w, h)


def build_rig(params) -> StereoRig:
    (A1, R1, c1), (A2, R2, c2), size = params
    return StereoRig(_camera(A1, R1, c1, size), _camera(A2, R2, c2, size))


def screened_params(seed: int, count: int, head_share: float, max_angle: float,
                    screen) -> tuple[list, int]:
    """Parameters of ``count`` rigs from ``seed``: a share of heads, the rest general rigs.

    ``screen(params)`` returns False for rigs in the metric's singular
    configurations (see ``checks.well_posed``); those draws are skipped, so
    every rig in the list is one the closed form is meant to handle.  The
    count of skipped draws is returned alongside.
    """
    rng = np.random.default_rng(seed)
    n_heads = int(round(head_share * count))
    params, skipped = [], 0
    for head in [True] * n_heads + [False] * (count - n_heads):
        while True:
            p = rig_params(rng, head, max_angle)
            if screen(p):
                break
            skipped += 1
        params.append(p)
    return params, skipped


# Seed-independent rigs that expose the two kept faults.  They are rebuilt
# here from the draws of ``random_rig(default_rng(5), max_angle=pi/2)``
# (axis, angle, centre; 800 px focal length, 640x480) so that they do not
# change if the program's generator does.
FAULT_SEED = 5
FAULT_INDICES = {
    1962: "F1",  # [C_i]_22 vanishes: DegenerateC at quartic-coefficients
    2087: "F1",
    396: "F2",  # closed form above the dense-scan minimum by > 1e-9
    2821: "F2",
}


def rectified_head_params():
    """Identical cameras, principal point exactly at the grid centre,
    baseline along x: an already-rectified pair, on which [C_i]_22 is 0."""
    w, h = 640, 480
    A = _intrinsics(600.0, 600.0, (w - 1) / 2.0, (h - 1) / 2.0)
    return (A, np.eye(3), np.zeros(3)), (A, np.eye(3), np.array([1.0, 0.0, 0.0])), (w, h)


def far_poles_params():
    """A near-vertical-baseline rig whose two poles sit 8 px apart, 56 image
    heights out.  The closed form returns the local minimum between the
    poles (3.79e6) instead of the global one at y = 27 172 (23.9).  Drawn
    by ``rig_params`` from a seeded list; written out so that it does not
    depend on the seed."""
    A1 = _intrinsics(977.6185103775754, 974.0393461945717, 385.0636461647273, 188.4813640386818)
    A2 = _intrinsics(750.6537150429317, 720.7488430153694, 229.50174593180353, 332.89493351207136)
    R2 = np.array([[0.9999465583410723, 0.0030767259936181307, 0.009869864183707024],
                   [-0.0030745582403128185, 0.9999952459691872, -0.00023479917300118204],
                   [-0.009870539674787428, 0.00020444115268707783, 0.9999512641375796]])
    c2 = np.array([-0.014208090658264269, 0.9992426181882316, 0.03622595969984707])
    return (A1, np.eye(3), np.zeros(3)), (A2, R2, c2), (640, 480)


def fault_params(labels) -> list:
    """(label, params) of the fault rigs whose label is in ``labels``: the
    rectified head, then the ``FAULT_INDICES`` draws in that order."""
    rng = np.random.default_rng(FAULT_SEED)
    A = _intrinsics(800.0, 800.0, 320.0, 240.0)
    drawn = {}
    for i in range(max(FAULT_INDICES) + 1):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.0, math.pi / 2)
        o2 = rng.normal(size=3)
        o2 /= np.linalg.norm(o2)
        if i in FAULT_INDICES:
            drawn[i] = ((A, np.eye(3), np.zeros(3)), (A, rotation(axis, angle), o2), (640, 480))
    found = [("F1", rectified_head_params())] + [(FAULT_INDICES[i], drawn[i])
                                                  for i in FAULT_INDICES]
    return [(label, p) for label, p in found if label in labels]


def moved_rig(rig: StereoRig, Q: np.ndarray, d: np.ndarray) -> StereoRig:
    """The same rig after a rigid motion: world point X becomes Q^T (X - d).

    Relative pose and intrinsics are unchanged, so the rig's rectifying
    homographies stay valid; only the view of the scene changes.
    """
    cams = []
    for cam in (rig.cam1, rig.cam2):
        cams.append(Camera(A=cam.A, R=cam.R @ Q, t=cam.R @ d + cam.t,
                           width=cam.width, height=cam.height))
    return StereoRig(*cams)


def frame_motions(seed: int, count: int) -> list:
    """Small rig motions for video frames: up to 2 degrees and 0.25 units."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        Q = rotation(_unit(rng), rng.uniform(0.0, math.radians(2.0)))
        d = rng.uniform(-0.25, 0.25, size=3)
        out.append((Q, d))
    return out
