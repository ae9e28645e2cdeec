"""Synthetic scene generation: a textured plane seen by a verging rig.

Produces a calibration file, a rendered stereo pair and ground-truth
correspondences, all deterministic under a seed.  The plane texture is a
low-contrast checkerboard with bright circular markers whose centers serve
as trackable features after warping.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidArgument
from .geometry import Camera, StereoRig, is_in_front, project, rot_x, rot_y
from .warp import ImageBuffer, from_array, source_coords

PLANE_Z = 5.0
MARKER_RADIUS = 0.09
MARKER_STEP = 0.8
CHECKER_SIZE = 0.5


def synth_rig(seed: int) -> StereoRig:
    """A mildly verging rig with pose jitter drawn from the seed (>= 0)."""
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    A = np.array([[600.0, 0.0, 320.0], [0.0, 600.0, 240.0], [0.0, 0.0, 1.0]])
    cam1 = Camera(A=A, R=np.eye(3), t=np.zeros(3), width=640, height=480)
    yaw = -0.14 + rng.uniform(-0.02, 0.02)
    pitch = 0.05 + rng.uniform(-0.01, 0.01)
    R2 = (rot_y(yaw) @ rot_x(pitch)).T
    o2 = np.array([1.0, 0.08, 0.04]) + rng.uniform(-0.02, 0.02, size=3)
    cam2 = Camera(A=A, R=R2, t=-R2 @ o2, width=640, height=480)
    return StereoRig(cam1, cam2)


def _marker_centers() -> np.ndarray:
    xs = np.arange(-1.2, 2.4, MARKER_STEP)
    ys = np.arange(-1.2, 1.6, MARKER_STEP)
    return np.array([(x, y) for y in ys for x in xs])


def _texture(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Procedural plane texture sampled at plane coordinates."""
    checker = ((np.floor(px / CHECKER_SIZE) + np.floor(py / CHECKER_SIZE)) % 2).astype(float)
    shade = 60.0 + 50.0 * checker + 20.0 * (px - px.min()) / max(np.ptp(px), 1e-9)
    value = shade.copy()
    for cx, cy in _marker_centers():
        inside = (px - cx) ** 2 + (py - cy) ** 2 <= MARKER_RADIUS ** 2
        value = np.where(inside, 255.0, value)
    return np.clip(value, 0, 255)


def _plane_homography(cam: Camera) -> np.ndarray:
    """Plane (x, y, PLANE_Z) -> image homography."""
    cols = cam.R[:, 0], cam.R[:, 1], cam.R[:, 2] * PLANE_Z + cam.t
    return cam.A @ np.column_stack(cols)


def render_view(cam: Camera) -> ImageBuffer:
    """Render the textured plane into the camera; gray background outside."""
    px, py, _ = source_coords(np.linalg.inv(_plane_homography(cam)), cam.width, cam.height)
    tex = _texture(px, py)
    on_plane = (px >= -2.0) & (px <= 3.0) & (py >= -2.0) & (py <= 2.0) & np.isfinite(px)
    gray = np.where(on_plane, tex, 20.0).astype(np.uint8)
    rgb = np.stack([gray, gray, gray], axis=-1)
    return from_array(rgb)


def correspondences(rig: StereoRig) -> np.ndarray:
    """Marker centers projected into both views; rows (x1, y1, x2, y2)."""
    rows = []
    margin = 8.0
    for cx, cy in _marker_centers():
        X = np.array([cx, cy, PLANE_Z])
        if not (is_in_front(rig.cam1, X) and is_in_front(rig.cam2, X)):
            continue
        p1 = project(rig.cam1, X)
        p2 = project(rig.cam2, X)
        p1 = p1[:2] / p1[2]
        p2 = p2[:2] / p2[2]
        if (margin <= p1[0] < rig.cam1.width - margin and margin <= p1[1] < rig.cam1.height - margin
                and margin <= p2[0] < rig.cam2.width - margin
                and margin <= p2[1] < rig.cam2.height - margin):
            rows.append([p1[0], p1[1], p2[0], p2[1]])
    return np.array(rows)
