"""Synthetic scene generation: a textured plane seen by a verging rig.

Produces a calibration file, a rendered stereo pair and ground-truth
correspondences, all deterministic under a seed.  The plane texture is a
low-contrast checkerboard with bright circular markers whose centers serve
as trackable features after warping.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidArgument
from .geometry import Camera, StereoRig, project, rotation
from .warp import ImageBuffer, from_array, source_coords

PLANE_Z = 5.0
MARKER_RADIUS = 0.09
MARKER_STEP = 0.8
CHECKER_SIZE = 0.5
# marker centres along x and along y; the markers are their product
_MARKER_XS = np.arange(-1.2, 2.4, MARKER_STEP)
_MARKER_YS = np.arange(-1.2, 1.6, MARKER_STEP)


def synth_rig(seed: int) -> StereoRig:
    """A mildly verging rig with pose jitter drawn from the seed (>= 0)."""
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    A = np.array([[600.0, 0.0, 320.0], [0.0, 600.0, 240.0], [0.0, 0.0, 1.0]])
    cam1 = Camera(A=A, R=np.eye(3), t=np.zeros(3), width=640, height=480)
    yaw = -0.14 + rng.uniform(-0.02, 0.02)
    pitch = 0.05 + rng.uniform(-0.01, 0.01)
    R2 = (rotation((0.0, 1.0, 0.0), yaw) @ rotation((1.0, 0.0, 0.0), pitch)).T
    o2 = np.array([1.0, 0.08, 0.04]) + rng.uniform(-0.02, 0.02, size=3)
    cam2 = Camera(A=A, R=R2, t=-R2 @ o2, width=640, height=480)
    return StereoRig(cam1, cam2)


def _marker_centers() -> np.ndarray:
    return np.array([(x, y) for y in _MARKER_YS for x in _MARKER_XS])


def _from_nearest(p: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """p minus the nearest value of the evenly spaced grid; NaN and +-inf need no cast."""
    k = np.rint((p - grid[0]) / MARKER_STEP)
    k = np.fmin(np.fmax(k, 0.0, out=k), len(grid) - 1.0, out=k)
    return p - grid[k.astype(np.intp)]


def _texture(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Procedural plane texture sampled at plane coordinates."""
    # MARKER_RADIUS < MARKER_STEP / 2: a point can only be inside the disk centred nearest
    # to it on both axes, and that test is the one a loop over every disk would make
    inside = (_from_nearest(px, _MARKER_XS) ** 2 + _from_nearest(py, _MARKER_YS) ** 2
              <= MARKER_RADIUS ** 2)
    # +inf + -inf, then inf - inf, where the plane's horizon meets a pixel centre: such a
    # pixel is off the plane and takes the background value
    with np.errstate(invalid="ignore"):
        checker = np.floor(px / CHECKER_SIZE) + np.floor(py / CHECKER_SIZE)
        checker -= 2.0 * np.floor(checker / 2.0)  # the sum % 2, exact on whole numbers
    lo, hi = px.min(), px.max()
    if not np.isfinite(hi - lo):  # the plane's horizon runs through a pixel centre
        finite = px[np.isfinite(px)]
        lo, hi = (finite.min(), finite.max()) if finite.size else (0.0, 0.0)
    value = 60.0 + 50.0 * checker + 20.0 * (px - lo) / max(hi - lo, 1e-9)
    return np.where(inside, 255.0, value)


def _plane_homography(cam: Camera) -> np.ndarray:
    """Plane (x, y, PLANE_Z) -> image homography."""
    cols = cam.R[:, 0], cam.R[:, 1], cam.R[:, 2] * PLANE_Z + cam.t
    return cam.A @ np.column_stack(cols)


def render_view(cam: Camera) -> ImageBuffer:
    """Render the textured plane into the camera; gray background outside."""
    px, py = source_coords(np.linalg.inv(_plane_homography(cam)), cam.width, cam.height)
    tex = _texture(px, py)
    # NaN fails every range comparison and +-inf fails one of them
    on_plane = (px >= -2.0) & (px <= 3.0) & (py >= -2.0) & (py <= 2.0)
    gray = np.where(on_plane, tex, 20.0).astype(np.uint8)
    rgb = np.stack([gray, gray, gray], axis=-1)
    return from_array(rgb)


def correspondences(rig: StereoRig) -> np.ndarray:
    """Marker centers projected into both views; rows (x1, y1, x2, y2)."""
    rows = []
    margin = 8.0
    for cx, cy in _marker_centers():
        X = np.array([cx, cy, PLANE_Z])
        p1 = project(rig.cam1, X)
        p2 = project(rig.cam2, X)
        if p1[2] <= 0 or p2[2] <= 0:  # behind a camera: A[2] = (0, 0, 1) keeps the depth's sign
            continue
        p1 = p1[:2] / p1[2]
        p2 = p2[:2] / p2[2]
        if (margin <= p1[0] < rig.cam1.width - margin and margin <= p1[1] < rig.cam1.height - margin
                and margin <= p2[0] < rig.cam2.width - margin
                and margin <= p2[1] < rig.cam2.height - margin):
            rows.append([p1[0], p1[1], p2[0], p2[1]])
    return np.array(rows).reshape(-1, 4)
