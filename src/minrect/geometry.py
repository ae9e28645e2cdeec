"""Pinhole cameras, stereo rigs and two-view epipolar geometry.

Conventions: intrinsics ``A`` are upper-triangular with unit last element,
``R``/``t`` map world coordinates to camera coordinates (``x_cam = R X + t``),
image points are homogeneous 3-vectors in pixels with the origin at the
center of the top-left pixel.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (InvalidArgument, InvalidCalibration, InvalidCamera, InvalidRig,
                     SingularProjection)

COND_LIMIT = 1e12
IMAGE_SIZE = "width and height must be integers, the image at least 2x2 pixels"
_ORTHO_TOL = 1e-9


def read_only(arr: np.ndarray) -> np.ndarray:
    """Mark ``arr`` immutable and return it."""
    arr.setflags(write=False)
    return arr


def int_at_least(value, minimum: int, what: str, error: type = InvalidArgument) -> int:
    """``int(value)`` for a Python or numpy integer, not a bool, of at least ``minimum``;
    otherwise ``error`` with the message ``what`` and the value."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise error(f"{what}, got {value!r}")
    return int(value)


def _freeze(obj, name, value):
    arr = read_only(np.array(value, dtype=float))
    object.__setattr__(obj, name, arr)
    return arr


@dataclass(frozen=True)
class Camera:
    """One calibrated pinhole camera."""

    A: np.ndarray
    R: np.ndarray
    t: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        A = _freeze(self, "A", self.A)
        R = _freeze(self, "R", self.R)
        t = _freeze(self, "t", self.t)
        if A.shape != (3, 3) or R.shape != (3, 3) or t.shape != (3,):
            raise InvalidCamera("A and R must be 3x3, t must be a 3-vector")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(R)) and np.all(np.isfinite(t))):
            raise InvalidCamera("camera parameters must be finite")
        if abs(A[1, 0]) > 0 or abs(A[2, 0]) > 0 or abs(A[2, 1]) > 0:
            raise InvalidCamera("intrinsic matrix must be upper-triangular")
        if A[0, 0] <= 0 or A[1, 1] <= 0 or abs(A[2, 2] - 1.0) > 1e-12:
            raise InvalidCamera("intrinsics need positive focal terms and A[2,2] == 1")
        if np.linalg.norm(R.T @ R - np.eye(3)) > _ORTHO_TOL:
            raise InvalidCamera("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > _ORTHO_TOL:
            raise InvalidCamera("rotation determinant must be +1")
        for name in ("width", "height"):
            size = int_at_least(getattr(self, name), 2, IMAGE_SIZE, InvalidCamera)
            object.__setattr__(self, name, size)

    @property
    def projection(self) -> np.ndarray:
        """The 3x3 product A*R."""
        return self.A @ self.R

    @cached_property
    def projection_inv(self) -> np.ndarray:
        """(A*R)^-1, computed on first use; SingularProjection if ill-conditioned."""
        P = self.projection
        if np.linalg.cond(P) > COND_LIMIT:
            raise SingularProjection("A*R is singular within conditioning bound")
        return read_only(np.linalg.inv(P))

    @property
    def axis(self) -> np.ndarray:
        """Optical axis direction in world coordinates."""
        return self.R[2, :].copy()


def optical_center(cam: Camera) -> np.ndarray:
    """Camera center in world coordinates, -R^-1 t."""
    return -np.linalg.solve(cam.R, cam.t)


@dataclass(frozen=True)
class StereoRig:
    """An ordered pair of calibrated cameras with distinct centers."""

    cam1: Camera
    cam2: Camera

    def __post_init__(self):
        with np.errstate(over="ignore"):  # a baseline beyond about 1e154 has an inf norm
            if np.linalg.norm(self.baseline) <= 1e-12:
                raise InvalidRig("optical centers coincide")

    @cached_property
    def baseline(self) -> np.ndarray:
        return read_only(optical_center(self.cam2) - optical_center(self.cam1))

    @cached_property
    def x_hat(self) -> np.ndarray:
        b = self.baseline
        with np.errstate(over="ignore"):
            return read_only(b / np.linalg.norm(b))


def cross_matrix(v) -> np.ndarray:
    """Skew-symmetric matrix [v]x with [v]x u = v x u."""
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def rotation(axis, angle: float) -> np.ndarray:
    """Rotation by ``angle`` about the unit vector ``axis`` (Rodrigues' formula)."""
    K = cross_matrix(axis)
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


def normalize_matrix(F: np.ndarray) -> np.ndarray:
    """Unit Frobenius norm with the largest-magnitude entry made positive."""
    n = np.linalg.norm(F)
    if n == 0:
        return F.copy()
    F = F / n
    flat = F.ravel()
    if flat[np.argmax(np.abs(flat))] < 0:
        F = -F
    return F


def fundamental_matrix(rig: StereoRig) -> np.ndarray:
    """Fundamental matrix of the rig (p2^T F p1 = 0), normalised."""
    rig.cam2.projection_inv  # raises SingularProjection if A2*R2 is ill-conditioned
    P2 = rig.cam2.projection
    # [P2 b]x (P2 P1^-1) by columns; a product with cross_matrix rounds differently
    return normalize_matrix(np.cross(P2 @ rig.baseline, P2 @ rig.cam1.projection_inv,
                                     axisb=0, axisc=0))


def epipoles(rig: StereoRig) -> tuple[np.ndarray, np.ndarray]:
    """Normalised epipoles (e1, e2); kernels of F and F^T respectively."""
    b = rig.baseline
    e1 = rig.cam1.projection @ b
    e2 = rig.cam2.projection @ b
    return e1 / np.linalg.norm(e1), e2 / np.linalg.norm(e2)


def project(cam: Camera, X) -> np.ndarray:
    """Project a world point; homogeneous pixel coordinates, unnormalised."""
    X = np.asarray(X, dtype=float)
    return cam.A @ (cam.R @ X + cam.t)


def camera_from_dict(d: dict) -> Camera:
    try:
        return Camera(
            A=np.array(d["A"], dtype=float),
            R=np.array(d["R"], dtype=float),
            t=np.array(d["t"], dtype=float),
            width=d["width"],
            height=d["height"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidCalibration(f"bad camera record: {exc}") from exc


def rig_to_dict(rig: StereoRig) -> dict:
    return {name: {"A": cam.A.tolist(), "R": cam.R.tolist(), "t": cam.t.tolist(),
                   "width": cam.width, "height": cam.height}
            for name, cam in (("cam1", rig.cam1), ("cam2", rig.cam2))}


def load_json(path) -> dict:
    """Read a JSON file whose root is an object; NaN and Infinity are rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_constant=_reject_constant)
        except ValueError as exc:  # JSON syntax or text encoding
            raise InvalidCalibration(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidCalibration(f"{path} must hold a JSON object")
    return data


def _reject_constant(name):
    raise InvalidCalibration(f"non-finite number {name!r}")


def load_calibration(path) -> StereoRig:
    """Read a two-camera calibration JSON file; matrices are row-major lists of rows."""
    data = load_json(path)
    if "cam1" not in data or "cam2" not in data:
        raise InvalidCalibration("calibration must contain 'cam1' and 'cam2'")
    return StereoRig(camera_from_dict(data["cam1"]), camera_from_dict(data["cam2"]))
