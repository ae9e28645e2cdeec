"""Shared fixtures: reference rigs and small helpers."""
import numpy as np
import pytest

from minrect.geometry import Camera, StereoRig, rotation


def make_camera(A, R, center, width=640, height=480) -> Camera:
    """Camera placed at a world-space optical center (t = -R @ center)."""
    R = np.asarray(R, dtype=float)
    return Camera(A=np.asarray(A, dtype=float), R=R,
                  t=-R @ np.asarray(center, dtype=float),
                  width=width, height=height)


A_LEFT = np.array([[800.0, 0.0, 320.0], [0.0, 800.0, 240.0], [0.0, 0.0, 1.0]])
A_RIGHT = np.array([[760.0, 0.0, 310.0], [0.0, 770.0, 250.0], [0.0, 0.0, 1.0]])


@pytest.fixture
def rig_d() -> StereoRig:
    """Mildly verged rig: right camera yawed 10 degrees, unit baseline."""
    cam1 = make_camera(A_LEFT, np.eye(3), (0.0, 0.0, 0.0))
    cam2 = make_camera(A_RIGHT, rotation((0.0, 1.0, 0.0), np.radians(10.0)), (1.0, 0.0, 0.0))
    return StereoRig(cam1=cam1, cam2=cam2)


@pytest.fixture
def frontoparallel() -> StereoRig:
    """Identical cameras translated along x: already rectified."""
    cam1 = make_camera(A_LEFT, np.eye(3), (0.0, 0.0, 0.0))
    cam2 = make_camera(A_LEFT, np.eye(3), (1.0, 0.0, 0.0))
    return StereoRig(cam1=cam1, cam2=cam2)


def visible_points(rig: StereoRig, rng: np.random.Generator, n: int) -> np.ndarray:
    """World points in front of both cameras (sampled in a box ahead of cam1)."""
    pts = []
    while len(pts) < n:
        X = rng.uniform([-2.0, -2.0, 3.0], [3.0, 2.0, 9.0])
        d1 = (rig.cam1.R @ X + rig.cam1.t)[2]
        d2 = (rig.cam2.R @ X + rig.cam2.t)[2]
        if d1 > 0.1 and d2 > 0.1:
            pts.append(X)
    return np.array(pts)
