"""Camera model, fundamental matrix and epipolar geometry."""
import math

import numpy as np
import pytest

from minrect.errors import InvalidCalibration, InvalidCamera, InvalidRig
from minrect.geometry import (
    Camera,
    StereoRig,
    cross_matrix,
    epipoles,
    fundamental_matrix,
    load_calibration,
    normalize_matrix,
    optical_center,
    project,
    rig_to_dict,
    rotation,
)

from conftest import A_LEFT, make_camera, visible_points


def test_optical_center_identity():
    cam = make_camera(A_LEFT, np.eye(3), (0.0, 0.0, 0.0))
    assert np.allclose(optical_center(cam), 0.0)


def test_optical_center_translated():
    cam = Camera(A=A_LEFT, R=np.eye(3), t=np.array([-1.0, 0.0, 0.0]),
                 width=640, height=480)
    assert np.allclose(optical_center(cam), [1.0, 0.0, 0.0])


def test_optical_center_round_trip(rig_d):
    assert np.allclose(optical_center(rig_d.cam2), [1.0, 0.0, 0.0], atol=1e-12)


def test_camera_rejects_bad_intrinsics():
    bad = A_LEFT.copy()
    bad[1, 0] = 5.0  # lower-triangular leak
    with pytest.raises(InvalidCamera):
        Camera(A=bad, R=np.eye(3), t=np.zeros(3), width=640, height=480)


def test_camera_rejects_non_rotation():
    with pytest.raises(InvalidCamera):
        Camera(A=A_LEFT, R=2.0 * np.eye(3), t=np.zeros(3), width=640, height=480)


def test_rig_rejects_coincident_centers():
    cam = make_camera(A_LEFT, np.eye(3), (0.0, 0.0, 0.0))
    with pytest.raises(InvalidRig):
        StereoRig(cam1=cam, cam2=cam)


def test_fundamental_frontoparallel_form(frontoparallel):
    F = fundamental_matrix(frontoparallel)
    target = normalize_matrix(np.array([[0.0, 0.0, 0.0],
                                        [0.0, 0.0, -1.0],
                                        [0.0, 1.0, 0.0]]))
    assert np.linalg.norm(F - target) <= 1e-12


def test_fundamental_kernels(rig_d):
    F = fundamental_matrix(rig_d)
    e1, e2 = epipoles(rig_d)
    assert np.linalg.norm(F @ e1) <= 1e-9 * np.linalg.norm(e1)
    assert np.linalg.norm(F.T @ e2) <= 1e-9 * np.linalg.norm(e2)


def test_fundamental_rank_two(rig_d):
    s = np.linalg.svd(fundamental_matrix(rig_d), compute_uv=False)
    assert s[2] <= 1e-9 * s[0]


def test_fundamental_vs_correspondence_residual(rig_d):
    """F annihilates projections of noise-free 3D correspondences."""
    rng = np.random.default_rng(7)
    F = fundamental_matrix(rig_d)
    for X in visible_points(rig_d, rng, 20):
        p1 = project(rig_d.cam1, X)
        p2 = project(rig_d.cam2, X)
        p1, p2 = p1 / np.linalg.norm(p1), p2 / np.linalg.norm(p2)
        assert abs(p2 @ F @ p1) <= 1e-6


def test_fundamental_scale_invariance(rig_d):
    F = fundamental_matrix(rig_d)
    lam = 3.7
    cam1 = Camera(A=rig_d.cam1.A, R=rig_d.cam1.R, t=lam * rig_d.cam1.t,
                  width=640, height=480)
    cam2 = Camera(A=rig_d.cam2.A, R=rig_d.cam2.R, t=lam * rig_d.cam2.t,
                  width=640, height=480)
    F2 = fundamental_matrix(StereoRig(cam1=cam1, cam2=cam2))
    assert np.linalg.norm(F - F2) <= 1e-10


def test_epipole_frontoparallel_at_infinity(frontoparallel):
    e1, _ = epipoles(frontoparallel)
    e1 = e1 / np.linalg.norm(e1)
    assert np.allclose(np.abs(e1), [1.0, 0.0, 0.0], atol=1e-12)


def test_epipole_matches_svd_kernel(rig_d):
    F = fundamental_matrix(rig_d)
    e1, _ = epipoles(rig_d)
    _, _, vt = np.linalg.svd(F)
    k = vt[2]
    cosang = abs(np.dot(k, e1)) / (np.linalg.norm(k) * np.linalg.norm(e1))
    assert np.arccos(min(cosang, 1.0)) <= 1e-7


def test_project_principal_ray(rig_d):
    p = project(rig_d.cam1, [0.0, 0.0, 5.0])
    assert np.allclose(p / p[2], [320.0, 240.0, 1.0])


def test_project_identity_camera():
    cam = Camera(A=np.eye(3), R=np.eye(3), t=np.zeros(3), width=2, height=2)
    assert np.allclose(project(cam, [0.0, 0.0, 1.0]), [0.0, 0.0, 1.0])


def test_epipolar_line_rectified_form():
    Fbar = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    line = Fbar @ np.array([3.0, 7.0, 1.0])
    assert np.allclose(line, [0.0, -1.0, 7.0])


def test_epipolar_line_at_epipole_is_zero(rig_d):
    F = fundamental_matrix(rig_d)
    e1, _ = epipoles(rig_d)
    assert np.linalg.norm(F @ e1) <= 1e-9


def test_point_on_epipolar_line(rig_d):
    rng = np.random.default_rng(11)
    F = fundamental_matrix(rig_d)
    for X in visible_points(rig_d, rng, 10):
        p1 = project(rig_d.cam1, X)
        p2 = project(rig_d.cam2, X)
        line = F @ (p1 / p1[2])
        assert abs(line @ (p2 / p2[2])) <= 1e-8 * np.linalg.norm(line)


def test_epipolar_constraint_random_rigs():
    from minrect.baselines import random_rig

    rng = np.random.default_rng(3)
    for _ in range(100):
        rig = random_rig(rng)
        F = fundamental_matrix(rig)
        for X in visible_points(rig, rng, 5):
            p1 = project(rig.cam1, X)
            p2 = project(rig.cam2, X)
            bound = 1e-8 * np.linalg.norm(p1) * np.linalg.norm(p2)
            assert abs(p2 @ F @ p1) <= bound


def test_calibration_round_trip(tmp_path, rig_d):
    path = tmp_path / "calib.json"
    import json

    path.write_text(json.dumps(rig_to_dict(rig_d)))
    rig = load_calibration(path)
    assert np.allclose(rig.cam2.R, rig_d.cam2.R)
    assert np.allclose(rig.cam2.t, rig_d.cam2.t)


def test_calibration_rejects_non_finite(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"cam1": {"A": [[NaN,0,0],[0,1,0],[0,0,1]]}}')
    with pytest.raises(InvalidCalibration):
        load_calibration(path)


@pytest.mark.parametrize("field, value, message", [
    ("A", A_LEFT[:2, :2], "3x3"),
    ("t", [0.0, np.nan, 0.0], "finite"),
    ("A", A_LEFT + np.diag([0.0, 0.0, 1.0]), r"A\[2,2\] == 1"),
    ("R", np.diag([1.0, 1.0, -1.0]), "determinant"),
    ("width", 1, "at least 2x2"),
], ids=["2x2 A", "NaN in t", "A22 = 2", "det(R) = -1", "1 px wide"])
def test_camera_rejects_invalid_parameters(field, value, message):
    params = dict(A=A_LEFT, R=np.eye(3), t=np.zeros(3), width=640, height=480)
    params[field] = value
    with pytest.raises(InvalidCamera, match=message):
        Camera(**params)


@pytest.mark.parametrize("field, value", [("width", 640.7), ("height", "480"),
                                          ("width", True), ("width", 640.0)])
def test_camera_rejects_non_integer_sizes(field, value):
    """Sizes are neither rounded nor parsed, and a bool is not a size."""
    params = dict(A=A_LEFT, R=np.eye(3), t=np.zeros(3), width=640, height=480)
    params[field] = value
    with pytest.raises(InvalidCamera, match="must be integers"):
        Camera(**params)


def test_camera_stores_numpy_integer_sizes_as_int():
    cam = Camera(A=A_LEFT, R=np.eye(3), t=np.zeros(3), width=np.int64(640), height=480)
    assert type(cam.width) is int and cam.width == 640


def test_calibration_rejects_missing_camera(tmp_path, rig_d):
    import json

    path = tmp_path / "calib.json"
    path.write_text(json.dumps({"cam1": rig_to_dict(rig_d)["cam1"]}))
    with pytest.raises(InvalidCalibration, match="'cam1' and 'cam2'"):
        load_calibration(path)


def test_normalize_matrix_of_zeros_is_zeros():
    zeros = np.zeros((3, 3))
    out = normalize_matrix(zeros)
    assert np.array_equal(out, zeros) and out is not zeros


def test_epipolar_line_of_second_epipole_is_zero(rig_d):
    F = fundamental_matrix(rig_d)
    _, e2 = epipoles(rig_d)
    assert np.linalg.norm(F.T @ e2) <= 1e-9


# --- rotation: the one rotation helper ----------------------------------------------

def old_rot_x(theta: float) -> np.ndarray:
    """Verbatim copy of the deleted ``geometry.rot_x``."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def old_rot_y(theta: float) -> np.ndarray:
    """Verbatim copy of the deleted ``geometry.rot_y``."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def test_rotation_matches_the_old_axis_rotations_bit_for_bit():
    """Where cos(angle) >= 1/2, 1 - (1 - cos) is exactly cos, so Rodrigues' formula
    rounds like the explicit matrices. (At an angle of exactly 0 the old -sin entry
    was -0.0; rotation gives +0.0 there.)"""
    rng = np.random.default_rng(15)
    angles = [-math.pi / 3, math.pi / 3, *rng.uniform(-math.pi / 3, math.pi / 3, 2000)]
    for theta in angles:
        assert rotation((1.0, 0.0, 0.0), theta).tobytes() == old_rot_x(theta).tobytes()
        assert rotation((0.0, 1.0, 0.0), theta).tobytes() == old_rot_y(theta).tobytes()


def test_random_rig_rotation_matches_the_old_inline_formula_bit_for_bit():
    from minrect.baselines import random_rig

    rng, mirror = np.random.default_rng(16), np.random.default_rng(16)
    for _ in range(1000):
        rig = random_rig(rng)
        axis = mirror.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = mirror.uniform(0.0, math.pi / 3)
        mirror.normal(size=3)  # the baseline direction
        K = cross_matrix(axis)
        R2 = np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)
        assert rig.cam2.R.tobytes() == R2.tobytes()


@pytest.mark.parametrize("max_angle, tol", [(math.pi / 2, 1e-15), (math.pi, 4e-15)])
def test_rotation_is_orthonormal_with_determinant_one(max_angle, tol):
    """Rounding grows with 1 - cos: up to a quarter turn, both residuals stay
    within 1e-15; on the full turn they reach about 2.5e-15."""
    rng = np.random.default_rng(17)
    for _ in range(2000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        R = rotation(axis, rng.uniform(-max_angle, max_angle))
        assert np.linalg.norm(R.T @ R - np.eye(3)) <= tol
        assert abs(np.linalg.det(R) - 1.0) <= tol
