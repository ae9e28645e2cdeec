"""Rigs whose [C_i]_22 is tiny or zero: near-rectified heads and the
already-rectified pair.

[C_i]_22 is the y² coefficient of a distortion term's denominator.  It is
tiny whenever the pair is close to rectified, which is a well-posed input:
the closed form must return the scan minimum there like anywhere else.
Only an exactly zero [C_i]_22 leaves the intermediates undefined.
"""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from minrect import serialize
from minrect.cli import main
from minrect.distortion import operand_matrices
from minrect.errors import DegenerateC, PipelineError
from minrect.geometry import Camera, StereoRig, cross_matrix, rig_to_dict
from minrect.quartic import quartic_coefficients
from minrect.rectify import assemble

from test_acceptance import alignment_residual, rect_residual, scan_gap

A_800 = np.array([[800.0, 0.0, 320.0], [0.0, 800.0, 240.0], [0.0, 0.0, 1.0]])
SIZES = ((64, 48), (160, 120), (320, 240), (640, 480), (1280, 720),
         (1920, 1080), (2592, 1944), (3840, 2160))


def two_cameras(A1, A2, R2, t2, width, height) -> StereoRig:
    cam1 = Camera(A=A1, R=np.eye(3), t=np.zeros(3), width=width, height=height)
    cam2 = Camera(A=A2, R=np.asarray(R2, dtype=float), t=np.asarray(t2, dtype=float),
                  width=width, height=height)
    return StereoRig(cam1=cam1, cam2=cam2)


def rectified_head() -> StereoRig:
    """Identical cameras, principal point at the grid centre, baseline (1, 0, 0)."""
    A = np.array([[600.0, 0.0, 319.5], [0.0, 600.0, 239.5], [0.0, 0.0, 1.0]])
    return two_cameras(A, A, np.eye(3), (-1.0, 0.0, 0.0), 640, 480)


# Draws 1962 and 2087 of random_rig(default_rng(5), max_angle=pi/2), written out.
DRAW_1962 = two_cameras(
    A_800, A_800,
    [[0.9467678942679784, -0.31052460620026495, -0.08488240882272688],
     [0.3195010116699099, 0.9386523930910566, 0.12981058695783085],
     [0.039365694777080365, -0.15002051155959592, 0.9878988754858034]],
    (-0.9161272742591049, 0.3188855967897576, -0.2429460712146281), 640, 480)
DRAW_2087 = two_cameras(
    A_800, A_800,
    [[0.8859341154724445, 0.13906397747123211, 0.44247254515047374],
     [-0.09472156927463653, 0.9881345870039883, -0.1209043517852344],
     [-0.45403586571570265, 0.06520159611802553, 0.8885944994807554]],
    (0.866917431789777, 0.48690146183898636, 0.1066823927275506), 640, 480)


def rotation(axis, angle) -> np.ndarray:
    K = cross_matrix(axis)
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def near_rectified_head(rng: np.random.Generator) -> StereoRig:
    """Relative rotation up to 3 degrees, baseline within about 3 degrees of x,
    a shared focal length in [0.6, 1.6] w with 2 % per camera, principal
    point within 1 % of the grid centre."""
    w, h = SIZES[rng.integers(len(SIZES))]
    f = w * rng.uniform(0.6, 1.6)
    As = []
    for _ in range(2):
        fx = f * rng.uniform(0.98, 1.02)
        fy = fx * rng.uniform(0.995, 1.005)
        cx = (w - 1) / 2.0 + w * rng.uniform(-0.01, 0.01)
        cy = (h - 1) / 2.0 + h * rng.uniform(-0.01, 0.01)
        As.append(np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]]))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    R2 = rotation(axis, rng.uniform(0.0, math.radians(3.0)))
    c2 = np.array([1.0, *rng.uniform(-0.035, 0.035, size=2)])
    c2 /= np.linalg.norm(c2)
    return two_cameras(As[0], As[1], R2, -R2 @ c2, w, h)


def check_rectifies(rig: StereoRig, rng: np.random.Generator, points: int) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pair = assemble(rig)
    assert scan_gap(rig, pair) <= 1e-9
    assert rect_residual(rig, pair) <= 1e-7
    assert alignment_residual(rig, pair, rng, points) <= 1e-6


@pytest.mark.parametrize("rig", [rectified_head(), DRAW_1962, DRAW_2087],
                         ids=["rectified-head", "draw-1962", "draw-2087"])
def test_small_c22_rig_rectifies(rig):
    check_rectifies(rig, np.random.default_rng(17), 100)


def test_near_rectified_heads_rectify():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        check_rectifies(near_rectified_head(rng), rng, 10)


def test_exactly_zero_c22_raises_or_is_exact():
    """Here [C_i]_22 is exactly 0.0; a typed error or an exact zero distortion,
    never NaN and never a numpy warning."""
    A = np.array([[512.0, 0.0, 320.0], [0.0, 512.0, 240.0], [0.0, 0.0, 1.0]])
    rig = two_cameras(A, A, np.eye(3), (-1.0, 0.0, 0.0), 641, 481)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            pair = assemble(rig)
        except PipelineError as exc:
            assert exc.stage == "quartic-coefficients"
            assert isinstance(exc.cause, DegenerateC)
            return
    assert np.isfinite(pair.H1).all() and np.isfinite(pair.H2).all()
    assert math.isfinite(pair.y1_star)
    assert 0.0 <= pair.distortion <= 1e-9


def test_overflowing_coefficients_raise_without_warning(rig_d):
    """A subnormal [C_1]_22 overflows the intermediates: DegenerateC, not inf."""
    ops = operand_matrices(rig_d)
    C1 = np.array(ops.C1)
    C1[1, 1] = 5e-324
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateC, match="not finite"):
            quartic_coefficients(dataclasses.replace(ops, C1=C1))


def test_cli_rectifies_the_rectified_head(tmp_path, capsys):
    calib = tmp_path / "calib.json"
    calib.write_text(serialize.dumps(rig_to_dict(rectified_head())))
    assert main(["rectify", str(calib), "-o", str(tmp_path / "rect.json")]) == 0
    assert "distortion 0.000000" in capsys.readouterr().out
