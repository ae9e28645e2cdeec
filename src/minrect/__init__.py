"""Minimal-distortion stereo rectification for calibrated pinhole rigs.

Given two calibrated pinhole cameras, the package computes the pair of
rectifying homographies whose perspective components minimise a
perspective-distortion metric, solving the stationarity condition in
closed form rather than numerically.
"""
from .baselines import (
    degenerate_rig,
    fusiello_rectify,
    pd_probe,
    random_rig,
    scan_minimize,
    stress,
)
from .distortion import (
    DistortionOperands,
    MomentMatrices,
    distortion_of_w,
    distortion_of_y,
    moment_matrices,
    operand_matrices,
    pixel_sum_distortion,
)
from .errors import MinrectError, PipelineError
from .geometry import (
    Camera,
    StereoRig,
    epipoles,
    fundamental_matrix,
    load_calibration,
    normalize_matrix,
    optical_center,
)
from .quartic import (
    QuarticProblem,
    RootSet,
    quartic_coefficients,
    select_minimum,
    solve_quartic,
)
from .rectify import (
    RectifiedPair,
    assemble,
    joint_fit,
    new_orientation,
    shear_similarity,
)
from .warp import ImageBuffer, read_pnm, warp_image, write_pnm

__version__ = "0.1.0"

__all__ = [
    "Camera",
    "DistortionOperands",
    "ImageBuffer",
    "MinrectError",
    "MomentMatrices",
    "PipelineError",
    "QuarticProblem",
    "RectifiedPair",
    "RootSet",
    "StereoRig",
    "assemble",
    "degenerate_rig",
    "distortion_of_w",
    "distortion_of_y",
    "epipoles",
    "fundamental_matrix",
    "fusiello_rectify",
    "joint_fit",
    "load_calibration",
    "moment_matrices",
    "new_orientation",
    "normalize_matrix",
    "operand_matrices",
    "optical_center",
    "pd_probe",
    "pixel_sum_distortion",
    "quartic_coefficients",
    "random_rig",
    "read_pnm",
    "scan_minimize",
    "select_minimum",
    "shear_similarity",
    "solve_quartic",
    "stress",
    "warp_image",
    "write_pnm",
]
