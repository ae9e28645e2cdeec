"""End-to-end assembly of the minimal-distortion rectifying homographies.

Pipeline: operand matrices -> quartic stationary points -> best horizon
intercept -> common virtual-camera orientation -> per-image base
homographies -> shear -> joint similarity fit.  The shear restores the
perpendicularity and aspect ratio of the image midlines; the joint fit
applies one uniform scale and one vertical offset shared by both images so
row alignment survives the framing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quartic
from .distortion import operand_matrices
from .errors import (
    CollapsedMidlines,
    DegenerateZ,
    MinrectError,
    PipelineError,
)
from .geometry import StereoRig, read_only


@dataclass(frozen=True)
class RectifiedPair:
    """Final homographies with their decomposition and achieved distortion."""

    H1: np.ndarray
    H2: np.ndarray
    w1: tuple  # (w_a, w_b) of image 1
    w2: tuple
    shear1: tuple  # (s_a, s_b)
    shear2: tuple
    distortion: float
    y1_star: float
    output_size: tuple  # (width, height) of the union canvas


def orientation(rig: StereoRig, direction: np.ndarray) -> np.ndarray:
    """Read-only rotation whose rows are the new axes in WCS: x follows the
    baseline and z is the component of ``direction`` orthogonal to it, turned
    toward camera 1's axis; ``DegenerateZ`` when that component vanishes."""
    x_hat = rig.x_hat
    z = direction - x_hat * float(x_hat @ direction)
    nz = np.linalg.norm(z)
    if nz <= 1e-12:
        raise DegenerateZ("horizon ray is parallel to the baseline")
    z_hat = z / nz
    if float(z_hat @ rig.cam1.axis) < 0.0:
        z_hat = -z_hat
    (z0, z1, z2), (x0, x1, x2) = z_hat.tolist(), x_hat.tolist()
    # np.cross(z_hat, x_hat) by components, in its order
    return read_only(np.array([x_hat, (z1 * x2 - z2 * x1, z2 * x0 - z0 * x2, z0 * x1 - z1 * x0),
                               z_hat]))


def new_orientation(rig: StereoRig, y1: float) -> np.ndarray:
    """``orientation`` whose horizon passes through the y-intercept ``y1`` on image 1."""
    # The intercept ray is (A1 R1)^-1 (0, y1, 1), solved rather than taken from
    # projection_inv: the two differ in the last bits, and the golden outputs
    # are those of the solve.
    return orientation(rig, np.linalg.solve(rig.cam1.projection, np.array([0.0, float(y1), 1.0])))


def _map_points(H: np.ndarray, points) -> list:
    """Each (x, y) of ``points`` mapped through H, as a pair of Python floats;
    ``CollapsedMidlines`` where one maps to infinity.  One stacked matvec gives
    ``H @ (x, y, 1)`` bit for bit for every point, where ``H @ P`` on a 3x4 block
    does not."""
    columns = np.array([[x, y, 1.0] for x, y in points])[:, :, None]
    mapped = []
    for (x, y), ((p0,), (p1,), (p2,)) in zip(points, np.matmul(H, columns).tolist()):
        if abs(p2) <= 1e-12 * max(abs(p0), abs(p1), 1.0):
            raise CollapsedMidlines(f"point ({x}, {y}) maps to infinity")
        mapped.append((p0 / p2, p1 / p2))
    return mapped


def shear_similarity(Hp_base: np.ndarray, width: int, height: int) -> np.ndarray:
    """Shear restoring midline perpendicularity and the w:h aspect ratio."""
    w, h = float(width), float(height)
    a_m, b_m, c_m, d_m = _map_points(
        Hp_base, [(w / 2.0, 0.0), (w, h / 2.0), (w / 2.0, h), (0.0, h / 2.0)])
    u = (b_m[0] - d_m[0], b_m[1] - d_m[1])
    v = (c_m[0] - a_m[0], c_m[1] - a_m[1])
    cross = u[0] * v[1] - u[1] * v[0]
    if abs(cross) <= 1e-12 * max(np.linalg.norm(u) * np.linalg.norm(v), 1e-300):
        raise CollapsedMidlines("midlines collapse; shear undefined")
    s_a = (h * h * u[1] ** 2 + w * w * v[1] ** 2) / (h * w * (u[1] * v[0] - u[0] * v[1]))
    s_b = (h * h * u[0] * u[1] + w * w * v[0] * v[1]) / (h * w * cross)
    if s_a < 0:
        s_a, s_b = -s_a, -s_b
    return np.array([[s_a, s_b, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def _corners(width: int, height: int):
    w, h = float(width) - 1.0, float(height) - 1.0
    return [(0.0, 0.0), (w, 0.0), (w, h), (0.0, h)]


def joint_fit(H1_pre: np.ndarray, H2_pre: np.ndarray,
              size1: tuple, size2: tuple):
    """Shared uniform scale and vertical offset, per-image horizontal offsets.

    Returns (fit1, fit2, (out_width, out_height)); both output canvases get
    the taller image's height so scanlines stay in one-to-one correspondence.
    """
    quads = [_map_points(H, _corners(width, height))
             for H, (width, height) in ((H1_pre, size1), (H2_pre, size2))]
    ymin = min(y for q in quads for _, y in q)
    ymax = max(y for q in quads for _, y in q)
    extent = ymax - ymin
    out_h = max(size1[1], size2[1])
    scale = float(out_h - 1) / extent if extent > 0 else 1.0
    ty = -scale * ymin
    fits = []
    widths = []
    for q in quads:
        xmin, xmax = min(x for x, _ in q), max(x for x, _ in q)
        tx = -scale * xmin
        fits.append(np.array([[scale, 0.0, tx], [0.0, scale, ty], [0.0, 0.0, 1.0]]))
        widths.append(int(math.ceil(scale * (xmax - xmin))) + 1)
    return fits[0], fits[1], (max(widths), out_h if extent > 0 else 1)


def _stage(name, fn, *args):
    try:
        return fn(*args)
    except MinrectError as exc:
        raise PipelineError(name, exc) from exc


def assemble(rig: StereoRig) -> RectifiedPair:
    """Run the full closed-form rectification pipeline on a rig."""
    ops = _stage("operands", operand_matrices, rig)
    problem = _stage("quartic-coefficients", quartic.quartic_coefficients, ops)
    roots = _stage("quartic-roots", quartic.solve_quartic, problem)
    y1_star, dist = _stage("minimum-selection", quartic.select_minimum, ops, problem, roots)
    Rnew = _stage("orientation", new_orientation, rig, y1_star)
    return complete_homographies(rig, Rnew, y1_star, dist)


def complete_homographies(rig: StereoRig, Rnew: np.ndarray,
                          y1_star: float, dist: float) -> RectifiedPair:
    """Shear, fit and normalise the base homographies ``Rnew @ (A R)^-1``,
    where the rows of the rotation ``Rnew`` are the new axes in WCS."""
    shears, pres = [], []
    for cam in (rig.cam1, rig.cam2):
        base = Rnew @ cam.projection_inv
        S = _stage("shear", shear_similarity, base, cam.width, cam.height)
        shears.append((S[0, 0], S[0, 1]))
        pres.append(S @ base)
    fit1, fit2, out_size = _stage(
        "fit", joint_fit, pres[0], pres[1],
        (rig.cam1.width, rig.cam1.height), (rig.cam2.width, rig.cam2.height))
    Hs = [read_only(H / H[2, 2]) for H in (fit1 @ pres[0], fit2 @ pres[1])]
    ws = [(H[2, 0], H[2, 1]) for H in Hs]
    return RectifiedPair(
        H1=Hs[0], H2=Hs[1], w1=ws[0], w2=ws[1],
        shear1=shears[0], shear2=shears[1],
        distortion=float(dist), y1_star=float(y1_star), output_size=out_size)
