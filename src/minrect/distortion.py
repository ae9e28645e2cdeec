"""The perspective-distortion metric and its reduction to one scalar.

The metric scores a pair of perspective rows (w vectors) by how far the
transformations stray from affinity over the pixel grid, as a sum of two
Rayleigh quotients.  With the horizon parametrised by its y-intercept on
image 1, both w vectors become affine functions of that single scalar and
the metric a rational function of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadDimensions, DegenerateCenter, InvalidArgument, PoleAtY
from .geometry import StereoRig, read_only

POLE_HALF_WIDTH = 1e-9  # relative half-width of the exclusion zone around poles


@dataclass(frozen=True)
class MomentMatrices:
    """Second-moment matrices of the integer pixel grid of one image."""

    ppt: np.ndarray  # centered moments, diagonal with zero last entry
    pcpct: np.ndarray  # outer product of the average pixel


def moment_matrices(width: int, height: int) -> MomentMatrices:
    """Closed-form pixel-grid moments for a width x height image."""
    if width < 2 or height < 2:
        raise BadDimensions("image must be at least 2x2 pixels")
    w, h = float(width), float(height)
    ppt = (w * h / 12.0) * np.diag([w * w - 1.0, h * h - 1.0, 0.0])
    v = np.array([(w - 1.0) / 2.0, (h - 1.0) / 2.0, 1.0])
    return MomentMatrices(ppt=read_only(ppt), pcpct=read_only(np.outer(v, v)))


@dataclass(frozen=True)
class DistortionOperands:
    """Matrices reducing the metric to a function of the horizon intercept."""

    L1: np.ndarray
    L2: np.ndarray
    M1: np.ndarray
    M2: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    moments1: MomentMatrices
    moments2: MomentMatrices


def _sym(M: np.ndarray) -> np.ndarray:
    return read_only((M + M.T) / 2.0)


def operand_matrices(rig: StereoRig) -> DistortionOperands:
    """Build L, M and C matrices for a rig."""
    P1inv = rig.cam1.projection_inv
    P2inv = rig.cam2.projection_inv
    x_hat = rig.x_hat
    ortho = np.eye(3) - np.outer(x_hat, x_hat)
    L1 = P1inv.T @ ortho @ P1inv
    L2 = P2inv.T @ ortho @ P1inv
    mom1 = moment_matrices(rig.cam1.width, rig.cam1.height)
    mom2 = moment_matrices(rig.cam2.width, rig.cam2.height)
    M1 = _sym(L1.T @ mom1.ppt @ L1)
    M2 = _sym(L2.T @ mom2.ppt @ L2)
    C1 = _sym(L1.T @ mom1.pcpct @ L1)
    C2 = _sym(L2.T @ mom2.pcpct @ L2)
    return DistortionOperands(L1=read_only(L1), L2=read_only(L2), M1=M1, M2=M2, C1=C1, C2=C2,
                              moments1=mom1, moments2=mom2)


def w_from_y_raw(ops: DistortionOperands, y1: float) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled perspective rows L_i (0, y1, 1)^T."""
    u = np.array([0.0, float(y1), 1.0])
    return ops.L1 @ u, ops.L2 @ u


def w_from_y(ops: DistortionOperands, y1: float) -> tuple[np.ndarray, np.ndarray]:
    """Perspective rows for a horizon intercept, rescaled to third component 1;
    ``PoleAtY`` where a row's third component is 0, which is not a pole of the metric."""
    w1, w2 = w_from_y_raw(ops, y1)
    out = []
    for w in (w1, w2):
        if abs(w[2]) <= 1e-12 * (1.0 + np.linalg.norm(w)):
            raise PoleAtY(f"y1={y1!r}: a row cannot be rescaled to third component 1")
        out.append(w / w[2])
    return out[0], out[1]


def _quotient(w: np.ndarray, mom: MomentMatrices) -> float:
    num = float(w @ mom.ppt @ w)
    den = float(w @ mom.pcpct @ w)
    if den <= 1e-15 * max(num, 1.0):
        raise DegenerateCenter("average-pixel denominator vanishes")
    return num / den


def distortion_of_w(w1, w2, m1: MomentMatrices, m2: MomentMatrices) -> float:
    """Two-term Rayleigh-quotient metric for a pair of perspective rows."""
    return _quotient(np.asarray(w1, dtype=float), m1) + _quotient(np.asarray(w2, dtype=float), m2)


def pixel_sum_distortion(w, width: int, height: int) -> float:
    """Reference oracle: explicit squared sum over every pixel of one image."""
    if width < 2 or height < 2:
        raise BadDimensions("image must be at least 2x2 pixels")
    w = np.asarray(w, dtype=float)
    pc = np.array([(width - 1) / 2.0, (height - 1) / 2.0, 1.0])
    den = float(w @ pc)
    if abs(den) <= 1e-15 * max(abs(w[0]) * width, abs(w[1]) * height, abs(w[2]), 1.0):
        raise DegenerateCenter("w is orthogonal to the average pixel")
    total = 0.0
    for y in range(height):
        for x in range(width):
            p = np.array([float(x), float(y), 1.0])
            num = float(w @ (p - pc))
            total += (num / den) ** 2
    return total


def poles(ops: DistortionOperands) -> tuple[float, float]:
    """Roots of the two quadratic denominators (each a double root).

    A term with [C_i]_22 == 0 has a denominator that does not depend on y (C_i is
    rank 1, so [C_i]_23 is 0 too): its pole is at infinity and excludes nothing."""
    return tuple(-C[1, 2] / C[1, 1] if C[1, 1] != 0.0 else math.inf for C in (ops.C1, ops.C2))


def _exclusion_half_width(pole: float) -> float:
    return POLE_HALF_WIDTH * (1.0 + abs(pole))


def _exclusion_zones(ops: DistortionOperands) -> list[tuple[float, float]]:
    """(pole, half-width) of each finite pole."""
    return [(p, _exclusion_half_width(p)) for p in poles(ops) if math.isfinite(p)]


def is_admissible(ops: DistortionOperands, y1: float) -> bool:
    """Whether y1 lies outside both pole-exclusion zones."""
    return all(abs(y1 - p) > half_width for p, half_width in _exclusion_zones(ops))


def _rational_terms(ops: DistortionOperands):
    """Quadratic numerator/denominator coefficient triples for both terms."""
    out = []
    for M, C in ((ops.M1, ops.C1), (ops.M2, ops.C2)):
        out.append(
            (
                (M[1, 1], 2.0 * M[1, 2], M[2, 2]),
                (C[1, 1], 2.0 * C[1, 2], C[2, 2]),
            )
        )
    return out


def _metric_of_y(terms, y: float):
    """The metric at ``y`` from ``_rational_terms``; None at a pole."""
    total = 0.0
    for (n2, n1, n0), (d2, d1, d0) in terms:
        num = (n2 * y + n1) * y + n0
        den = (d2 * y + d1) * y + d0
        if den <= 1e-15 * max(abs(num), 1.0):
            return None
        total += num / den
    return total


def distortion_of_y(ops: DistortionOperands, y1: float) -> float:
    """The metric as a function of the horizon intercept on image 1, a finite y1
    at which the quadratic forms do not overflow."""
    if not math.isfinite(y1):
        raise InvalidArgument(f"y1 must be finite, got {y1!r}")
    try:
        with np.errstate(over="raise"):
            total = _metric_of_y(_rational_terms(ops), float(y1))
    except FloatingPointError as exc:
        raise InvalidArgument(f"y1={y1!r} overflows the distortion function") from exc
    if total is None:
        raise PoleAtY(f"y1={y1!r} is at a pole of the distortion function")
    return total


_BLOCK = 16_384  # samples per block of distortion_of_y_many; its buffers stay in cache


def distortion_of_y_many(ops: DistortionOperands, ys: np.ndarray) -> np.ndarray:
    """Vectorised evaluation; a sample next to a pole, or one at which a
    numerator's quadratic form overflows, comes out as +inf.

    Runs over blocks of ``_BLOCK`` samples through one set of buffers, so that
    beyond its output it needs a fixed amount of memory, whatever the size of ``ys``.
    """
    ys = np.asarray(ys, dtype=float)
    out = np.empty(ys.shape)
    flat_ys, flat_out = ys.reshape(-1), out.reshape(-1)
    terms = _rational_terms(ops)
    zones = _exclusion_zones(ops)
    size = min(flat_ys.size, _BLOCK)
    num, den, tmp = np.empty(size), np.empty(size), np.empty(size)
    bad = np.empty(size, dtype=bool)
    for start in range(0, flat_ys.size, _BLOCK):
        y = flat_ys[start:start + _BLOCK]
        total = flat_out[start:start + _BLOCK]
        k = y.size
        nu, de, t, b = num[:k], den[:k], tmp[:k], bad[:k]
        total.fill(0.0)
        # distortion_of_y's arithmetic, in its order, written in place
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for (n2, n1, n0), (d2, d1, d0) in terms:
                np.multiply(y, n2, out=nu)
                nu += n1
                nu *= y
                nu += n0
                np.multiply(y, d2, out=de)
                de += d1
                de *= y
                de += d0
                np.abs(nu, out=t)  # bad: den <= 1e-15 * max(|num|, 1)
                np.maximum(t, 1.0, out=t)
                t *= 1e-15
                np.less_equal(de, t, out=b)
                np.divide(nu, de, out=t)
                np.copyto(t, np.inf, where=b)
                total += t
        for p, half_width in zones:
            np.subtract(y, p, out=t)
            np.abs(t, out=t)
            np.less_equal(t, half_width, out=b)
            np.copyto(total, np.inf, where=b)
    return out
