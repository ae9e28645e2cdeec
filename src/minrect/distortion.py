"""The perspective-distortion metric and its reduction to one scalar.

The metric scores a pair of perspective rows (w vectors) by how far the
transformations stray from affinity over the pixel grid, as a sum of two
Rayleigh quotients.  ppt is diag(s_x, s_y, 0), so each quotient is
s_x·(ℓ_x/g)² + s_y·(ℓ_y/g)², with ℓ_x and ℓ_y the first two entries of w and
g = p_bar^T w, p_bar the average pixel.  With the horizon parametrised by its
y-intercept on image 1, w_i = L_i (0, y, 1), so ℓ_x, ℓ_y and g are linear in
that single scalar, and the metric has its poles where a g vanishes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import BadDimensions, DegenerateCenter, InvalidArgument, PoleAtY
from .geometry import StereoRig, read_only


@dataclass(frozen=True)
class MomentMatrices:
    """Second-moment matrices of the integer pixel grid of one image."""

    ppt: np.ndarray  # centered moments, diagonal with zero last entry
    pcpct: np.ndarray  # outer product of the average pixel


@lru_cache(maxsize=64)
def moment_matrices(width: int, height: int) -> MomentMatrices:
    """Closed-form pixel-grid moments for a width x height image; the result is
    read-only, so one object per size is shared by every caller."""
    if width < 2 or height < 2:
        raise BadDimensions("image must be at least 2x2 pixels")
    w, h = float(width), float(height)
    ppt = (w * h / 12.0) * np.diag([w * w - 1.0, h * h - 1.0, 0.0])
    v = np.array([(w - 1.0) / 2.0, (h - 1.0) / 2.0, 1.0])
    return MomentMatrices(ppt=read_only(ppt), pcpct=read_only(np.outer(v, v)))


def poles(ops: DistortionOperands) -> tuple[float, float]:
    """The intercept p of each term, where its g = g1·(y - p) vanishes; inf where g1 == 0,
    since that term's g = g0 does not depend on y."""
    return tuple(p for _, _, p, _ in ops.terms)


def _linear_terms(ops: DistortionOperands) -> tuple:
    """Per term, as Python floats: the pairs (s_x, ℓ_x) and (s_y, ℓ_y), each weight s a
    diagonal entry of ppt and each ℓ given by its coefficients (y, 1), columns 1 and 2 of a
    row of L_i; then g1, p and g0 of the denominator's linear form g, with (g1, g0) =
    p_bar^T L_i (columns 1 and 2) and p = -g0/g1, so that g = g1·(y - p), or g = g0 where
    g1 == 0. Near a pole y - p is exact, so g is rounded once and is exactly 0 at p itself."""
    out = []
    for L, mom in ((ops.L1, ops.moments1), (ops.L2, ops.moments2)):
        (_, x1, x0), (_, y1, y0), _ = L.tolist()
        _, g1, g0 = (mom.pcpct[2] @ L).tolist()
        axes = ((float(mom.ppt[0, 0]), x1, x0), (float(mom.ppt[1, 1]), y1, y0))
        out.append((axes, g1, -g0 / g1 if g1 else math.inf, g0))
    return tuple(out)


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

    # read by every evaluation of the metric, so built once per instance
    terms = cached_property(_linear_terms)


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
    """Perspective rows for a horizon intercept, rescaled to third component 1; ``PoleAtY``
    where a rescaled row is not finite, as where w[2] is 0, which is not a pole of the metric."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w1, w2 = (w / w[2] for w in w_from_y_raw(ops, y1))
    if not (np.isfinite(w1).all() and np.isfinite(w2).all()):
        raise PoleAtY(f"y1={y1!r}: a row cannot be rescaled to third component 1")
    return w1, w2


def distortion_of_w(w1, w2, m1: MomentMatrices, m2: MomentMatrices) -> float:
    """Two-term Rayleigh-quotient metric of two perspective rows: each term is
    s_x·(ℓ_x/g)² + s_y·(ℓ_y/g)² with (ℓ_x, ℓ_y) = (w[0], w[1]) and g = p̄ᵀw (p̄ the average
    pixel) on w times a power of two, so any finite nonzero scale of w gives the same bits;
    ``DegenerateCenter`` only where it is not finite."""
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # ±inf or NaN in w is refused below
        for w, mom in ((w1, m1), (w2, m2)):
            w = np.asarray(w, dtype=float)
            w = np.ldexp(w, -np.frexp(np.abs(w).max())[1])  # largest magnitude in [0.5, 1)
            g = float(mom.pcpct[2] @ w)
            if not 0.0 < abs(g) < math.inf:  # tested first: Python's float division by 0 raises
                raise DegenerateCenter("w is (nearly) orthogonal to the average pixel: not finite")
            rx, ry = float(w[0]) / g, float(w[1]) / g
            total += float(mom.ppt[0, 0]) * (rx * rx) + float(mom.ppt[1, 1]) * (ry * ry)
    if not math.isfinite(total):  # each term is >= 0, +inf or NaN: all seen here
        raise DegenerateCenter("the distortion metric of these rows is not finite")
    return total


def pixel_sum_distortion(w, width: int, height: int) -> float:
    """Reference oracle: explicit squared sum over every pixel of one image."""
    if width < 2 or height < 2:
        raise BadDimensions("image must be at least 2x2 pixels")
    w = np.asarray(w, dtype=float)
    pc = np.array([(width - 1) / 2.0, (height - 1) / 2.0, 1.0])
    den = float(w @ pc)
    if den == 0.0:
        raise DegenerateCenter("w is orthogonal to the average pixel")
    total = 0.0
    for y in range(height):
        for x in range(width):
            p = np.array([float(x), float(y), 1.0])
            r = float(w @ (p - pc)) / den
            total += r * r  # inf, where ** 2 would raise OverflowError
    return total


def distortion_of_y(ops: DistortionOperands, y1: float) -> float:
    """The metric as a function of the horizon intercept on image 1, defined exactly where
    ``distortion_of_y_many`` reads it finite: ``InvalidArgument`` where y1 is not finite or
    a term's ℓ or g overflows, ``PoleAtY`` where a g is 0 or the metric exceeds the float
    range. Each term is s_x·r_x·r_x + s_y·r_y·r_y with r = ℓ/g, and the total is
    0 + term₁ + term₂."""
    if not math.isfinite(y1):
        raise InvalidArgument(f"y1 must be finite, got {y1!r}")
    y, total = float(y1), 0.0
    for ((sx, ax, bx), (sy, ay, by)), g1, p, g0 in ops.terms:
        g = g1 * (y - p) if g1 else g0
        lx, ly = ax * y + bx, ay * y + by
        # finite coefficients and y give inf only through an overflow
        if not max(abs(g), abs(lx), abs(ly)) < math.inf:
            raise InvalidArgument(f"y1={y1!r} overflows the distortion function")
        if g == 0.0:
            raise PoleAtY(f"y1={y1!r} is at a pole of the distortion function")
        rx, ry = lx / g, ly / g
        total += sx * (rx * rx) + sy * (ry * ry)
    if not math.isfinite(total):  # next to a pole, beyond the float range
        raise PoleAtY(f"y1={y1!r} is at a pole of the distortion function")
    return total


_BLOCK = 16_384  # samples per block of distortion_of_y_many; its buffers stay in cache


def _fill_block(ops: DistortionOperands, y: np.ndarray, total: np.ndarray,
                buffers: np.ndarray) -> None:
    """Write the metric at the 1-D samples ``y`` into ``total`` with ``distortion_of_y``'s
    arithmetic, in place in ``buffers`` (a (3, n) float array, n >= y.size), +inf where it
    refuses. Each refusal but one makes the sum non-finite, as ℓ/0 and inf/g are ±inf or
    NaN; the one, a g overflow under a finite ℓ, makes its term 0. So a block takes a mask
    only where a g or the sum is not finite."""
    g, term, r = buffers[:, :y.size]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # term 1 goes to total, as 0 + x = x for every x >= +0, +inf or NaN
        for acc, (axes, g1, p, g0) in zip((total, term), ops.terms):
            if g1:
                np.subtract(y, p, out=g)
                g *= g1
            else:
                g.fill(g0)
            for out, (s, c1, c0) in zip((acc, r), axes):
                np.multiply(y, c1, out=out)
                out += c0
                out /= g
                out *= out
                out *= s
            acc += r
            if not (g.max() < math.inf and g.min() > -math.inf):
                np.copyto(acc, math.inf, where=np.isinf(g))
        total += term
        if not total.max() < math.inf:  # each term is >= 0, +inf or NaN
            np.copyto(total, math.inf, where=~np.isfinite(total))


def distortion_of_y_many(ops: DistortionOperands, ys: np.ndarray) -> np.ndarray:
    """Vectorised evaluation, +inf where ``distortion_of_y`` refuses: at a pole, where a
    term's ℓ or g overflows, or where the metric exceeds the float range.

    Runs over blocks of ``_BLOCK`` samples through one set of buffers, so that
    beyond its output it needs a fixed amount of memory, whatever the size of ``ys``.
    """
    ys = np.asarray(ys, dtype=float)
    out = np.empty(ys.shape)
    flat_ys, flat_out = ys.reshape(-1), out.reshape(-1)
    buffers = np.empty((3, min(flat_ys.size, _BLOCK)))
    for start in range(0, flat_ys.size, _BLOCK):
        _fill_block(ops, flat_ys[start:start + _BLOCK], flat_out[start:start + _BLOCK], buffers)
    return out
