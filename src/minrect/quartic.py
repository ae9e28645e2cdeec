"""Closed-form stationary points of the distortion function.

The derivative of the two-term rational metric reduces to a quartic in the
horizon intercept; its coefficients come from eight intermediates built out
of the M and C matrices.  The quartic is solved by the radical formula
evaluated in complex arithmetic (the resolvent may require complex
intermediates even for all-real roots), then Newton-polished.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .distortion import DistortionOperands, distortion_of_y, is_admissible
from .errors import AllCoefficientsZero, DegenerateC, NoAdmissibleRoot, PoleAtY

_OMEGA = complex(-0.5, np.sqrt(3.0) / 2.0)  # primitive cube root of unity

RESIDUAL_REL = 1e-6
DEDUP_REL = 1e-8
REAL_IM_REL = 1e-8


@dataclass(frozen=True)
class QuarticProblem:
    """Intermediates and coefficients of the stationary-point polynomial."""

    m: tuple  # m1..m8
    coeffs: tuple  # a, b, c, d, e
    degenerate: bool  # informational: below cubic degree; no branch reads it


@dataclass(frozen=True)
class RootSet:
    """Real roots, ascending and deduplicated, with polynomial residuals."""

    roots: tuple
    residuals: tuple

    def __len__(self) -> int:
        return len(self.roots)


def quartic_coefficients(ops: DistortionOperands) -> QuarticProblem:
    """Build m1..m8 and the quartic coefficients from the operand matrices."""
    M1, M2, C1, C2 = ops.M1, ops.M2, ops.C1, ops.C2
    for name, C in (("C1", C1), ("C2", C2)):
        if C[1, 1] == 0.0:
            raise DegenerateC(f"[{name}]_22 is zero; intermediates undefined")
    with np.errstate(all="ignore"):  # overflow is caught below as a non-finite coefficient
        m1 = M1[1, 2] * C1[1, 2] - M1[2, 2] * C1[1, 1]
        m2 = M1[1, 1] * C1[1, 2] - M1[1, 2] * C1[1, 1]
        m3 = C2[1, 2] / C2[1, 1]
        m4 = C2[1, 1] / C1[1, 1]
        m5 = M2[1, 2] * C2[1, 2] - M2[2, 2] * C2[1, 1]
        m6 = M2[1, 1] * C2[1, 2] - M2[1, 2] * C2[1, 1]
        m7 = C1[1, 2] / C1[1, 1]
        m8 = C1[1, 1] / C2[1, 1]
        a = m2 * m4 + m6 * m8
        b = m1 * m4 + 3 * m2 * m3 * m4 + m5 * m8 + 3 * m6 * m7 * m8
        c = 3 * m1 * m3 * m4 + 3 * m2 * m3 * m3 * m4 + 3 * m5 * m7 * m8 + 3 * m6 * m7 * m7 * m8
        d = 3 * m1 * m3 * m3 * m4 + m2 * m3 ** 3 * m4 + 3 * m5 * m7 * m7 * m8 + m6 * m7 ** 3 * m8
        e = m1 * m3 ** 3 * m4 + m5 * m7 ** 3 * m8
    coeffs = (a, b, c, d, e)
    if not np.isfinite(coeffs).all():
        raise DegenerateC("quartic coefficients are not finite")
    # below cubic degree at the root scale of the trailing polynomial
    degenerate = (max(abs(v) for v in coeffs) > 0 and _drop_leading([a, b, c, d, e])
                  and _drop_leading([b, c, d, e]))
    return QuarticProblem(m=(m1, m2, m3, m4, m5, m6, m7, m8),
                          coeffs=coeffs, degenerate=degenerate)


def _poly_eval(coeffs, z):
    acc = 0.0 + 0.0j if isinstance(z, complex) else 0.0
    for c in coeffs:
        acc = acc * z + c
    return acc


def _newton_polish(coeffs, z: complex) -> complex:
    n = len(coeffs) - 1
    deriv = [c * (n - i) for i, c in enumerate(coeffs[:-1])]
    for _ in range(20):
        f = _poly_eval(coeffs, z)
        fp = _poly_eval(deriv, z)
        if abs(fp) < 1e-300:
            break
        step = f / fp
        z = z - step
        if abs(step) <= 1e-13 * (1.0 + abs(z)):
            break
    return z


def _quartic_candidates(a, b, c, d, e):
    """Quartic radical formula; complex intermediates throughout."""
    p = (8 * a * c - 3 * b * b) / (8 * a * a)
    q = 12 * a * e - 3 * b * d + c * c
    s = 27 * a * d * d - 72 * a * c * e + 27 * b * b * e - 9 * b * c * d + 2 * c ** 3
    shift = -b / (4 * a)
    disc = complex(s * s - 4 * q ** 3)
    root_disc = cmath.sqrt(disc)
    best_Q = 0.0 + 0.0j
    for sgn in (1.0, -1.0):
        base = (s + sgn * root_disc) / 2.0
        if abs(base) < 1e-300:
            continue
        delta0 = base ** (1.0 / 3.0)
        for k in range(3):
            dk = delta0 * _OMEGA ** k
            Q = 0.5 * cmath.sqrt(-2.0 * p / 3.0 + (dk + q / dk) / (3.0 * a))
            if abs(Q) > abs(best_Q):
                best_Q = Q
    scale = max(abs(p), abs(shift), 1.0)
    if abs(best_Q) > 1e-10 * scale:
        Q = best_Q
        S = (8 * a * a * d - 4 * a * b * c + b ** 3) / (8 * a ** 3)
        cands = []
        for s1 in (1.0, -1.0):
            inner = cmath.sqrt(-4.0 * Q * Q - 2.0 * p - s1 * S / Q)
            for s2 in (1.0, -1.0):
                cands.append(shift + s1 * Q + s2 * 0.5 * inner)
        return cands
    # Q ~ 0: depressed quartic is (near-)biquadratic; factor into quadratics.
    r0 = (256 * a ** 3 * e - 64 * a * a * b * d + 16 * a * b * b * c - 3 * b ** 4) / (256 * a ** 4)
    inner = cmath.sqrt(complex(p * p - 4.0 * r0))
    cands = []
    for s1 in (1.0, -1.0):
        t2 = (-p + s1 * inner) / 2.0
        rt = cmath.sqrt(t2)
        cands.extend([shift + rt, shift - rt])
    return cands


def _cubic_roots(b, c, d, e):
    """Cardano in complex arithmetic for b y^3 + c y^2 + d y + e."""
    shift = -c / (3 * b)
    p = (3 * b * d - c * c) / (3 * b * b)
    q = (2 * c ** 3 - 9 * b * c * d + 27 * b * b * e) / (27 * b ** 3)
    disc = cmath.sqrt(complex(q * q / 4.0 + p ** 3 / 27.0))
    cands = []
    for sgn in (1.0, -1.0):
        base = -q / 2.0 + sgn * disc
        if abs(base) < 1e-300:
            continue
        u = base ** (1.0 / 3.0)
        for k in range(3):
            uk = u * _OMEGA ** k
            cands.append(shift + uk - p / (3.0 * uk) if abs(uk) > 1e-300 else shift)
    if not cands:  # p == q == 0: triple root at the shift
        cands = [complex(shift)] * 3
    return cands


def _drop_leading(poly) -> bool:
    """Whether the leading term is negligible at the root scale of the rest.

    The raw coefficients can span many orders of magnitude (the constant
    term grows like the fourth power of the image size), so the leading
    coefficient is compared against the next one weighted by a Cauchy-style
    bound on the remaining polynomial's root magnitudes — not against the
    largest coefficient, which would misclassify perfectly good quartics.
    """
    lead, nxt, rest = poly[0], poly[1], poly[2:]
    if lead == 0.0:
        return True
    if nxt == 0.0:
        return False
    bound = 1.0 + (max(abs(v) for v in rest) / abs(nxt) if rest else 0.0)
    return abs(lead) * bound <= 1e-13 * abs(nxt)


def solve_quartic(problem: QuarticProblem) -> RootSet:
    """Real roots of the (possibly degenerate-degree) quartic."""
    coeffs = problem.coeffs
    scale = max(abs(v) for v in coeffs)
    if scale == 0.0:
        raise AllCoefficientsZero("all polynomial coefficients are zero")
    a, b, c, d, e = (v / scale for v in coeffs)
    if not _drop_leading([a, b, c, d, e]):
        cands = _quartic_candidates(a, b, c, d, e)
        poly = [a, b, c, d, e]
    elif not _drop_leading([b, c, d, e]):
        cands = _cubic_roots(b, c, d, e)
        poly = [b, c, d, e]
    elif not _drop_leading([c, d, e]):
        disc = cmath.sqrt(complex(d * d - 4.0 * c * e))
        cands = [(-d + disc) / (2.0 * c), (-d - disc) / (2.0 * c)]
        poly = [c, d, e]
    elif not _drop_leading([d, e]):
        cands = [complex(-e / d)]
        poly = [d, e]
    else:
        # Constant within tolerance but not exactly zero: no roots.
        return RootSet(roots=(), residuals=())

    reals = []
    for z in cands:
        z = _newton_polish(poly, complex(z))
        if abs(z.imag) <= REAL_IM_REL * (1.0 + abs(z.real)):
            reals.append(float(z.real))
    reals.sort()
    accepted = []
    residuals = []
    for r in reals:
        if accepted and abs(r - accepted[-1]) <= DEDUP_REL * (1.0 + abs(r)):
            continue
        res = abs(_poly_eval(poly, r))
        bound = RESIDUAL_REL * max(
            abs(a) * r ** 4, abs(b) * abs(r) ** 3, abs(c) * r * r, abs(d) * abs(r), abs(e), 1.0
        )
        if res <= bound:
            accepted.append(r)
            residuals.append(res * scale)
    return RootSet(roots=tuple(accepted), residuals=tuple(residuals))


def select_minimum(ops: DistortionOperands, problem: QuarticProblem,
                   roots: RootSet) -> tuple[float, float]:
    """Pick the admissible stationary point with the least distortion.

    Ties break toward smaller |y1|; ``problem`` is not read.
    """
    best = None
    for r in roots.roots:
        if not is_admissible(ops, r):
            continue
        try:
            d = distortion_of_y(ops, r)
        except PoleAtY:
            # a multiple root polished onto a pole neighbourhood; never the
            # minimum, since the function diverges there
            continue
        key = (d, abs(r))
        if best is None or key < best[0]:
            best = (key, r, d)
    if best is None:
        raise NoAdmissibleRoot("every stationary point is pole-adjacent")
    return best[1], best[2]
