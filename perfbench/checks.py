"""Correctness checks computed apart from the program.

Nothing here imports ``minrect``.  Every check takes plain numpy arrays (the
camera parameters A, R, t and image sizes, and the homographies the program
returned) and recomputes what the result must satisfy from first
principles: the fundamental matrix from the poses, the pixel-grid moments in
closed form, the distortion metric as a function of the horizon intercept,
bilinear inverse-map sampling, and the netpbm and JSON formats.  Each check
returns ``None`` when it holds and a one-line reason when it does not.
"""
from __future__ import annotations

import json
import math

import numpy as np

FORM_TOL = 1e-7  # H2^-T F H1^-1 against the rectified form, unit Frobenius norm
ROW_TOL_PX = 1e-6  # row alignment of projected points
METRIC_REL_TOL = 1e-8  # reported distortion against the recomputed metric
SCAN_GAP_TOL = 1e-9  # closed form over the dense-scan minimum, relative
BASELINE_REL_TOL = 1e-9  # closed form over the single-orientation baseline
LSB_TOL = 1  # warped samples against the reference bilinear sampler
EDGE_MARGIN_PX = 1e-3  # samples this close to the source border are skipped
EPIPOLE_MARGIN = 0.1  # image diagonals; nearer epipoles make the rig ill-posed
POLE_RATIO_FLOOR = 2e-7  # |dg/dy| / |L^T pc| below this puts a pole near infinity
POLE_MARGIN = 0.05  # image heights between the minimum and the nearest pole
POLE_GAP = 0.05  # image heights between the two poles

# the rectified fundamental matrix: epipoles at infinity along x
FBAR = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]) / math.sqrt(2.0)


def skew(v) -> np.ndarray:
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def center(cam) -> np.ndarray:
    """World position of a camera given as (A, R, t, width, height)."""
    _, R, t, _, _ = cam
    return -R.T @ t


def fundamental(cam1, cam2) -> np.ndarray:
    """F with p2^T F p1 = 0, built from the poses, unit Frobenius norm."""
    A1, R1, t1, _, _ = cam1
    A2, R2, t2, _, _ = cam2
    Rr = R2 @ R1.T
    tr = t2 - Rr @ t1
    F = np.linalg.inv(A2).T @ skew(tr) @ Rr @ np.linalg.inv(A1)
    return F / np.linalg.norm(F)


def rectified_form_residual(cam1, cam2, H1, H2) -> float:
    Fr = np.linalg.inv(H2).T @ fundamental(cam1, cam2) @ np.linalg.inv(H1)
    Fr = Fr / np.linalg.norm(Fr)
    return float(min(np.linalg.norm(Fr - FBAR), np.linalg.norm(Fr + FBAR)))


def visible_points(cam1, cam2, rng: np.random.Generator, n: int) -> np.ndarray:
    """World points that both cameras see, as far as the rig allows.

    Pixels of image 1 are back-projected to depths 1..20 and kept when they
    land inside image 2 in front of camera 2.  Rigs with little or no
    overlap are topped up with the remaining candidates whose image-2
    projections lie nearest the image; points far outside both images map
    to huge rectified coordinates, where the row comparison would measure
    rounding rather than alignment.
    """
    A1, R1, t1, w1, h1 = cam1
    A2, R2, t2, w2, h2 = cam2
    c1 = center(cam1)
    m = 8 * n
    uv = np.vstack([rng.uniform(0, w1 - 1, m), rng.uniform(0, h1 - 1, m), np.ones(m)])
    rays = R1.T @ np.linalg.solve(A1, uv)
    X = c1[:, None] + rays * rng.uniform(1.0, 20.0, m)
    p = A2 @ (R2 @ X + t2[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        x2, y2 = p[0] / p[2], p[1] / p[2]
    out = np.maximum.reduce([-x2, x2 - (w2 - 1), -y2, y2 - (h2 - 1), np.zeros(m)])
    out = np.where(p[2] > 0, out, np.inf)
    out = np.where(np.isfinite(out), out, np.inf)
    order = np.argsort(out, kind="stable")[:n]
    return X[:, order].T


def row_gap(cam1, cam2, H1, H2, X: np.ndarray) -> float:
    """Largest row difference of world points after projection and H, in px.

    The rectified canvas is max(h1, h2) rows tall; a point that maps further
    out than that has its difference divided by how many canvas heights out
    it lies, since its rectified coordinates carry that much more rounding.
    """
    rows, reach = [], []
    for (A, R, t, _, _), H in ((cam1, H1), (cam2, H2)):
        q = (H @ A @ (R @ X.T + t[:, None]))
        rows.append(q[1] / q[2])
        reach.append(np.max(np.abs(q[:2] / q[2]), axis=0))
    canvas = float(max(cam1[4], cam2[4]))
    scale = np.maximum(1.0, np.maximum(reach[0], reach[1]) / canvas)
    return float(np.max(np.abs(rows[0] - rows[1]) / scale))


def pixel_row_gap(H1, H2, pts: np.ndarray) -> float:
    """Row gap of image correspondences (x1, y1, x2, y2) mapped through H."""
    ones = np.ones(len(pts))
    q1 = H1 @ np.vstack([pts[:, 0], pts[:, 1], ones])
    q2 = H2 @ np.vstack([pts[:, 2], pts[:, 3], ones])
    return float(np.max(np.abs(q1[1] / q1[2] - q2[1] / q2[2])))


def grid_quotient(w, width: int, height: int) -> float:
    """sum over the pixel grid of (w.(p - pc) / w.pc)^2, in closed form.

    The grid is x = 0..width-1, y = 0..height-1; its centred second moments
    are width*height*(width^2-1)/12 and width*height*(height^2-1)/12.
    """
    W, H = float(width), float(height)
    num = W * H / 12.0 * (w[0] ** 2 * (W * W - 1.0) + w[1] ** 2 * (H * H - 1.0))
    den = w[0] * (W - 1.0) / 2.0 + w[1] * (H - 1.0) / 2.0 + w[2]
    return num / (den * den)


def metric_of_homographies(cam1, cam2, H1, H2) -> float:
    """The distortion metric of a pair, read from the third rows of H."""
    return (grid_quotient(H1[2], cam1[3], cam1[4])
            + grid_quotient(H2[2], cam2[3], cam2[4]))


class Metric:
    """The distortion metric of a rig as a function of the horizon intercept.

    For an intercept y on image 1 the new optical axis z is the component
    orthogonal to the baseline of the ray (A1 R1)^-1 (0, y, 1); the
    perspective rows are w_i = z^T (A_i R_i)^-1.  Each term is
    N_i(y) / g_i(y)^2 with N_i quadratic and g_i linear, so the poles are
    the roots of g_i.
    """

    def __init__(self, cam1, cam2):
        self.height = float(cam1[4])
        base = center(cam2) - center(cam1)
        x_hat = base / np.linalg.norm(base)
        Pinv = [np.linalg.inv(A @ R) for A, R, _, _, _ in (cam1, cam2)]
        ortho = np.eye(3) - np.outer(x_hat, x_hat)
        self.terms = []
        for P, (_, _, _, W, H) in zip(Pinv, (cam1, cam2)):
            # w_i(y) = L (0, y, 1) up to scale
            L = P.T @ ortho @ Pinv[0]
            W, H = float(W), float(H)
            S = W * H / 12.0 * np.diag([W * W - 1.0, H * H - 1.0, 0.0])
            pc = np.array([(W - 1.0) / 2.0, (H - 1.0) / 2.0, 1.0])
            M = L.T @ S @ L
            v = L.T @ pc  # g(y) = v[1] y + v[2]
            self.terms.append((np.array([M[1, 1], 2.0 * M[1, 2], M[2, 2]]), v))

    def pole_ratios(self) -> list[float]:
        """|dg_i/dy| / |L_i^T pc| per image; zero puts the pole at infinity."""
        return [abs(v[1]) / np.linalg.norm(v) for _, v in self.terms]

    def poles(self) -> list[float]:
        return [-v[2] / v[1] if v[1] != 0.0 else math.inf for _, v in self.terms]

    def value(self, y: float) -> float:
        """The metric at intercept y; +inf at a pole."""
        total = 0.0
        for n, v in self.terms:
            g = float(v[1]) * y + float(v[2])
            if g == 0.0:
                return math.inf
            total += ((float(n[0]) * y + float(n[1])) * y + float(n[2])) / (g * g)
        return total

    def minimum(self) -> tuple[float, float]:
        """Global minimum over the stationary points of the rational metric.

        With N = n0 y^2 + n1 y + n2 and g = a y + b, d/dy N/g^2 is
        lin / g^3 where lin = (2 n0 b - n1 a) y + (n1 b - 2 a n2), so the
        stationary points are the real roots of the quartic
        lin1 g2^3 + lin2 g1^3.  It is solved with the companion matrix in
        the variable u = (y - c) / h, centred once at 0 and once at each
        finite pole, since the roots that matter most sit close to a pole;
        every candidate is Newton-polished in its own variable.
        """
        h = self.height
        best = (math.inf, math.nan)
        for c in [0.0] + [p for p in self.poles() if math.isfinite(p)]:
            lins, gs = [], []
            for n, v in self.terms:
                # the term in u: y = c + h u
                a, b = v[1] * h, v[1] * c + v[2]
                n0 = n[0] * h * h
                n1 = (2.0 * n[0] * c + n[1]) * h
                n2 = (n[0] * c + n[1]) * c + n[2]
                lins.append(np.array([2.0 * n0 * b - n1 * a, n1 * b - 2.0 * a * n2]))
                g = np.array([a, b])
                gs.append(np.convolve(np.convolve(g, g), g))
            poly = np.convolve(lins[0], gs[1]) + np.convolve(lins[1], gs[0])
            nz = np.flatnonzero(poly)
            if len(nz) == 0 or nz[0] == len(poly) - 1:
                continue
            poly = poly[nz[0]:]
            coef = [float(x) for x in poly]
            deg = len(coef) - 1
            dcoef = [x * (deg - i) for i, x in enumerate(coef[:-1])]
            for r in np.roots(poly):
                if abs(r.imag) > 1e-6 * (1.0 + abs(r.real)):
                    continue
                u = float(r.real)
                for _ in range(8):
                    d = _horner(dcoef, u)
                    if d == 0.0:
                        break
                    step = _horner(coef, u) / d
                    u -= step
                    if abs(step) <= 1e-15 * (1.0 + abs(u)):
                        break
                y = c + h * u
                val = self.value(y)
                if math.isfinite(val) and val < best[0]:
                    best = (val, y)
        return best[1], best[0]


def _horner(coef, x: float) -> float:
    acc = 0.0
    for c in coef:
        acc = acc * x + c
    return acc


def epipole_reach(cam, other) -> float:
    """Distance of cam's epipole from its image, in image diagonals (0 inside)."""
    A, R, t, w, h = cam
    e = A @ R @ (center(other) - center(cam))
    if e[2] == 0.0:
        return math.inf
    ex, ey = e[0] / e[2], e[1] / e[2]
    dx = max(0.0, -ex, ex - (w - 1))
    dy = max(0.0, -ey, ey - (h - 1))
    return math.hypot(dx, dy) / math.hypot(w, h)


def well_posed(cam1, cam2) -> bool:
    """Whether the rig stays clear of the singular configurations.

    False when an epipole lies inside either image or within
    ``EPIPOLE_MARGIN`` image diagonals of it (a rectifying homography sends
    the epipole to infinity, so these rigs get unboundedly stretched
    canvases and homographies with condition numbers up to 1e11); when a
    pole of either term sits near infinity (|dg/dy| below
    ``POLE_RATIO_FLOOR`` of |L^T pc|); when the stationarity polynomial has
    no finite minimum; when the minimum lies within ``POLE_MARGIN`` image
    heights of a pole; or when the two poles lie within ``POLE_GAP`` image
    heights of each other.
    """
    if min(epipole_reach(cam1, cam2), epipole_reach(cam2, cam1)) <= EPIPOLE_MARGIN:
        return False
    m = Metric(cam1, cam2)
    if min(m.pole_ratios()) < POLE_RATIO_FLOOR:
        return False
    y, val = m.minimum()
    if not math.isfinite(val):
        return False
    h = float(cam1[4])
    poles = [p for p in m.poles() if math.isfinite(p)]
    if len(poles) == 2 and abs(poles[0] - poles[1]) <= POLE_GAP * h:
        return False
    return all(abs(y - p) > POLE_MARGIN * h for p in poles)


def local_min_excess(metric: Metric, y: float) -> float:
    """Relative amount by which a neighbour of y beats f(y); <= 0 if y is a local minimum."""
    f0 = metric.value(y)
    step = 1e-4 * (1.0 + abs(y))
    nb = min(metric.value(y - step), metric.value(y + step))
    return (f0 - nb) / (1.0 + abs(f0))


def check_rectification(cam1, cam2, H1, H2, distortion: float, y1: float,
                        rng: np.random.Generator, n_points: int = 20):
    """The properties every rectifying pair from the closed form must have."""
    H1 = np.asarray(H1, dtype=float)
    H2 = np.asarray(H2, dtype=float)
    if not (np.all(np.isfinite(H1)) and np.all(np.isfinite(H2)) and math.isfinite(distortion)):
        return "non-finite homography or distortion"
    res = rectified_form_residual(cam1, cam2, H1, H2)
    if not res <= FORM_TOL:
        return f"rectified-form residual {res:.3e} > {FORM_TOL:g}"
    gap = row_gap(cam1, cam2, H1, H2, visible_points(cam1, cam2, rng, n_points))
    if not gap <= ROW_TOL_PX:
        return f"row gap {gap:.3e} px > {ROW_TOL_PX:g}"
    m = metric_of_homographies(cam1, cam2, H1, H2)
    if not abs(m - distortion) <= METRIC_REL_TOL * (1.0 + abs(m)):
        return f"distortion {distortion!r} but H rows give {m!r}"
    metric = Metric(cam1, cam2)
    excess = local_min_excess(metric, y1)
    if not excess <= 1e-12:
        return f"y1* = {y1!r} is not a local minimum (excess {excess:.3e})"
    return None


def check_against_baseline(distortion: float, baseline: float):
    if not distortion <= baseline * (1.0 + BASELINE_REL_TOL) + 1e-12:
        return f"closed form {distortion!r} worse than baseline {baseline!r}"
    return None


def scan_gap(distortion: float, scan_value: float) -> float:
    return (distortion - scan_value) / (1.0 + scan_value)


# ---------------------------------------------------------------- images


def bilinear_reference(src: np.ndarray, H, xs: np.ndarray, ys: np.ndarray):
    """Inverse-map output pixels (xs, ys) through H^-1 with bilinear sampling.

    Returns (values, usable): values is (n, channels) float; usable is False
    for samples that land within EDGE_MARGIN_PX of the source border, where
    the in/out decision is not stable to rounding.
    """
    h, w = src.shape[:2]
    s = np.linalg.inv(np.asarray(H, dtype=float)) @ np.vstack([xs, ys, np.ones(len(xs))]).astype(float)
    sx, sy = s[0] / s[2], s[1] / s[2]
    inside = (sx >= 0) & (sx <= w - 1) & (sy >= 0) & (sy <= h - 1)
    near = np.minimum.reduce([np.abs(sx), np.abs(sx - (w - 1)), np.abs(sy), np.abs(sy - (h - 1))])
    usable = near > EDGE_MARGIN_PX
    sxc = np.clip(sx, 0, w - 1)
    syc = np.clip(sy, 0, h - 1)
    x0 = np.floor(sxc).astype(int)
    y0 = np.floor(syc).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (sxc - x0)[:, None]
    fy = (syc - y0)[:, None]
    img = src.reshape(h, w, -1).astype(float)
    top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
    bot = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
    vals = np.where(inside[:, None], top * (1 - fy) + bot * fy, 0.0)
    return vals, usable


def check_warp(src: np.ndarray, out: np.ndarray, H, size, rng: np.random.Generator,
               samples: int = 400):
    """Output size and a random sample of pixels against the reference sampler."""
    out_w, out_h = size
    if out.shape[0] != out_h or out.shape[1] != out_w:
        return f"output is {out.shape[1]}x{out.shape[0]}, expected {out_w}x{out_h}"
    xs = rng.integers(0, out_w, size=samples)
    ys = rng.integers(0, out_h, size=samples)
    ref, usable = bilinear_reference(src, H, xs, ys)
    got = out.reshape(out_h, out_w, -1)[ys, xs].astype(float)
    err = np.abs(got - ref)[usable]
    if err.size and err.max() > LSB_TOL:
        return f"warped pixel off by {err.max():.2f} LSB from the reference sampler"
    return None


def parse_pnm(raw: bytes) -> np.ndarray:
    """Binary P5/P6 with maxval 255 into an (h, w, c) uint8 array."""
    magic = raw[:2]
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"bad magic {magic!r}")
    fields = []
    i = 2
    while len(fields) < 3:
        while raw[i:i + 1].isspace():
            i += 1
        if raw[i:i + 1] == b"#":
            i = raw.index(b"\n", i) + 1
            continue
        j = i
        while not raw[j:j + 1].isspace():
            j += 1
        fields.append(int(raw[i:j]))
        i = j
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"maxval {maxval}")
    c = 1 if magic == b"P5" else 3
    body = raw[i + 1:i + 1 + w * h * c]
    if len(body) != w * h * c:
        raise ValueError("short pixel data")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w, c)


def _no_constant(name):
    raise ValueError(f"non-finite number {name} in JSON")


def strict_json(text: str):
    """JSON that rejects NaN and Infinity."""
    return json.loads(text, parse_constant=_no_constant)
