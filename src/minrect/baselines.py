"""Comparison methods and verification oracles.

Holds the orientation-of-camera-1 baseline rectifier, a global minimiser
used as an independent oracle (a dense scan refined by re-scans), the
degenerate-configuration family on which initial-guess methods lose
positive-definiteness, and a randomized stress harness aggregating all of the above.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .distortion import (
    _BLOCK,
    DistortionOperands,
    distortion_of_w,
    distortion_of_y_many,
    moment_matrices,
    operand_matrices,
)
from .errors import DegenerateOrientation, EmptyDomain, InvalidArgument, MinrectError
from .geometry import Camera, StereoRig, cross_matrix, epipoles, fundamental_matrix, rot_x
from .rectify import RectifiedPair, assemble, complete_homographies

DEFAULT_INTRINSICS = np.array([[800.0, 0.0, 320.0], [0.0, 800.0, 240.0], [0.0, 0.0, 1.0]])
DEFAULT_SIZE = (640, 480)
STRESS_SCAN_SAMPLES = 20_001  # scan oracle density per stress trial
SCAN_GAP_LIMIT = 1e-9  # relative excess of the closed form over the scan that counts as a miss


def fusiello_rectify(rig: StereoRig) -> RectifiedPair:
    """Baseline: rectifying plane fixed by camera 1's old optical axis."""
    x_hat = rig.x_hat
    axis1 = rig.cam1.axis
    y_dir = np.cross(axis1, x_hat)
    ny = np.linalg.norm(y_dir)
    if ny <= 1e-12:
        raise DegenerateOrientation("camera-1 axis is parallel to the baseline")
    y_hat = y_dir / ny
    z_hat = np.cross(x_hat, y_hat)
    Rnew = np.vstack([x_hat, y_hat, z_hat])
    w1 = Rnew[2, :] @ rig.cam1.projection_inv
    w2 = Rnew[2, :] @ rig.cam2.projection_inv
    dist = distortion_of_w(w1, w2, moment_matrices(rig.cam1.width, rig.cam1.height),
                           moment_matrices(rig.cam2.width, rig.cam2.height))
    return complete_homographies(rig, Rnew, float("nan"), dist)


def scan_minimize(ops: DistortionOperands, y_lo: float, y_hi: float,
                  samples: int = 200_001) -> tuple[float, float]:
    """Dense scan of [y_lo, y_hi] plus re-scans; independent oracle.

    Each grid is evaluated one block at a time, so memory beyond it stays fixed,
    and yields its first sample of least value. The interval between that
    sample's neighbours is re-scanned with 1001 samples until it is within
    1e-10 * (1 + |lo| + |hi|); the last best sample and its value are returned."""
    if samples < 1001:
        raise InvalidArgument("samples must be at least 1001")
    try:
        lo, hi = float(y_lo), float(y_hi)
    except (OverflowError, TypeError, ValueError) as exc:
        raise InvalidArgument(f"scan bounds must convert to float, got {y_lo!r}, {y_hi!r}") from exc
    if not math.isfinite(hi - lo):  # also NaN or inf if either bound is
        raise InvalidArgument(f"scan bounds must be finite with a finite span, "
                              f"got {y_lo!r}, {y_hi!r}")
    while True:
        ys = np.linspace(lo, hi, samples)
        i, best = -1, np.inf
        for start in range(0, samples, _BLOCK):
            vals = distortion_of_y_many(ops, ys[start:start + _BLOCK])
            j = int(np.argmin(vals))
            if vals[j] < best:
                i, best = start + j, vals[j]
        if i < 0:
            raise EmptyDomain("every sample is pole-excluded or overflowing")
        # Python floats: |lo| + |hi| may round up to inf, and then without a warning
        lo, hi = float(ys[max(i - 1, 0)]), float(ys[min(i + 1, samples - 1)])
        if hi - lo <= 1e-10 * (1.0 + abs(lo) + abs(hi)):
            return ys[i], best
        samples = 1001


def degenerate_rig(a: float, theta_x: float) -> StereoRig:
    """Second camera at (1, a, a*tan(theta_x)), body-rotated about x.

    On this family the second epipole sits at infinity and initial-guess
    methods relying on positive-definite forms break down.
    """
    if not abs(theta_x) < math.pi / 2:
        raise InvalidArgument(f"theta_x must be inside (-pi/2, pi/2), got {theta_x!r}")
    A, (w, h) = DEFAULT_INTRINSICS, DEFAULT_SIZE
    cam1 = Camera(A=A, R=np.eye(3), t=np.zeros(3), width=w, height=h)
    o2 = np.array([1.0, a, a * math.tan(theta_x)])
    R2 = rot_x(theta_x).T  # world->camera map of a body rotated by theta_x
    cam2 = Camera(A=A, R=R2, t=-R2 @ o2, width=w, height=h)
    return StereoRig(cam1, cam2)


def default_pd_builder(rig: StereoRig) -> tuple[np.ndarray, np.ndarray]:
    """Approximate reconstruction of the initial-guess quadratic forms.

    Image 1 uses the epipole cross-product parametrisation, image 2 the
    fundamental-matrix transfer; both are restricted to the first two
    coordinates of the shared parameter.  This is a stand-in for the prior
    method's unpublished construction and is labelled as such in reports.
    """
    F = fundamental_matrix(rig)
    e1, _ = epipoles(rig)
    mom1 = moment_matrices(rig.cam1.width, rig.cam1.height)
    mom2 = moment_matrices(rig.cam2.width, rig.cam2.height)
    E1 = cross_matrix(e1)
    A = (E1.T @ mom1.ppt @ E1)[:2, :2]
    Ap = (F.T @ mom2.ppt @ F)[:2, :2]
    return A, Ap


def _cholesky_ok(M: np.ndarray) -> bool:
    tr = float(np.trace(M))
    if not np.isfinite(tr) or tr <= 0.0:
        return False
    rel = 1e-12 * tr
    if M[0, 0] <= rel:
        return False
    l21 = M[1, 0] / M[0, 0]
    return M[1, 1] - l21 * M[1, 0] > rel


def pd_probe(rig: StereoRig) -> bool:
    """Whether both quadratic forms admit a Cholesky-style factorization."""
    A, Ap = default_pd_builder(rig)
    return _cholesky_ok(A) and _cholesky_ok(Ap)


def random_rig(rng: np.random.Generator, max_angle: float = math.pi / 3) -> StereoRig:
    """Fixed intrinsics, random extrinsics: angle-axis rotation inside a
    bounded ball, unit-length random baseline direction."""
    A, (w, h) = DEFAULT_INTRINSICS, DEFAULT_SIZE
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle)
    K = cross_matrix(axis)
    R2 = np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)
    o2 = rng.normal(size=3)
    o2 /= np.linalg.norm(o2)
    cam1 = Camera(A=A, R=np.eye(3), t=np.zeros(3), width=w, height=h)
    cam2 = Camera(A=A, R=R2, t=-R2 @ o2, width=w, height=h)
    return StereoRig(cam1, cam2)


@dataclass
class StressReport:
    """Aggregate results of the randomized stress harness."""

    trials: int
    seed: int
    direct_successes: int = 0
    baseline_failures: int = 0
    pd_failures: int = 0
    distortion_ratios: dict = field(default_factory=dict)  # baseline / direct
    scan_gap_max: float | None = None  # largest (direct - scan) / (1 + scan)
    timings_ms: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)  # (trial, stage, message)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "direct_successes": self.direct_successes,
            "baseline_failures": self.baseline_failures,
            "pd_failures": self.pd_failures,
            "pd_failure_fraction": self.pd_failures / self.trials if self.trials else 0.0,
            "pd_probe_note": "default builder approximates the prior method's "
                             "unpublished forms; fractions are indicative only",
            "distortion_ratios": self.distortion_ratios,
            "scan_gap_max": self.scan_gap_max,
            "failures": [list(f) for f in self.failures],
            "timings_ms": self.timings_ms,
        }


def stress(trials: int, seed: int) -> StressReport:
    """Run direct, baseline, scan oracle and PD probe on random rigs; a closed
    form above the scan by more than ``SCAN_GAP_LIMIT`` is a "scan-gap" failure."""
    if trials < 1 or seed < 0:
        raise InvalidArgument(f"trials must be >= 1 and seed >= 0, got {trials} and {seed}")
    rng = np.random.default_rng(seed)
    report = StressReport(trials=trials, seed=seed)
    ratios, gaps = [], []
    t_direct, t_baseline, t_scan = [], [], []
    for trial in range(trials):
        rig = random_rig(rng)
        t0 = time.perf_counter()
        try:
            direct = assemble(rig)
        except MinrectError as exc:
            report.failures.append((trial, "direct", str(exc)))
            continue
        t_direct.append(time.perf_counter() - t0)
        report.direct_successes += 1

        t0 = time.perf_counter()
        try:
            baseline = fusiello_rectify(rig)
            t_baseline.append(time.perf_counter() - t0)
            if direct.distortion > 0:
                ratios.append(baseline.distortion / direct.distortion)
        except MinrectError as exc:
            report.baseline_failures += 1
            report.failures.append((trial, "baseline", str(exc)))

        ops = operand_matrices(rig)
        h = rig.cam1.height
        t0 = time.perf_counter()
        try:
            _, d_scan = scan_minimize(ops, -10.0 * h, 10.0 * h, STRESS_SCAN_SAMPLES)
        except MinrectError as exc:
            report.failures.append((trial, "scan", str(exc)))
        else:
            gaps.append(float((direct.distortion - d_scan) / (1.0 + d_scan)))
            if gaps[-1] > SCAN_GAP_LIMIT:
                report.failures.append((trial, "scan-gap", f"relative gap {gaps[-1]:.3e}"))
        t_scan.append(time.perf_counter() - t0)

        if not pd_probe(rig):
            report.pd_failures += 1
    if ratios:
        arr = np.array(sorted(ratios))
        report.distortion_ratios = {
            "count": len(arr),
            "min": float(arr[0]),
            "median": float(np.median(arr)),
            "max": float(arr[-1]),
        }
    report.scan_gap_max = max(gaps, default=None)
    report.timings_ms = {
        name: (1000.0 * float(np.mean(vals)) if vals else 0.0)
        for name, vals in (("direct", t_direct), ("baseline", t_baseline), ("scan", t_scan))
    }
    return report
