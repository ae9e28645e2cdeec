"""Comparison methods and verification oracles.

Holds the orientation-of-camera-1 baseline rectifier, a global minimiser
used as an independent oracle (a dense scan refined by re-scans), the
degenerate-configuration family on which initial-guess methods lose
positive-definiteness, and a randomized stress harness aggregating all of the above.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .distortion import (
    _BLOCK,
    DistortionOperands,
    _fill_block,
    distortion_of_w,
    moment_matrices,
    operand_matrices,
)
from .errors import EmptyDomain, InvalidArgument, MinrectError
from .geometry import (Camera, StereoRig, cross_matrix, epipoles, fundamental_matrix,
                       int_at_least, rotation)
from .rectify import RectifiedPair, assemble, complete_homographies, orientation

DEFAULT_INTRINSICS = np.array([[800.0, 0.0, 320.0], [0.0, 800.0, 240.0], [0.0, 0.0, 1.0]])
DEFAULT_SIZE = (640, 480)
STRESS_SCAN_SAMPLES = 20_001  # scan oracle density per stress trial
SCAN_GAP_LIMIT = 1e-9  # relative excess of the closed form over the scan that counts as a miss


def fusiello_rectify(rig: StereoRig) -> RectifiedPair:
    """Baseline: rectifying plane fixed by camera 1's old optical axis."""
    Rnew = orientation(rig, rig.cam1.axis)
    w1 = Rnew[2, :] @ rig.cam1.projection_inv
    w2 = Rnew[2, :] @ rig.cam2.projection_inv
    dist = distortion_of_w(w1, w2, moment_matrices(rig.cam1.width, rig.cam1.height),
                           moment_matrices(rig.cam2.width, rig.cam2.height))
    return complete_homographies(rig, Rnew, float("nan"), dist)


def _chunk_bounds(ops: DistortionOperands, lo: float, hi: float, samples: int,
                  chunk: int) -> np.ndarray:
    """Per chunk of ``chunk`` samples of ``np.linspace(lo, hi, samples)``, a float >= 0
    that none of the chunk's samples reads below in ``_fill_block``.

    The chunk's samples lie between its end samples, taken with the grid's arithmetic,
    the last one hi (k·step + lo stays on lo's side of hi for every k < samples - 1).
    Where a form ℓ keeps its sign there, r = ℓ/g is a Möbius function with no zero, so |r|
    is least at an end sample (it grows toward a pole inside the chunk). Less 1e-12·|r|·
    (1 + (|c1|·max|y| + |c0|)/min|ℓ|), over 10³ times the rounding of ℓ, g and r, that
    bounds every sample's float |r|, and rounding is monotone. An ℓ that may change sign or
    is below 1e-150 (so that (ℓ/g)² overflows wherever g underflows), or a g at an end
    below 1e-300 or not finite, bounds its term by 0. The four (term, axis) rows are
    bounded at once, against the end samples of every chunk."""
    div, delta = samples - 1, hi - lo
    step = delta / div
    # per (term, axis) row; g = g1·(y - p) + 0, or y·0 + g0 where g1 == 0
    rows = [(s, c1, c0, abs(c1), abs(c0), g1, p if g1 else 0.0, 0.0 if g1 else g0)
            for axes, g1, p, g0 in ops.terms for s, c1, c0 in axes]
    s, c1, c0, a1, a0, g1, p, g0 = np.array(rows).T[:, :, None]  # each (4, 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k = np.arange(0, samples, chunk, dtype=float) + [[0.0], [chunk - 1.0]]
        ends = k * step + lo if step else k / div * delta + lo  # first and last samples
        ends[1, -1] = hi
        big, ends = np.abs(ends).max(axis=0), ends[:, None]
        g = (ends - p) * g1 + g0  # (2, 4, chunks), as is ℓ
        ell = c1 * ends + c0
        low = np.abs(ell).min(axis=0)
        r = np.abs(ell / g).min(axis=0)
        r -= 1e-12 * r * (1.0 + (a1 * big + a0) / low)
        # False where a NaN is compared; a g that is not finite at an end makes r 0 or NaN
        keep = (ell[0] * ell[1] > 0.0) & (low > 1e-150) & (np.abs(g).min(axis=0) > 1e-300)
        term = np.where(keep & (r > 0.0), s * (r * r), 0.0)
    return (term[0] + term[1]) + (term[2] + term[3])


def scan_minimize(ops: DistortionOperands, y_lo: float, y_hi: float,
                  samples: int = 200_001) -> tuple[float, float]:
    """Least sample of a grid over [y_lo, y_hi], refined by re-scans; independent oracle.

    Each grid, written with ``np.linspace``'s arithmetic and evaluated ``_BLOCK`` samples
    at a time in fixed memory, yields its first sample of least value. A grid of more than
    ``_BLOCK`` samples is cut into at most 128 chunks of at least 2048 samples, bounded by
    ``_chunk_bounds``: the chunk of least bound is evaluated first, then, in ascending
    order, every other chunk whose bound is not above the least value found, so it returns
    the dense scan's bits. The interval between that sample's neighbours is re-scanned
    with 1001 samples until it is within 1e-10 * (1 + |lo| + |hi|); the last best sample
    and its value are returned."""
    samples = int_at_least(samples, 1001, "samples must be an integer of at least 1001")
    try:
        lo, hi = float(y_lo), float(y_hi)
    except (OverflowError, TypeError, ValueError) as exc:
        raise InvalidArgument(f"scan bounds must convert to float, got {y_lo!r}, {y_hi!r}") from exc
    if not math.isfinite(hi - lo):  # also NaN or inf if either bound is
        raise InvalidArgument(f"scan bounds must be finite with a finite span, "
                              f"got {y_lo!r}, {y_hi!r}")
    counts = np.arange(min(samples, _BLOCK), dtype=float)
    ys, vals, buffers = np.empty_like(counts), np.empty_like(counts), np.empty((3, counts.size))

    def scan(chunks, i, best):
        """(i, best) updated with the first least sample of ``chunks``, ascending chunk
        numbers of the current grid, whose samples are packed into ``ys`` and filled
        ``_BLOCK`` at a time."""
        pieces, used = [], 0  # (offset in ys, sample number) of each piece packed so far
        for c in chunks:
            start, stop = c * chunk, min(c * chunk + chunk, samples)
            while start < stop:
                n = min(stop - start, ys.size - used)
                np.add(counts[:n], start, out=ys[used:used + n])
                pieces.append((used, start))
                used, start = used + n, start + n
                if used < ys.size and (start < stop or c != chunks[-1]):
                    continue  # fill once the buffers are full or every sample is packed
                y, v = ys[:used], vals[:used]
                if not step:
                    y /= div
                y *= step or delta
                y += lo
                if start == samples:
                    y[-1] = hi  # np.linspace's last sample, packed last
                _fill_block(ops, y, v, buffers)
                j = int(v.argmin())
                offset, first = max(piece for piece in pieces if piece[0] <= j)
                if v[j] < best or (v[j] == best and first + j - offset < i):
                    i, best = first + j - offset, float(v[j])  # ties keep the first sample
                pieces, used = [], 0
        return i, best

    while True:
        div, delta = samples - 1, hi - lo
        step = delta / div  # np.linspace's: k·step + lo, or k/div·delta + lo if step is 0
        chunk, bounds = samples, [0.0]
        if samples > _BLOCK:
            chunk = max(2048, -(-samples // 128))
            bounds = _chunk_bounds(ops, lo, hi, samples, chunk).tolist()
        least = bounds.index(min(bounds))
        i, best = scan([least], -1, math.inf)
        i, best = scan([c for c, b in enumerate(bounds) if b <= best and c != least], i, best)
        if i < 0:
            raise EmptyDomain("every sample is at a pole or overflows")
        # Python floats: |lo| + |hi| may round up to inf, and then without a warning
        lo, hi, y_best = [hi if k == div else (k * step if step else k / div * delta) + lo
                          for k in (max(i - 1, 0), min(i + 1, div), i)]
        if abs(hi - lo) <= 1e-10 * (1.0 + abs(lo) + abs(hi)):  # a reversed grid runs down
            return np.float64(y_best), np.float64(best)
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
    R2 = rotation((1.0, 0.0, 0.0), theta_x).T  # world->camera map of a body rotated by theta_x
    cam2 = Camera(A=A, R=R2, t=-R2 @ o2, width=w, height=h)
    return StereoRig(cam1, cam2)


def default_pd_builder(rig: StereoRig) -> tuple[np.ndarray, np.ndarray]:
    """Approximate reconstruction of the initial-guess quadratic forms.

    Image 1 uses the epipole cross-product parametrisation, image 2 the
    fundamental-matrix transfer; both are restricted to the first two
    coordinates of the shared parameter.  This is a stand-in for Loop & Zhang's
    initial-guess forms (CVPR 1999, section 5) and is labelled as such in reports.
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
    R2 = rotation(axis, angle)
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
    timings_ms: dict = field(default_factory=dict)  # mean of each stage's successful calls
    failures: list = field(default_factory=list)  # (trial, stage, message)

    def to_dict(self) -> dict:
        """The fields in order, each failure as a list, then two derived entries."""
        return {**asdict(self), "failures": [list(f) for f in self.failures],
                "pd_failure_fraction": self.pd_failures / self.trials if self.trials else 0.0,
                "pd_probe_note": "default builder is a stand-in for Loop & Zhang's "
                                 "initial-guess forms; fractions are indicative only"}


def stress(trials: int, seed: int) -> StressReport:
    """Run direct, baseline, scan oracle and PD probe on random rigs; a closed
    form above the scan by more than ``SCAN_GAP_LIMIT`` is a "scan-gap" failure."""
    trials = int_at_least(trials, 1, "trials must be an integer >= 1")
    seed = int_at_least(seed, 0, "seed must be an integer >= 0")
    rng = np.random.default_rng(seed)
    report = StressReport(trials=trials, seed=seed)
    ratios, gaps = [], []
    seconds = {"direct": [], "baseline": [], "scan": []}

    def attempt(trial, stage, fn, *args):
        """``fn(*args)``, timed under ``stage``; None, and a failure entry, on a MinrectError."""
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except MinrectError as exc:
            report.failures.append((trial, stage, str(exc)))
            return None
        seconds[stage].append(time.perf_counter() - t0)
        return result

    for trial in range(trials):
        rig = random_rig(rng)
        direct = attempt(trial, "direct", assemble, rig)
        if direct is None:
            continue
        report.direct_successes += 1
        baseline = attempt(trial, "baseline", fusiello_rectify, rig)
        if baseline is None:
            report.baseline_failures += 1
        elif direct.distortion > 0:
            ratios.append(baseline.distortion / direct.distortion)
        h = rig.cam1.height
        scan = attempt(trial, "scan", scan_minimize, operand_matrices(rig),
                       -10.0 * h, 10.0 * h, STRESS_SCAN_SAMPLES)
        if scan is not None:
            gaps.append(float((direct.distortion - scan[1]) / (1.0 + scan[1])))
            if gaps[-1] > SCAN_GAP_LIMIT:
                report.failures.append((trial, "scan-gap", f"relative gap {gaps[-1]:.3e}"))
        if not pd_probe(rig):
            report.pd_failures += 1
    if ratios:
        arr = np.array(sorted(ratios))
        report.distortion_ratios = {"count": len(arr), "min": float(arr[0]),
                                    "median": float(np.median(arr)), "max": float(arr[-1])}
    report.scan_gap_max = max(gaps, default=None)
    report.timings_ms = {stage: 1000.0 * float(np.mean(vals)) if vals else 0.0
                         for stage, vals in seconds.items()}
    return report
