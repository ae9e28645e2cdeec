"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""
import time

import numpy as np
import pytest

from minrect.baselines import (
    degenerate_rig,
    pd_probe,
    random_rig,
    scan_minimize,
    stress,
)
from minrect.distortion import (
    distortion_of_w,
    moment_matrices,
    operand_matrices,
    pixel_sum_distortion,
)
from minrect.geometry import StereoRig, project
from minrect.quartic import (
    QuarticProblem,
    quartic_coefficients,
    select_minimum,
    solve_quartic,
)
from minrect.rectify import assemble

from conftest import A_LEFT, make_camera, visible_points
from test_rectify import rectified_residual


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d}: {status} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def alignment_residual(rig: StereoRig, pair, rng, n: int) -> float:
    worst = 0.0
    for X in visible_points(rig, rng, n):
        p1 = project(rig.cam1, X)
        p2 = project(rig.cam2, X)
        q1 = pair.H1 @ (p1 / p1[2])
        q2 = pair.H2 @ (p2 / p2[2])
        worst = max(worst, abs(q1[1] / q1[2] - q2[1] / q2[2]))
    return worst


def scan_gap(rig: StereoRig, pair, samples: int = 200_001) -> float:
    """Relative excess of the closed form over the dense-scan minimum."""
    ops = operand_matrices(rig)
    h = rig.cam1.height
    _, d_scan = scan_minimize(ops, -10.0 * h, 10.0 * h, samples=samples)
    return (pair.distortion - d_scan) / (1.0 + d_scan)


def test_criterion_1_rectified_form():
    """Normalized H2^-T F H1^-1 equals the rectified matrix on 500 rigs."""
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        rig = random_rig(rng)
        worst = max(worst, rectified_residual(rig, assemble(rig)))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-7 and elapsed <= 30.0,
           f"max residual {worst:.3e} (≤1e-7), runtime {elapsed:.1f}s (≤30s)")


def test_criterion_2_row_alignment():
    """100 visible points per rig on 100 rigs stay row-aligned to 1e-6 px."""
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        rig = random_rig(rng)
        worst = max(worst, alignment_residual(rig, assemble(rig), rng, 100))
    report(2, worst <= 1e-6, f"max |dy| {worst:.3e} px (≤1e-6)")


def test_criterion_3_global_minimum():
    """Closed form never exceeds the dense-scan minimum on 500 rigs."""
    rng = np.random.default_rng(1003)
    worst = -np.inf
    for _ in range(500):
        rig = random_rig(rng)
        worst = max(worst, scan_gap(rig, assemble(rig)))
    report(3, worst <= 1e-9, f"max relative excess {worst:.3e} (≤1e-9)")


def test_criterion_4_metric_equivalence():
    """Matrix form agrees with the pixel-sum oracle on small grids."""
    rng = np.random.default_rng(1004)
    worst = 0.0
    for width, height in ((32, 24), (3, 5)):
        m = moment_matrices(width, height)
        for _ in range(50):
            w = np.array([rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), 1.0])
            matrix_form = distortion_of_w(w, [0.0, 0.0, 1.0], m, m)
            oracle = pixel_sum_distortion(w, width, height)
            worst = max(worst, abs(matrix_form - oracle) / max(oracle, 1e-300))
    report(4, worst <= 1e-9, f"max relative error {worst:.3e} (≤1e-9)")


def test_criterion_5_quartic_solver():
    """Closed-form roots match the companion-matrix oracle, 10^4 quartics."""
    def solve(coeffs):
        problem = QuarticProblem(m=(0.0,) * 8, coeffs=tuple(coeffs),
                                 degenerate=False)
        return np.array(solve_quartic(problem).roots)

    trivial = [
        ((1.0, -10.0, 35.0, -50.0, 24.0), [1.0, 2.0, 3.0, 4.0]),
        ((1.0, 0.0, -5.0, 0.0, 4.0), [-2.0, -1.0, 1.0, 2.0]),
        ((1.0, 0.0, 0.0, 0.0, 1.0), []),
        ((1.0, -6.0, 11.0, -6.0, 0.0), [0.0, 1.0, 2.0, 3.0]),  # y(y-1)(y-2)(y-3)
    ]
    trivial_ok = all(
        len(solve(c)) == len(expected)
        and np.allclose(solve(c), expected, atol=1e-10)
        for c, expected in trivial
    )
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(10_000):
        coeffs = np.concatenate([[1.0], rng.uniform(-1e3, 1e3, size=4)])
        ours = solve(coeffs)
        real = np.array([r.real for r in np.roots(coeffs)
                         if abs(r.imag) <= 1e-7 * (1 + abs(r.real))])
        for r in ours:
            err = (np.abs(real - r).min() / (1.0 + abs(r))) if len(real) else np.inf
            worst = max(worst, err)
    report(5, trivial_ok and worst <= 1e-7,
           f"trivial cases {'ok' if trivial_ok else 'FAILED'}, "
           f"max oracle error {worst:.3e} (≤1e-7)")


def test_criterion_6_baseline_dominance():
    """Direct method dominates the single-orientation baseline, 1000 trials."""
    result = stress(1000, seed=1006)
    stats = result.distortion_ratios
    ok = (result.direct_successes == 1000
          and stats["min"] >= 1.0 - 1e-9)
    report(6, ok,
           f"successes {result.direct_successes}/1000, baseline/direct "
           f"min {stats['min']:.6f} median {stats['median']:.4f} "
           f"max {stats['max']:.4f}")


def test_criterion_7_degenerate_family():
    """Direct pipeline succeeds across the b = a·tanθ family; PD probe fails."""
    rng = np.random.default_rng(1007)
    worst_form, worst_align, worst_gap = 0.0, 0.0, -np.inf
    pd_all_false = True
    for a in np.round(np.arange(0.1, 1.01, 0.1), 10):
        for theta in np.round(np.arange(0.1, 1.21, 0.1), 10):
            rig = degenerate_rig(float(a), float(theta))
            pair = assemble(rig)
            worst_form = max(worst_form, rectified_residual(rig, pair))
            worst_align = max(worst_align, alignment_residual(rig, pair, rng, 20))
            worst_gap = max(worst_gap, scan_gap(rig, pair))
            pd_all_false &= not pd_probe(rig)
    ok = (worst_form <= 1e-7 and worst_align <= 1e-6
          and worst_gap <= 1e-9 and pd_all_false)
    report(7, ok,
           f"form {worst_form:.2e}, |dy| {worst_align:.2e}, "
           f"scan gap {worst_gap:.2e}, probe non-PD on all: {pd_all_false}")


def test_criterion_8_identical_cameras():
    """Linear solution -m1/m2 matches the general path on 50 rigs."""
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(50):
        center = rng.normal(size=3)
        center /= np.linalg.norm(center)
        cam1 = make_camera(A_LEFT, np.eye(3), (0.0, 0.0, 0.0))
        cam2 = make_camera(A_LEFT, np.eye(3), center)
        rig = StereoRig(cam1=cam1, cam2=cam2)
        ops = operand_matrices(rig)
        problem = quartic_coefficients(ops)
        y_star, _ = select_minimum(ops, problem, solve_quartic(problem))
        linear = -problem.m[0] / problem.m[1]
        worst = max(worst, abs(y_star - linear) / (1.0 + abs(linear)))
    report(8, worst <= 1e-8, f"max |y* - linear| {worst:.3e} relative (≤1e-8)")


def test_criterion_9_stationary_count():
    """Deduplicated real stationary points number 2 or 4 almost always."""
    rng = np.random.default_rng(1009)
    good = 0
    odd_counts = []
    for _ in range(1000):
        rig = random_rig(rng)
        problem = quartic_coefficients(operand_matrices(rig))
        n = len(solve_quartic(problem))
        if n in (2, 4):
            good += 1
        else:
            odd_counts.append(n)
    report(9, good >= 995,
           f"{good}/1000 rigs with 2 or 4 stationary points "
           f"(≥995); exceptions {odd_counts}")


def test_criterion_10_performance():
    """A single full pipeline call stays under 50 ms."""
    rng = np.random.default_rng(1010)
    rig = random_rig(rng)
    assemble(rig)  # warm-up
    times = []
    for _ in range(20):
        t0 = time.perf_counter()
        assemble(rig)
        times.append(time.perf_counter() - t0)
    best_ms = 1e3 * min(times)
    report(10, best_ms <= 50.0, f"assemble {best_ms:.2f} ms (≤50 ms)")


def test_criterion_11_end_to_end(tmp_path):
    """synth -> rectify -> warp keeps marker features row-aligned to 1 px."""
    from scipy import ndimage

    from minrect.synth import correspondences, render_view, synth_rig
    from minrect.warp import warp_image

    rig = synth_rig(0)
    pair = assemble(rig)
    pts = correspondences(rig)
    out_w, out_h = pair.output_size

    def centroids(cam, H):
        warped = warp_image(render_view(cam), H, out_w, out_h)
        mask = warped.data[:, :, 0] > 200
        labels, n = ndimage.label(mask)
        return np.array(ndimage.center_of_mass(mask, labels, range(1, n + 1)))

    c1 = centroids(rig.cam1, pair.H1)  # rows are (y, x)
    c2 = centroids(rig.cam2, pair.H2)

    def nearest(cs, x, y):
        d = np.hypot(cs[:, 1] - x, cs[:, 0] - y)
        i = int(d.argmin())
        return cs[i], d[i]

    worst = 0.0
    matched = 0
    for x1, y1, x2, y2 in pts:
        q1 = pair.H1 @ np.array([x1, y1, 1.0])
        q2 = pair.H2 @ np.array([x2, y2, 1.0])
        g1, g2 = q1[:2] / q1[2], q2[:2] / q2[2]
        f1, d1 = nearest(c1, *g1)
        f2, d2 = nearest(c2, *g2)
        if d1 > 3.0 or d2 > 3.0:  # feature clipped or merged; skip
            continue
        matched += 1
        worst = max(worst, abs(f1[0] - f2[0]))
    ok = matched >= 10 and worst <= 1.0
    report(11, ok, f"{matched} features matched, max row gap {worst:.3f} px (≤1)")
