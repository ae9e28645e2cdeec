"""Comparison baseline, dense-scan oracle, degenerate family, stress harness."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from minrect.baselines import (
    degenerate_rig,
    fusiello_rectify,
    pd_probe,
    random_rig,
    scan_minimize,
    stress,
)
from minrect import baselines, distortion
from minrect.distortion import _exclusion_half_width, operand_matrices, poles
from minrect.errors import DegenerateOrientation, EmptyDomain, MinrectError
from minrect.geometry import fundamental_matrix, normalize_matrix, optical_center
from minrect.rectify import assemble
from minrect import serialize

from test_distortion import rational_ops, reference_many
from test_rectify import rectified_residual


def test_fusiello_frontoparallel_optimal(frontoparallel):
    direct = assemble(frontoparallel)
    base = fusiello_rectify(frontoparallel)
    assert base.distortion <= 1e-10
    assert direct.distortion <= 1e-10


def test_fusiello_dominated_by_direct(rig_d):
    direct = assemble(rig_d)
    base = fusiello_rectify(rig_d)
    assert base.distortion >= direct.distortion - 1e-9


def test_fusiello_rectified_form(rig_d):
    base = fusiello_rectify(rig_d)
    assert rectified_residual(rig_d, base) <= 1e-7


def test_fusiello_rejects_axis_along_baseline():
    """Camera 1 looks along z and camera 2 sits on that axis: no rectifying plane
    contains both the old optical axis and the baseline."""
    from conftest import A_LEFT, make_camera
    from minrect.geometry import StereoRig

    rig = StereoRig(cam1=make_camera(A_LEFT, np.eye(3), (0.0, 0.0, 0.0)),
                    cam2=make_camera(A_LEFT, np.eye(3), (0.0, 0.0, 1.0)))
    with pytest.raises(DegenerateOrientation, match="parallel to the baseline"):
        fusiello_rectify(rig)


def test_scan_frontoparallel_zero(frontoparallel):
    ops = operand_matrices(frontoparallel)
    _, d = scan_minimize(ops, -1000.0, 1000.0, samples=2001)
    assert d <= 1e-10


def test_scan_agrees_with_closed_form(rig_d):
    ops = operand_matrices(rig_d)
    direct = assemble(rig_d)
    _, d = scan_minimize(ops, -4800.0, 4800.0, samples=200_001)
    assert direct.distortion == pytest.approx(d, rel=1e-9, abs=1e-12)


def test_scan_skips_poles():
    """Scanning a window containing a pole still brackets the minimum."""
    from conftest import A_LEFT, make_camera, rot_x
    from minrect.distortion import distortion_of_y, is_admissible, poles
    from minrect.geometry import StereoRig

    # pitch camera 1 so the distortion pole falls inside a modest y-range
    cam1 = make_camera(A_LEFT, rot_x(0.5), (0.0, 0.0, 0.0))
    cam2 = make_camera(A_LEFT, rot_x(0.3), (1.0, 0.1, 0.0))
    ops = operand_matrices(StereoRig(cam1=cam1, cam2=cam2))
    p1, _ = poles(ops)
    half = 0.1 * (1.0 + abs(p1))
    y, d = scan_minimize(ops, p1 - half, p1 + half, samples=5001)
    assert np.isfinite(d)
    assert d >= 0.0
    assert is_admissible(ops, y)
    assert abs(y - p1) > 1e-9


def test_scan_requires_samples(rig_d):
    ops = operand_matrices(rig_d)
    with pytest.raises(ValueError):
        scan_minimize(ops, 0.0, 1.0, samples=10)


def reference_scan(ops, y_lo, y_hi, samples=200_001):
    """The dense scan and its re-scans, each on the whole grid at once: the
    reference that scan_minimize must match bit for bit."""
    if samples < 1001:
        raise ValueError("samples must be at least 1001")
    lo, hi = y_lo, y_hi
    while True:
        ys = np.linspace(lo, hi, samples)
        vals = reference_many(ops, ys)
        if not np.any(np.isfinite(vals)):
            raise EmptyDomain("every sample is pole-excluded")
        i = int(np.nanargmin(np.where(np.isfinite(vals), vals, np.inf)))
        lo = float(ys[max(i - 1, 0)])
        hi = float(ys[min(i + 1, samples - 1)])
        if hi - lo <= 1e-10 * (1.0 + abs(lo) + abs(hi)):
            return ys[i], vals[i]
        samples = 1001


def assert_scan_same_as_reference(ops, y_lo, y_hi, samples=200_001):
    got = scan_minimize(ops, y_lo, y_hi, samples)
    ref = reference_scan(ops, y_lo, y_hi, samples)
    assert np.array(got).tobytes() == np.array(ref).tobytes(), (got, ref)
    return got


def test_scan_matches_reference_on_seeded_rigs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rig = random_rig(rng, max_angle=math.pi / 2)
        h = rig.cam1.height
        assert_scan_same_as_reference(operand_matrices(rig), -10.0 * h, 10.0 * h)


def test_scan_matches_reference_on_rigs_next_to_poles():
    """Rigs 396 and 2821 of this sequence have their minimum a few px from two poles."""
    rng = np.random.default_rng(5)
    rigs = [random_rig(rng, max_angle=math.pi / 2) for _ in range(2822)]
    for k in (396, 2821):
        h = rigs[k].cam1.height
        ops = operand_matrices(rigs[k])
        assert_scan_same_as_reference(ops, -10.0 * h, 10.0 * h)
        assert_scan_same_as_reference(ops, -10.0 * h, 10.0 * h, samples=20_001)


def test_scan_first_of_equal_minima_wins_across_a_block_boundary():
    """u²/2¹⁶⁰ + A/(u² + 1) with u = y - c is exactly even in u on the integer grid, and
    its two equal sample minima lie in different blocks: the first one is kept."""
    block = distortion._BLOCK
    c = block - 0.5
    A = 1e8 * 2.0 ** -160  # minima at u = ±sqrt(1e4 - 1)
    ops = rational_ops((1.0, -2.0 * c, c * c), (1.0, -2.0 ** 81, 2.0 ** 160),
                       (0.0, 0.0, A), (1.0, -2.0 * c, c * c + 1.0))
    samples = 2 * block + 1
    ys = np.linspace(0.0, samples - 1.0, samples)
    vals = reference_many(ops, ys)
    lows = np.flatnonzero(vals == vals.min())
    assert lows.tolist() == [block - 100, block + 99]  # u = -99.5 and +99.5
    y, _ = assert_scan_same_as_reference(ops, 0.0, samples - 1.0, samples)
    assert abs(y - (c - math.sqrt(1e4 - 1.0))) < 1e-6


def test_scan_raises_empty_domain_inside_an_exclusion_zone(rig_d):
    ops = operand_matrices(rig_d)
    for p in poles(ops):
        half = 0.5 * _exclusion_half_width(p)
        for fn in (scan_minimize, reference_scan):
            with pytest.raises(EmptyDomain):
                fn(ops, p - half, p + half, 1001)


def test_scan_over_overflowing_samples_finds_the_minimum_without_a_warning(rig_d):
    """Above about 1e154 the quadratic forms overflow; those samples read +inf."""
    ops = operand_matrices(rig_d)
    direct = assemble(rig_d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y, d = scan_minimize(ops, 0.0, 1e300)
    assert y == pytest.approx(direct.y1_star, rel=1e-6)
    assert d == pytest.approx(direct.distortion, rel=1e-9)


def test_scan_takes_integer_bounds_as_floats(rig_d):
    ops = operand_matrices(rig_d)
    assert scan_minimize(ops, 0, 10**300) == scan_minimize(ops, 0.0, 1e300)


def test_scan_stops_without_a_warning_where_its_tolerance_overflows():
    """A flat metric over (1e308, 1.7e308): |lo| + |hi| is beyond the float range."""
    ops = rational_ops((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert scan_minimize(ops, 1e308, 1.7e308, 1001) == (1e308, 2.0)


def test_degenerate_rig_zero_is_frontoparallel():
    rig = degenerate_rig(0.0, 0.0)
    assert np.allclose(rig.cam2.R, np.eye(3))
    assert np.allclose(optical_center(rig.cam2), [1.0, 0.0, 0.0])


def test_degenerate_rig_geometry():
    rig = degenerate_rig(0.3, 0.4)
    o2 = optical_center(rig.cam2)
    assert o2[2] == pytest.approx(0.3 * np.tan(0.4))
    assert np.allclose(o2[:2], [1.0, 0.3])


def test_degenerate_rig_pipeline_succeeds():
    rig = degenerate_rig(0.3, 0.4)
    pair = assemble(rig)
    assert rectified_residual(rig, pair) <= 1e-7
    assert np.isfinite(pair.distortion)


def test_pd_probe_degenerate_family_fails():
    assert pd_probe(degenerate_rig(0.3, 0.4)) is False


def test_pd_probe_generic_rig_passes():
    rng = np.random.default_rng(61)
    hits = sum(pd_probe(random_rig(rng)) for _ in range(20))
    assert hits >= 1  # default builder accepts well-posed generic rigs


def test_random_rig_valid():
    rng = np.random.default_rng(67)
    for _ in range(20):
        rig = random_rig(rng)
        F = fundamental_matrix(rig)
        s = np.linalg.svd(F, compute_uv=False)
        assert s[2] <= 1e-9 * s[0]


def test_stress_small_run():
    report = stress(10, seed=1)
    assert report.direct_successes == 10
    assert report.trials == 10
    assert report.distortion_ratios["min"] >= 1.0 - 1e-9


def test_stress_deterministic_excluding_timings():
    a = stress(5, seed=7).to_dict()
    b = stress(5, seed=7).to_dict()
    a.pop("timings_ms")
    b.pop("timings_ms")
    assert serialize.dumps(a) == serialize.dumps(b)


def test_stress_compares_closed_form_with_scan():
    report = stress(20, seed=3)
    rng = np.random.default_rng(3)
    gaps = []
    for _ in range(20):  # the same rigs, drawn and scanned again
        rig = random_rig(rng)
        h = rig.cam1.height
        _, d_scan = scan_minimize(operand_matrices(rig), -10.0 * h, 10.0 * h,
                                  baselines.STRESS_SCAN_SAMPLES)
        gaps.append((assemble(rig).distortion - d_scan) / (1.0 + d_scan))
    assert report.direct_successes == 20
    assert report.to_dict()["scan_gap_max"] == report.scan_gap_max == max(gaps)
    assert report.scan_gap_max <= baselines.SCAN_GAP_LIMIT
    assert not [f for f in report.failures if f[1] == "scan-gap"]


def test_stress_lists_scan_gap_failures(monkeypatch):
    """A closed form pushed above the scan minimum fails every trial at "scan-gap"."""
    def inflated(rig):
        pair = assemble(rig)
        return dataclasses.replace(pair, distortion=pair.distortion * (1.0 + 1e-6) + 1e-6)

    monkeypatch.setattr(baselines, "assemble", inflated)
    report = stress(5, seed=3)
    assert [f[0] for f in report.failures if f[1] == "scan-gap"] == list(range(5))
    assert report.scan_gap_max > 1e-7


@pytest.mark.parametrize("target, stage", [("assemble", "direct"),
                                           ("fusiello_rectify", "baseline"),
                                           ("scan_minimize", "scan")])
def test_stress_records_failure_stage(monkeypatch, target, stage):
    def failing(*args, **kwargs):
        raise MinrectError("injected")

    monkeypatch.setattr(baselines, target, failing)
    report = stress(3, seed=3)
    assert report.failures == [(trial, stage, "injected") for trial in range(3)]
    assert report.baseline_failures == (3 if stage == "baseline" else 0)
    assert report.direct_successes == (0 if stage == "direct" else 3)


def test_cholesky_probe_rejects_a_zero_leading_pivot():
    assert not baselines._cholesky_ok(np.diag([0.0, 1.0]))


def test_stress_counts_pd_probe_failures(monkeypatch):
    monkeypatch.setattr(baselines, "pd_probe", lambda rig: False)
    report = stress(3, seed=3)
    assert report.direct_successes == 3
    assert report.pd_failures == 3
    assert report.to_dict()["pd_failure_fraction"] == 1.0


def test_stress_rejects_zero_trials():
    with pytest.raises(ValueError):
        stress(0, seed=1)


def test_cholesky_probe_refuses_a_trace_that_is_not_positive_and_finite():
    # without the trace check, the large off-diagonal would pass the last pivot
    steep = np.array([[-1e-13, 1.0], [1.0, -1.0 + 1e-13]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for M in (np.zeros((2, 2)), np.full((2, 2), np.nan), steep):
            assert baselines._cholesky_ok(M) is False
