"""Comparison baseline, dense-scan oracle, degenerate family, stress harness."""
import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

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
from minrect.distortion import distortion_of_w, moment_matrices, operand_matrices, poles
from minrect.errors import DegenerateOrientation, EmptyDomain, InvalidArgument, MinrectError
from minrect.geometry import StereoRig, fundamental_matrix, normalize_matrix, optical_center
from minrect.rectify import assemble, orientation
from minrect import serialize

from test_distortion import ONE, Y, ZERO, rational_ops, reference_many
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


def exact_quotient(w, mom):
    """N/g² of one row in exact arithmetic on the same floats as distortion_of_w."""
    w = [Fraction(float(v)) for v in w]
    num = sum(Fraction(float(mom.ppt[i, i])) * w[i] ** 2 for i in range(3))
    g = sum(Fraction(float(p)) * v for p, v in zip(mom.pcpct[2], w))
    return num / g ** 2


def test_fusiello_metric_is_within_1e13_of_exact_arithmetic():
    """The baseline's rows on 1 000 pi/2 rigs: w·pcpct·w as a quadratic form was off by up
    to 1.0e-11 relative (draw 279), N/g² with g = p_bar^T w by 3.4e-14."""
    rng = np.random.default_rng(5)
    for k in range(1000):
        rig = random_rig(rng, max_angle=math.pi / 2)
        try:
            R = orientation(rig, rig.cam1.axis)
        except MinrectError:
            continue
        w1, w2 = (R[2] @ cam.projection_inv for cam in (rig.cam1, rig.cam2))
        m1, m2 = (moment_matrices(cam.width, cam.height) for cam in (rig.cam1, rig.cam2))
        exact = exact_quotient(w1, m1) + exact_quotient(w2, m2)
        got = distortion_of_w(w1, w2, m1, m2)
        assert abs(Fraction(got) - exact) <= Fraction(1e-13) * exact, k


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
    from conftest import A_LEFT, make_camera
    from minrect.distortion import distortion_of_y, poles
    from minrect.geometry import StereoRig, rotation

    # pitch camera 1 so the distortion pole falls inside a modest y-range
    cam1 = make_camera(A_LEFT, rotation((1.0, 0.0, 0.0), 0.5), (0.0, 0.0, 0.0))
    cam2 = make_camera(A_LEFT, rotation((1.0, 0.0, 0.0), 0.3), (1.0, 0.1, 0.0))
    ops = operand_matrices(StereoRig(cam1=cam1, cam2=cam2))
    p1, _ = poles(ops)
    half = 0.1 * (1.0 + abs(p1))
    y, d = scan_minimize(ops, p1 - half, p1 + half, samples=5001)
    assert np.isfinite(d)
    assert d >= 0.0
    assert distortion_of_y(ops, float(y)) == d
    assert y != p1


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
            raise EmptyDomain("every sample is at a pole or overflows")
        i = int(np.nanargmin(np.where(np.isfinite(vals), vals, np.inf)))
        lo = float(ys[max(i - 1, 0)])
        hi = float(ys[min(i + 1, samples - 1)])
        if abs(hi - lo) <= 1e-10 * (1.0 + abs(lo) + abs(hi)):
            return ys[i], vals[i]
        samples = 1001


def assert_scan_same_as_reference(ops, y_lo, y_hi, samples=200_001):
    got = scan_minimize(ops, y_lo, y_hi, samples)
    ref = reference_scan(ops, y_lo, y_hi, samples)
    assert np.array(got).tobytes() == np.array(ref).tobytes(), (got, ref)
    return got


def test_scan_matches_reference_on_seeded_rigs():
    rng = np.random.default_rng(3)
    for rig in [random_rig(rng, max_angle=math.pi / 2) for _ in range(20)] + fault_rigs():
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
    """(y/2⁸⁰)² + (a/y)² is exactly even in y on the grid of half-integers, and its two
    equal sample minima lie in different blocks: the first one is kept."""
    block = distortion._BLOCK
    a = 1e4 * 2.0 ** -80  # minima at y = ±100
    ops = rational_ops((Y, ZERO, (0.0, 2.0 ** 80)), ((0.0, a), ZERO, Y))
    samples, lo = 2 * block + 1, 0.5 - block  # step 1: sample k is k + lo
    ys = np.linspace(lo, lo + samples - 1.0, samples)
    vals = reference_many(ops, ys)
    lows = np.flatnonzero(vals == vals.min())
    assert lows.tolist() == [block - 101, block + 100]  # y = -100.5 and +100.5
    y, _ = assert_scan_same_as_reference(ops, lo, lo + samples - 1.0, samples)
    assert abs(y + 100.0) < 1e-6


def test_scan_raises_empty_domain_where_every_sample_is_at_a_pole(rig_d):
    """A span of one pole of rig_d, and any span of a term whose g is 0 everywhere."""
    ops = operand_matrices(rig_d)
    cases = [(ops, p, p) for p in poles(ops)]
    cases.append((rational_ops((Y, ZERO, ZERO), (ONE, ZERO, ONE)), -4800.0, 4800.0))
    for ops, lo, hi in cases:
        for fn in (scan_minimize, reference_scan):
            with pytest.raises(EmptyDomain):
                fn(ops, lo, hi, 1001)


def test_scan_over_overflowing_samples_finds_the_minimum_without_a_warning(rig_d):
    """Up to 1e300 no ℓ or g of rig_d overflows; the metric tends to about 2.36e10."""
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
    ops = rational_ops((ONE, ZERO, ONE), (ONE, ZERO, ONE))
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


def test_stress_times_only_successful_calls(monkeypatch):
    def failing(*args, **kwargs):
        raise MinrectError("injected")

    monkeypatch.setattr(baselines, "scan_minimize", failing)
    assert stress(3, seed=3).timings_ms["scan"] == 0.0


def test_stress_report_serialises_every_field_in_order():
    """A field added to StressReport reaches the JSON with no second edit."""
    report = stress(3, seed=3)
    names = [f.name for f in dataclasses.fields(report)]
    assert list(report.to_dict()) == names + ["pd_failure_fraction", "pd_probe_note"]


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


def test_scan_refuses_a_sample_count_that_is_not_an_integer(rig_d):
    ops = operand_matrices(rig_d)
    for samples in (1001.5, 2001.0, np.float64(2001.0), "2001", None, True, np.bool_(True)):
        with pytest.raises(InvalidArgument, match="samples must be an integer"):
            scan_minimize(ops, 0.0, 1.0, samples)
    for samples in (np.int64(2001), np.int32(1001), np.uint16(5001)):
        got = scan_minimize(ops, -4800.0, 4800.0, samples)
        assert np.array(got).tobytes() == np.array(
            scan_minimize(ops, -4800.0, 4800.0, int(samples))).tobytes()


# --- the block-by-block grid against a whole-linspace scan ----------------------------

def linspace_scan(ops, y_lo, y_hi, samples=200_001):
    """scan_minimize as it was before it wrote its grid one block at a time: each grid
    is one np.linspace, evaluated by distortion_of_y_many in blocks of _BLOCK."""
    lo, hi = float(y_lo), float(y_hi)
    while True:
        ys = np.linspace(lo, hi, samples)
        i, best = -1, np.inf
        for start in range(0, samples, distortion._BLOCK):
            vals = distortion.distortion_of_y_many(ops, ys[start:start + distortion._BLOCK])
            j = int(np.argmin(vals))
            if vals[j] < best:
                i, best = start + j, vals[j]
        if i < 0:
            raise EmptyDomain("every sample is at a pole or overflows")
        lo, hi = float(ys[max(i - 1, 0)]), float(ys[min(i + 1, samples - 1)])
        if abs(hi - lo) <= 1e-10 * (1.0 + abs(lo) + abs(hi)):
            return ys[i], best
        samples = 1001


def fault_rigs():
    """The already-rectified head ([C_i]_22 = 0) and the draws of
    random_rig(default_rng(5), pi/2) on which the closed form fails or misses."""
    from conftest import make_camera

    A = np.array([[600.0, 0.0, 319.5], [0.0, 600.0, 239.5], [0.0, 0.0, 1.0]])
    head = StereoRig(make_camera(A, np.eye(3), (0.0, 0.0, 0.0)),
                     make_camera(A, np.eye(3), (1.0, 0.0, 0.0)))
    rng = np.random.default_rng(5)
    drawn = [random_rig(rng, max_angle=math.pi / 2) for _ in range(2822)]
    return [head] + [drawn[k] for k in (1962, 2087, 396, 2821)]


def test_scan_grid_matches_a_whole_linspace_scan():
    block = distortion._BLOCK
    counts = (1001, block - 1, block, block + 1, 2 * block + 1, 200_001)
    # (0, 2e-321) is so narrow that np.linspace's step underflows to 0, and the last span
    # is reversed
    spans = ((-9600.0, -1.0), (-4800.0, 4800.0), (1e6 - 5e-7, 1e6 + 5e-7), (240.0, 240.0),
             (0.0, 2e-321), (4800.0, -4800.0))
    rng = np.random.default_rng(29)
    rigs = [random_rig(rng, max_angle=math.pi / 2) for _ in range(50)] + fault_rigs()
    for rig in rigs:
        ops = operand_matrices(rig)
        for lo, hi in spans:
            for samples in counts:
                got = scan_minimize(ops, lo, hi, samples)
                ref = linspace_scan(ops, lo, hi, samples)
                assert type(got[0]) is type(ref[0]) is np.float64
                assert np.array(got).tobytes() == np.array(ref).tobytes(), (lo, hi, samples)


def test_scan_grid_matches_a_whole_linspace_scan_at_its_last_sample_and_a_zero_step():
    """(y - 1)² over [-1, 0.3], least at the last sample, which np.linspace sets to 0.3
    where k·step + lo reads 0.3 + 5.6e-17; and (1e300·y - 1e-21)² over [0, 2e-321],
    where the step underflows to 0 and the least sample, 202·2⁻¹⁰⁷⁴, is inside the grid."""
    block = distortion._BLOCK
    cases = [(rational_ops(((1.0, -1.0), ZERO, ONE), (ZERO, ZERO, ONE)), -1.0, 0.3),
             (rational_ops(((1e300, -1e-21), ZERO, ONE), (ZERO, ZERO, ONE)), 0.0, 2e-321)]
    for ops, lo, hi in cases:
        for samples in (1001, block - 1, block, block + 1, 2 * block + 1, 200_001):
            got = scan_minimize(ops, lo, hi, samples)
            ref = linspace_scan(ops, lo, hi, samples)
            assert np.array(got).tobytes() == np.array(ref).tobytes()
            assert got[0] == (0.3 if hi == 0.3 else 202 * 2.0 ** -1074)


def recorded_blocks(monkeypatch):
    """A list that receives a copy of each grid block scan_minimize passes to _fill_block."""
    fill, blocks = baselines._fill_block, []

    def recording_fill(ops, y, total, buffers):
        blocks.append(y.copy())
        fill(ops, y, total, buffers)

    monkeypatch.setattr(baselines, "_fill_block", recording_fill)
    return blocks


def chunk_size(samples):
    """The scan's chunk of a grid of more than _BLOCK samples: at most 128 chunks a grid."""
    return max(2048, -(-samples // 128))


def sample_numbers(y, grid):
    """The least ascending sample numbers k at which grid, a np.linspace grid, holds y's
    values, or an AssertionError if y is not grid's samples in ascending order, bit for bit."""
    down = grid[0] > grid[-1]  # a reversed grid runs down
    first = np.searchsorted(-grid if down else grid, -y if down else y)
    ramp = np.arange(y.size)
    k = np.maximum.accumulate(first - ramp) + ramp  # the least k_j >= first_j, k_j > k_j-1
    assert k[-1] < grid.size and grid[k].tobytes() == y.tobytes()
    return k


def test_scan_grids_are_those_of_np_linspace(rig_d, monkeypatch):
    """Each dense fill holds np.linspace's samples in ascending order, bit for bit; every
    sample whose value is at or below the dense minimum was evaluated; and each 1001-sample
    re-scan grid is np.linspace's between its own first and last samples."""
    blocks = recorded_blocks(monkeypatch)
    ops = operand_matrices(rig_d)
    block = distortion._BLOCK
    for lo, hi in ((-1.0, 0.3), (-4800.0, 4800.0), (0.0, 2e-321), (4800.0, -4800.0)):
        for samples in (1001, block + 1, 2 * block + 1, 200_001):
            blocks.clear()
            scan_minimize(ops, lo, hi, samples)
            # a dense fill of these counts holds whole chunks of 2048 samples, bar the last
            # chunk's 1 or 1345 samples, never 1001, and the dense grid comes first
            dense = sum(y.size != 1001 for y in blocks) if samples > block else 1
            assert dense >= 1 and all(y.size == 1001 for y in blocks[dense:])
            grid = np.linspace(lo, hi, samples)
            seen = np.concatenate([sample_numbers(y, grid) for y in blocks[:dense]])
            vals = reference_many(ops, grid)
            lows = grid[vals <= vals.min()].view(np.int64)
            assert np.isin(lows, grid[seen].view(np.int64)).all(), (lo, hi, samples)
            for y in blocks[dense:]:
                assert y.tobytes() == np.linspace(y[0], y[-1], 1001).tobytes()


def test_scan_of_rig_d_evaluates_at_most_two_of_its_dense_blocks(rig_d, monkeypatch):
    """Over ±4 800 the 200 001-sample grid has 98 chunks; every chunk but those next to
    the minimum has a lower bound above the value found, so it is skipped, and the rest
    take at most two fills."""
    blocks = recorded_blocks(monkeypatch)
    assert_scan_same_as_reference(operand_matrices(rig_d), -4800.0, 4800.0)
    assert -(-200_001 // chunk_size(200_001)) == 98
    assert 1 <= sum(y.size != 1001 for y in blocks) <= 2


def test_reversed_scan_of_rig_d_is_refined_as_the_forward_one(rig_d):
    """A grid with y_lo > y_hi runs downward; its re-scans stop on |hi - lo|, as the
    forward ones do, and not on the first grid's negative span."""
    ops = operand_matrices(rig_d)
    _, forward = scan_minimize(ops, -4800.0, 4800.0)
    y, backward = assert_scan_same_as_reference(ops, 4800.0, -4800.0)
    assert abs(backward - forward) <= 1e-12 * forward
    assert y == pytest.approx(assemble(rig_d).y1_star, abs=1e-5)


@pytest.mark.parametrize("samples", [1_000_001, 2_097_153])
def test_scan_matches_reference_where_chunks_are_cut_by_their_count_cap(rig_d, samples):
    """At 1 000 001 samples the chunk size comes from the 128-chunk cap, and at 2 097 153
    a chunk holds more than _BLOCK samples, so it is filled in pieces."""
    assert chunk_size(samples) > 2048 and (chunk_size(samples) > distortion._BLOCK) == (
        samples > 128 * distortion._BLOCK)
    for rig in (rig_d, fault_rigs()[4]):
        h = rig.cam1.height
        assert_scan_same_as_reference(operand_matrices(rig), -10.0 * h, 10.0 * h, samples)


def assert_chunk_bounds_hold(ops, lo, hi, samples):
    """Each chunk's bound, at the scan's chunk size, lies at or below the least value
    reference_many reads on the chunk's samples of np.linspace(lo, hi, samples); returns
    the bounds."""
    chunk = chunk_size(samples)
    bounds = baselines._chunk_bounds(ops, lo, hi, samples, chunk)
    vals = reference_many(ops, np.linspace(lo, hi, samples))
    least = [vals[start:start + chunk].min() for start in range(0, samples, chunk)]
    assert len(bounds) == len(least)
    for k, (bound, low) in enumerate(zip(bounds, least)):
        assert bound <= low, (lo, hi, samples, k, bound, low)
    return bounds


def test_chunk_bounds_hold_on_seeded_rigs_and_fault_rigs():
    rng = np.random.default_rng(41)
    rigs = [random_rig(rng, max_angle=math.pi / 2) for _ in range(300)] + fault_rigs()
    positive = 0
    for k, rig in enumerate(rigs):
        h = rig.cam1.height
        ops = operand_matrices(rig)
        span = (-10.0 * h, 10.0 * h) if k % 3 else (10.0 * h, -10.0 * h)
        bounds = assert_chunk_bounds_hold(ops, *span, 200_001)
        positive += sum(b > 0.0 for b in bounds)
    assert positive >= 0.9 * 98 * len(rigs)  # a bound of 0 everywhere would pass above


def test_chunk_bounds_hold_on_edge_cases(rig_d):
    """ℓ that change sign, a constant g, poles on chunk boundaries and inside a chunk,
    overflowing and zero-step spans, reversed spans and an ℓ's zero inside a chunk of a
    reversed grid."""
    chunk = 2048
    samples = 9 * chunk + 1  # 9 chunks of 2048 samples and one of 1, above _BLOCK
    assert chunk_size(samples) == chunk and samples > distortion._BLOCK
    lo = -float(chunk)  # sample k is k + lo exactly
    edge = (lo, lo + 9.0 * chunk, samples)
    cases = [
        # ℓ that change sign in the grid, with poles, or where g1 == 0
        (rational_ops((Y, ZERO, (1.0, 5.0)), (((-3.0, 1.0), ZERO, (0.5, 1.0)))),
         -1e4, 1e4, 200_001),
        (rational_ops(((1.0, 1.0), (0.0, 1.5), (0.0, 2.0)), (Y, ONE, (0.0, -0.5))),
         -3.0, 3.0, 200_001),
        # poles on the first sample of chunk 1 and on the last one of chunk 1
        (rational_ops((Y, ONE, Y), ((0.0, 100.0), Y, (1.0, 1.0 - chunk))), *edge),
        (operand_matrices(rig_d), 0.0, 1e300, 200_001),
        (operand_matrices(rig_d), 1e300, 0.0, 200_001),
        (operand_matrices(rig_d), 0.0, 2e-321, 200_001),
        (rational_ops(((1e300, -1e-21), ZERO, ONE), (ONE, ZERO, (5e307, 1.0))),
         0.0, 2e-321, 200_001),
        # np.linspace's last sample 0.3, where k·step + lo reads 0.3 + 5.6e-17
        (rational_ops(((1.0, -1.0), ZERO, ONE), (ZERO, ZERO, ONE)), -1.0, 0.3, samples),
        (operand_matrices(rig_d), 4800.0, -4800.0, 200_001),
    ]
    for ops, y_lo, y_hi, count in cases:
        assert_chunk_bounds_hold(ops, y_lo, y_hi, count)
    # (y - v)² + 1 with v inside chunk 1 of the grid 9·chunk, 9·chunk - 1, ..., 0: its
    # least sample reads 1.0625, and its end samples about 0.25·chunk²
    v = 7.5 * chunk + 0.25
    ops = rational_ops(((1.0, -v), ONE, ONE), (ZERO, ZERO, ONE))
    bounds = assert_chunk_bounds_hold(ops, 9.0 * chunk, 0.0, samples)
    assert 0.99 < bounds[1] <= 1.0625 < bounds[0]
    # 1/(y - p)² with p inside chunk 1: |1/(y - p)| grows toward p from both ends, so
    # chunk 1 is bounded by about 1/(chunk/2)², not by 0
    p = 1.5 * chunk + 0.25
    ops = rational_ops((ONE, ZERO, (1.0, -p)), (ZERO, ZERO, ONE))
    bounds = assert_chunk_bounds_hold(ops, 0.0, 9.0 * chunk, samples)
    assert 0.99 / (0.5 * chunk + 1.0) ** 2 < bounds[1]


def test_scan_memory_does_not_grow_with_the_sample_count(rig_d):
    ops = operand_matrices(rig_d)
    peaks = []
    for samples in (20_001, 2_000_001):
        tracemalloc.start()
        scan_minimize(ops, -4800.0, 4800.0, samples)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 64 * 1024
    assert peaks[1] < 2 * 1024 * 1024  # a 2 000 001-sample linspace alone takes 16 MB
