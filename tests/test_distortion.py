"""Distortion metric: moment matrices, operands, and the y-parametrisation."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minrect import distortion
from minrect.baselines import random_rig
from minrect.distortion import (
    DistortionOperands,
    _exclusion_half_width,
    _rational_terms,
    distortion_of_w,
    distortion_of_y,
    distortion_of_y_many,
    is_admissible,
    moment_matrices,
    operand_matrices,
    pixel_sum_distortion,
    poles,
    w_from_y,
    w_from_y_raw,
)
from minrect.errors import BadDimensions, DegenerateCenter, InvalidArgument, PoleAtY
from minrect.geometry import Camera, StereoRig


def brute_moments(width, height):
    """O(w*h) sums the moment matrices are supposed to reproduce."""
    xs, ys = np.meshgrid(np.arange(width), np.arange(height), indexing="xy")
    p = np.stack([xs.ravel(), ys.ravel(), np.ones(xs.size)], axis=0).astype(float)
    pc = p.mean(axis=1, keepdims=True)
    centered = p - pc
    return centered @ centered.T, (pc @ pc.T) * p.shape[1] / p.shape[1]


def test_moment_2x2_ppt():
    m = moment_matrices(2, 2)
    assert np.allclose(m.ppt, np.diag([1.0, 1.0, 0.0]))


def test_moment_2x2_pcpct():
    m = moment_matrices(2, 2)
    expected = np.array([[0.25, 0.25, 0.5], [0.25, 0.25, 0.5], [0.5, 0.5, 1.0]])
    assert np.allclose(m.pcpct, expected)


def test_moment_matches_grid_sums():
    m = moment_matrices(640, 480)
    ppt, pcpct = brute_moments(640, 480)
    assert np.allclose(m.ppt, ppt, rtol=1e-9)
    assert np.allclose(m.pcpct, pcpct, rtol=1e-9)


def test_moment_rejects_tiny():
    with pytest.raises(BadDimensions):
        moment_matrices(1, 480)


def test_operand_axis_projector():
    A = np.eye(3)
    cam1 = Camera(A=A, R=np.eye(3), t=np.zeros(3), width=4, height=4)
    cam2 = Camera(A=A, R=np.eye(3), t=np.array([-1.0, 0.0, 0.0]),
                  width=4, height=4)
    ops = operand_matrices(StereoRig(cam1=cam1, cam2=cam2))
    assert np.allclose(ops.L1, np.diag([0.0, 1.0, 1.0]))


def test_operand_sandwich_identity(rig_d):
    ops = operand_matrices(rig_d)
    M1 = ops.L1.T @ ops.moments1.ppt @ ops.L1
    C2 = ops.L2.T @ ops.moments2.pcpct @ ops.L2
    assert np.allclose(ops.M1, M1, atol=1e-12 * abs(M1).max())
    assert np.allclose(ops.C2, C2, atol=1e-12 * abs(C2).max())


def test_operand_symmetry_and_psd(rig_d):
    ops = operand_matrices(rig_d)
    for M in (ops.M1, ops.M2, ops.C1, ops.C2):
        assert np.allclose(M, M.T, rtol=1e-10)
    for C in (ops.C1, ops.C2):
        assert np.linalg.eigvalsh(C).min() >= -1e-9 * np.trace(C)


def test_w_matches_geometric_path(rig_d):
    """w1 from the operand matrices equals the third new-camera row."""
    from minrect.rectify import new_orientation

    ops = operand_matrices(rig_d)
    rng = np.random.default_rng(5)
    for y1 in rng.uniform(-200, 600, size=10):
        w1, _ = w_from_y(ops, float(y1))
        Rnew = new_orientation(rig_d, float(y1))
        geo = Rnew[2] @ np.linalg.inv(rig_d.cam1.projection)
        geo = geo / geo[2]
        assert np.allclose(w1, geo, atol=1e-9 * max(1.0, np.abs(geo).max()))


def test_w_is_affine_in_y(rig_d):
    ops = operand_matrices(rig_d)
    w0, v0 = w_from_y_raw(ops, 0.0)
    w1, v1 = w_from_y_raw(ops, 1.0)
    w100, v100 = w_from_y_raw(ops, 100.0)
    assert np.allclose(w100, w0 + 100.0 * (w1 - w0), atol=1e-10)
    assert np.allclose(v100, v0 + 100.0 * (v1 - v0), atol=1e-10)


def test_w_basis_vector(rig_d):
    ops = operand_matrices(rig_d)
    raw1, raw2 = w_from_y_raw(ops, 0.0)
    assert np.allclose(raw1, ops.L1[:, 2])
    assert np.allclose(raw2, ops.L2[:, 2])


def test_w_frontoparallel_vanishes(frontoparallel):
    """For an already-rectified rig the perspective components vanish at the
    horizon through the principal row (and only there, since a tilted
    horizon reintroduces perspective even between parallel cameras)."""
    ops = operand_matrices(frontoparallel)
    cy = 240.0
    w1, w2 = w_from_y(ops, cy)
    assert np.allclose(w1[:2], 0.0, atol=1e-12)
    assert np.allclose(w2[:2], 0.0, atol=1e-12)
    w1_off, _ = w_from_y(ops, cy + 200.0)
    assert np.abs(w1_off[:2]).max() > 1e-6


def test_distortion_affine_w_is_zero():
    m = moment_matrices(32, 24)
    assert distortion_of_w([0.0, 0.0, 1.0], [0.0, 0.0, 1.0], m, m) == 0.0


def test_distortion_matches_pixel_sum():
    m1 = moment_matrices(32, 24)
    w1 = np.array([0.001, -0.002, 1.0])
    w2 = np.array([0.0, 0.0, 1.0])
    matrix_form = distortion_of_w(w1, w2, m1, m1)
    oracle = pixel_sum_distortion(w1, 32, 24) + pixel_sum_distortion(w2, 32, 24)
    assert matrix_form == pytest.approx(oracle, rel=1e-9)


def test_pixel_sum_hand_case():
    assert pixel_sum_distortion([1.0, 0.0, 1.0], 2, 2) == pytest.approx(4.0 / 9.0)


def test_pixel_sum_affine_zero():
    assert pixel_sum_distortion([0.0, 0.0, 1.0], 17, 5) == 0.0


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_matrix_form_equals_pixel_sum_random(seed):
    rng = np.random.default_rng(seed)
    for width, height in ((2, 2), (3, 5), (32, 24)):
        w = np.array([rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01), 1.0])
        m = moment_matrices(width, height)
        single = distortion_of_w(w, [0.0, 0.0, 1.0], m, m)
        assert single == pytest.approx(pixel_sum_distortion(w, width, height),
                                       rel=1e-9, abs=1e-15)


@given(st.floats(-10, 10).filter(lambda v: abs(v) >= 0.1),
       st.floats(-10, 10).filter(lambda v: abs(v) >= 0.1))
@settings(max_examples=40, deadline=None)
def test_distortion_degree_zero_homogeneity(lam, mu):
    m = moment_matrices(32, 24)
    w1 = np.array([0.002, 0.001, 1.0])
    w2 = np.array([-0.003, 0.0005, 1.0])
    base = distortion_of_w(w1, w2, m, m)
    scaled = distortion_of_w(lam * w1, mu * w2, m, m)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_distortion_of_y_consistent_paths(rig_d):
    ops = operand_matrices(rig_d)
    rng = np.random.default_rng(13)
    for y1 in rng.uniform(-400, 800, size=10):
        direct = distortion_of_y(ops, float(y1))
        w1, w2 = w_from_y_raw(ops, float(y1))
        via_w = distortion_of_w(w1, w2, ops.moments1, ops.moments2)
        assert direct == pytest.approx(via_w, rel=1e-12)


def test_distortion_of_y_frontoparallel(frontoparallel):
    ops = operand_matrices(frontoparallel)
    assert distortion_of_y(ops, 240.0) <= 1e-10


def test_distortion_rational_form(rig_d):
    """The metric is a (2,2)+(2,2) rational: each term's f/g^2 shape lets a
    degree-4/degree-4 single rational fit reproduce held-out samples."""
    ops = operand_matrices(rig_d)
    u = np.array([0.0, 1.0, 0.0])
    c = np.array([0.0, 0.0, 1.0])

    def term_polys(M, C):
        # numerator f(y) = [0 y 1] M [0 y 1]^T, denominator g(y) likewise
        f = (M[1, 1], 2.0 * M[1, 2], M[2, 2])
        g = (C[1, 1], 2.0 * C[1, 2], C[2, 2])
        return np.poly1d(f), np.poly1d(g)

    f1, g1 = term_polys(ops.M1, ops.C1)
    f2, g2 = term_polys(ops.M2, ops.C2)
    rng = np.random.default_rng(17)
    for y in rng.uniform(-300, 700, size=100):
        expected = f1(y) / g1(y) + f2(y) / g2(y)
        assert distortion_of_y(ops, float(y)) == pytest.approx(expected, rel=1e-8)


def test_distortion_positive_and_blows_up_at_poles(rig_d):
    ops = operand_matrices(rig_d)
    p1, p2 = poles(ops)
    ys = np.linspace(-4 * 480, 4 * 480, 4001)
    vals = distortion_of_y_many(ops, ys)
    finite = vals[np.isfinite(vals)]
    assert (finite >= 0.0).all()
    best = finite.min()
    for pole in (p1, p2):
        for side in (-1e-6, 1e-6):
            y = pole + side
            if is_admissible(ops, y):
                assert distortion_of_y(ops, y) > 1e6 * max(best, 1e-30)


def test_distortion_of_y_raises_at_a_pole(rig_d):
    ops = operand_matrices(rig_d)
    for pole in poles(ops):
        with pytest.raises(PoleAtY):
            distortion_of_y(ops, pole)


def test_distortion_of_y_refuses_y1_where_the_quadratic_forms_overflow(rig_d):
    """y1² overflows above about 1e154: a refusal with no RuntimeWarning, not a pole."""
    ops = operand_matrices(rig_d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y in (1e200, -1e200, 1e308):
            with pytest.raises(InvalidArgument, match="overflows the distortion function"):
                distortion_of_y(ops, y)
        assert math.isfinite(distortion_of_y(ops, 1e150))


def test_w_from_y_raises_where_the_row_cannot_be_rescaled(rig_d):
    """At y1 = -L1[2,2] / L1[2,1] the third component of w1 vanishes."""
    ops = operand_matrices(rig_d)
    with pytest.raises(PoleAtY):
        w_from_y(ops, -ops.L1[2, 2] / ops.L1[2, 1])


def test_w_from_y_rescales_the_rows_at_the_poles_of_the_metric(rig_d):
    """The metric's poles are where a row is orthogonal to the average pixel, not where
    its third component is 0: there the rows still rescale, while the metric is undefined."""
    ops = operand_matrices(rig_d)
    for pole in poles(ops):
        w1, w2 = w_from_y(ops, pole)
        assert w1[2] == 1.0 and w2[2] == 1.0
        assert np.isfinite(w1).all() and np.isfinite(w2).all()
        with pytest.raises(PoleAtY, match="pole of the distortion function"):
            distortion_of_y(ops, pole)


def test_w_from_y_names_the_row_that_cannot_be_rescaled(rig_d):
    ops = operand_matrices(rig_d)
    y = -ops.L1[2, 2] / ops.L1[2, 1]
    assert math.isfinite(distortion_of_y(ops, y))
    with pytest.raises(PoleAtY, match="cannot be rescaled to third component 1"):
        w_from_y(ops, y)


# (1, 0, -319.5) is orthogonal to the average pixel (319.5, 239.5, 1) of 640x480.
W_THROUGH_CENTER = np.array([1.0, 0.0, -319.5])


def test_distortion_of_w_rejects_row_through_the_average_pixel():
    m = moment_matrices(640, 480)
    with pytest.raises(DegenerateCenter):
        distortion_of_w(W_THROUGH_CENTER, [0.0, 0.0, 1.0], m, m)


def test_pixel_sum_distortion_rejects_tiny_image_and_row_through_center():
    with pytest.raises(BadDimensions):
        pixel_sum_distortion([0.0, 0.0, 1.0], 1, 480)
    with pytest.raises(DegenerateCenter):
        pixel_sum_distortion(W_THROUGH_CENTER, 640, 480)


def test_admissibility_excludes_poles(rig_d):
    ops = operand_matrices(rig_d)
    p1, _ = poles(ops)
    assert not is_admissible(ops, p1)
    assert is_admissible(ops, p1 + 1.0)


# --- the vectorised metric against a whole-array reference -------------------------

def reference_many(ops, ys):
    """Whole-array evaluation of the metric, one temporary per step: the reference
    that distortion_of_y_many must match bit for bit."""
    ys = np.asarray(ys, dtype=float)
    total = np.zeros_like(ys)
    for (n2, n1, n0), (d2, d1, d0) in _rational_terms(ops):
        num = (n2 * ys + n1) * ys + n0
        den = (d2 * ys + d1) * ys + d0
        bad = den <= 1e-15 * np.maximum(np.abs(num), 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(bad, np.inf, num / np.where(bad, 1.0, den))
        total = total + term
    p1, p2 = poles(ops)
    for p in (p1, p2):
        total = np.where(np.abs(ys - p) <= _exclusion_half_width(p), np.inf, total)
    return total


def assert_same_as_reference(ops, ys):
    got = distortion_of_y_many(ops, ys)
    ref = reference_many(ops, ys)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == ref.shape
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(ref).tobytes()


def rational_ops(num1, den1, num2, den2):
    """Operands whose metric is num1/den1 + num2/den2, each a coefficient triple
    (y², y, 1) of a quadratic in the horizon intercept."""
    def form(a, b, c):
        return np.array([[0.0, 0.0, 0.0], [0.0, a, b / 2.0], [0.0, b / 2.0, c]])

    m = moment_matrices(2, 2)
    return DistortionOperands(L1=np.eye(3), L2=np.eye(3), M1=form(*num1), M2=form(*num2),
                              C1=form(*den1), C2=form(*den2), moments1=m, moments2=m)


def pi2_ops(count, seed=3):
    rng = np.random.default_rng(seed)
    return [operand_matrices(random_rig(rng, max_angle=math.pi / 2)) for _ in range(count)]


def test_many_matches_reference_on_seeded_rigs():
    ys = np.linspace(-4800.0, 4800.0, 20_001)  # two blocks
    for ops in pi2_ops(200):
        assert_same_as_reference(ops, ys)


def test_many_matches_reference_at_and_around_poles():
    for ops in pi2_ops(40, seed=7):
        for p in poles(ops):
            half = _exclusion_half_width(p)
            ys = []
            for centre in (p, p - half, p + half):
                y = np.float64(centre)
                ys += [np.nextafter(y, -np.inf), y, np.nextafter(y, np.inf)]
            ys = np.array(ys)
            assert np.isinf(distortion_of_y_many(ops, ys[:3])).all()
            assert_same_as_reference(ops, ys)


def test_many_matches_reference_on_any_shape(rig_d):
    ops = operand_matrices(rig_d)
    ys = np.linspace(-4800.0, 4800.0, 60_000)
    for sample in (float(ys[7]), ys[7], np.array(ys[7]), ys[:1200].reshape(30, 40),
                   ys.reshape(3, -1), ys[:0], ys[:0].reshape(0, 5), ys[::3], ys[::-7],
                   ys.reshape(3, -1)[:, ::2], [1.0, 2.0, 3.0], np.arange(-500, 500)):
        assert_same_as_reference(ops, sample)
    assert distortion_of_y_many(ops, ys[7]).shape == ()


def test_many_matches_reference_across_block_lengths(rig_d):
    ops = operand_matrices(rig_d)
    block = distortion._BLOCK
    for n in (1, block - 1, block, block + 1, 2 * block, 200_001):
        assert_same_as_reference(ops, np.linspace(-4800.0, 4800.0, n))


def test_many_matches_reference_where_a_denominator_is_not_positive():
    # den1 = (y - 3)² - 1 is negative on (2, 4), zero at 2 and 4: those samples are
    # +inf although the excluded zone is only the 1e-9-wide one around y = 3
    ops = rational_ops((1.0, 0.0, 0.0), (1.0, -6.0, 8.0), (0.0, 0.0, 1.0), (1.0, -40.0, 401.0))
    ys = np.linspace(-10.0, 10.0, 2 * distortion._BLOCK + 3)
    got = distortion_of_y_many(ops, ys)
    assert np.isinf(got[(ys >= 2.0) & (ys <= 4.0)]).all()
    assert np.isfinite(got[(ys < 2.0) | (ys > 4.0)]).all()
    assert_same_as_reference(ops, ys)
    # a positive den1 is still a pole when den1 <= 1e-15·max(|num1|, 1), num1 = y²
    ys = np.linspace(-2.0, 2.0, 4001)
    for d0, is_pole in ((7e-16, np.full(ys.shape, True)), (1.2e-15, ys * ys >= 1.2)):
        ops = rational_ops((1.0, 0.0, 0.0), (1e-300, 0.0, d0), (0.0, 0.0, 1.0),
                           (1.0, -40.0, 401.0))
        got = distortion_of_y_many(ops, ys)
        assert np.array_equal(np.isinf(got), is_pole | (ys == 0.0))  # 0: poles(ops)[0]
        assert_same_as_reference(ops, ys)


def test_many_matches_reference_on_signed_zeros():
    # both numerators are -0.0 for y < 0, so both terms are -0.0 there: 0 + term1 + term2
    # makes +0.0 of them
    ops = rational_ops((0.0, 0.0, -0.0), (1.0, -40.0, 401.0), (0.0, 0.0, -0.0), (1.0, 40.0, 401.0))
    ys = np.linspace(-3.0, 3.0, 7)
    assert np.signbit(reference_many(ops, ys)).sum() == 0
    assert_same_as_reference(ops, ys)


def test_many_matches_reference_on_nonfinite_samples(rig_d):
    ops = operand_matrices(rig_d)
    ys = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0, -0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_as_reference(ops, ys)


def test_many_reads_overflowing_samples_as_inf_without_a_warning(rig_d):
    ops = operand_matrices(rig_d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = distortion_of_y_many(ops, [1e200, -1e300])
    assert got.tolist() == [math.inf, math.inf]


def test_many_is_finite_or_plus_inf_on_finite_samples():
    """scan_minimize takes the least sample without a finiteness mask: no finite
    sample may come out as NaN or -inf."""
    cases = []
    for ops in pi2_ops(40, seed=11):
        ys = [np.linspace(-4800.0, 4800.0, 4001)]  # +-10 image heights
        for p in poles(ops):
            half = _exclusion_half_width(p)
            for centre in (p, p - half, p + half):
                y = np.float64(centre)
                ys.append([np.nextafter(y, -np.inf), y, np.nextafter(y, np.inf)])
        cases.append((ops, np.concatenate(ys)))
    ys = np.concatenate([np.linspace(-10.0, 10.0, 4001), [2.0, 3.0, 4.0]])
    # a negative denominator on (2, 4); a zero one; a quotient that overflows
    for den1 in ((1.0, -6.0, 8.0), (0.0, 0.0, 0.0), (0.0, 0.0, -1e-300), (0.0, 0.0, 1e-300)):
        for num1 in ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1e300)):
            cases.append((rational_ops(num1, den1, (0.0, 0.0, 1.0), (1.0, -40.0, 401.0)), ys))
    for ops, ys in cases:
        got = distortion_of_y_many(ops, ys)
        assert (np.isfinite(got) | (got == np.inf)).all()
