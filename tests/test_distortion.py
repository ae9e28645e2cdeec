"""Distortion metric: moment matrices, operands, and the y-parametrisation."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minrect import distortion
from minrect.baselines import STRESS_SCAN_SAMPLES, random_rig, scan_minimize
from minrect.distortion import (
    DistortionOperands,
    MomentMatrices,
    distortion_of_w,
    distortion_of_y,
    distortion_of_y_many,
    moment_matrices,
    operand_matrices,
    pixel_sum_distortion,
    poles,
    w_from_y,
    w_from_y_raw,
)
from minrect.errors import DegenerateCenter, InvalidArgument, MinrectError, PoleAtY
from minrect.geometry import Camera, StereoRig
from minrect.rectify import assemble


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
    with pytest.raises(InvalidArgument):
        moment_matrices(1, 480)


def test_moment_matrices_of_a_repeated_size_are_shared_and_refuse_writes():
    first = moment_matrices(640, 480)
    assert moment_matrices(640, 480) is first
    for arr in (first.ppt, first.pcpct):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    ppt, pcpct = brute_moments(640, 480)
    assert np.allclose(first.ppt, ppt, rtol=1e-9)
    assert np.allclose(first.pcpct, pcpct, rtol=1e-9)


def test_moment_matrices_refuse_a_tiny_size_on_every_call():
    """The cache keeps results, not exceptions: 1x480 raises after 640x480 is cached."""
    moment_matrices(640, 480)
    for _ in range(3):
        with pytest.raises(InvalidArgument):
            moment_matrices(1, 480)


def test_operand_axis_projector():
    A = np.eye(3)
    cam1 = Camera(A=A, R=np.eye(3), t=np.zeros(3), width=4, height=4)
    cam2 = Camera(A=A, R=np.eye(3), t=np.array([-1.0, 0.0, 0.0]),
                  width=4, height=4)
    ops = operand_matrices(StereoRig(cam1=cam1, cam2=cam2))
    assert np.allclose(ops.L1, np.diag([0.0, 1.0, 1.0]))


def quadratic_forms(ops):
    """M1, C1, M2, C2: each L_i^T·X·L_i, X the ppt or p_bar·p_bar^T of image i, symmetrised
    as (F + F^T)/2, the expression ``quartic_coefficients`` builds them with."""
    forms = [L.T @ X @ L for L, mom in ((ops.L1, ops.moments1), (ops.L2, ops.moments2))
             for X in (mom.ppt, mom.pcpct)]
    return tuple((F + F.T) / 2.0 for F in forms)


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


# ±2^k scales every product of N and g² by a power of two, so it leaves N/g²'s bits
POWERS_OF_TWO = [sign * 2.0 ** k for k in range(-60, 61) for sign in (1.0, -1.0)]


@given(st.floats(-10, 10).filter(lambda v: abs(v) >= 0.1) | st.sampled_from(POWERS_OF_TWO),
       st.floats(-10, 10).filter(lambda v: abs(v) >= 0.1) | st.sampled_from(POWERS_OF_TWO))
@example(2.0 ** -60, 2.0 ** 60)
@example(-(2.0 ** 60), 2.0 ** -30)
@settings(max_examples=40, deadline=None)
def test_distortion_degree_zero_homogeneity(lam, mu):
    m = moment_matrices(32, 24)
    w1 = np.array([0.002, 0.001, 1.0])
    w2 = np.array([-0.003, 0.0005, 1.0])
    base = distortion_of_w(w1, w2, m, m)
    scaled = distortion_of_w(lam * w1, mu * w2, m, m)
    if lam in POWERS_OF_TWO and mu in POWERS_OF_TWO:
        assert scaled == base
    else:
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

    M1, C1, M2, C2 = quadratic_forms(ops)
    f1, g1 = term_polys(M1, C1)
    f2, g2 = term_polys(M2, C2)
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
            assert distortion_of_y(ops, pole + side) > 1e6 * max(best, 1e-30)


def test_distortion_of_y_raises_at_a_pole(rig_d):
    ops = operand_matrices(rig_d)
    for pole in poles(ops):
        with pytest.raises(PoleAtY):
            distortion_of_y(ops, pole)


def test_distortion_of_y_refuses_y1_where_the_quadratic_forms_overflow(rig_d):
    """An ℓ or g that overflows is a refusal with no RuntimeWarning, not a pole: 2y and
    1e5·y + 1 at ±1.7e308. rig_d's forms overflow at no finite y1, and its metric tends
    to Σ s·(ℓ'/g₁)², about 2.3646e10."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for term in (((2.0, 0.0), ZERO, ONE), (ONE, ZERO, (1e5, 1.0))):
            ops = rational_ops(term, (ONE, ZERO, ONE))
            for y in (1.7e308, -1.7e308):
                with pytest.raises(InvalidArgument, match="overflows the distortion function"):
                    distortion_of_y(ops, y)
        ops = operand_matrices(rig_d)
        for y in (1e150, 1e200, -1e200, 1e308, -1.7e308):
            assert distortion_of_y(ops, y) == pytest.approx(2.3646e10, rel=1e-4)


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


def test_distortion_of_w_refuses_only_where_g_is_zero_or_a_value_is_not_finite():
    """One float off the average pixel's plane the metric has a value, and so has a term
    near the top of the float range; a row whose metric leaves the range, or that holds
    ±inf or NaN, is refused, with no numpy warning."""
    m = moment_matrices(640, 480)
    near = W_THROUGH_CENTER + [0.0, 0.0, np.nextafter(-319.5, 0.0) + 319.5]
    assert 0.0 < distortion_of_w(near, [0.0, 0.0, 1.0], m, m) < math.inf
    assert distortion_of_w([0.0, 0.0, 1e200], [0.0, 0.0, 2.0 ** -500], m, m) == 0.0
    # On 2x2, p̄ = (0.5, 0.5, 1) and ppt = diag(1, 1, 0); the unit row of (1, -1, t) is
    # (1/2, -1/2, t/2), with g = t/2 exactly, so (ℓ_x/g)² + (ℓ_y/g)² = 2/t²
    m2 = moment_matrices(2, 2)
    assert distortion_of_w([1.0, -1.0, 2.0 ** -500], [0.0, 0.0, 1.0], m2, m2) == 2.0 ** 1001
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (2.0 ** -520, 2.0 ** -600):  # (1/t)² overflows
            with pytest.raises(DegenerateCenter, match="not finite"):
                distortion_of_w([1.0, -1.0, t], [0.0, 0.0, 1.0], m2, m2)
        for w in ([math.nan, 0.0, 1.0], [math.inf, 0.0, 1.0], [1e308, -math.inf, 0.0],
                  [0.0, 0.0, math.inf]):
            with pytest.raises(DegenerateCenter, match="not finite"):
                distortion_of_w(w, [0.0, 0.0, 1.0], m, m)


@pytest.mark.parametrize("scale", [1.5e154, 1e-160, 2.0 ** 512, 2.0 ** -540, 2.0 ** 1000,
                                   2.0 ** -1000])
def test_distortion_of_w_ignores_scales_at_which_n_or_g_squared_leaves_the_float_range(scale):
    """Each row is brought to unit scale first: 1.5e154·(1e-6, 0, 1) used to overflow g²
    and drop its term (N/inf = 0), and 2⁻⁵⁴⁰·w to underflow g² and be refused."""
    m = moment_matrices(640, 480)
    w, other = np.array([1e-6, 0.0, 1.0]), [0.0, 0.0, 1.0]
    base = distortion_of_w(w, other, m, m)
    assert base == pytest.approx(0.0105, rel=0.01)
    scaled = distortion_of_w(scale * w, other, m, m)
    if math.frexp(scale)[0] == 0.5:  # a power of two: the same bits
        assert scaled == base
    else:
        assert scaled == pytest.approx(base, rel=1e-15)
    assert distortion_of_w([2.0 ** 700, 0.0, 1.0], other, m, m) == distortion_of_w(
        [1.0, 0.0, 0.0], other, m, m)


def test_pixel_sum_distortion_rejects_tiny_image_and_row_through_center():
    with pytest.raises(InvalidArgument):
        pixel_sum_distortion([0.0, 0.0, 1.0], 1, 480)
    with pytest.raises(DegenerateCenter):
        pixel_sum_distortion(W_THROUGH_CENTER, 640, 480)


def test_admissibility_excludes_poles(rig_d):
    """Only the poles themselves are excluded: one float away the metric has a value."""
    ops = operand_matrices(rig_d)
    for p in poles(ops):
        with pytest.raises(PoleAtY):
            distortion_of_y(ops, p)
        for y in (p + 1.0, np.nextafter(p, -np.inf), np.nextafter(p, np.inf)):
            assert 0.0 < distortion_of_y(ops, float(y)) < math.inf


# --- the vectorised metric against a whole-array reference -------------------------

def float_forms(ops):
    """Per term, from the operand matrices: the pairs (s_x, ℓ_x) and (s_y, ℓ_y), each s a
    diagonal entry of ppt and each ℓ its coefficients (y, 1) from a row of L_i, then
    (g1, g0) = p_bar^T L_i with p = -g0/g1 (inf where g1 == 0), as numpy scalars."""
    forms = []
    for L, mom in ((ops.L1, ops.moments1), (ops.L2, ops.moments2)):
        _, g1, g0 = mom.pcpct[2] @ L
        axes = ((mom.ppt[0, 0], L[0, 1], L[0, 2]), (mom.ppt[1, 1], L[1, 1], L[1, 2]))
        forms.append((axes, g1, -g0 / g1 if g1 else math.inf, g0))
    return forms


def reference_many(ops, ys):
    """Whole-array evaluation of the metric, one temporary per step: the reference
    that distortion_of_y_many must match bit for bit. Each term is s_x·r_x·r_x +
    s_y·r_y·r_y with r = ℓ/g and g = g1·(y - p), or g0 where g1 == 0. A sample reads
    +inf where a term's ℓ or g is not finite, its g is 0, or the sum is not finite."""
    ys = np.asarray(ys, dtype=float)
    total, bad = np.zeros_like(ys), np.zeros(ys.shape, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for ((sx, x1, x0), (sy, y1, y0)), g1, p, g0 in float_forms(ops):
            g = (ys - p) * g1 if g1 else np.full(ys.shape, g0)
            lx, ly = x1 * ys + x0, y1 * ys + y0
            bad |= ~np.isfinite(lx) | ~np.isfinite(ly) | ~np.isfinite(g) | (g == 0.0)
            rx, ry = lx / g, ly / g
            total = total + (sx * (rx * rx) + sy * (ry * ry))
    return np.where(bad | ~np.isfinite(total), np.inf, total)


def assert_same_as_reference(ops, ys):
    got = distortion_of_y_many(ops, ys)
    ref = reference_many(ops, ys)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == ref.shape
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(ref).tobytes()


def rational_ops(term1, term2):
    """Operands whose metric is (ℓ_x² + ℓ_y²)/g² summed over two terms, each a triple
    (ℓ_x, ℓ_y, g) of pairs (c₁, c₀), the linear form c₁·y + c₀. The image is 2x2 with its
    pixel centres at (±1/2, ±1/2), so s_x = s_y = 1 and p_bar = (0, 0, 1). Rows 0, 1 and 2
    of L_i are (0, c₁, c₀) of ℓ_x, ℓ_y and g."""
    m = MomentMatrices(ppt=moment_matrices(2, 2).ppt, pcpct=np.diag([0.0, 0.0, 1.0]))
    L1, L2 = (np.array([[0.0, *lx], [0.0, *ly], [0.0, *g]]) for lx, ly, g in (term1, term2))
    return DistortionOperands(L1=L1, L2=L2, moments1=m, moments2=m)


# the linear forms y, 1 and 0, as coefficients (y, 1)
Y, ONE, ZERO = (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)


def pi2_ops(count, seed=3):
    rng = np.random.default_rng(seed)
    return [operand_matrices(random_rig(rng, max_angle=math.pi / 2)) for _ in range(count)]


def test_many_matches_reference_on_seeded_rigs():
    ys = np.linspace(-4800.0, 4800.0, 20_001)  # two blocks
    for ops in pi2_ops(200):
        assert_same_as_reference(ops, ys)


def near_pole_samples(p):
    """A pole, its two neighbouring floats, and p ± 1e-3, 0.1, 1 and 10."""
    y = np.float64(p)
    return np.array([np.nextafter(y, -np.inf), y, np.nextafter(y, np.inf)]
                    + [p + side * d for d in (1e-3, 0.1, 1.0, 10.0) for side in (-1.0, 1.0)])


def test_many_matches_reference_at_and_around_poles():
    """Only the pole itself reads +inf: one float away g is not 0."""
    for ops in pi2_ops(40, seed=7):
        for p in poles(ops):
            if not math.isfinite(p):
                continue
            ys = near_pole_samples(p)
            got = distortion_of_y_many(ops, ys)
            assert got[1] == math.inf
            assert np.isfinite(np.delete(got, 1)).all()
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
    """g is 0 at the pole, and, for g = 2⁻¹⁰⁷⁴·(y - 3), also wherever it underflows,
    |y - 3| <= 1/2. Both read +inf; elsewhere 2⁻¹⁰⁷⁴/g is 1/round(y - 3)."""
    ops = rational_ops((Y, ZERO, (1.0, -3.0)), (ONE, ZERO, (1.0, -20.0)))
    ys = np.concatenate([np.linspace(-10.0, 10.0, 2 * distortion._BLOCK + 3), [3.0]])
    got = distortion_of_y_many(ops, ys)
    assert np.array_equal(np.isinf(got), ys == 3.0)
    assert_same_as_reference(ops, ys)
    tiny = math.ldexp(1.0, -1074)
    ops = rational_ops(((0.0, tiny), ZERO, (tiny, -3.0 * tiny)), (ONE, ZERO, ONE))
    ys = np.linspace(-7.0, 13.0, 4001)
    got = distortion_of_y_many(ops, ys)
    assert np.array_equal(np.isinf(got), np.abs(ys - 3.0) <= 0.5)
    assert_same_as_reference(ops, ys)


def test_many_matches_reference_on_signed_zeros():
    # every ℓ is -0.0, so each r is ±0.0: r·r makes +0.0 of it
    ops = rational_ops(((0.0, -0.0), (0.0, -0.0), (1.0, -20.0)),
                       ((0.0, -0.0), (0.0, -0.0), (1.0, 20.0)))
    ys = np.linspace(-3.0, 3.0, 7)
    assert np.signbit(reference_many(ops, ys)).sum() == 0
    assert_same_as_reference(ops, ys)


def test_many_matches_reference_on_nonfinite_samples(rig_d):
    ops = operand_matrices(rig_d)
    ys = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0, -0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_as_reference(ops, ys)


def test_many_reads_overflowing_samples_as_inf_without_a_warning(rig_d):
    """2y overflows at ±1.7e308; rig_d's forms overflow at no finite y."""
    ops = rational_ops(((2.0, 0.0), ZERO, ONE), (ONE, ZERO, ONE))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = distortion_of_y_many(ops, [1.7e308, -1.7e308, 1e100])
        assert np.isfinite(distortion_of_y_many(operand_matrices(rig_d), [1e200, -1e300])).all()
    assert got[:2].tolist() == [math.inf, math.inf] and math.isfinite(got[2])


def test_many_reads_a_sample_whose_denominator_alone_overflows_as_inf():
    """(2y)²/(1e5·y + 1)² is least at y = 1 on [1, 1.7e308]. From y ≈ 1.8e303 its g
    overflows while its ℓ does not; read as 0, such a sample would be the scan's
    minimum."""
    ops = rational_ops(((2.0, 0.0), ZERO, (1e5, 1.0)), (ZERO, ZERO, ONE))
    ys = [1e100, 1e304, 1.7e308]  # at 1e304 g alone overflows, at 1.7e308 ℓ too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = distortion_of_y_many(ops, ys)
        y, d = scan_minimize(ops, 1.0, 1.7e308)
    assert got[0] == pytest.approx(4e-10, rel=1e-15)
    assert got[1:].tolist() == [math.inf, math.inf]
    assert_same_as_reference(ops, ys)
    assert y == pytest.approx(1.0, abs=1e-6)
    assert d == pytest.approx(4.0 / (1e5 + 1.0) ** 2, rel=1e-9)


# a pole inside the grid, no pole, g = 0 everywhere, g = 0 by underflow on |y| <= 1/2 and
# a tiny constant g, under (ℓ_x, ℓ_y) that are 0, y, a large constant, 2y, which overflows
# at ±1.7e308, and y beside a large constant
SYNTHETIC_G = ((1.0, -3.0), ONE, ZERO, (math.ldexp(1.0, -1074), 0.0), (0.0, 1e-300))
SYNTHETIC_L = ((ZERO, ZERO), (Y, ZERO), ((0.0, 1e150), ZERO), ((2.0, 0.0), ZERO),
               (Y, (0.0, 1e150)))


def test_many_is_finite_or_plus_inf_on_finite_samples():
    """scan_minimize takes the least sample without a finiteness mask: no finite
    sample may come out as NaN or -inf."""
    cases = []
    for ops in pi2_ops(40, seed=11):
        ys = [np.linspace(-4800.0, 4800.0, 4001)]  # +-10 image heights
        ys += [near_pole_samples(p) for p in poles(ops) if math.isfinite(p)]
        cases.append((ops, np.concatenate(ys)))
    ys = np.concatenate([np.linspace(-10.0, 10.0, 4001), [2.0, 3.0, 4.0]])
    for g in SYNTHETIC_G:
        for lx, ly in SYNTHETIC_L:
            cases.append((rational_ops((lx, ly, g), (ONE, ZERO, (1.0, -20.0))), ys))
    for ops, ys in cases:
        got = distortion_of_y_many(ops, ys)
        assert (np.isfinite(got) | (got == np.inf)).all()
        assert_same_as_reference(ops, ys)


def test_scalar_metric_refuses_exactly_where_many_reads_inf():
    """On the synthetic cases above, and at samples where only an ℓ overflows:
    distortion_of_y returns the bits distortion_of_y_many reads, and refuses exactly
    where it reads +inf, without a warning."""
    ys = np.concatenate([np.linspace(-10.0, 10.0, 4001), [2.0, 3.0, 4.0],
                         [1e155, -1e200, 1.7e308, -1.7e308]])
    refused = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in SYNTHETIC_G:
            for lx, ly in SYNTHETIC_L:
                ops = rational_ops((lx, ly, g), (ONE, ZERO, (1.0, -20.0)))
                for y, many in zip(ys.tolist(), distortion_of_y_many(ops, ys).tolist()):
                    if many == math.inf:
                        with pytest.raises((PoleAtY, InvalidArgument)) as exc:
                            distortion_of_y(ops, y)
                        refused.add(exc.type)
                    else:
                        assert distortion_of_y(ops, y).hex() == many.hex(), (lx, ly, g, y)
    assert refused == {PoleAtY, InvalidArgument}


# --- both paths of the block test against the whole-array reference ------------------
# A block skips its masks only where every g² and the sum are finite; these cases put
# the samples that are refused, or nearly so, where a wrong test would let them through.

def test_many_matches_reference_with_one_pole_in_the_middle_block_and_one_in_the_last():
    block = distortion._BLOCK
    p1, p2 = 1.5 * block, 2.5 * block  # integers: the grid holds each pole exactly
    ops = rational_ops((Y, ONE, (1.0, -p1)), ((1.0, 3.0), ZERO, (1.0, -p2)))
    ys = np.arange(3.0 * block)
    got = distortion_of_y_many(ops, ys)
    assert np.isfinite(got[:block]).all()
    assert got[int(p1)] == got[int(p2)] == math.inf
    assert np.isinf(got[block:2 * block]).sum() == np.isinf(got[2 * block:]).sum() == 1
    assert_same_as_reference(ops, ys)
    for ops in pi2_ops(20, seed=19):  # the same layout around the poles of seeded rigs
        q1, q2 = (float(p) for p in poles(ops))
        if not math.isfinite(q1 + q2):
            continue
        ys = np.concatenate([np.linspace(-4800.0, 4800.0, block),
                             np.linspace(q1 - 1.0, q1 + 1.0, block), [q1],
                             np.linspace(q2 - 1.0, q2 + 1.0, block - 1), [q2]])
        got = distortion_of_y_many(ops, ys)
        assert got[2 * block] == got[-1] == math.inf
        assert_same_as_reference(ops, ys)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_many_matches_reference_with_a_nonfinite_sample_in_a_clean_block(rig_d, value):
    ops = operand_matrices(rig_d)
    block = distortion._BLOCK
    clean = np.linspace(-4800.0, 4800.0, block)
    assert np.isfinite(distortion_of_y_many(ops, clean)).all()
    for at in (0, block // 2, block - 1):
        ys = np.concatenate([clean, clean])
        ys[block + at] = value
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_as_reference(ops, ys)
        got = distortion_of_y_many(ops, ys)
        assert np.isfinite(np.delete(got, block + at)).all()
        assert not np.isfinite(got[block + at])


def test_many_matches_reference_where_one_numerator_alone_overflows():
    """(1e5·y)²/(y + 1)²: at y = 1e304 the ℓ overflows and g does not, so the sample
    is refused although every g of its block is finite."""
    block = distortion._BLOCK
    ops = rational_ops(((1e5, 0.0), ZERO, (1.0, 1.0)), (ONE, ZERO, ONE))
    ys = np.linspace(10.0, 1e6, 2 * block)
    ys[block + 5] = 1e304
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = distortion_of_y_many(ops, ys)
    assert got[block + 5] == math.inf
    assert np.isfinite(np.delete(got, block + 5)).all()
    assert_same_as_reference(ops, ys)


def test_many_matches_the_scalar_metric_where_one_denominator_alone_overflows():
    """1/(1e5·y + 1e10)²: at y = 1e304 g overflows under an ℓ of 1, so the term alone
    would read 0 there; the sample is refused by the reference and by
    ``distortion_of_y`` alike."""
    block = distortion._BLOCK
    ops = rational_ops((ONE, ZERO, (1e5, 1e10)), (ONE, ZERO, ONE))
    ys = np.linspace(10.0, 1e6, 2 * block)
    ys[block + 5] = 1e304
    got = distortion_of_y_many(ops, ys)
    assert got[block + 5] == math.inf
    assert np.isfinite(np.delete(got, block + 5)).all()
    assert_same_as_reference(ops, ys)
    with pytest.raises(InvalidArgument):
        distortion_of_y(ops, 1e304)
    assert all(distortion_of_y(ops, y).hex() == d.hex()
               for y, d in zip(ys.tolist(), got.tolist()) if d != math.inf)


def test_many_matches_reference_next_to_poles_on_a_block_boundary():
    """A pole and its two neighbouring floats, as the least or the greatest sample of a
    block, one at each side of a block boundary: the pole alone reads +inf."""
    block = distortion._BLOCK
    cases = [(rational_ops((ONE, ZERO, (1.0, -p)), (Y, ZERO, ONE)), p)
             for p in (0.0, 1000.5, -3.0e5 - 1.0 / 3.0, 2.0 ** 20 + 0.25)]
    cases += [(ops, p) for ops in pi2_ops(10, seed=23) for p in poles(ops) if math.isfinite(p)]
    for ops, p in cases:
        y = np.float64(p)
        for side in (-1.0, 1.0):
            far = np.linspace(p + side * 1.0, p + side * 100.0, block - 1)
            for v in (np.nextafter(y, -np.inf), y, np.nextafter(y, np.inf)):
                ys = np.concatenate([far, [v, v], far])  # v ends block 1 and starts block 2
                got = distortion_of_y_many(ops, ys)
                assert got[block - 1].tobytes() == got[block].tobytes()
                # next to the pole at 0, 1/g = 1/5e-324 overflows as well
                assert (got[block] == math.inf) == (v == y or p == 0.0)
                assert_same_as_reference(ops, ys)


def test_many_matches_reference_on_signed_zeros_over_two_blocks():
    ops = rational_ops(((0.0, -0.0), (0.0, -0.0), (1.0, -20.0)),
                       ((0.0, -0.0), (0.0, -0.0), (1.0, 20.0)))
    block = distortion._BLOCK
    ys = np.linspace(-3.0, 1.0, 2 * block)  # negative throughout block 1, both signs in 2
    assert (ys[:block + 1] < 0.0).all() and ys[-1] > 0.0
    got = distortion_of_y_many(ops, ys)
    assert np.signbit(got).sum() == 0
    assert_same_as_reference(ops, ys)


# --- accuracy against exact arithmetic on the float forms -----------------------------

def exact_metric(ops, y: float) -> Fraction:
    """The metric of the float forms (s, ℓ, g1, p and g0) at y, in exact rational
    arithmetic."""
    y, total = Fraction(y), Fraction(0)
    for axes, g1, p, g0 in float_forms(ops):
        g = Fraction(float(g1)) * (y - Fraction(float(p))) if g1 else Fraction(float(g0))
        for s, c1, c0 in axes:
            total += Fraction(float(s)) * ((Fraction(float(c1)) * y + Fraction(float(c0))) / g) ** 2
    return total


def assert_accurate(ops, ys, rel):
    """distortion_of_y within ``rel`` of exact arithmetic at each of ``ys``, and within
    1e-12 of distortion_of_w on w_from_y_raw's rows wherever y is 1 px or more from both
    poles (nearer, p_bar^T w cancels where g1·(y - p) does not)."""
    for y in ys:
        got, exact = distortion_of_y(ops, y), exact_metric(ops, y)
        assert abs(Fraction(got) - exact) <= Fraction(rel) * exact, y
        if all(abs(y - p) >= 1.0 for p in poles(ops)):
            via_w = distortion_of_w(*w_from_y_raw(ops, y), ops.moments1, ops.moments2)
            assert abs(via_w - got) <= 1e-12 * got, y


def stress_rig(seed, trial):
    """The rig of ``trial`` in a ``stress`` run under ``seed``."""
    rng = np.random.default_rng(seed)
    for _ in range(trial):
        random_rig(rng)
    return random_rig(rng)


def test_metric_is_accurate_between_close_poles():
    """Stress trials whose minimum lies between two close poles: within ±0.01 px of the
    scan minimiser and 1e-3 px from each pole, the metric is within 1e-9 of exact
    arithmetic. A numerator expanded into monomials of y cancelled there, by up to 9.4e-5
    (seed 3, trial 1946)."""
    for seed, trial in ((3, 1946), (1, 960), (7, 1167), (0, 1667), (1, 1094)):
        rig = stress_rig(seed, trial)
        ops, h = operand_matrices(rig), rig.cam1.height
        y_min, _ = scan_minimize(ops, -10.0 * h, 10.0 * h, STRESS_SCAN_SAMPLES)
        ys = np.linspace(y_min - 0.01, y_min + 0.01, 21).tolist()
        ys += [p + d for p in poles(ops) for d in (-1e-3, 1e-3) if math.isfinite(p)]
        assert_accurate(ops, ys, 1e-9)


def test_metric_is_accurate_on_seeded_rigs():
    """At the closed-form minimum and 1e-3 px from each pole of 300 pi/2 rigs, the metric
    is within 1e-13 of exact arithmetic."""
    rng = np.random.default_rng(17)
    for _ in range(300):
        rig = random_rig(rng, max_angle=math.pi / 2)
        ops = operand_matrices(rig)
        ys = [p + d for p in poles(ops) for d in (-1e-3, 1e-3) if math.isfinite(p)]
        try:
            ys.append(assemble(rig).y1_star)
        except MinrectError:  # a closed-form miss is no concern of the metric
            pass
        assert_accurate(ops, ys, 1e-13)
