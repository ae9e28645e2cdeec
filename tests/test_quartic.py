"""Quartic coefficients, closed-form root solving, minimum selection."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minrect.distortion import distortion_of_y, is_admissible, operand_matrices
from minrect.errors import AllCoefficientsZero, NoAdmissibleRoot, PipelineError
from minrect.quartic import (
    RootSet,
    QuarticProblem,
    quartic_coefficients,
    select_minimum,
    solve_quartic,
)

from conftest import A_LEFT, make_camera, rot_y
from minrect.geometry import StereoRig
from minrect.rectify import assemble
from test_acceptance import scan_gap
from test_distortion import rational_ops
from test_small_c22 import two_cameras


def as_problem(coeffs) -> QuarticProblem:
    return QuarticProblem(m=(0.0,) * 8, coeffs=tuple(float(c) for c in coeffs),
                          degenerate=False)


def poly_val(coeffs, y):
    return np.polyval(coeffs, y)


# --- coefficient construction -------------------------------------------------

def test_identical_cameras_low_order_vanishes():
    """Same intrinsics and orientation on both sides: the stationarity
    polynomial factors so only one admissible root remains; the quartic
    still evaluates to its closed linear solution (see select test)."""
    cam1 = make_camera(A_LEFT, np.eye(3), (0.0, 0.0, 0.0))
    cam2 = make_camera(A_LEFT, np.eye(3), (1.0, 0.3, 0.2))
    ops = operand_matrices(StereoRig(cam1=cam1, cam2=cam2))
    problem = quartic_coefficients(ops)
    m1, m2, m3, m4, m5, m6, m7, m8 = problem.m
    # the two rational terms coincide, so the factorised form collapses
    assert m5 == pytest.approx(m1, rel=1e-9)
    assert m6 == pytest.approx(m2, rel=1e-9)
    assert m7 == pytest.approx(m3, rel=1e-9)
    a, b, c, d, e = problem.coeffs
    expected = np.polymul([2.0 * m4 * m2, 2.0 * m4 * m1],
                          np.polymul([1.0, m3], np.polymul([1.0, m3], [1.0, m3])))
    assert np.allclose([a, b, c, d, e], expected, rtol=1e-9)


def test_quartic_matches_factorised_form(rig_d):
    """Coefficients agree with m4(m2 y + m1)(y + m3)^3 + m8(m6 y + m5)(y + m7)^3."""
    ops = operand_matrices(rig_d)
    problem = quartic_coefficients(ops)
    m1, m2, m3, m4, m5, m6, m7, m8 = problem.m
    t1 = np.polymul([m4 * m2, m4 * m1],
                    np.polymul([1.0, m3], np.polymul([1.0, m3], [1.0, m3])))
    t2 = np.polymul([m8 * m6, m8 * m5],
                    np.polymul([1.0, m7], np.polymul([1.0, m7], [1.0, m7])))
    expected = np.polyadd(t1, t2)
    assert np.allclose(problem.coeffs, expected,
                       rtol=1e-9, atol=1e-9 * np.abs(expected).max())


def test_quartic_roots_are_stationary_points(rig_d):
    """Real admissible roots coincide with zeros of a finite-difference
    derivative of the distortion, refined by bisection."""
    ops = operand_matrices(rig_d)
    problem = quartic_coefficients(ops)
    roots = solve_quartic(problem)

    for r in roots.roots:
        if not is_admissible(ops, r):
            continue
        h = 1e-4 * (1.0 + abs(r))  # relative step keeps the oracle accurate

        def deriv(y):
            return (distortion_of_y(ops, y + h) - distortion_of_y(ops, y - h)) / (2 * h)

        lo, hi = r - 5 * h, r + 5 * h
        dlo, dhi = deriv(lo), deriv(hi)
        if dlo * dhi > 0:  # not bracketed at this width; skip saddle-ish cases
            continue
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if deriv(mid) * dlo <= 0:
                hi = mid
            else:
                lo, dlo = mid, deriv(mid)
        assert abs(0.5 * (lo + hi) - r) <= 1e-5 * (1.0 + abs(r))


def test_quartic_sign_matches_expanded_derivative(rig_d):
    """sign(quartic(y)) equals sign of the analytic derivative numerator
    built from the f,g polynomial expansion of both rational terms."""
    ops = operand_matrices(rig_d)
    problem = quartic_coefficients(ops)

    def polys(M, C):
        f = np.poly1d((M[1, 1], 2.0 * M[1, 2], M[2, 2]))
        g = np.poly1d((C[1, 1], 2.0 * C[1, 2], C[2, 2]))
        return f, g

    f1, g1 = polys(ops.M1, ops.C1)
    f2, g2 = polys(ops.M2, ops.C2)
    # d/dy [f/g] = (f' g - f g') / g^2; common positive denominator (g1 g2)^2
    n1 = (f1.deriv() * g1 - f1 * g1.deriv()) * (g2 * g2)
    n2 = (f2.deriv() * g2 - f2 * g2.deriv()) * (g1 * g1)
    numer = n1 + n2
    rng = np.random.default_rng(23)
    for y in rng.uniform(-500, 900, size=20):
        lhs = poly_val(problem.coeffs, y)
        rhs = numer(y)
        if abs(rhs) > 1e-6 * abs(numer.coeffs).max():
            assert np.sign(lhs) == np.sign(rhs)


# --- root solving -------------------------------------------------------------

def residual_ok(coeffs, r):
    a, b, c, d, e = coeffs
    terms = [abs(a) * r ** 4, abs(b) * abs(r) ** 3, abs(c) * r ** 2,
             abs(d) * abs(r), abs(e), 1.0]
    return abs(poly_val(coeffs, r)) <= 1e-6 * max(terms)


def test_solve_distinct_integers():
    roots = solve_quartic(as_problem((1.0, -10.0, 35.0, -50.0, 24.0)))
    assert np.allclose(roots.roots, [1.0, 2.0, 3.0, 4.0], atol=1e-10)


def test_solve_biquadratic():
    roots = solve_quartic(as_problem((1.0, 0.0, -5.0, 0.0, 4.0)))
    assert np.allclose(roots.roots, [-2.0, -1.0, 1.0, 2.0], atol=1e-10)


def test_solve_no_real_roots():
    roots = solve_quartic(as_problem((1.0, 0.0, 0.0, 0.0, 1.0)))
    assert len(roots) == 0


def test_solve_quadruple_root():
    # (y - 3)^4
    roots = solve_quartic(as_problem((1.0, -12.0, 54.0, -108.0, 81.0)))
    assert len(roots) == 1
    assert roots.roots[0] == pytest.approx(3.0, abs=1e-3)


def test_solve_all_zero_is_error():
    with pytest.raises(AllCoefficientsZero):
        solve_quartic(as_problem((0.0, 0.0, 0.0, 0.0, 0.0)))


def test_solve_cubic_fallback():
    # y^3 - 6y^2 + 11y - 6 = (y-1)(y-2)(y-3)
    roots = solve_quartic(as_problem((0.0, 1.0, -6.0, 11.0, -6.0)))
    assert np.allclose(roots.roots, [1.0, 2.0, 3.0], atol=1e-10)


def test_solve_quadratic_and_linear_fallbacks():
    roots = solve_quartic(as_problem((0.0, 0.0, 1.0, -3.0, 2.0)))
    assert np.allclose(roots.roots, [1.0, 2.0], atol=1e-10)
    roots = solve_quartic(as_problem((0.0, 0.0, 0.0, 2.0, -5.0)))
    assert np.allclose(roots.roots, [2.5], atol=1e-12)


def test_roots_sorted_and_residuals(rig_d):
    ops = operand_matrices(rig_d)
    problem = quartic_coefficients(ops)
    roots = solve_quartic(problem)
    assert list(roots.roots) == sorted(roots.roots)
    for r in roots.roots:
        assert residual_ok(problem.coeffs, r)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_solver_matches_companion_oracle(seed):
    """Multiset agreement with numpy's companion-matrix eigenvalue roots."""
    rng = np.random.default_rng(seed)
    coeffs = np.concatenate([[1.0], rng.uniform(-1e3, 1e3, size=4)])
    ours = list(solve_quartic(as_problem(coeffs)).roots)
    oracle = np.roots(coeffs)
    oracle = sorted(r.real for r in oracle if abs(r.imag) <= 1e-7 * (1 + abs(r.real)))
    # merge oracle duplicates the same way the solver dedups
    merged = []
    for r in oracle:
        if not merged or abs(r - merged[-1]) > 1e-8 * (1 + abs(r)):
            merged.append(r)
    assert len(ours) == len(merged)
    for a, b in zip(ours, merged):
        assert a == pytest.approx(b, rel=1e-7, abs=1e-7)


def test_solver_bulk_against_oracle():
    """10^4 random quartics; every matched root within 1e-7 relative."""
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        coeffs = np.concatenate([[1.0], rng.uniform(-1e3, 1e3, size=4)])
        ours = np.array(solve_quartic(as_problem(coeffs)).roots)
        oracle = np.roots(coeffs)
        real = np.sort([r.real for r in oracle
                        if abs(r.imag) <= 1e-7 * (1 + abs(r.real))])
        for r in ours:
            err = np.abs(real - r).min() if len(real) else np.inf
            assert err <= 1e-7 * (1.0 + abs(r))


# --- minimum selection --------------------------------------------------------

def test_select_minimum_is_local_minimum(rig_d):
    ops = operand_matrices(rig_d)
    problem = quartic_coefficients(ops)
    roots = solve_quartic(problem)
    y_star, d_star = select_minimum(ops, problem, roots)
    step = 1e-3 * (1.0 + abs(y_star))
    assert distortion_of_y(ops, y_star + step) >= d_star - 1e-12
    assert distortion_of_y(ops, y_star - step) >= d_star - 1e-12


def test_select_minimum_identical_cameras_linear_solution():
    cam1 = make_camera(A_LEFT, np.eye(3), (0.0, 0.0, 0.0))
    cam2 = make_camera(A_LEFT, np.eye(3), (1.0, 0.2, -0.1))
    ops = operand_matrices(StereoRig(cam1=cam1, cam2=cam2))
    problem = quartic_coefficients(ops)
    roots = solve_quartic(problem)
    y_star, _ = select_minimum(ops, problem, roots)
    m1, m2 = problem.m[0], problem.m[1]
    assert y_star == pytest.approx(-m1 / m2, rel=1e-8, abs=1e-8)


def test_select_minimum_beats_dense_scan(rig_d):
    from minrect.baselines import scan_minimize

    ops = operand_matrices(rig_d)
    problem = quartic_coefficients(ops)
    y_star, d_star = select_minimum(ops, problem, solve_quartic(problem))
    _, d_scan = scan_minimize(ops, -10 * 480, 10 * 480, samples=200_001)
    assert d_star <= d_scan + 1e-9 * (1.0 + d_scan)


# 1/(y² - 6y + 8) has its pole zone at 3 but a zero denominator at 2 and 4.
POLE_OPS = rational_ops((1, 0, 0), (1, -6, 8), (0, 0, 1), (1, -40, 401))


def test_select_minimum_skips_admissible_root_with_zero_denominator():
    roots = RootSet(roots=(2.0, 10.0), residuals=(0.0, 0.0))
    y_star, d_star = select_minimum(POLE_OPS, None, roots)
    assert y_star == 10.0
    assert d_star == 100.0 / 48.0 + 1.0 / 101.0


def test_select_minimum_names_why_no_root_is_left():
    with pytest.raises(NoAdmissibleRoot, match="every real stationary point is pole-adjacent"):
        select_minimum(POLE_OPS, None, RootSet(roots=(3.0,), residuals=(0.0,)))
    with pytest.raises(NoAdmissibleRoot, match="no real stationary point"):
        select_minimum(POLE_OPS, None, RootSet(roots=(), residuals=()))


# Draw 2590 of rig_params(default_rng(123), head=False, max_angle=pi/3) in the
# benchmark's rig lists, written out: poles at 2223.26 and 2228.93, where the
# quartic has no real root.
NO_REAL_ROOT_R2 = np.array([
    [0.8221978797916849, 0.17544017188194785, 0.5414899745665571],
    [-0.5186248187809104, 0.622926495002325, 0.5856542317516253],
    [-0.23456117285374825, -0.7623538075684748, 0.6031564708061441]])
NO_REAL_ROOT_RIG = two_cameras(
    np.array([[1581.4323701865794, 0.0, 897.4642400496084],
              [0.0, 1578.5197319875804, 1137.0896094787001], [0.0, 0.0, 1.0]]),
    np.array([[2999.3951170705514, 0.0, 1557.9152032198099],
              [0.0, 3048.3629147644906, 1100.3746498486087], [0.0, 0.0, 1.0]]),
    NO_REAL_ROOT_R2,
    -NO_REAL_ROOT_R2 @ [-0.42485912602002773, 0.5134928428269215, 0.745533247684518],
    2592, 1944)


def test_rig_without_real_stationary_point_fails_by_name_or_hits_scan():
    """Either the scan minimum or a NoAdmissibleRoot that names the cause;
    never NaN and never a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            pair = assemble(NO_REAL_ROOT_RIG)
        except PipelineError as exc:
            assert exc.stage == "minimum-selection"
            assert isinstance(exc.cause, NoAdmissibleRoot)
            assert str(exc.cause) == "no real stationary point"
            return
        assert np.isfinite(pair.distortion)
        assert scan_gap(NO_REAL_ROOT_RIG, pair) <= 1e-9
