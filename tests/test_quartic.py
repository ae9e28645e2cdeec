"""Quartic coefficients, closed-form root solving, minimum selection."""
import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minrect.distortion import (DistortionOperands, MomentMatrices, distortion_of_y,
                                distortion_of_y_many, operand_matrices, poles)
from minrect.errors import (AllCoefficientsZero, DegenerateC, InvalidArgument, NoAdmissibleRoot,
                            PipelineError, PoleAtY)
from minrect.quartic import (
    _OMEGA,
    DEDUP_REL,
    REAL_IM_REL,
    RESIDUAL_REL,
    RootSet,
    QuarticProblem,
    _newton_polish,
    _poly_eval,
    quartic_coefficients,
    select_minimum,
    solve_quartic,
)

from conftest import A_LEFT, make_camera
from minrect.baselines import random_rig
from minrect.geometry import StereoRig
from minrect.rectify import assemble
from test_acceptance import scan_gap
from test_distortion import (ONE, Y, ZERO, exact_metric, near_pole_samples, pi2_ops,
                             quadratic_forms, rational_ops)
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
        if distortion_of_y_many(ops, r) == math.inf:
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

    M1, C1, M2, C2 = quadratic_forms(ops)
    f1, g1 = polys(M1, C1)
    f2, g2 = polys(M2, C2)
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


# y²/(y - 2)² + 1/(y - 20)²: g of the first term is 0 at y = 2.
POLE_OPS = rational_ops((Y, ZERO, (1.0, -2.0)), (ONE, ZERO, (1.0, -20.0)))


def test_select_minimum_skips_admissible_root_with_zero_denominator():
    roots = RootSet(roots=(2.0, 10.0), residuals=(0.0, 0.0))
    y_star, d_star = select_minimum(POLE_OPS, None, roots)
    assert y_star == 10.0
    assert d_star == 100.0 / 64.0 + 1.0 / 100.0


def test_select_minimum_names_why_no_root_is_left():
    with pytest.raises(NoAdmissibleRoot, match="every real stationary point is pole-adjacent"):
        select_minimum(POLE_OPS, None, RootSet(roots=(2.0,), residuals=(0.0,)))
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



# --- one contract for where the metric is defined -----------------------------
# distortion_of_y refuses exactly where the scan reads +inf, and select_minimum
# keeps the (d, |y|)-least root that the scan reads as finite.

def contract_samples(ops) -> np.ndarray:
    """A grid over +-10 image heights, four huge intercepts, and each finite pole
    with its two neighbouring floats and the samples 1e-3 to 10 px from it."""
    ys = [np.linspace(-4800.0, 4800.0, 41), [1e150, -1e200, 1.7e308, -1.7e308]]
    ys += [near_pole_samples(p) for p in poles(ops) if math.isfinite(p)]
    return np.concatenate(ys)


def assert_one_contract(ops, ys, roots):
    """distortion_of_y gives distortion_of_y_many's bits, or refuses where it reads
    +inf; select_minimum over ``roots`` picks the least finite entry, first
    on ties, or raises NoAdmissibleRoot when none is finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y, many in zip(ys.tolist(), distortion_of_y_many(ops, ys).tolist()):
            try:
                value = float(distortion_of_y(ops, y))
            except (PoleAtY, InvalidArgument):
                assert many == math.inf, y
            else:
                assert value.hex() == many.hex(), y
        candidates = RootSet(roots=tuple(roots), residuals=(0.0,) * len(roots))
        finite = [(d, abs(y), y) for y, d in zip(roots, distortion_of_y_many(ops, roots).tolist())
                  if d != math.inf]
        if not finite:
            with pytest.raises(NoAdmissibleRoot):
                select_minimum(ops, None, candidates)
            return
        d, _, y = min(finite, key=lambda entry: entry[:2])
        y_star, d_star = select_minimum(ops, None, candidates)
        assert (y_star, float(d_star).hex()) == (y, d.hex())


def test_metric_and_selection_share_one_contract_on_seeded_rigs():
    for ops in pi2_ops(60, seed=17):
        ys = contract_samples(ops)
        assert_one_contract(ops, ys, ys.tolist())
        assert_one_contract(ops, ys, list(solve_quartic(quartic_coefficients(ops)).roots))


def test_metric_is_defined_one_float_from_a_pole():
    """(y² + 1)/(y - 1)²: y = 1 alone is undefined. One float above it g² is about
    4.9e-32, and the metric, about 8e31, is a root that selection may keep."""
    ops = rational_ops((Y, ONE, (1.0, -1.0)), (ONE, ZERO, ONE))
    above = math.nextafter(1.0, 2.0)
    ys = np.concatenate([contract_samples(ops), [0.0, 1.0, above]])
    assert distortion_of_y_many(ops, [1.0]).tolist() == [math.inf]
    assert 1e31 < distortion_of_y(ops, above) < math.inf
    assert_one_contract(ops, ys, [1.0])
    assert_one_contract(ops, ys, [1.0, above])
    assert_one_contract(ops, ys, [1.0, above, 0.0])


def test_selection_skips_a_root_where_only_a_denominator_overflows():
    """y²/(1e5·y)² is about 1e-10 wherever it is defined; at 1e304 its g overflows
    while its ℓ does not."""
    ops = rational_ops((Y, ZERO, (1e5, 0.0)), (ZERO, ZERO, ONE))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y_star, d_star = select_minimum(ops, None, RootSet(roots=(1.0, 1e304),
                                                           residuals=(0.0, 0.0)))
    assert (y_star, d_star) == (1.0, 1e-5 * 1e-5)
    assert_one_contract(ops, contract_samples(ops), [1.0, 1e304])


def test_metric_next_to_poles_is_accurate_and_shares_one_contract():
    """1e-3 to 10 px from each finite pole and at random intercepts of seeded pi/2 rigs,
    the metric has a value within 1e-12 relative of exact arithmetic on its float forms;
    y - p is exact there, so g is rounded once. distortion_of_y gives those bits."""
    rng = np.random.default_rng(5)
    count = 0
    for _ in range(60):
        ops = operand_matrices(random_rig(rng, max_angle=math.pi / 2))
        ys = np.concatenate([rng.uniform(-4800.0, 4800.0, 4)]
                            + [near_pole_samples(p)[3:] for p in poles(ops) if math.isfinite(p)])
        vals = distortion_of_y_many(ops, ys)
        assert np.isfinite(vals).all()
        for y, value in zip(ys.tolist(), vals.tolist()):
            exact = exact_metric(ops, y)
            assert abs(Fraction(value) - exact) <= Fraction(1, 10 ** 12) * abs(exact), y
        assert_one_contract(ops, ys, ys.tolist())
        count += ys.size
    assert count >= 1000


# --- the root path against the four-level degree chain it replaced ------------
# _drop_leading, _quartic_candidates, _cubic_roots and reference_solve are the
# solver before the degree decision, the cube-root step and the quadratic
# formula each got one implementation; solve_quartic must match them bit for bit.

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


def reference_solve(problem: QuarticProblem) -> RootSet:
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


def reference_degenerate(coeffs) -> bool:
    """QuarticProblem.degenerate as the four-level chain decided it."""
    a, b, c, d, e = coeffs
    return bool(max(abs(v) for v in coeffs) > 0 and _drop_leading([a, b, c, d, e])
                and _drop_leading([b, c, d, e]))


def root_bits(roots: RootSet) -> tuple:
    return (np.array(roots.roots, dtype=float).tobytes(),
            np.array(roots.residuals, dtype=float).tobytes())


def spread_vectors(rng, count: int) -> np.ndarray:
    """Coefficient vectors with random signs and magnitudes from 1e-8 to 1e8."""
    return rng.choice((-1.0, 1.0), (count, 5)) * 10.0 ** rng.uniform(-8.0, 8.0, (count, 5))


def integer_root_poly(rng, degree: int) -> np.ndarray:
    """A nonzero integer times the monic polynomial of `degree` roots in -4..4."""
    return (rng.integers(-9, 10) or 1) * np.poly(rng.integers(-4, 5, degree))


def equivalence_vectors(rng, per_family: int):
    """Seeded coefficient vectors (a, b, c, d, e) in four families; entries
    alternate between numpy and Python floats, the two types callers pass."""
    general = spread_vectors(rng, per_family)
    trimmed = spread_vectors(rng, per_family)
    for row, lead in zip(trimmed, rng.integers(1, 5, per_family)):
        row[:lead] *= rng.choice((0.0, 1e-16), size=lead)
    quartics = [integer_root_poly(rng, 4) for _ in range(per_family)]
    cubics = [np.concatenate([[0.0], integer_root_poly(rng, 3)]) for _ in range(per_family)]
    for i, v in enumerate(np.concatenate([general, trimmed, quartics, cubics])):
        yield tuple(v) if i % 2 else tuple(float(c) for c in v)


def test_solver_matches_reference_bit_for_bit():
    """10^5 seeded vectors: general ones over 16 decades, ones whose 1-4 leading
    coefficients are zero or 1e-16 of their size, integer-root quartics with
    multiple roots and integer-root cubics."""
    rng = np.random.default_rng(954)
    count = 0
    for coeffs in equivalence_vectors(rng, per_family=25_000):
        problem = QuarticProblem(m=(0.0,) * 8, coeffs=coeffs, degenerate=False)
        assert root_bits(solve_quartic(problem)) == root_bits(reference_solve(problem)), coeffs
        count += 1
    assert count == 100_000


def quadratic_form_ops(num1, den1, num2, den2):
    """Operands whose forms M_i and C_i, the only ones ``quartic_coefficients`` builds, are
    the given ones: each a coefficient triple (y², y, 1) of a quadratic form, C_i of any
    rank, passed as the moments ppt and p_bar·p_bar^T of image i with L_i the identity,
    so that (F + F^T)/2 of I^T·X·I is X. Their metric is not read."""
    def form(a, b, c):
        return np.array([[0.0, 0.0, 0.0], [0.0, a, b / 2.0], [0.0, b / 2.0, c]])

    m1, m2 = (MomentMatrices(ppt=form(*num), pcpct=form(*den))
              for num, den in ((num1, den1), (num2, den2)))
    return DistortionOperands(L1=np.eye(3), L2=np.eye(3), moments1=m1, moments2=m2)


def cancelling_ops(rng):
    """A rational metric whose stationarity polynomial loses its y^4 term
    exactly and its y^3 term exactly or up to a relative 1e-16..1e-12 change
    in one operand; all other operand entries are small integers or dyadic."""
    beta = rng.choice((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0))
    m1, m2, y11 = rng.integers(-5, 6, 3).astype(float)
    y12 = y11 * beta + m2
    y22 = (y12 * beta + m1 + 3 * m2 * beta) * (1.0 + rng.choice((0.0, 1e-16, 1e-14, 1e-12)))
    return quadratic_form_ops((rng.integers(-5, 6), -2.0 * m2, -m1),
                              (1.0, 0.0, rng.integers(1, 6)), (y11, 2.0 * y12, y22),
                              (1.0, 2.0 * beta, rng.integers(1, 6)))


def test_degenerate_matches_reference_formula():
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(2_000):
        problem = quartic_coefficients(cancelling_ops(rng))
        assert problem.degenerate == reference_degenerate(problem.coeffs), problem.coeffs
        seen.add(bool(problem.degenerate))
    assert seen == {False, True}


def test_triple_root_cubic_takes_the_shift():
    """(y - 1)^3: both Cardano bases vanish (p = q = 0)."""
    problem = as_problem((0.0, 1.0, -3.0, 3.0, -1.0))
    assert solve_quartic(problem).roots == (1.0,)
    assert root_bits(solve_quartic(problem)) == root_bits(reference_solve(problem))


def test_constant_within_tolerance_has_no_roots():
    assert solve_quartic(as_problem((0.0, 0.0, 0.0, 1e-14, 1.0))) == RootSet(roots=(), residuals=())


def test_degree_trim_drops_a_lead_exactly_at_the_bound():
    """A leading coefficient equal to 1e-13 of the next one times the root
    bound is negligible: the polynomial drops to the next degree."""
    assert solve_quartic(as_problem((0.0, 0.0, 0.0, 1e-13, 1.0))).roots == ()
    assert solve_quartic(as_problem((1e-13, 1.0, 0.0, 0.0, 0.0))).roots == (0.0,)


def reference_coefficients(ops):
    """m1..m8 and the coefficients in np.float64 scalar arithmetic, the form
    quartic_coefficients had before it ran on Python floats."""
    with np.errstate(all="ignore"):
        M1, C1, M2, C2 = quadratic_forms(ops)
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
    return (m1, m2, m3, m4, m5, m6, m7, m8), (a, b, c, d, e)


def spread_ops(rng, decades: float):
    """A rational metric whose six quadratic forms have entries of random sign
    and magnitude up to 10**decades either way."""
    forms = rng.choice((-1.0, 1.0), (4, 3)) * 10.0 ** rng.uniform(-decades, decades, (4, 3))
    return quadratic_form_ops(*forms.tolist())


def test_coefficients_match_the_numpy_scalar_formula_bit_for_bit():
    """Seeded rigs up to pi/2, cancelling metrics and metrics over 16 and 240
    decades: np.float64 values with the reference's bits, or DegenerateC
    exactly where a reference coefficient is not finite (there ** overflows)."""
    rng = np.random.default_rng(47)
    cases = pi2_ops(300, seed=47) + [cancelling_ops(rng) for _ in range(300)]
    cases += [spread_ops(rng, decades) for decades in (8.0, 120.0) for _ in range(1000)]
    outcomes = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ops in cases:
            m, coeffs = reference_coefficients(ops)
            if not np.isfinite(coeffs).all():
                with pytest.raises(DegenerateC, match="not finite"):
                    quartic_coefficients(ops)
                outcomes.add("refused")
                continue
            problem = quartic_coefficients(ops)
            assert all(type(v) is np.float64 for v in problem.m + problem.coeffs)
            assert np.array(problem.m).tobytes() == np.array(m).tobytes()
            assert np.array(problem.coeffs).tobytes() == np.array(coeffs).tobytes()
            outcomes.add("built")
    assert outcomes == {"built", "refused"}
