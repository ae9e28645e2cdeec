"""Homography assembly: orientation, shear, joint fitting, end-to-end checks."""
import functools
import math
import warnings

import numpy as np
import pytest

from minrect.baselines import SCAN_GAP_LIMIT, fusiello_rectify, random_rig
from minrect.distortion import distortion_of_y, operand_matrices, w_from_y
from minrect.errors import CollapsedMidlines, DegenerateZ, MinrectError, PipelineError
from minrect.geometry import (Camera, StereoRig, epipoles, fundamental_matrix, normalize_matrix,
                              project, rotation)
from minrect.quartic import quartic_coefficients, select_minimum, solve_quartic
from minrect.rectify import (
    RectifiedPair,
    _corners,
    _map_points,
    assemble,
    complete_homographies,
    joint_fit,
    new_orientation,
    orientation,
    shear_similarity,
)
from minrect.synth import synth_rig

from conftest import A_LEFT, make_camera, visible_points

FBAR = normalize_matrix(np.array([[0.0, 0.0, 0.0],
                                  [0.0, 0.0, -1.0],
                                  [0.0, 1.0, 0.0]]))


def rectified_residual(rig, pair):
    F = fundamental_matrix(rig)
    Fr = normalize_matrix(np.linalg.inv(pair.H2).T @ F @ np.linalg.inv(pair.H1))
    return min(np.linalg.norm(Fr - FBAR), np.linalg.norm(Fr + FBAR))


# --- new_orientation ----------------------------------------------------------

def test_orientation_frontoparallel_identity(frontoparallel):
    R = new_orientation(frontoparallel, 240.0)
    assert np.allclose(R, np.eye(3), atol=1e-12)


def test_orientation_orthonormal(rig_d):
    for y1 in (-100.0, 0.0, 250.0, 700.0):
        R = new_orientation(rig_d, y1)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_orientation_x_axis_is_baseline(rig_d):
    b = rig_d.baseline
    R = new_orientation(rig_d, 100.0)
    assert abs(R[0] @ b) == pytest.approx(np.linalg.norm(b), abs=1e-9)


def test_orientation_third_row_matches_w(rig_d):
    ops = operand_matrices(rig_d)
    problem = quartic_coefficients(ops)
    y_star, _ = select_minimum(ops, problem, solve_quartic(problem))
    R = new_orientation(rig_d, y_star)
    row = R[2] @ np.linalg.inv(rig_d.cam1.projection)
    row = row / row[2]
    w1, _ = w_from_y(ops, y_star)
    assert np.allclose(row, w1, atol=1e-9 * max(1.0, np.abs(w1).max()))


# --- shear --------------------------------------------------------------------

def midline_vectors(S, Hp, width, height):
    def mp(x, y):
        q = S @ Hp @ np.array([x, y, 1.0])
        return q[:2] / q[2]

    u = mp(width, height / 2.0) - mp(0.0, height / 2.0)
    v = mp(width / 2.0, height) - mp(width / 2.0, 0.0)
    return u, v


def test_shear_identity_input():
    S = shear_similarity(np.eye(3), 640, 480)
    assert S[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert S[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_shear_defining_properties(rig_d):
    pair = assemble(rig_d)  # smoke: uses shear internally
    Hp = new_orientation(rig_d, pair.y1_star) @ np.linalg.inv(rig_d.cam1.projection)
    S = shear_similarity(Hp, 640, 480)
    u, v = midline_vectors(S, Hp, 640, 480)
    assert abs(u @ v) <= 1e-9 * np.linalg.norm(u) * np.linalg.norm(v)
    assert np.linalg.norm(u) / np.linalg.norm(v) == pytest.approx(640.0 / 480.0,
                                                                  rel=1e-9)


def test_shear_restores_stretch():
    S = shear_similarity(np.diag([2.0, 1.0, 1.0]), 640, 480)
    u, v = midline_vectors(S, np.diag([2.0, 1.0, 1.0]), 640, 480)
    assert np.linalg.norm(u) / np.linalg.norm(v) == pytest.approx(640.0 / 480.0,
                                                                  rel=1e-9)


def test_shear_sa_positive(rig_d):
    pair = assemble(rig_d)
    assert pair.shear1[0] > 0
    assert pair.shear2[0] > 0


# --- joint fit ----------------------------------------------------------------

def test_joint_fit_identity_passthrough():
    fit1, fit2, size = joint_fit(np.eye(3), np.eye(3), (640, 480), (640, 480))
    assert np.allclose(fit1, np.eye(3), atol=1e-12)
    assert np.allclose(fit2, np.eye(3), atol=1e-12)
    assert size == (640, 480)


def test_joint_fit_shifts_to_origin():
    T = np.eye(3)
    T[1, 2] = 7.0
    fit1, fit2, _ = joint_fit(T, T, (640, 480), (640, 480))
    out = fit1 @ T
    corners = [out @ np.array([x, y, 1.0]) for x in (0, 639) for y in (0, 479)]
    ys = [c[1] / c[2] for c in corners]
    assert min(ys) == pytest.approx(0.0, abs=1e-9)


def test_joint_fit_preserves_alignment(rig_d):
    """Applying the fit must not change the y-alignment residual."""
    pair = assemble(rig_d)
    rng = np.random.default_rng(31)
    pts = visible_points(rig_d, rng, 50)
    dys = []
    for X in pts:
        p1 = project(rig_d.cam1, X)
        p2 = project(rig_d.cam2, X)
        q1 = pair.H1 @ (p1 / p1[2])
        q2 = pair.H2 @ (p2 / p2[2])
        dys.append(q1[1] / q1[2] - q2[1] / q2[2])
    assert np.abs(dys).max() <= 1e-9


def test_canvas_height_is_the_taller_image_height():
    """The fit maps the union's vertical extent onto max(h1, h2) - 1 row
    spacings, so the canvas is max(h1, h2) rows, with no empty bottom row where
    scale * extent rounds up."""
    rng = np.random.default_rng(5)
    rigs = [random_rig(rng, max_angle=math.pi / 2) for _ in range(200)]
    rigs += [synth_rig(seed) for seed in range(60)]
    for rig in rigs:
        for fn in (assemble, fusiello_rectify):
            assert fn(rig).output_size[1] == max(rig.cam1.height, rig.cam2.height)


# --- assemble -----------------------------------------------------------------

def test_assemble_frontoparallel(frontoparallel):
    pair = assemble(frontoparallel)
    assert np.allclose(pair.w1, 0.0, atol=1e-12)
    assert np.allclose(pair.w2, 0.0, atol=1e-12)
    assert pair.distortion <= 1e-10


def test_assemble_last_element_one(rig_d):
    pair = assemble(rig_d)
    assert pair.H1[2, 2] == 1.0
    assert pair.H2[2, 2] == 1.0


def test_assemble_row_alignment(rig_d):
    pair = assemble(rig_d)
    rng = np.random.default_rng(41)
    for X in visible_points(rig_d, rng, 100):
        p1 = project(rig_d.cam1, X)
        p2 = project(rig_d.cam2, X)
        q1 = pair.H1 @ (p1 / p1[2])
        q2 = pair.H2 @ (p2 / p2[2])
        assert abs(q1[1] / q1[2] - q2[1] / q2[2]) <= 1e-6


def test_assemble_epipoles_to_infinity(rig_d):
    pair = assemble(rig_d)
    e1, e2 = epipoles(rig_d)
    for H, e in ((pair.H1, e1), (pair.H2, e2)):
        he = H @ (e / np.linalg.norm(e))
        assert abs(he[2]) <= 1e-9 * np.linalg.norm(he)


def test_assemble_rectified_form(rig_d):
    pair = assemble(rig_d)
    assert rectified_residual(rig_d, pair) <= 1e-7


def test_assemble_perspective_rows_match_w(rig_d):
    pair = assemble(rig_d)
    ops = operand_matrices(rig_d)
    w1, w2 = w_from_y(ops, pair.y1_star)
    row1 = pair.H1[2] / pair.H1[2, 2]
    row2 = pair.H2[2] / pair.H2[2, 2]
    assert np.allclose(row1, w1, atol=1e-9 * max(1.0, np.abs(w1).max()))
    assert np.allclose(row2, w2, atol=1e-9 * max(1.0, np.abs(w2).max()))


def test_assemble_beats_random_y(rig_d):
    pair = assemble(rig_d)
    ops = operand_matrices(rig_d)
    rng = np.random.default_rng(43)
    for y in rng.uniform(-4800, 4800, size=1000):  # none of them at a pole
        assert pair.distortion <= distortion_of_y(ops, float(y)) + 1e-9


def test_perturbed_orientation_breaks_alignment(rig_d):
    """Tilting the new x-axis off the baseline destroys row alignment."""
    from minrect.rectify import complete_homographies

    pair = assemble(rig_d)
    R = new_orientation(rig_d, pair.y1_star)
    angle = 1e-3
    c, s = np.cos(angle), np.sin(angle)
    tilt = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    bad = tilt @ R
    bad_pair = complete_homographies(rig_d, bad, pair.y1_star, pair.distortion)
    rng = np.random.default_rng(47)
    worst = 0.0
    for X in visible_points(rig_d, rng, 50):
        p1 = project(rig_d.cam1, X)
        p2 = project(rig_d.cam2, X)
        q1 = bad_pair.H1 @ (p1 / p1[2])
        q2 = bad_pair.H2 @ (p2 / p2[2])
        worst = max(worst, abs(q1[1] / q1[2] - q2[1] / q2[2]))
    assert worst > 1e-2


def test_assemble_random_rigs_form_and_alignment():
    rng = np.random.default_rng(53)
    for _ in range(50):
        rig = random_rig(rng)
        pair = assemble(rig)
        assert rectified_residual(rig, pair) <= 1e-7
        for X in visible_points(rig, rng, 5):
            p1 = project(rig.cam1, X)
            p2 = project(rig.cam2, X)
            q1 = pair.H1 @ (p1 / p1[2])
            q2 = pair.H2 @ (p2 / p2[2])
            assert abs(q1[1] / q1[2] - q2[1] / q2[2]) <= 1e-6


def run_stages(rig):
    """The six public stages of ``assemble`` called in turn; (stage, error class) where
    one raises, labelled as ``assemble`` labels it."""
    stage = "operands"
    try:
        ops = operand_matrices(rig)
        stage = "quartic-coefficients"
        problem = quartic_coefficients(ops)
        stage = "quartic-roots"
        roots = solve_quartic(problem)
        stage = "minimum-selection"
        y1, dist = select_minimum(ops, problem, roots)
        stage = "orientation"
        Rnew = new_orientation(rig, y1)
        stage = None  # complete_homographies labels its own stages
        return complete_homographies(rig, Rnew, y1, dist)
    except PipelineError as exc:
        return exc.stage, type(exc.cause)
    except MinrectError as exc:
        return stage, type(exc)


def test_stages_compose_to_assemble_bit_for_bit(rig_d, frontoparallel):
    """rig_d, the frontoparallel rig, a rig refused at quartic-coefficients ([C_i]_22 is
    exactly 0) and 100 draws of random_rig(default_rng(5), pi/2): the stages give
    assemble's H1 and H2 bytes, y1*, distortion and canvas, or its error at its stage."""
    A = np.array([[512.0, 0.0, 320.0], [0.0, 512.0, 240.0], [0.0, 0.0, 1.0]])
    refused = StereoRig(make_camera(A, np.eye(3), (0.0, 0.0, 0.0), 641, 481),
                        make_camera(A, np.eye(3), (1.0, 0.0, 0.0), 641, 481))
    rng = np.random.default_rng(5)
    rigs = [rig_d, frontoparallel, refused] + [random_rig(rng, math.pi / 2) for _ in range(100)]
    raised = []
    for k, rig in enumerate(rigs):
        got = run_stages(rig)
        try:
            pair = assemble(rig)
        except PipelineError as exc:
            assert got == (exc.stage, type(exc.cause)), k
            raised.append(k)
            continue
        assert isinstance(got, RectifiedPair), (k, got)
        assert got.H1.tobytes() == pair.H1.tobytes() and got.H2.tobytes() == pair.H2.tobytes()
        assert (got.y1_star, got.distortion) == (pair.y1_star, pair.distortion), k
        assert got.output_size == pair.output_size, k
    assert raised == [2]


# --- camera swap --------------------------------------------------------------

# Swapping the cameras changes only the chart from an intercept to a horizon,
# not the candidate orientations or the two-term sum, so the minimum must stay.
SWAP_SETS = {  # name: (seed, max_angle, rigs) of random_rig draws
    "seed5-halfpi": (5, math.pi / 2, 3000),
    "stress-seed1": (1, math.pi / 3, 2000),  # the first 2 000 trials of stress --seed 1
}
# F2: the closed form misses the global minimum next to two close poles.
F2_SWAP_MISSES = [  # (set, rig, strict, what happens)
    ("seed5-halfpi", 2821, True, "gap 1.14e-5"),
    ("seed5-halfpi", 396, False, "gap 1.89e-9, within a factor of 2 of the limit"),
    ("stress-seed1", 960, True, "gap 0.280"),
    ("stress-seed1", 1094, True, "gap 1.02e-8"),
    ("stress-seed1", 1374, True, "NoAdmissibleRoot unswapped, 22 076.88 swapped"),
]


def minimum(rig):
    """assemble's distortion on the rig, None where it raises."""
    try:
        return assemble(rig).distortion
    except PipelineError:
        return None


def gap(a, b) -> float:
    """|a - b| / (1 + min(a, b)) of two minima; inf where exactly one side raised (is
    None), 0 where both did."""
    if a is None or b is None:
        return 0.0 if a is b else math.inf
    return abs(a - b) / (1.0 + min(a, b))


def moved_frame(rig, rng) -> StereoRig:
    """The rig in a world frame turned by R0 (a unit ``normal(3)`` axis, an angle in
    [0, π)) about an offset c0 = ``normal(3)``: R' = R·R0ᵀ and t' = t - R'·c0."""
    axis = rng.normal(size=3)
    R0 = rotation(axis / np.linalg.norm(axis), rng.uniform(0.0, math.pi))
    c0 = rng.normal(size=3)
    cams = []
    for cam in (rig.cam1, rig.cam2):
        R = cam.R @ R0.T
        cams.append(Camera(A=cam.A, R=R, t=cam.t - R @ c0, width=cam.width, height=cam.height))
    return StereoRig(*cams)


@functools.cache
def swap_and_frame_gaps(name) -> list:
    """Per rig of the set, the gaps of its minimum to that of its cameras swapped and to
    that of the rig in a moved frame, the frames drawn from one default_rng(7)."""
    seed, max_angle, count = SWAP_SETS[name]
    rng, frames = np.random.default_rng(seed), np.random.default_rng(7)
    out = []
    for _ in range(count):
        rig = random_rig(rng, max_angle)
        d = minimum(rig)
        out.append((gap(d, minimum(StereoRig(rig.cam2, rig.cam1))),
                    gap(d, minimum(moved_frame(rig, frames)))))
    return out


def swap_gaps(name) -> list:
    return [swap for swap, _ in swap_and_frame_gaps(name)]


@pytest.mark.parametrize("name", SWAP_SETS)
def test_camera_swap_keeps_the_minimum(name):
    known = {k for n, k, _, _ in F2_SWAP_MISSES if n == name}
    gaps = swap_gaps(name)
    assert [(k, g) for k, g in enumerate(gaps) if g > SCAN_GAP_LIMIT and k not in known] == []


@pytest.mark.parametrize("name, k", [
    pytest.param(name, k, id=f"{name}-{k}", marks=pytest.mark.xfail(
        strict=strict, raises=AssertionError, reason=f"F2, {what}"))
    for name, k, strict, what in F2_SWAP_MISSES])
def test_camera_swap_keeps_the_minimum_next_to_close_poles(name, k):
    assert swap_gaps(name)[k] <= SCAN_GAP_LIMIT


# A rigid change of world frame moves neither the relative pose nor the intrinsics, so
# neither the metric nor its minimum; F2 again: the misses sit next to two close poles.
F2_FRAME_MISSES = [  # (set, rig, strict, what happens), with frames of default_rng(7)
    ("seed5-halfpi", 396, False, "gap 1.81e-9, within a factor of 2 of the limit"),
    ("seed5-halfpi", 2821, True, "NoAdmissibleRoot moved, 6 624.13 unmoved"),
    ("stress-seed1", 960, True, "NoAdmissibleRoot moved, 68 865.27 unmoved"),
    ("stress-seed1", 1094, True, "gap 9.12e-9"),
    ("stress-seed1", 1374, True, "NoAdmissibleRoot unmoved, 20 567 975.26 moved"),
]


@pytest.mark.parametrize("name", SWAP_SETS)
def test_frame_change_keeps_the_minimum(name):
    known = {k for n, k, _, _ in F2_FRAME_MISSES if n == name}
    gaps = [frame for _, frame in swap_and_frame_gaps(name)]
    assert [(k, g) for k, g in enumerate(gaps) if g > SCAN_GAP_LIMIT and k not in known] == []


@pytest.mark.parametrize("name, k", [
    pytest.param(name, k, id=f"{name}-{k}", marks=pytest.mark.xfail(
        strict=strict, raises=AssertionError, reason=f"F2, {what}"))
    for name, k, strict, what in F2_FRAME_MISSES])
def test_frame_change_keeps_the_minimum_next_to_close_poles(name, k):
    assert swap_and_frame_gaps(name)[k][1] <= SCAN_GAP_LIMIT


# --- conditioning of A*R --------------------------------------------------------

def singular_rig(which: int):
    """Rig whose camera ``which`` (1 or 2) has cond(A*R) = 1e13, above COND_LIMIT."""
    from conftest import A_LEFT, make_camera
    from minrect.geometry import StereoRig

    A = [A_LEFT, A_LEFT]
    A[which - 1] = np.diag([1e13, 1.0, 1.0])
    return StereoRig(make_camera(A[0], np.eye(3), (0.0, 0.0, 0.0)),
                     make_camera(A[1], np.eye(3), (1.0, 0.0, 0.0)))


@pytest.mark.parametrize("which", [1, 2])
def test_ill_conditioned_projection_is_rejected(which):
    from minrect.baselines import fusiello_rectify
    from minrect.errors import PipelineError, SingularProjection

    rig = singular_rig(which)
    with pytest.raises(PipelineError) as info:
        assemble(rig)
    assert info.value.stage == "operands"
    assert isinstance(info.value.cause, SingularProjection)
    with pytest.raises(SingularProjection):
        fusiello_rectify(rig)
    with pytest.raises(SingularProjection):
        fundamental_matrix(rig)


def test_orientation_rejects_baseline_along_horizon_ray():
    """cam2's centre lies on the ray of (0, y, 1) from cam1: no horizon normal."""
    y = 100.0
    ray = np.linalg.solve(A_LEFT, [0.0, y, 1.0])
    rig = StereoRig(cam1=make_camera(A_LEFT, np.eye(3), (0.0, 0.0, 0.0)),
                    cam2=make_camera(A_LEFT, np.eye(3), ray / np.linalg.norm(ray)))
    with pytest.raises(DegenerateZ):
        new_orientation(rig, y)


def test_shear_rejects_collapsed_midlines():
    """Every point goes to y = x, so the vertical midline collapses to a point."""
    H = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CollapsedMidlines, match="midlines collapse"):
            shear_similarity(H, 640, 480)


def test_shear_rejects_midpoint_at_infinity():
    w, h = 640, 480
    H = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-2.0 / w, 0.0, 1.0]])
    with pytest.raises(CollapsedMidlines):
        shear_similarity(H, w, h)


def test_joint_fit_rejects_a_corner_at_infinity():
    """(w - 1, 0) lies on the horizon of the second homography."""
    w, h = 640, 480
    H = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0 / (w - 1), 0.0, 1.0]])
    with pytest.raises(CollapsedMidlines, match="maps to infinity"):
        joint_fit(np.eye(3), H, (w, h), (w, h))


def test_complete_homographies_reports_a_corner_at_infinity_as_the_fit_stage():
    """A rotation whose horizon touches image 1 at the corner (0, 0) only: the
    shear, which maps edge midpoints, succeeds and the fit refuses."""
    rig = StereoRig(cam1=make_camera(A_LEFT, np.eye(3), (0.0, 0.0, 0.0)),
                    cam2=make_camera(A_LEFT, np.eye(3), (1.0, 0.0, 0.0)))
    z = np.cross([1.0, -1.0, 0.0], np.linalg.solve(A_LEFT, [0.0, 0.0, 1.0]))
    z /= np.linalg.norm(z)
    x = np.cross([0.0, 1.0, 0.0], z)
    x /= np.linalg.norm(x)
    with pytest.raises(PipelineError) as exc:
        complete_homographies(rig, np.array([x, np.cross(z, x), z]), 0.0, 0.0)
    assert exc.value.stage == "fit"
    assert isinstance(exc.value.cause, CollapsedMidlines)


def test_fit_failure_names_the_corner_at_infinity():
    """The rig and rotation above: the message names the corner (0, 0), not a midpoint."""
    rig = StereoRig(cam1=make_camera(A_LEFT, np.eye(3), (0.0, 0.0, 0.0)),
                    cam2=make_camera(A_LEFT, np.eye(3), (1.0, 0.0, 0.0)))
    z = np.cross([1.0, -1.0, 0.0], np.linalg.solve(A_LEFT, [0.0, 0.0, 1.0]))
    z /= np.linalg.norm(z)
    x = np.cross([0.0, 1.0, 0.0], z)
    x /= np.linalg.norm(x)
    with pytest.raises(PipelineError) as exc:
        complete_homographies(rig, np.array([x, np.cross(z, x), z]), 0.0, 0.0)
    assert exc.value.stage == "fit"
    assert str(exc.value.cause) == "point (0.0, 0.0) maps to infinity"
    assert "midpoint" not in str(exc.value)


# --- bit-identity pins of the scalar arithmetic -------------------------------

def reference_map_point(H, x, y):
    """One point mapped by its own matvec, as the shear and the fit did it."""
    p = H @ np.array([x, y, 1.0])
    return p[:2] / p[2]


def test_map_points_matches_a_matvec_per_point_bit_for_bit():
    """1 000 homographies with entries of random sign over 1e-3 to 1e3, on the
    edge midpoints and corners of random image sizes."""
    rng = np.random.default_rng(41)
    for _ in range(1000):
        H = rng.choice((-1.0, 1.0), (3, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (3, 3))
        width, height = rng.integers(2, 4000, 2).tolist()
        w, h = float(width), float(height)
        mids = [(w / 2.0, 0.0), (w, h / 2.0), (w / 2.0, h), (0.0, h / 2.0)]
        for points in (mids, _corners(width, height), rng.uniform(-1e4, 1e4, (4, 2)).tolist()):
            got = np.array(_map_points(H, points))
            ref = np.array([reference_map_point(H, x, y) for x, y in points])
            assert got.tobytes() == ref.tobytes(), (H, points)


def test_orientation_middle_row_is_numpys_cross_product():
    rng = np.random.default_rng(43)
    for _ in range(500):
        rig = random_rig(rng, max_angle=math.pi / 2)
        for R in (new_orientation(rig, rng.uniform(-2000.0, 2000.0)),
                  orientation(rig, rng.normal(size=3))):
            assert R[1].tobytes() == np.cross(R[2], R[0]).tobytes()
