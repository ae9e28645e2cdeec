"""The scene renderer against the disk-by-disk renderer it replaced, byte for byte."""
import warnings

import numpy as np

from minrect import synth
from minrect.geometry import Camera
from minrect.warp import from_array, source_coords


def loop_texture(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Procedural plane texture sampled at plane coordinates."""
    checker = (np.floor(px / synth.CHECKER_SIZE) + np.floor(py / synth.CHECKER_SIZE)) % 2
    lo, span = px.min(), np.ptp(px)
    if not np.isfinite(span):  # the horizon through a pixel centre: the finite range
        finite = px[np.isfinite(px)]
        lo, span = (finite.min(), np.ptp(finite)) if finite.size else (0.0, 0.0)
    value = 60.0 + 50.0 * checker + 20.0 * (px - lo) / max(span, 1e-9)
    for cx, cy in synth._marker_centers():
        inside = (px - cx) ** 2 + (py - cy) ** 2 <= synth.MARKER_RADIUS ** 2
        value = np.where(inside, 255.0, value)
    return value


def loop_render_view(cam: Camera):
    """Render the textured plane into the camera; gray background outside."""
    px, py = source_coords(np.linalg.inv(synth._plane_homography(cam)), cam.width, cam.height)
    tex = loop_texture(px, py)
    # NaN fails every range comparison and +-inf fails one of them
    on_plane = (px >= -2.0) & (px <= 3.0) & (py >= -2.0) & (py <= 2.0)
    gray = np.where(on_plane, tex, 20.0).astype(np.uint8)
    rgb = np.stack([gray, gray, gray], axis=-1)
    return from_array(rgb)


def outcome(render, cam):
    """The rendered bytes, or the warning or error that rendering raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return render(cam).data.tobytes()
        except Exception as exc:  # noqa: BLE001 - the outcome is compared, not handled
            return type(exc), str(exc)


def random_camera(rng: np.random.Generator) -> Camera:
    """Any orientation, 2 to 300 px a side, placed around the plane's textured patch."""
    w, h = (int(v) for v in rng.integers(2, 301, size=2))
    f = rng.uniform(20.0, 800.0)
    A = np.array([[f, 0.0, rng.uniform(0, w)], [0.0, f, rng.uniform(0, h)], [0.0, 0.0, 1.0]])
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    R = Q * np.sign(np.linalg.det(Q))
    center = rng.uniform([-4.0, -4.0, -3.0], [5.0, 4.0, 4.5])
    return Camera(A=A, R=R, t=-R @ center, width=w, height=h)


def horizon_in_view(cam: Camera) -> bool:
    """The plane's horizon crosses the image: the scale of its corners changes sign."""
    w, h = cam.width - 1, cam.height - 1
    corners = np.array([[0, 0, 1], [w, 0, 1], [0, h, 1], [w, h, 1]], dtype=float)
    scale = corners @ np.linalg.inv(synth._plane_homography(cam))[2]
    return scale.min() < 0 < scale.max()


def test_render_view_matches_the_disk_loop_on_synth_views():
    for seed in range(6):
        rig = synth.synth_rig(seed)
        for cam in (rig.cam1, rig.cam2):
            got = outcome(synth.render_view, cam)
            assert got == outcome(loop_render_view, cam), seed
            assert (np.frombuffer(got, np.uint8) == 255).any(), seed  # markers in view


def test_render_view_matches_the_disk_loop_on_random_cameras():
    rng = np.random.default_rng(17)
    kinds = {"blank": 0, "textured": 0, "horizon": 0}
    for k in range(120):
        cam = random_camera(rng)
        got = outcome(synth.render_view, cam)
        assert got == outcome(loop_render_view, cam), k
        kinds["textured" if (np.frombuffer(got, np.uint8) != 20).any() else "blank"] += 1
        kinds["horizon"] += horizon_in_view(cam)
    assert min(kinds.values()) >= 10, kinds


def test_render_view_matches_the_disk_loop_with_the_horizon_on_pixel_centres():
    """The horizon through row 4: those pixels' plane coordinates are not finite, and the
    checker's +inf + -inf there, off the plane, raises no warning. The bytes are the disk
    loop's, rendered with its warning ignored, and the brightness ramp spans the finite
    coordinates, so the plane is not all 0."""
    R = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    A = np.array([[4.0, 0.0, 8.0], [0.0, 4.0, 4.0], [0.0, 0.0, 1.0]])
    cam = Camera(A=A, R=R, t=-R @ np.array([0.0, -3.0, 0.0]), width=16, height=9)
    got = outcome(synth.render_view, cam)
    assert isinstance(got, bytes), got  # no warning, under warnings-as-errors
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert got == loop_render_view(cam).data.tobytes()
        px, py = source_coords(np.linalg.inv(synth._plane_homography(cam)), 16, 9)
    gray = np.frombuffer(got, np.uint8).reshape(9, 16, 3)[..., 0]
    on_plane = (px >= -2.0) & (px <= 3.0) & (py >= -2.0) & (py <= 2.0)
    assert on_plane.any() and gray[on_plane].all()


def test_texture_matches_the_disk_loop_at_the_disk_rims_and_between_disks():
    """Points a few ulps either side of every rim, on the rint ties between centres,
    outside the grid, and non-finite."""
    angles = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    rims = []
    for cx, cy in synth._marker_centers():
        x = cx + synth.MARKER_RADIUS * np.cos(angles)
        y = cy + synth.MARKER_RADIUS * np.sin(angles)
        for steps in range(-3, 4):
            rims.append((x + steps * np.spacing(x), y + steps * np.spacing(y)))
    xs, ys = synth._MARKER_XS, synth._MARKER_YS
    mids = np.meshgrid(np.concatenate([xs[:-1] + synth.MARKER_STEP / 2, xs[[0, -1]] + [-9, 9]]),
                       np.concatenate([ys[:-1] + synth.MARKER_STEP / 2, ys[[0, -1]] + [-9, 9]]))
    px = np.concatenate([r[0] for r in rims] + [mids[0].ravel(), [np.nan, np.inf, -np.inf, 1.2]])
    py = np.concatenate([r[1] for r in rims] + [mids[1].ravel(), [0.4, 0.4, 0.4, np.nan]])
    with np.errstate(invalid="ignore"):
        for n in (len(px) - 4, len(px)):  # without and with the non-finite points
            got, ref = synth._texture(px[:n], py[:n]), loop_texture(px[:n], py[:n])
            assert np.array_equal(np.signbit(got), np.signbit(ref))
            assert np.array_equal(got, ref, equal_nan=True)
    assert 0 < np.count_nonzero(ref == 255) < len(px)


def test_marker_centers_are_the_grid_the_lookup_reads():
    xs, ys = synth._MARKER_XS, synth._MARKER_YS
    centers = synth._marker_centers()
    assert centers.shape == (20, 2)
    assert centers.tobytes() == np.array([(x, y) for y in ys for x in xs]).tobytes()
    assert xs.tobytes() == np.arange(-1.2, 2.4, synth.MARKER_STEP).tobytes()
    assert ys.tobytes() == np.arange(-1.2, 1.6, synth.MARKER_STEP).tobytes()
    # the lookup rounds to the nearest step, so the centres must be evenly spaced and
    # each disk must lie within half a step of its centre
    for grid in (xs, ys):
        assert np.allclose(np.diff(grid), synth.MARKER_STEP, rtol=0.0, atol=1e-12)
    assert synth.MARKER_RADIUS < synth.MARKER_STEP / 2
