"""Image warping and PNM I/O."""
import collections
import io
import random
import tracemalloc

import numpy as np
import pytest

from minrect import warp
from minrect.errors import (InvalidCalibration, MalformedHeader, SingularHomography,
                            UnsupportedMaxval)
from minrect.geometry import Camera, StereoRig, optical_center
from minrect.rectify import assemble
from minrect.synth import correspondences, render_view, synth_rig
from minrect.warp import (MAX_OUTPUT_PIXELS, ImageBuffer, RectifyMap, from_array, read_pnm,
                          source_coords, warp_image, write_pnm)


def gradient_image(width=64, height=48):
    xs, ys = np.meshgrid(np.arange(width), np.arange(height), indexing="xy")
    data = ((xs * 2 + ys * 3) % 256).astype(np.uint8)
    return from_array(data)


def test_identity_warp_is_noop():
    img = gradient_image()
    out = warp_image(img, np.eye(3), img.width, img.height)
    assert np.array_equal(out.data, img.data)


def test_translation_warp():
    img = gradient_image()
    T = np.eye(3)
    T[0, 2] = 10.0
    out = warp_image(img, T, img.width, img.height)
    assert np.array_equal(out.data[:, 10:], img.data[:, :-10])
    assert (out.data[:, :10] == 0).all()


def test_warp_rejects_singular():
    img = gradient_image()
    with pytest.raises(SingularHomography):
        warp_image(img, np.zeros((3, 3)), 10, 10)


def test_warp_rejects_all_nan_homography():
    with pytest.raises(SingularHomography, match="SVD did not converge"):
        warp_image(gradient_image(), np.full((3, 3), np.nan), 10, 10)


@pytest.mark.parametrize("size", [([5], 4), (5, [4]), (5.0, 4), (True, 4), (5, None)])
def test_warp_rejects_sizes_that_are_not_integers_before_the_cache(size):
    with pytest.raises(InvalidCalibration):
        warp_image(gradient_image(), np.eye(3), *size)


def test_synth_correspondences_skip_markers_behind_a_camera():
    """The second camera turned half a turn about its own y axis, in place, faces away
    from the plane, so every marker is behind it."""
    rig = synth_rig(0)
    turn = np.diag([-1.0, 1.0, -1.0])
    cam2 = rig.cam2
    away = Camera(A=cam2.A, R=turn @ cam2.R, t=turn @ cam2.t, width=cam2.width,
                  height=cam2.height)
    assert np.allclose(optical_center(away), optical_center(cam2))
    assert correspondences(StereoRig(rig.cam1, away)).size == 0


def test_warp_round_trip_interior():
    """H then H^-1 reproduces interior pixels within interpolation loss."""
    xs, ys = np.meshgrid(np.arange(96), np.arange(96), indexing="xy")
    img = from_array((xs + ys).astype(np.uint8))  # smooth ramp, no wrap-around
    H = np.array([[1.02, 0.01, 2.0], [-0.015, 0.99, 1.0], [1e-5, -1e-5, 1.0]])
    fwd = warp_image(img, H, 140, 140)
    back = warp_image(fwd, np.linalg.inv(H), img.width, img.height)
    inner = (slice(8, -8), slice(8, -8))
    diff = back.data[inner].astype(int) - img.data[inner].astype(int)
    assert np.abs(diff).max() <= 3


def test_pnm_round_trip_color(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.integers(0, 256, size=(2, 3, 3), dtype=np.uint8)
    img = from_array(data)
    path = tmp_path / "img.ppm"
    write_pnm(img, path)
    out = read_pnm(path)
    assert out.channels == 3
    assert np.array_equal(out.data, img.data)


def test_pnm_round_trip_gray(tmp_path):
    img = gradient_image(5, 4)
    path = tmp_path / "img.pgm"
    write_pnm(img, path)
    out = read_pnm(path)
    assert out.channels == 1
    assert np.array_equal(out.data, img.data)


def test_pnm_comments(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 # inline\n2\n255\n" + payload)
    img = read_pnm(path)
    assert (img.width, img.height) == (3, 2)
    assert bytes(img.data.ravel()) == payload


def test_pnm_rejects_wide_maxval(tmp_path):
    path = tmp_path / "w.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + b"\0" * 8)
    with pytest.raises(UnsupportedMaxval):
        read_pnm(path)


def test_pnm_rejects_bad_magic(tmp_path):
    path = tmp_path / "b.pgm"
    path.write_bytes(b"P7\n2 2\n255\n" + b"\0" * 4)
    with pytest.raises(MalformedHeader):
        read_pnm(path)


def test_pnm_rejects_truncated(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\0\0")
    with pytest.raises(MalformedHeader):
        read_pnm(path)


def test_image_buffer_validates_shape():
    with pytest.raises(Exception):
        ImageBuffer(width=2, height=2, channels=1,
                    data=np.zeros((3, 3), dtype=np.uint8))


def test_image_buffer_rejects_two_channels():
    with pytest.raises(ValueError, match="channels must be 1 or 3"):
        ImageBuffer(width=2, height=2, channels=2, data=np.zeros((2, 2, 2), dtype=np.uint8))


def test_pnm_rescales_small_maxval(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5 2 1 15\n" + bytes([15, 0]))
    assert read_pnm(path).data.ravel().tolist() == [255, 0]
    path.write_bytes(b"P5 3 1 3\n" + bytes([1, 2, 3]))
    assert read_pnm(path).data.ravel().tolist() == [85, 170, 255]


def test_pnm_rejects_sample_above_maxval(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5 2 1 15\n" + bytes([16, 0]))
    with pytest.raises(MalformedHeader):
        read_pnm(path)


@pytest.mark.parametrize("raw, message", [
    (b"P", "too short"),
    (b"P5\nx 2\n255\n\0\0", "non-integer"),
    (b"P5\n2 0\n255\n\0", "non-positive"),
    (b"P5\n2 2\n# comment to the end", "truncated"),
])
def test_pnm_rejects_malformed_header(tmp_path, raw, message):
    path = tmp_path / "h.pgm"
    path.write_bytes(raw)
    with pytest.raises(MalformedHeader, match=message):
        read_pnm(path)


# --- the header grammar against the token scanner it replaced ------------------------

def reference_read_tokens(raw: bytes, count: int):
    """First ``count`` whitespace tokens after the magic, skipping comments.

    Returns the tokens and the offset just past the single whitespace byte
    terminating the last one.
    """
    tokens = []
    i = 0
    n = len(raw)
    while len(tokens) < count:
        while i < n and raw[i : i + 1].isspace():
            i += 1
        if i < n and raw[i : i + 1] == b"#":
            while i < n and raw[i : i + 1] not in (b"\n", b"\r"):
                i += 1
            continue
        start = i
        while i < n and not raw[i : i + 1].isspace():
            i += 1
        if start == i:
            raise MalformedHeader("truncated header")
        tokens.append(raw[start:i])
    if i >= n:
        raise MalformedHeader("missing pixel data")
    return tokens, i + 1


def reference_read_pnm(raw: bytes) -> ImageBuffer:
    """The token-scanner reader, on the bytes of a file: what read_pnm must match."""
    if len(raw) < 2:
        raise MalformedHeader("file too short")
    magic = raw[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise MalformedHeader(f"unsupported magic {magic!r}")
    tokens, offset = reference_read_tokens(raw[2:], 3)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise MalformedHeader(f"non-integer header field: {exc}") from exc
    if width < 1 or height < 1:
        raise MalformedHeader("non-positive dimensions")
    if not 0 < maxval <= 255:
        raise UnsupportedMaxval(f"maxval {maxval} outside 1..255")
    expected = width * height * channels
    if len(raw) - 2 - offset < expected:
        raise MalformedHeader("pixel data shorter than header promises")
    data = np.frombuffer(raw, np.uint8, expected, 2 + offset).reshape(height, width, channels)
    if maxval < 255:
        if data.max() > maxval:
            raise MalformedHeader(f"sample above maxval {maxval}")
        # round(v * 255 / maxval), halves rounded up
        data = ((data.astype(np.uint32) * 510 + maxval) // (2 * maxval)).astype(np.uint8)
    return ImageBuffer(width=width, height=height, channels=channels, data=data)


def outcome(read, raw):
    """The image a reader returns, or the type and message of what it raises."""
    try:
        img = read(raw)
    except Exception as exc:  # any type: the exception is the outcome
        return type(exc), str(exc)
    return img.width, img.height, img.channels, img.data.tobytes()


_SEPARATORS = (b" ", b"\t", b"\n", b"\r", b"\v", b"\f", b"\r\n", b"  \t",  # whitespace
               b"#", b"# c", b"#2 2", b"##", b"#\t\v\f",  # comments run to \n, \r or the end
               b"\0", b"\0\0\0")
_FIELDS = (b"0", b"-1", b"256", b"1", b"2", b"3", b"15", b"255", b"+2", b"1_0", b"0x3",
           b"2.0", b"\xff", b"#2", b"2#", b"2\0", b"\0", b"")
_BODIES = (b"", b"\n", b"\r", b"\t", b"\f", b"\v", b"#\n", b"\0")


def random_header(rng: random.Random) -> bytes:
    """A magic, two to four fields with separators, comments and NUL runs around
    them, then a body that may be short, exact or long, dark or bright; one in
    twenty is cut at a random length."""
    out = [rng.choice((b"P5", b"P6") * 8 + (b"P7", b"P", b"", b"p5"))]
    for _ in range(rng.choice((2, 3, 3, 3, 3, 4))):
        for _ in range(rng.choice((0, 1, 1, 1, 2))):
            sep = rng.choice(_SEPARATORS)
            out.append(sep + rng.choice((b"\n", b"\r", b"")) if sep[:1] == b"#" else sep)
        out.append(rng.choice(_FIELDS) if rng.random() < 0.25 else rng.choice((b"1", b"2")))
    out.append(rng.choice((b" ", b"\n", b"\n", b"")) + rng.choice(_BODIES))
    size, high = rng.randrange(0, 13), rng.choice((4, 16, 256))
    out.append(bytes(rng.randrange(high) for _ in range(size)))
    raw = b"".join(out)
    return raw[:rng.randrange(len(raw) + 1)] if rng.random() < 0.05 else raw


@pytest.fixture
def pnm_from_bytes(monkeypatch):
    """read_pnm takes the bytes of a file in place of its path."""
    monkeypatch.setattr(warp, "open", lambda raw, mode: io.BytesIO(raw), raising=False)


@pytest.mark.usefixtures("pnm_from_bytes")
def test_read_pnm_matches_token_scanner_on_random_headers():
    """100 000 seeded headers through both readers: the same image bytes, or the
    same exception type and message."""
    rng = random.Random(20221)
    seen = collections.Counter()
    for _ in range(100_000):
        raw = random_header(rng)
        expected = outcome(reference_read_pnm, raw)
        assert outcome(read_pnm, raw) == expected, raw
        seen[expected[1].split()[0] if len(expected) == 2 else "image"] += 1
    assert min(seen.values()) >= 100 and len(seen) == 10, seen


@pytest.mark.parametrize("raw", [
    b"P5\n2 1\n# comment to the end",
    b"P5 2 1 255",
    b"P5 2 1 255 ",
    b"P5 \0\0\0 1 255 ab",
    b"P5#c\n2#\n1 255\nab",
    b"P6\v1\f1\r255\tabc",
    b"P5 2 1 # 255\n3\rab",
    b"P5 2 1 15\n\x0f\x10",
])
@pytest.mark.usefixtures("pnm_from_bytes")
def test_read_pnm_matches_token_scanner_on_edge_headers(raw):
    assert outcome(read_pnm, raw) == outcome(reference_read_pnm, raw)


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def vga_frame():
    rng = np.random.default_rng(5)
    return from_array(rng.integers(0, 256, size=(480, 640, 3), dtype=np.uint8))


def test_write_pnm_copies_no_raster(tmp_path):
    img = vga_frame()
    path = tmp_path / "frame.ppm"
    assert traced_peak(write_pnm, img, path) <= 64 * 1024
    assert path.read_bytes() == b"P6\n640 480\n255\n" + img.data.tobytes()


def test_read_pnm_holds_the_file_once(tmp_path):
    img = vga_frame()
    path = tmp_path / "frame.ppm"
    path.write_bytes(b"P6\n640 480\n255\n" + img.data.tobytes())
    assert traced_peak(read_pnm, path) <= path.stat().st_size + 64 * 1024
    assert np.array_equal(read_pnm(path).data, img.data)


# --- rectification maps ------------------------------------------------------------

def reference_warp(img, H, out_w, out_h):
    """Bilinear sampling of every output pixel, computed afresh on each call: the
    reference that warp_image must match byte for byte."""
    H = np.asarray(H, dtype=float)
    try:
        if np.linalg.cond(H) > 1e14:
            raise SingularHomography("homography is numerically singular")
        Hinv = np.linalg.inv(H)
    except np.linalg.LinAlgError as exc:
        raise SingularHomography(str(exc)) from exc

    sx, sy, sw = source_coords(Hinv, out_w, out_h)
    valid = np.isfinite(sx) & np.isfinite(sy) & (np.abs(sw) > 1e-12)
    valid &= (sx >= 0) & (sx <= img.width - 1) & (sy >= 0) & (sy <= img.height - 1)
    sx = np.where(valid, sx, 0.0)
    sy = np.where(valid, sy, 0.0)

    x0 = np.floor(sx).astype(int)
    y0 = np.floor(sy).astype(int)
    x1 = np.minimum(x0 + 1, img.width - 1)
    y1 = np.minimum(y0 + 1, img.height - 1)
    fx = (sx - x0)[..., None]
    fy = (sy - y0)[..., None]

    data = img.data.astype(float)
    top = data[y0, x0] * (1 - fx) + data[y0, x1] * fx
    bot = data[y1, x0] * (1 - fx) + data[y1, x1] * fx
    out = top * (1 - fy) + bot * fy
    out = np.where(valid[..., None], out, 0.0)
    out = np.clip(np.rint(out), 0, 255).astype(np.uint8)
    return ImageBuffer(width=out_w, height=out_h, channels=img.channels, data=out)


def assert_same_as_reference(img, H, out_w, out_h):
    got = warp_image(img, H, out_w, out_h)
    ref = reference_warp(img, H, out_w, out_h)
    assert got.data.shape == ref.data.shape
    assert got.data.tobytes() == ref.data.tobytes()


def random_case(k):
    """Image, H and output size of seeded case k: a general projective map, an
    exact power-of-two scaling that puts output samples on the last source row and
    column, or an integer/half-pixel shift."""
    rng = np.random.default_rng([11, k])
    w, h = (int(v) for v in rng.integers(1, 20, size=2))
    img = from_array(rng.integers(0, 256, size=(h, w, int(rng.choice([1, 3]))), dtype=np.uint8))
    kind = k % 3
    if kind == 0:
        H = np.eye(3) + rng.normal(scale=[[0.2, 0.2, 3.0], [0.2, 0.2, 3.0], [0.01, 0.01, 0]])
        out_w, out_h = (int(v) for v in rng.integers(1, 30, size=2))
    elif kind == 1:
        s = float(rng.choice([0.25, 0.5, 1.0, 2.0, 4.0]))
        H = np.diag([s, s, 1.0])
        out_w = int((w - 1) * s) + 1 + int(rng.integers(0, 3))
        out_h = int((h - 1) * s) + 1 + int(rng.integers(0, 3))
    else:
        H = np.eye(3)
        H[:2, 2] = rng.integers(-4, 5, size=2) / 2.0
        out_w, out_h = w + int(rng.integers(0, 4)), h + int(rng.integers(0, 4))
    return img, H, out_w, out_h


@pytest.mark.parametrize("seed", range(4))
def test_warp_matches_reference_on_synth_scenes(seed):
    rig = synth_rig(seed)
    pair = assemble(rig)
    for cam, H in ((rig.cam1, pair.H1), (rig.cam2, pair.H2)):
        rgb = render_view(cam)
        assert_same_as_reference(rgb, H, *pair.output_size)
        assert_same_as_reference(from_array(np.array(rgb.data[:, :, 0])), H, *pair.output_size)


def test_warp_matches_reference_on_random_cases():
    for k in range(240):
        assert_same_as_reference(*random_case(k))


@pytest.mark.parametrize("shape", [(1, 7), (7, 1), (1, 1)])
def test_warp_matches_reference_on_one_pixel_wide_sources(shape):
    rng = np.random.default_rng(2)
    img = from_array(rng.integers(0, 256, size=shape, dtype=np.uint8))
    H = np.array([[1.5, 0.0, 0.0], [0.0, 1.5, 0.0], [0.0, 0.0, 1.0]])
    assert_same_as_reference(img, H, 12, 12)
    assert_same_as_reference(img, np.eye(3), *img.data.shape[1::-1])


def test_warp_alternating_homographies_match_fresh_maps():
    rig = synth_rig(1)
    pair = assemble(rig)
    frame = render_view(rig.cam1)
    rng = np.random.default_rng(4)
    for _ in range(3):
        noisy = from_array(np.clip(frame.data.astype(int) + rng.integers(-9, 10, frame.data.shape),
                                   0, 255).astype(np.uint8))
        for H in (pair.H1, pair.H2):
            fresh = RectifyMap.build(H, frame.width, frame.height, *pair.output_size).apply(noisy)
            got = warp_image(noisy, H, *pair.output_size)
            assert got.data.tobytes() == fresh.data.tobytes()


def test_warp_map_follows_sizes_and_in_place_changes():
    rng = np.random.default_rng(6)
    a = from_array(rng.integers(0, 256, size=(12, 16), dtype=np.uint8))
    b = from_array(rng.integers(0, 256, size=(16, 12), dtype=np.uint8))
    H = np.array([[1.1, 0.1, -1.0], [0.05, 0.9, 0.5], [1e-3, 0.0, 1.0]])
    assert_same_as_reference(a, H, 20, 15)
    assert_same_as_reference(b, H, 20, 15)  # same H and output, other source size
    assert_same_as_reference(a, H, 15, 20)  # same H and source, other output size
    before = warp_image(a, H, 20, 15).data
    H[0, 2] += 2.0  # in place: the cached map of the old values must not be used
    assert_same_as_reference(a, H, 20, 15)
    assert warp_image(a, H, 20, 15).data.tobytes() != before.tobytes()


def test_warp_singular_raises_on_every_call():
    img = gradient_image()
    for H in (np.zeros((3, 3)), np.diag([1e15, 1.0, 1.0])):
        for _ in range(3):
            with pytest.raises(SingularHomography):
                warp_image(img, H, 10, 10)


def test_warp_map_is_read_only_and_never_aliased():
    img = gradient_image()
    H = np.array([[0.9, 0.05, 2.0], [0.0, 1.1, -1.0], [0.0, 1e-3, 1.0]])
    first = warp_image(img, H, 50, 40)
    second = warp_image(img, H, 50, 40)
    cached = warp._cached_map(H.tobytes(), img.width, img.height, 50, 40)
    assert cached is warp._cached_map(H.tobytes(), img.width, img.height, 50, 40)
    assert not np.shares_memory(first.data, second.data)
    for arr in (cached.dst, cached.src, cached.fx, cached.fy):
        assert not arr.flags.writeable
        assert not np.shares_memory(first.data, arr)
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(ValueError):
        cached.apply(gradient_image(10, 10))  # another source size


@pytest.mark.parametrize("size", [(0, 10), (10, -1), (-4, -4), (8193, 8192),
                                  (100000, 100000)])
def test_warp_rejects_canvas_before_allocating(size):
    assert MAX_OUTPUT_PIXELS == 8192 * 8192
    tracemalloc.start()
    try:
        with pytest.raises(InvalidCalibration):
            warp_image(gradient_image(4, 4), np.eye(3), *size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_warp_matches_reference_across_row_blocks():
    """Canvases of one row per block (wider than a block), of a block size that does
    not divide the row count, and of a single partial block."""
    rng = np.random.default_rng(8)
    img = from_array(rng.integers(0, 256, size=(30, 50, 3), dtype=np.uint8))
    wide = warp._BLOCK_PIXELS + 7
    assert_same_as_reference(img, np.diag([(wide - 1) / 49.0, 1.0, 1.0]), wide, 3)
    big = from_array(rng.integers(0, 256, size=(300, 340), dtype=np.uint8))
    G = np.array([[1.2, 0.1, -3.0], [-0.05, 0.9, 2.0], [2e-4, -1e-4, 1.0]])
    assert_same_as_reference(big, G, 333, warp._BLOCK_PIXELS // 333 * 3 + 1)
    assert_same_as_reference(big, G, 7, 5)


def test_map_build_memory_is_bounded_per_pixel():
    """An all-valid 1024 x 1024 canvas: the map keeps 24 B per pixel, and building it
    needs at most 56 B per pixel in all."""
    size = 1024
    tracemalloc.start()
    try:
        m = RectifyMap.build(np.eye(3), size, size, size, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.dst.size == size * size
    assert sum(a.nbytes for a in (m.dst, m.src, m.fx, m.fy)) == 24 * size * size
    assert peak <= 56 * size * size


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("valid", [0, 1, warp._BLOCK_PIXELS - 1, warp._BLOCK_PIXELS,
                                   warp._BLOCK_PIXELS + 1, 2 * warp._BLOCK_PIXELS + 1])
def test_apply_matches_reference_across_block_edges(valid, channels):
    """A one-row canvas sampling a 2-row source at (x + 0.25, 0.5): exactly ``valid``
    output pixels have their source inside it, and the 5 columns past them do not."""
    rng = np.random.default_rng([9, valid, channels])
    img = from_array(rng.integers(0, 256, size=(2, valid + 1, channels), dtype=np.uint8))
    H = np.array([[1.0, 0.0, -0.25], [0.0, 1.0, -0.5], [0.0, 0.0, 1.0]])
    assert RectifyMap.build(H, img.width, img.height, valid + 5, 1).dst.size == valid
    assert_same_as_reference(img, H, valid + 5, 1)


def test_apply_memory_is_bounded_by_the_block():
    """One apply of the synth_rig(1) H1 map (596 x 480 canvas) needs the output and
    per-block buffers, not whole-frame float64 temporaries."""
    rig = synth_rig(1)
    pair = assemble(rig)
    rgb = render_view(rig.cam1)
    gray = from_array(np.array(rgb.data[:, :, 0]))
    m = RectifyMap.build(pair.H1, rgb.width, rgb.height, *pair.output_size)
    assert traced_peak(m.apply, gray) <= 2_000_000
    assert traced_peak(m.apply, rgb) <= 6_000_000
