"""Image warping and PNM I/O."""
import numpy as np
import pytest

from minrect.errors import MalformedHeader, SingularHomography, UnsupportedMaxval
from minrect.warp import ImageBuffer, from_array, read_pnm, warp_image, write_pnm


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
