"""Raster warping and binary netpbm (PGM/PPM) input/output."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MalformedHeader, SingularHomography, UnsupportedMaxval


@dataclass(frozen=True)
class ImageBuffer:
    """8-bit gray (1 channel) or RGB (3 channel) raster, row-major."""

    width: int
    height: int
    channels: int
    data: np.ndarray  # shape (height, width, channels), uint8

    def __post_init__(self):
        if self.channels not in (1, 3):
            raise ValueError("channels must be 1 or 3")
        arr = np.ascontiguousarray(self.data, dtype=np.uint8)
        if arr.shape != (self.height, self.width, self.channels):
            raise ValueError("data shape does not match declared dimensions")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)


def from_array(arr: np.ndarray) -> ImageBuffer:
    """Wrap a (h, w) or (h, w, c) uint8 array."""
    arr = np.asarray(arr)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, c = arr.shape
    return ImageBuffer(width=w, height=h, channels=c, data=arr.astype(np.uint8))


def source_coords(Hinv: np.ndarray, width: int, height: int):
    """Source (x, y, w) of every pixel of a width x height output under ``Hinv``:
    x and y dehomogenised (non-finite where w is zero), w the homogeneous scale."""
    xs, ys = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    src = np.tensordot(Hinv, np.stack([xs, ys, np.ones_like(xs)]), axes=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return src[0] / src[2], src[1] / src[2], src[2]


def warp_image(img: ImageBuffer, H: np.ndarray, out_w: int, out_h: int) -> ImageBuffer:
    """Inverse-map every output pixel through H^-1 with bilinear sampling.

    Out-of-bounds source positions produce black.
    """
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


def _read_tokens(raw: bytes, count: int):
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


def read_pnm(path) -> ImageBuffer:
    """Read a binary PGM (P5) or PPM (P6) file; maxval < 255 is rescaled to 0..255."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 2:
        raise MalformedHeader("file too short")
    magic = raw[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise MalformedHeader(f"unsupported magic {magic!r}")
    tokens, offset = _read_tokens(raw[2:], 3)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise MalformedHeader(f"non-integer header field: {exc}") from exc
    if width < 1 or height < 1:
        raise MalformedHeader("non-positive dimensions")
    if not 0 < maxval <= 255:
        raise UnsupportedMaxval(f"maxval {maxval} outside 1..255")
    body = raw[2 + offset :]
    expected = width * height * channels
    if len(body) < expected:
        raise MalformedHeader("pixel data shorter than header promises")
    data = np.frombuffer(body[:expected], dtype=np.uint8).reshape(height, width, channels)
    if maxval < 255:
        if data.max() > maxval:
            raise MalformedHeader(f"sample above maxval {maxval}")
        # round(v * 255 / maxval), halves rounded up
        data = ((data.astype(np.uint32) * 510 + maxval) // (2 * maxval)).astype(np.uint8)
    return ImageBuffer(width=width, height=height, channels=channels, data=data.copy())


def write_pnm(img: ImageBuffer, path) -> None:
    """Write binary PGM/PPM with maxval 255."""
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (img.width, img.height)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.data.tobytes())
