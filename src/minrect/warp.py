"""Raster warping and binary netpbm (PGM/PPM) input/output."""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (InvalidArgument, InvalidCalibration, MalformedHeader, SingularHomography,
                     UnsupportedMaxval)
from .geometry import read_only


@dataclass(frozen=True)
class ImageBuffer:
    """8-bit gray (1 channel) or RGB (3 channel) raster, row-major."""

    width: int
    height: int
    channels: int
    data: np.ndarray  # shape (height, width, channels), uint8

    def __post_init__(self):
        if self.channels not in (1, 3):
            raise InvalidArgument("channels must be 1 or 3")
        arr = np.asarray(self.data)  # nothing wraps or truncates: NaN and ±inf fail the test
        if arr.dtype != np.uint8 and (arr.dtype.kind not in "biuf" or not np.all(
                (arr >= 0) & (arr <= 255) & (np.floor(arr) == arr))):
            raise InvalidArgument(f"{arr.dtype} image data must hold integers in 0..255")
        arr = np.ascontiguousarray(arr, dtype=np.uint8)  # uint8 is taken as is
        if arr.shape != (self.height, self.width, self.channels):
            raise InvalidArgument("data shape does not match declared dimensions")
        object.__setattr__(self, "data", read_only(arr))


def from_array(arr: np.ndarray) -> ImageBuffer:
    """Wrap a (h, w) or (h, w, c) array, converted as ``ImageBuffer`` converts its data; a
    C-contiguous uint8 array is taken without a copy and made read-only, whatever its shape."""
    arr = np.asarray(arr)
    if arr.dtype == np.uint8 and arr.flags.c_contiguous:
        read_only(arr)  # taken without a copy; freezing only the view below leaves arr writable
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, c = arr.shape
    return ImageBuffer(width=w, height=h, channels=c, data=arr)


def source_coords(Hinv: np.ndarray, width: int, height: int, first_row: int = 0):
    """Source (x, y) of the pixels in rows ``first_row``..``height - 1`` of a width x height
    output under ``Hinv``, dehomogenised with no tolerance (non-finite where the scale is 0)."""
    xs, ys = np.meshgrid(np.arange(width, dtype=float),
                         np.arange(first_row, height, dtype=float))
    src = np.tensordot(Hinv, np.stack([xs, ys, np.ones_like(xs)]), axes=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return src[0] / src[2], src[1] / src[2]


MAX_OUTPUT_PIXELS = 1 << 26  # 8192 x 8192: the largest canvas a map is built for
_BLOCK_PIXELS = 1 << 15  # output pixels per block in RectifyMap.build and apply


def _gather_rows(Hinv: np.ndarray, src_w: int, src_h: int, out_w: int, r0: int,
                 r1: int) -> tuple:
    """dst, src, fx, fy of the valid output pixels in rows r0..r1-1 (see RectifyMap)."""
    sx, sy = source_coords(Hinv, out_w, r1, first_row=r0)
    # NaN fails every range comparison and +-inf fails one of them
    valid = (sx >= 0) & (sx <= src_w - 1) & (sy >= 0) & (sy <= src_h - 1)
    flat = np.flatnonzero(valid)
    sx = sx.ravel()[flat]
    sy = sy.ravel()[flat]
    # A source exactly on the last column (row) reads it as the right (lower)
    # neighbour with weight 1, so the neighbours are always src+1 and src+W;
    # a source 1 px wide (tall) keeps x0 = 0 with weight 0.
    x0 = np.minimum(np.floor(sx), max(src_w - 2, 0))
    y0 = np.minimum(np.floor(sy), max(src_h - 2, 0))
    index = np.int32 if src_w * src_h < 2**31 else np.intp
    src = y0.astype(index) * src_w + x0.astype(index)
    return (flat + r0 * out_w).astype(np.int32), src, sx - x0, sy - y0


def _join(parts: list) -> np.ndarray:
    """The parts as one read-only array; the list is emptied so they can be freed."""
    out = np.concatenate(parts)
    parts.clear()
    return read_only(out)


def _check_canvas(out_w, out_h) -> None:
    """Refuse sizes that are not positive integers or exceed ``MAX_OUTPUT_PIXELS`` in all."""
    if (not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v > 0
                for v in (out_w, out_h))
            or int(out_w) * int(out_h) > MAX_OUTPUT_PIXELS):
        raise InvalidCalibration(f"output size {out_w!r}x{out_h!r} is not two positive "
                                 f"integers of at most {MAX_OUTPUT_PIXELS} pixels")


def _gather(views: list, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[k] = views[k][idx]`` for each channel k.  ``RectifyMap.build`` keeps
    every index inside its view, so mode="clip" never clips; it skips the copy of
    ``out`` that the default mode makes on every call to leave it intact on error."""
    for view, row in zip(views, out):
        view.take(idx, out=row, mode="clip")
    return out


@dataclass(frozen=True)
class RectifyMap:
    """The bilinear gather of one homography between fixed source and output sizes.

    Built once per (H, sizes), applied to every image of that size: only output
    pixels whose source lies inside the image are stored, each with the flat
    index of its top-left source pixel and its weights ``fx``, ``fy``.
    """

    src_w: int
    src_h: int
    out_w: int
    out_h: int
    dst: np.ndarray  # flat output index of each valid pixel, int32
    src: np.ndarray  # flat source index of its top-left neighbour, int32 or intp
    fx: np.ndarray  # float64 weight of the right neighbour
    fy: np.ndarray  # float64 weight of the lower neighbour

    @classmethod
    def build(cls, H: np.ndarray, src_w: int, src_h: int, out_w: int, out_h: int) -> RectifyMap:
        """Inverse-map every output pixel through H^-1, ``_BLOCK_PIXELS`` at a time, so
        that beyond the map itself the temporaries stay bounded; see ``_check_canvas``."""
        _check_canvas(out_w, out_h)
        H = np.asarray(H, dtype=float)
        try:
            if np.linalg.cond(H) > 1e14:
                raise SingularHomography("homography is numerically singular")
            Hinv = np.linalg.inv(H)
        except np.linalg.LinAlgError as exc:
            raise SingularHomography(str(exc)) from exc

        rows = max(1, _BLOCK_PIXELS // out_w)
        parts = ([], [], [], [])  # dst, src, fx, fy of each block of rows
        for r0 in range(0, out_h, rows):
            block = _gather_rows(Hinv, src_w, src_h, out_w, r0, min(r0 + rows, out_h))
            for part, arr in zip(parts, block):
                part.append(arr)
        dst, src, fx, fy = (_join(part) for part in parts)
        return cls(src_w, src_h, out_w, out_h, dst, src, fx, fy)

    def apply(self, img: ImageBuffer) -> ImageBuffer:
        """Bilinear samples of ``img`` at the valid pixels, black elsewhere.

        The valid pixels are blended ``_BLOCK_PIXELS`` at a time in buffers made
        once per call, so beyond the output the temporaries stay bounded by the
        block size; the products and sums are those of one whole-frame blend, so
        the bytes are too.  ``build`` keeps ``fx`` and ``fy`` in [0, 1], so each
        blend is a convex combination of bytes and needs no clamp."""
        if (img.width, img.height) != (self.src_w, self.src_h):
            raise InvalidArgument("image size does not match the map")
        c = img.channels
        # channel-major planes, so every gather and product runs along the pixels
        planes = np.ascontiguousarray(np.moveaxis(img.data, 2, 0)).reshape(c, -1)
        right = 1 if self.src_w > 1 else 0
        down = self.src_w if self.src_h > 1 else 0
        # The neighbours of the pixel at source index i are element i of these
        # views, one contiguous view per channel, so one index serves all four.
        p0, p1, p2, p3 = ([plane[o:] for plane in planes] for o in (0, right, down, down + right))
        out = np.zeros((self.out_h * self.out_w, c), dtype=np.uint8)  # pixel-major, as returned
        columns = [out[:, k] for k in range(c)]
        size = min(_BLOCK_PIXELS, self.dst.size)
        index = np.empty(size, dtype=np.intp)
        pixels = np.empty(c * size, dtype=np.uint8)
        top, bot, term = (np.empty(c * size) for _ in range(3))
        weight = np.empty(size)  # 1 - fx, then 1 - fy
        for b0 in range(0, self.dst.size, _BLOCK_PIXELS):
            b1 = min(b0 + _BLOCK_PIXELS, self.dst.size)
            n = b1 - b0
            idx, w = index[:n], weight[:n]
            p, t, b, s = (a[:c * n].reshape(c, n) for a in (pixels, top, bot, term))
            fx, fy = self.fx[b0:b1], self.fy[b0:b1]
            np.subtract(1, fx, out=w)
            np.copyto(idx, self.src[b0:b1])
            np.multiply(_gather(p0, idx, p), w, out=t)  # top = p0 (1 - fx) + p1 fx
            t += np.multiply(_gather(p1, idx, p), fx, out=s)
            np.multiply(_gather(p3, idx, p), fx, out=b)  # bot = p2 (1 - fx) + p3 fx
            b += np.multiply(_gather(p2, idx, p), w, out=s)
            np.subtract(1, fy, out=w)
            t *= w  # top (1 - fy) + bot fy
            t += np.multiply(b, fy, out=b)
            np.rint(t, out=t)
            np.copyto(p, t, casting="unsafe")  # whole numbers in 0..255: exact
            np.copyto(idx, self.dst[b0:b1])
            for column, row in zip(columns, p):
                column[idx] = row
        return ImageBuffer(width=self.out_w, height=self.out_h, channels=c,
                           data=out.reshape(self.out_h, self.out_w, c))


# One stereo pair. Keyed on the bytes of H, so a matrix changed in place gets a new map.
@lru_cache(maxsize=2)
def _cached_map(H_bytes: bytes, src_w: int, src_h: int, out_w: int, out_h: int) -> RectifyMap:
    H = np.frombuffer(H_bytes, dtype=np.float64).reshape(3, 3)
    return RectifyMap.build(H, src_w, src_h, out_w, out_h)


def warp_image(img: ImageBuffer, H: np.ndarray, out_w: int, out_h: int) -> ImageBuffer:
    """Inverse-map every output pixel through H^-1 with bilinear sampling.

    Out-of-bounds source positions produce black.  The map is built once per
    (H, image size, output size) and reused while it is one of the last two.
    """
    _check_canvas(out_w, out_h)  # before the cache, which cannot hash a list
    H = np.ascontiguousarray(H, dtype=np.float64)
    return _cached_map(H.tobytes(), img.width, img.height, out_w, out_h).apply(img)


# Netpbm header after the magic: width, height and maxval, each preceded by
# whitespace and '#' comments that run to the end of the line.  The skip cannot
# fail, so it never backtracks, and it stops only at a field or the end of the file.
_SKIP = re.compile(rb"(?:\s+|#[^\r\n]*)*")
_FIELD = re.compile(rb"\S+")


def read_pnm(path) -> ImageBuffer:
    """Read a binary PGM (P5) or PPM (P6) file; maxval < 255 is rescaled to 0..255."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 2:
        raise MalformedHeader("file too short")
    channels = {b"P5": 1, b"P6": 3}.get(raw[:2])
    if channels is None:
        raise MalformedHeader(f"unsupported magic {raw[:2]!r}")
    fields, end = [], 2
    for _ in range(3):  # matched in place: no copy of the file
        field = _FIELD.match(raw, _SKIP.match(raw, end).end())
        if field is None:
            raise MalformedHeader("truncated header")
        fields.append(field[0])
        end = field.end()
    offset = end + 1  # past the one whitespace byte that ends maxval
    if offset > len(raw):
        raise MalformedHeader("missing pixel data")
    try:
        width, height, maxval = (int(t) for t in fields)
    except ValueError as exc:
        raise MalformedHeader(f"non-integer header field: {exc}") from exc
    if width < 1 or height < 1:
        raise MalformedHeader("non-positive dimensions")
    if not 0 < maxval <= 255:
        raise UnsupportedMaxval(f"maxval {maxval} outside 1..255")
    expected = width * height * channels
    if len(raw) - offset < expected:
        raise MalformedHeader("pixel data shorter than header promises")
    data = np.frombuffer(raw, np.uint8, expected, offset).reshape(height, width, channels)
    if maxval < 255:
        if data.max() > maxval:
            raise MalformedHeader(f"sample above maxval {maxval}")
        # round(v * 255 / maxval), halves rounded up
        data = ((data.astype(np.uint32) * 510 + maxval) // (2 * maxval)).astype(np.uint8)
    return ImageBuffer(width=width, height=height, channels=channels, data=data)


def write_pnm(img: ImageBuffer, path) -> None:
    """Write binary PGM/PPM with maxval 255."""
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (img.width, img.height)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.data)  # C-contiguous, see ImageBuffer
