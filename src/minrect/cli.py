"""Command-line entry point.

Exit codes: 0 success, 2 ``InputError``, 3 any other ``MinrectError``, 4 ``OSError``.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import baselines, serialize, synth
from .distortion import distortion_of_w, distortion_of_y, operand_matrices
from .errors import InputError, InvalidCalibration, MinrectError, SingularHomography
from .geometry import load_calibration, load_json, rig_to_dict
from .quartic import quartic_coefficients, solve_quartic
from .rectify import assemble
from .warp import read_pnm, warp_image, write_pnm


def _format_distortion(value: float) -> str:
    # six significant digits; values at floating-point noise level print as
    # an exact zero so already-rectified rigs report 0.000000
    return "0.000000" if abs(value) < 1e-9 else format(value, ".6g")


def _cmd_rectify(args) -> int:
    rig = load_calibration(args.calibration)
    pair = assemble(rig)
    if args.dump_quartic:
        problem = quartic_coefficients(operand_matrices(rig))
        roots = solve_quartic(problem)
        print(serialize.dumps({
            "m": list(problem.m),
            "coeffs": list(problem.coeffs),
            "roots": list(roots.roots),
        }))
    serialize.write_json(args.output, serialize.rectified_pair_to_dict(pair))
    print(f"y1 {format(pair.y1_star, '.17g')}")
    print(f"distortion {_format_distortion(pair.distortion)}")
    return 0


def _homography(data: dict, key: str) -> np.ndarray:
    """The finite 3x3 matrix stored under ``key`` of a homography file."""
    try:
        H = np.array(data[key], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidCalibration(f"homography {key} is missing or not numeric: {exc!r}") from exc
    if H.shape != (3, 3) or not np.isfinite(H).all():
        raise InvalidCalibration(f"{key} must be a finite 3x3 matrix")
    return H


def _extract_w(H: np.ndarray) -> np.ndarray:
    if abs(H[2, 2]) <= 1e-15 * np.abs(H).max():
        raise SingularHomography("homography cannot be normalised: last element is zero")
    return H[2, :] / H[2, 2]


def _cmd_evaluate(args) -> int:
    rig = load_calibration(args.calibration)
    ops = operand_matrices(rig)
    if args.y1 is not None:
        value = distortion_of_y(ops, args.y1)
    else:
        data = load_json(args.homographies)
        w1, w2 = (_extract_w(_homography(data, key)) for key in ("H1", "H2"))
        value = distortion_of_w(w1, w2, ops.moments1, ops.moments2)
    print(_format_distortion(value))
    return 0


def _cmd_warp(args) -> int:
    img = read_pnm(args.image)
    data = load_json(args.homography)
    H = _homography(data, "H" if "H" in data else f"H{args.use}")
    size = (args.width, args.height)
    if size == (None, None):
        size = data.get("output_size", (img.width, img.height))
    if not isinstance(size, (list, tuple)) or len(size) != 2:
        raise InvalidCalibration(f"output size {size!r} is not a (width, height) pair")
    write_pnm(warp_image(img, H, *size), args.output)
    return 0


def _cmd_stress(args) -> int:
    report = baselines.stress(args.trials, args.seed)
    serialize.write_json(args.output, report.to_dict())
    print(f"direct_successes {report.direct_successes}/{report.trials}")
    return 0


def _cmd_synth(args) -> int:
    rig = synth.synth_rig(args.seed)
    os.makedirs(args.output, exist_ok=True)
    serialize.write_json(os.path.join(args.output, "calib.json"), rig_to_dict(rig))
    write_pnm(synth.render_view(rig.cam1), os.path.join(args.output, "left.ppm"))
    write_pnm(synth.render_view(rig.cam2), os.path.join(args.output, "right.ppm"))
    rows = synth.correspondences(rig)
    with open(os.path.join(args.output, "correspondences.csv"), "w",
              encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "y1", "x2", "y2"])
        for row in rows:
            writer.writerow([format(v, ".17g") for v in row])
    print(f"wrote {len(rows)} correspondences to {args.output}")
    return 0


def _cmd_degenerate(args) -> int:
    rig = baselines.degenerate_rig(args.a, args.theta)
    pair = assemble(rig)  # before anything is written, so a pipeline error leaves no directory
    os.makedirs(args.output, exist_ok=True)
    serialize.write_json(os.path.join(args.output, "calib.json"), rig_to_dict(rig))
    serialize.write_json(os.path.join(args.output, "rectify.json"),
                         serialize.rectified_pair_to_dict(pair))
    print(f"pd_probe {baselines.pd_probe(rig)}")
    print(f"distortion {_format_distortion(pair.distortion)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="minrect",
                                     description="Minimal-distortion stereo rectification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rectify", help="compute rectifying homographies")
    p.add_argument("calibration")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--dump-quartic", action="store_true")
    p.set_defaults(fn=_cmd_rectify)

    p = sub.add_parser("evaluate", help="evaluate the distortion metric")
    p.add_argument("calibration")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--y1", type=float)
    group.add_argument("--homographies")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("warp", help="apply a homography to a PGM/PPM image")
    p.add_argument("image")
    p.add_argument("homography")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--use", type=int, choices=(1, 2), default=1,
                   help="which homography of a rectify output to apply")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.set_defaults(fn=_cmd_warp)

    p = sub.add_parser("stress", help="randomized stress harness")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_stress)

    p = sub.add_parser("synth", help="generate a synthetic calibrated scene")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("degenerate", help="emit a degenerate-family rig and rectify it")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_degenerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except MinrectError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
