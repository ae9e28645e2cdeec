"""The four workloads: inputs, one operation and its checks.

A workload builds its inputs in ``__init__`` (that is set-up), lists one
round of operations in ``items`` and runs one of them with ``op``.  The
timing loop in ``run.py`` repeats whole rounds, so every run attempts the
same operations in the same proportions.  ``prepare`` runs before each
operation, outside its time.  ``verify`` checks one output with the
computations in ``checks``; ``fingerprint`` lets later rounds show that
they produced the very output the first round verified.  An operation
that raises is judged by ``raised``: only the kept faults may fail.

``op(item, call)`` makes every call into the program through
``call(name, fn, *args)``: ``spans.direct`` when tracing is off, and
``Tracer.call``, which records a span, when it is on.  Traced runs also
call ``extra_traced``, which times the layers the operation does not call
on its own (outside the operation's time).  ``layer_metrics`` turns a
phase's spans into the per-layer figures.
"""
from __future__ import annotations

import hashlib
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import checks
import rigsets
from spans import direct, median, p90

from minrect import (
    assemble,
    fusiello_rectify,
    operand_matrices,
    pd_probe,
    scan_minimize,
)
from minrect import serialize, synth
from minrect.distortion import distortion_of_y_many
from minrect.errors import MinrectError
from minrect.geometry import load_calibration, rig_to_dict
from minrect.quartic import quartic_coefficients, select_minimum, solve_quartic
from minrect.rectify import complete_homographies, new_orientation
from minrect.warp import from_array, read_pnm, warp_image, write_pnm

SCAN_SAMPLES = 200_001
SCAN_HALF_RANGE = 10.0  # the scan covers [-10 h, 10 h], as the acceptance oracle does
F1_STAGE = "quartic-coefficients"  # where F1 raises; a failure anywhere else is a check problem


def cam_tuple(cam) -> tuple:
    return (np.array(cam.A), np.array(cam.R), np.array(cam.t), cam.width, cam.height)


def screen(params) -> bool:
    (A1, R1, c1), (A2, R2, c2), (w, h) = params
    return checks.well_posed((A1, R1, -R1 @ c1, w, h), (A2, R2, -R2 @ c2, w, h))


@dataclass
class RigItem:
    index: int
    params: tuple
    rig: object
    fault: str | None  # "F1" / "F2" for the seed-independent fault rigs

    @property
    def cams(self) -> tuple:
        return cam_tuple(self.rig.cam1), cam_tuple(self.rig.cam2)


def _rig_items(seed: int, count: int, max_angle: float, faults) -> tuple[list, int, float]:
    """Seeded rigs plus the fault rigs ``faults()`` lists, built through the program.

    Also returns the draws skipped and the seconds spent drawing and
    screening parameters: that is the benchmark's own work, which
    ``setup_s`` leaves out.
    """
    t0 = time.perf_counter()
    params, skipped = rigsets.screened_params(seed, count, 0.25, max_angle, screen)
    fault_list = faults()
    own_s = time.perf_counter() - t0
    items = [RigItem(i, p, rigsets.build_rig(p), None) for i, p in enumerate(params)]
    for label, p in fault_list:
        items.append(RigItem(len(items), p, rigsets.build_rig(p), label))
    return items, skipped, own_s


def _pair_fp(pair) -> tuple:
    scalars = np.array([pair.distortion, pair.y1_star], dtype=float)  # y1_star may be NaN
    return (pair.H1.tobytes(), pair.H2.tobytes(), scalars.tobytes(), tuple(pair.output_size))


def error_fp(exc) -> tuple:
    return ("error", type(exc).__name__, getattr(exc, "stage", ""), str(exc))


def _timings(metrics: dict, name: str, seconds: list, scale: float, unit: str) -> None:
    """Median and p90 of a layer's span durations."""
    metrics[name] = (median(seconds) * scale, unit)
    metrics[name + "_p90"] = (p90(seconds) * scale, unit)


class Workload:
    name = ""
    items: list
    own_s = 0.0  # seconds of set-up spent on the benchmark's own work

    def warmup(self) -> None:
        pass

    def prepare(self, item) -> None:
        pass

    def raised(self, item, exc) -> tuple:
        """(failed, problem) for an operation that raised ``exc``."""
        if getattr(item, "fault", None) == "F1" and getattr(exc, "stage", "") == F1_STAGE:
            return True, None
        return True, f"raised {exc!r} (fault rig: {getattr(item, 'fault', None)})"

    def extra_traced(self, item, out, tr):
        """Time the layers the operation leaves out; returns a problem or None."""
        return None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Rigs(Workload):
    """assemble() on a fixed list of general rigs and stereo heads."""

    name = "rigs"
    COUNT = 600

    @staticmethod
    def faults() -> list:
        return rigsets.fault_params({"F1"}) + [("F2", rigsets.far_poles_params())]

    def __init__(self, seed: int, workdir: str):
        self.items, self.skipped, self.own_s = _rig_items(seed, self.COUNT, math.pi / 3,
                                                          self.faults)
        self.check_rng = np.random.default_rng([seed, 1])
        self.real_roots = 0
        self.degenerate = 0
        self.unattributed = []
        self._counted = set()

    def warmup(self) -> None:
        for item in self.items:
            try:
                self.op(item, direct)
            except MinrectError:
                pass

    def op(self, item, call):
        return call("rectify.assemble", assemble, item.rig)

    STAGES = ("distortion.operand_matrices", "quartic.coefficients", "quartic.solve",
              "quartic.select", "rectify.orientation", "rectify.complete")

    def extra_traced(self, item, out, tr):
        assemble_s = tr.last["rectify.assemble"]
        tr.call("geometry.rig_build", rigsets.build_rig, item.params)
        rig = item.rig
        try:
            ops = tr.call("distortion.operand_matrices", operand_matrices, rig)
            problem = tr.call("quartic.coefficients", quartic_coefficients, ops)
            roots = tr.call("quartic.solve", solve_quartic, problem)
            y, dist = tr.call("quartic.select", select_minimum, ops, problem, roots)
            orientation = tr.call("rectify.orientation", new_orientation, rig, y)
            pair = tr.call("rectify.complete", complete_homographies, rig, orientation, y, dist)
        except MinrectError as exc:
            if isinstance(out, MinrectError):
                return None
            return f"rig {item.index}: stages raised {exc!r}, assemble did not"
        if isinstance(out, MinrectError):
            return f"rig {item.index}: assemble raised {out!r}, stages did not"
        if _pair_fp(pair) != _pair_fp(out):
            return f"rig {item.index}: stepwise stages differ from assemble bit for bit"
        self.unattributed.append(assemble_s - sum(tr.last[name] for name in self.STAGES))
        if item.index not in self._counted:
            self._counted.add(item.index)
            self.real_roots += len(roots)
            self.degenerate += int(problem.degenerate)
        return None

    def fingerprint(self, item, out):
        return _pair_fp(out)

    def verify(self, item, out):
        """The baseline comparison comes first: an F2 rig fails there, and its
        far-out homographies are not held to the other checks."""
        try:
            base = fusiello_rectify(item.rig).distortion
        except MinrectError:
            base = None
        if base is not None:
            problem = checks.check_against_baseline(out.distortion, base)
            if problem:
                return (True, None) if item.fault == "F2" else (False, problem)
        c1, c2 = item.cams
        problem = checks.check_rectification(c1, c2, out.H1, out.H2, out.distortion,
                                             out.y1_star, self.check_rng)
        return False, problem

    def layer_metrics(self, tr) -> dict:
        m = {}
        _timings(m, "geometry.rig_build_us", tr.durations("geometry.rig_build"), 1e6, "us")
        _timings(m, "distortion.operand_matrices_us",
                 tr.durations("distortion.operand_matrices"), 1e6, "us")
        for span, metric in (("quartic.coefficients", "quartic.coefficients_us"),
                             ("quartic.solve", "quartic.solve_us"),
                             ("quartic.select", "quartic.select_us"),
                             ("rectify.orientation", "rectify.orientation_us"),
                             ("rectify.complete", "rectify.complete_us"),
                             ("rectify.assemble", "rectify.assemble_us")):
            _timings(m, metric, tr.durations(span), 1e6, "us")
        m["rectify.unattributed_us"] = (median(self.unattributed) * 1e6, "us")
        m["quartic.real_roots"] = (self.real_roots, "count")
        m["quartic.degenerate"] = (self.degenerate, "count")
        return m


class Oracle(Workload):
    """The paper's comparison on one rig: scan oracle, baseline, PD probe, closed form."""

    name = "oracle"
    COUNT = 150

    @staticmethod
    def faults() -> list:
        return rigsets.fault_params({"F1", "F2"}) + [("F2", rigsets.far_poles_params())]

    def __init__(self, seed: int, workdir: str):
        self.items, self.skipped, self.own_s = _rig_items(seed, self.COUNT, math.pi / 2,
                                                          self.faults)
        self.check_rng = np.random.default_rng([seed, 2])

    def warmup(self) -> None:
        for item in self.items[:10]:
            self.op(item, direct)

    @staticmethod
    def _attempt(fn, *args):
        """fn's result, or the MinrectError it raised, so the other calls still run."""
        try:
            return fn(*args)
        except MinrectError as exc:
            return exc

    def op(self, item, call):
        rig = item.rig
        h = rig.cam1.height
        scan = call("baselines.scan", scan_minimize, operand_matrices(rig),
                    -SCAN_HALF_RANGE * h, SCAN_HALF_RANGE * h, SCAN_SAMPLES)
        base = call("baselines.fusiello", self._attempt, fusiello_rectify, rig)
        pd = call("baselines.pd_probe", pd_probe, rig)
        return scan, base, pd, call("rectify.assemble", self._attempt, assemble, rig)

    def extra_traced(self, item, out, tr):
        h = item.rig.cam1.height
        ys = np.linspace(-SCAN_HALF_RANGE * h, SCAN_HALF_RANGE * h, SCAN_SAMPLES)
        tr.call("distortion.eval_many", distortion_of_y_many, operand_matrices(item.rig), ys)

    def fingerprint(self, item, out):
        scan, base, pd, pair = out
        fps = []
        for part in (base, pair):
            fps.append(error_fp(part) if isinstance(part, MinrectError) else _pair_fp(part))
        return (np.array(scan, dtype=float).tobytes(), pd, *fps)

    def verify(self, item, out):
        scan, base, pd, pair = out
        if isinstance(pair, MinrectError):
            return self.raised(item, pair)
        gap = checks.scan_gap(pair.distortion, scan[1])
        if not gap <= checks.SCAN_GAP_TOL:
            if item.fault == "F2":
                return True, None
            return True, f"scan gap {gap:.3e} > {checks.SCAN_GAP_TOL:g} (fault rig: {item.fault})"
        c1, c2 = item.cams
        problem = checks.check_rectification(c1, c2, pair.H1, pair.H2, pair.distortion,
                                             pair.y1_star, self.check_rng)
        if problem is None and not isinstance(base, MinrectError):
            problem = checks.check_against_baseline(pair.distortion, base.distortion)
        return False, problem

    def layer_metrics(self, tr) -> dict:
        m = {}
        _timings(m, "distortion.eval_many_ms", tr.durations("distortion.eval_many"), 1e3, "ms")
        _timings(m, "baselines.scan_ms", tr.durations("baselines.scan"), 1e3, "ms")
        _timings(m, "baselines.fusiello_us", tr.durations("baselines.fusiello"), 1e6, "us")
        _timings(m, "baselines.pd_probe_us", tr.durations("baselines.pd_probe"), 1e6, "us")
        return m


@dataclass
class Frame:
    index: int
    img1: object
    img2: object
    pts: np.ndarray  # synth correspondences (x1, y1, x2, y2)
    rig: object


def _gray(img):
    return from_array(np.array(img.data[:, :, 0]))


class Video(Workload):
    """Grayscale 640x480 stereo frames of one synth rig, warped with fixed H1/H2."""

    name = "video"
    FRAMES = 6

    def __init__(self, seed: int, workdir: str):
        rig = synth.synth_rig(seed)
        pair = assemble(rig)
        self.H1, self.H2 = pair.H1, pair.H2
        self.size = tuple(pair.output_size)
        self.items = []
        for k, (Q, d) in enumerate(rigsets.frame_motions(seed, self.FRAMES)):
            moved = rigsets.moved_rig(rig, Q, d)
            self.items.append(Frame(k, _gray(synth.render_view(moved.cam1)),
                                    _gray(synth.render_view(moved.cam2)),
                                    synth.correspondences(moved), moved))
        self.check_rng = np.random.default_rng([seed, 3])

    def warmup(self) -> None:
        self.op(self.items[0], direct)

    def op(self, item, call):
        w, h = self.size
        return (call("warp.warp", warp_image, item.img1, self.H1, w, h),
                call("warp.warp", warp_image, item.img2, self.H2, w, h))

    def extra_traced(self, item, out, tr):
        if item.index == 0:
            tr.call("synth.render_view", synth.render_view, item.rig.cam1)

    def fingerprint(self, item, out):
        return tuple(hashlib.blake2b(o.data.tobytes(), digest_size=16).digest() for o in out)

    def verify(self, item, out):
        for src, res, H in ((item.img1, out[0], self.H1), (item.img2, out[1], self.H2)):
            problem = checks.check_warp(src.data, res.data, H, self.size, self.check_rng)
            if problem:
                return False, problem
        gap = checks.pixel_row_gap(self.H1, self.H2, item.pts)
        if not gap <= checks.ROW_TOL_PX:
            return False, f"correspondences {gap:.3e} px apart in rows"
        return False, None

    def valid_ratio(self) -> float:
        w, h = self.size
        xs, ys = np.meshgrid(np.arange(w), np.arange(h))
        xs, ys = xs.ravel(), ys.ravel()
        inside = 0
        for img, H in ((self.items[0].img1, self.H1), (self.items[0].img2, self.H2)):
            s = np.linalg.inv(H) @ np.vstack([xs, ys, np.ones(len(xs))])
            sx, sy = s[0] / s[2], s[1] / s[2]
            inside += np.count_nonzero((sx >= 0) & (sx <= img.width - 1)
                                       & (sy >= 0) & (sy <= img.height - 1))
        return inside / (2.0 * w * h)

    def layer_metrics(self, tr) -> dict:
        warps = tr.durations("warp.warp")
        w, h = self.size
        return {
            "warp.warp_ms": (median(warps) * 1e3, "ms"),
            "warp.mpix_per_s": (w * h / 1e6 / median(warps), "Mpix/s"),
            "warp.valid_ratio": (self.valid_ratio(), "ratio"),
            "synth.render_view_ms": (median(tr.durations("synth.render_view")) * 1e3, "ms"),
        }


@dataclass
class Scene:
    index: int
    directory: str
    rig: object
    pts: np.ndarray
    left: np.ndarray  # the input PPMs as the benchmark itself parses them
    right: np.ndarray


class Cli(Workload):
    """Fresh synth scenes through three cold CLI processes each."""

    name = "cli"
    SCENES = 4

    def __init__(self, seed: int, workdir: str):
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        rng = np.random.default_rng([seed, 4])
        self.items = []
        for k in range(self.SCENES):
            d = os.path.join(workdir, f"scene{k}")
            os.makedirs(d, exist_ok=True)
            rig = synth.synth_rig(int(rng.integers(0, 2**31)))
            serialize.write_json(os.path.join(d, "calib.json"), rig_to_dict(rig))
            write_pnm(synth.render_view(rig.cam1), os.path.join(d, "left.ppm"))
            write_pnm(synth.render_view(rig.cam2), os.path.join(d, "right.ppm"))
            self.items.append(Scene(k, d, rig, synth.correspondences(rig),
                                    self._read(d, "left.ppm"), self._read(d, "right.ppm")))
        self.check_rng = np.random.default_rng([seed, 5])
        self.child_rss_kb = 0

    @staticmethod
    def _read(d, name):
        with open(os.path.join(d, name), "rb") as fh:
            return checks.parse_pnm(fh.read())

    def _spawn(self, args: list, log) -> int:
        """Run one cold child process to its end; returns its exit code."""
        p = subprocess.Popen([sys.executable] + args, env=self.env, stdout=log,
                             stderr=subprocess.STDOUT, cwd=self.root)
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return p.returncode

    def _commands(self, item):
        d = item.directory
        cli = ["-m", "minrect.cli"]
        rect = os.path.join(d, "rect.json")
        return [
            ("cli.rectify", cli + ["rectify", os.path.join(d, "calib.json"), "-o", rect]),
            ("cli.warp", cli + ["warp", os.path.join(d, "left.ppm"), rect, "--use", "1",
                                "-o", os.path.join(d, "left_rect.ppm")]),
            ("cli.warp", cli + ["warp", os.path.join(d, "right.ppm"), rect, "--use", "2",
                                "-o", os.path.join(d, "right_rect.ppm")]),
        ]

    OUTPUTS = ("rect.json", "left_rect.ppm", "right_rect.ppm")

    def warmup(self) -> None:
        self.op(self.items[0], direct)

    def prepare(self, item) -> None:
        """Remove the previous outputs, so each operation is checked on files it wrote."""
        for name in self.OUTPUTS:
            try:
                os.remove(os.path.join(item.directory, name))
            except FileNotFoundError:
                pass

    def op(self, item, call):
        with open(os.path.join(item.directory, "log.txt"), "wb") as log:
            return tuple(call(name, self._spawn, args, log)
                         for name, args in self._commands(item))

    def extra_traced(self, item, out, tr):
        d = item.directory
        with open(os.devnull, "wb") as log:
            tr.call("cli.import", self._spawn, ["-c", "import minrect"], log)
        rig = tr.call("geometry.load_calibration", load_calibration, os.path.join(d, "calib.json"))
        img = tr.call("warp.read_pnm", read_pnm, os.path.join(d, "left.ppm"))
        tr.call("warp.write_pnm", write_pnm, img, os.path.join(d, "copy.ppm"))
        doc = serialize.rectified_pair_to_dict(assemble(rig))
        tr.call("serialize.write_json", serialize.write_json, os.path.join(d, "copy.json"), doc)

    def _outputs(self, item) -> dict:
        """The output files' bytes; None for a file the operation did not write."""
        out = {}
        for name in self.OUTPUTS:
            try:
                with open(os.path.join(item.directory, name), "rb") as fh:
                    out[name] = fh.read()
            except FileNotFoundError:
                out[name] = None
        return out

    def fingerprint(self, item, out):
        return (out, tuple(None if v is None else hashlib.blake2b(v, digest_size=16).digest()
                           for v in self._outputs(item).values()))

    def verify(self, item, out):
        if any(out):
            return True, f"exit codes {out}"
        files = self._outputs(item)
        missing = [name for name, v in files.items() if v is None]
        if missing:
            return False, f"exit 0 without writing {', '.join(missing)}"
        try:
            doc = checks.strict_json(files["rect.json"].decode("utf-8"))
            H1 = np.array(doc["H1"], dtype=float)
            H2 = np.array(doc["H2"], dtype=float)
            size = tuple(int(v) for v in doc["output_size"])
        except (ValueError, KeyError, TypeError) as exc:
            return False, f"rect.json: {exc}"
        if H1.shape != (3, 3) or H2.shape != (3, 3) or not (
                np.all(np.isfinite(H1)) and np.all(np.isfinite(H2))):
            return False, "rect.json: homographies not finite 3x3"
        for src, name, H in ((item.left, "left_rect.ppm", H1), (item.right, "right_rect.ppm", H2)):
            try:
                res = checks.parse_pnm(files[name])
            except ValueError as exc:
                return False, f"{name}: {exc}"
            problem = checks.check_warp(src, res, H, size, self.check_rng)
            if problem:
                return False, f"{name}: {problem}"
        gap = checks.pixel_row_gap(H1, H2, item.pts)
        if not gap <= checks.ROW_TOL_PX:
            return False, f"correspondences {gap:.3e} px apart in rows"
        return False, None

    def peak_rss_mb(self) -> float:
        return self.child_rss_kb / 1024.0

    def layer_metrics(self, tr) -> dict:
        ms = lambda name: median(tr.durations(name)) * 1e3  # noqa: E731
        return {
            "cli.import_ms": (ms("cli.import"), "ms"),
            "cli.rectify_ms": (ms("cli.rectify"), "ms"),
            "cli.warp_ms": (ms("cli.warp"), "ms"),
            "geometry.load_calibration_ms": (ms("geometry.load_calibration"), "ms"),
            "warp.read_pnm_ms": (ms("warp.read_pnm"), "ms"),
            "warp.write_pnm_ms": (ms("warp.write_pnm"), "ms"),
            "serialize.write_json_us": (median(tr.durations("serialize.write_json")) * 1e6, "us"),
        }


WORKLOADS = {w.name: w for w in (Rigs, Video, Oracle, Cli)}
