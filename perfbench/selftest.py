"""Shows that the benchmark's checks reject wrong answers.

    python3 perfbench/selftest.py

Each case feeds one check a deliberately wrong output and requires it to
be rejected; the honest output must pass.  Exits 1 if any check lets a
wrong answer through or rejects a right one.
"""
import dataclasses
import math
import os
import shutil
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import rigsets  # noqa: E402
import workloads  # noqa: E402
from minrect import assemble, fusiello_rectify, operand_matrices, scan_minimize  # noqa: E402
from minrect import synth  # noqa: E402
from minrect.distortion import distortion_of_y  # noqa: E402
from minrect.errors import DegenerateC, PipelineError  # noqa: E402
from minrect.rectify import complete_homographies, new_orientation  # noqa: E402
from minrect.warp import warp_image  # noqa: E402
from spans import Tracer, direct  # noqa: E402

RESULTS = []


def expect(name: str, problem, should_fail: bool) -> None:
    ok = bool(problem) == should_fail
    RESULTS.append(ok)
    verdict = "rejected" if problem else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}{f' ({problem})' if problem else ''}")


def shifted(H, dx=0.0, dy=0.0):
    return np.array([[1.0, 0.0, dx], [0.0, 1.0, dy], [0.0, 0.0, 1.0]]) @ H


def rig_cases() -> None:
    params, _ = rigsets.screened_params(0, 8, 0.25, math.pi / 3, workloads.screen)
    rig = rigsets.build_rig(params[-1])
    cams = (workloads.cam_tuple(rig.cam1), workloads.cam_tuple(rig.cam2))
    pair = assemble(rig)
    rng = np.random.default_rng(0)

    def rect(H1, H2, dist, y):
        return checks.check_rectification(*cams, H1, H2, dist, y, rng)

    expect("honest assemble output", rect(pair.H1, pair.H2, pair.distortion, pair.y1_star), False)

    # H for an intercept nudged off the minimum by 1 % of the image height,
    # reported honestly
    y = pair.y1_star + 0.01 * rig.cam1.height
    ops = operand_matrices(rig)
    nudged = complete_homographies(rig, new_orientation(rig, y), y, distortion_of_y(ops, y))
    expect("y1* nudged by 0.01 h, metric reported for it",
           rect(nudged.H1, nudged.H2, nudged.distortion, nudged.y1_star), True)
    expect("y1* nudged by 0.01 h, optimal metric still claimed",
           rect(nudged.H1, nudged.H2, pair.distortion, pair.y1_star), True)
    expect("H2 shifted down by 1e-3 px: rows no longer aligned",
           rect(pair.H1, shifted(pair.H2, dy=1e-3), pair.distortion, pair.y1_star), True)
    expect("H1 and H2 swapped",
           rect(pair.H2, pair.H1, pair.distortion, pair.y1_star), True)
    expect("distortion misreported by 1e-6 relative",
           rect(pair.H1, pair.H2, pair.distortion * (1 + 1e-6), pair.y1_star), True)

    base = fusiello_rectify(rig).distortion
    expect("closed form against the baseline", checks.check_against_baseline(pair.distortion, base),
           False)
    expect("closed form worse than the baseline",
           checks.check_against_baseline(base * (1 + 1e-6), base), True)

    h = rig.cam1.height
    _, d_scan = scan_minimize(ops, -10.0 * h, 10.0 * h)
    gap = checks.scan_gap(pair.distortion, d_scan)
    expect("scan gap of the closed form", None if gap <= checks.SCAN_GAP_TOL else f"gap {gap:.2e}",
           False)
    gap = checks.scan_gap(nudged.distortion, d_scan)
    expect("scan gap of the nudged intercept",
           None if gap <= checks.SCAN_GAP_TOL else f"gap {gap:.2e}", True)


def stage_cases() -> None:
    wl = workloads.Rigs(0, "")
    item = wl.items[0]
    tr = Tracer("self")
    pair = wl.op(item, tr.call)
    expect("stepwise stages against assemble", wl.extra_traced(item, pair, tr), False)
    y = pair.y1_star + 1e-9 * (1.0 + abs(pair.y1_star))
    other = complete_homographies(item.rig, new_orientation(item.rig, y), y, pair.distortion)
    expect("stepwise stages against an assemble result 1e-9 off in y1*",
           wl.extra_traced(item, other, tr), True)


def fault_cases() -> None:
    """Only the kept faults may fail; any other failure is a check problem."""
    wl = workloads.Rigs(0, "")
    seeded = wl.items[0]
    f1 = next(item for item in wl.items if item.fault == "F1")
    exc = PipelineError(workloads.F1_STAGE, DegenerateC("[C_i]_22 vanishes"))
    expect("F1 rig raising at quartic-coefficients", wl.raised(f1, exc)[1], False)
    expect("seeded rig raising at quartic-coefficients", wl.raised(seeded, exc)[1], True)
    expect("F1 rig raising at minimum-selection",
           wl.raised(f1, PipelineError("minimum-selection", exc))[1], True)

    far = next(item for item in wl.items if item.fault == "F2")
    out = wl.op(far, direct)
    expect("far-poles F2 rig, local minimum between the poles", wl.verify(far, out)[1], False)
    expect("same output on a seeded rig",
           wl.verify(dataclasses.replace(far, fault=None), out)[1], True)
    expect("screen on the far-poles rig, poles 8 px apart",
           None if workloads.screen(far.params) else "skipped", True)

    oracle = workloads.Oracle(0, "")
    item = oracle.items[0]
    scan, base, pd, pair = oracle.op(item, direct)
    expect("oracle on a seeded rig", oracle.verify(item, (scan, base, pd, pair))[1], False)
    low = (scan[0], pair.distortion - 1e-6 * (1.0 + pair.distortion))
    expect("seeded rig 1e-6 above the scan minimum",
           oracle.verify(item, (low, base, pd, pair))[1], True)
    expect("F2 rig 1e-6 above the scan minimum",
           oracle.verify(dataclasses.replace(item, fault="F2"), (low, base, pd, pair))[1], False)


def cli_cases() -> None:
    work = os.path.join(os.path.dirname(HERE), ".perfbench", f"selftest-{os.getpid()}")
    try:
        wl = workloads.Cli(0, work)
        item = wl.items[0]
        wl.prepare(item)
        codes = wl.op(item, direct)
        expect("CLI outputs written by this operation", wl.verify(item, codes)[1], False)
        wl.prepare(item)
        expect("CLI exit 0 without writing its outputs", wl.verify(item, codes)[1], True)
        expect("CLI exit code 3", wl.verify(item, (3, 0, 0))[1], True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def image_cases() -> None:
    rig = synth.synth_rig(0)
    pair = assemble(rig)
    w, h = pair.output_size
    src = workloads._gray(synth.render_view(rig.cam1))
    out = warp_image(src, pair.H1, w, h).data
    rng = np.random.default_rng(0)
    expect("honest warp", checks.check_warp(src.data, out, pair.H1, (w, h), rng), False)
    expect("warp shifted right by one pixel",
           checks.check_warp(src.data, np.roll(out, 1, axis=1), pair.H1, (w, h), rng), True)
    expect("warp one row short",
           checks.check_warp(src.data, out[:-1], pair.H1, (w, h), rng), True)
    expect("warp 2 LSB too bright",
           checks.check_warp(src.data, np.minimum(out.astype(int) + 2, 255), pair.H1, (w, h), rng),
           True)
    pts = synth.correspondences(rig)
    gap = checks.pixel_row_gap(pair.H1, pair.H2, pts)
    expect("synth correspondences through H1/H2",
           None if gap <= checks.ROW_TOL_PX else f"gap {gap:.2e}", False)
    gap = checks.pixel_row_gap(pair.H1, shifted(pair.H2, dy=1e-3), pts)
    expect("correspondences through an H2 shifted by 1e-3 px",
           None if gap <= checks.ROW_TOL_PX else f"gap {gap:.2e}", True)


def format_cases() -> None:
    def rejects(fn, *args):
        try:
            fn(*args)
        except ValueError as exc:
            return str(exc)
        return None

    expect("strict JSON with a finite document", rejects(checks.strict_json, '{"y1": 1.5}'), False)
    expect("strict JSON with NaN", rejects(checks.strict_json, '{"y1": NaN}'), True)
    expect("PNM with maxval 15", rejects(checks.parse_pnm, b"P5 2 1 15\n\x0f\x0f"), True)
    expect("PNM with short pixel data", rejects(checks.parse_pnm, b"P5 2 1 255\n\x0f"), True)


def loop_cases() -> None:
    import run

    class Flaky(workloads.Workload):
        """An operation whose output changes after its first round."""

        name = "flaky"

        def __init__(self):
            self.items = [SimpleNamespace(index=0)]
            self.calls = 0

        def op(self, item, call):
            self.calls += 1
            return self.calls

        def fingerprint(self, item, out):
            return out

        def verify(self, item, out):
            return False, None

    loop = run.Loop(Flaky())
    loop.round()
    loop.round()
    expect("output that changes between rounds", "; ".join(loop.problems), True)


def main() -> int:
    rig_cases()
    stage_cases()
    fault_cases()
    image_cases()
    cli_cases()
    format_cases()
    loop_cases()
    bad = RESULTS.count(False)
    print(f"{len(RESULTS) - bad}/{len(RESULTS)} cases behaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
