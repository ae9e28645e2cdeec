"""The error hierarchy: the class decides the CLI exit code."""
import math

import numpy as np
import pytest

from minrect import errors
from minrect.baselines import degenerate_rig, fusiello_rectify, scan_minimize, stress
from minrect.distortion import (distortion_of_y, moment_matrices, operand_matrices,
                                pixel_sum_distortion)
from minrect.errors import DegenerateZ, InputError, InvalidArgument, MinrectError
from minrect.geometry import Camera, StereoRig, rig_to_dict
from minrect.rectify import new_orientation
from minrect.synth import synth_rig
from minrect.warp import ImageBuffer, RectifyMap, from_array


@pytest.mark.parametrize("name", ["InvalidArgument", "InvalidCalibration", "InvalidCamera",
                                  "InvalidRig", "MalformedHeader", "UnsupportedMaxval"])
def test_refused_input_classes_are_input_errors(name):
    assert issubclass(getattr(errors, name), InputError)


@pytest.mark.parametrize("name", ["SingularProjection", "PoleAtY", "DegenerateCenter",
                                  "DegenerateC", "AllCoefficientsZero", "NoAdmissibleRoot",
                                  "DegenerateZ", "CollapsedMidlines", "SingularHomography",
                                  "EmptyDomain", "PipelineError"])
def test_pipeline_classes_are_not_input_errors(name):
    cls = getattr(errors, name)
    assert issubclass(cls, MinrectError) and not issubclass(cls, InputError)


REFUSALS = {
    "stress trials < 1": lambda rig: stress(0, seed=1),
    "stress seed < 0": lambda rig: stress(1, seed=-1),
    "synth seed < 0": lambda rig: synth_rig(-1),
    "degenerate |theta| >= pi/2": lambda rig: degenerate_rig(0.3, 2.0),
    "degenerate theta NaN": lambda rig: degenerate_rig(0.3, math.nan),
    "distortion_of_y NaN": lambda rig: distortion_of_y(operand_matrices(rig), math.nan),
    "distortion_of_y +inf": lambda rig: distortion_of_y(operand_matrices(rig), math.inf),
    "distortion_of_y -inf": lambda rig: distortion_of_y(operand_matrices(rig), -math.inf),
    "scan samples < 1001": lambda rig: scan_minimize(operand_matrices(rig), 0.0, 1.0, 10),
    "scan y_lo -inf": lambda rig: scan_minimize(operand_matrices(rig), -math.inf, 1.0),
    "scan y_hi +inf": lambda rig: scan_minimize(operand_matrices(rig), 0.0, math.inf),
    "scan y_lo NaN": lambda rig: scan_minimize(operand_matrices(rig), math.nan, 1.0),
    "scan y_hi NaN": lambda rig: scan_minimize(operand_matrices(rig), 0.0, math.nan),
    "scan span overflows": lambda rig: scan_minimize(operand_matrices(rig), -1e308, 1e308),
    "scan bound beyond float": lambda rig: scan_minimize(operand_matrices(rig), 0, 10**400),
    "image channels": lambda rig: ImageBuffer(width=1, height=1, channels=2,
                                              data=np.zeros((1, 1, 2), dtype=np.uint8)),
    "image shape": lambda rig: ImageBuffer(width=2, height=1, channels=1,
                                           data=np.zeros((1, 1, 1), dtype=np.uint8)),
    "map source size": lambda rig: RectifyMap.build(np.eye(3), 4, 4, 4, 4).apply(
        from_array(np.zeros((4, 5), dtype=np.uint8))),
    # one rule for every size, count and seed: an integer, not a bool, of at least a minimum
    "stress trials 1.5": lambda rig: stress(1.5, 0),
    "stress seed 1.5": lambda rig: stress(2, 1.5),
    "stress trials True": lambda rig: stress(True, 0),
    "synth seed 1.5": lambda rig: synth_rig(1.5),
    "synth seed True": lambda rig: synth_rig(True),
    "moments width 2.5": lambda rig: moment_matrices(2.5, 3),
    "moments width 1": lambda rig: moment_matrices(1, 5),
    "pixel sum width 2.5": lambda rig: pixel_sum_distortion((0.0, 0.0, 1.0), 2.5, 3),
}


@pytest.mark.parametrize("call", REFUSALS.values(), ids=REFUSALS.keys())
def test_every_argument_refusal_is_an_invalid_argument_and_a_value_error(rig_d, call):
    with pytest.raises(InvalidArgument) as exc:
        call(rig_d)
    assert isinstance(exc.value, ValueError) and isinstance(exc.value, InputError)


def test_a_numpy_integer_is_taken_wherever_an_int_is():
    ten, two = np.int64(10), np.int64(2)
    assert moment_matrices(ten, ten) is moment_matrices(10, 10)
    assert pixel_sum_distortion((0.1, 0.0, 1.0), ten, two) == pixel_sum_distortion(
        (0.1, 0.0, 1.0), 10, 2)
    assert rig_to_dict(synth_rig(two)) == rig_to_dict(synth_rig(2))
    report = stress(np.int64(1), np.int64(3))
    assert (type(report.trials), type(report.seed)) == (int, int)
    assert report.to_dict() | {"timings_ms": {}} == stress(1, 3).to_dict() | {"timings_ms": {}}
    rig = synth_rig(0)
    assert scan_minimize(operand_matrices(rig), 0.0, 1.0, np.int64(1001)) == scan_minimize(
        operand_matrices(rig), 0.0, 1.0, 1001)


def test_a_direction_along_the_baseline_is_one_class_in_the_baseline_and_the_closed_form():
    """Camera 2 sits on camera 1's optical axis, which with the principal point at the
    origin is also the ray of the intercept y1 = 0 that assemble's orientation stage takes."""
    A = np.diag([800.0, 800.0, 1.0])
    rig = StereoRig(Camera(A, np.eye(3), np.zeros(3), 640, 480),
                    Camera(A, np.eye(3), np.array([0.0, 0.0, -1.0]), 640, 480))
    for call in (lambda: fusiello_rectify(rig), lambda: new_orientation(rig, 0.0)):
        with pytest.raises(DegenerateZ, match="parallel to the baseline"):
            call()
