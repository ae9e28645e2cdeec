"""The error hierarchy: the class decides the CLI exit code."""
import math

import numpy as np
import pytest

from minrect import errors
from minrect.baselines import degenerate_rig, scan_minimize, stress
from minrect.distortion import distortion_of_y, operand_matrices
from minrect.errors import InputError, InvalidArgument, MinrectError
from minrect.synth import synth_rig
from minrect.warp import ImageBuffer, RectifyMap, from_array


@pytest.mark.parametrize("name", ["InvalidArgument", "InvalidCalibration", "InvalidCamera",
                                  "InvalidRig", "MalformedHeader", "UnsupportedMaxval"])
def test_refused_input_classes_are_input_errors(name):
    assert issubclass(getattr(errors, name), InputError)


@pytest.mark.parametrize("name", ["SingularProjection", "BadDimensions", "PoleAtY",
                                  "DegenerateCenter", "DegenerateC", "AllCoefficientsZero",
                                  "NoAdmissibleRoot", "DegenerateZ", "CollapsedMidlines",
                                  "SingularHomography", "DegenerateOrientation",
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
    "image channels": lambda rig: ImageBuffer(width=1, height=1, channels=2,
                                              data=np.zeros((1, 1, 2), dtype=np.uint8)),
    "image shape": lambda rig: ImageBuffer(width=2, height=1, channels=1,
                                           data=np.zeros((1, 1, 1), dtype=np.uint8)),
    "map source size": lambda rig: RectifyMap.build(np.eye(3), 4, 4, 4, 4).apply(
        from_array(np.zeros((4, 5), dtype=np.uint8))),
}


@pytest.mark.parametrize("call", REFUSALS.values(), ids=REFUSALS.keys())
def test_every_argument_refusal_is_an_invalid_argument_and_a_value_error(rig_d, call):
    with pytest.raises(InvalidArgument) as exc:
        call(rig_d)
    assert isinstance(exc.value, ValueError) and isinstance(exc.value, InputError)
