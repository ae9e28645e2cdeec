"""Exception types raised across the package; the class sets the CLI exit code:
an ``InputError`` exits 2, any other ``MinrectError`` 3, and an ``OSError`` 4."""


class MinrectError(Exception):
    """Base class for all package errors."""


class InputError(MinrectError):
    """Input from outside the program is refused (CLI exit 2)."""


class InvalidArgument(InputError, ValueError):
    """An argument lies outside its documented range."""


class InvalidCamera(InputError):
    """Camera parameters violate an invariant (intrinsics shape, rotation, size)."""


class InvalidRig(InputError):
    """Stereo rig is ill-formed, e.g. coincident optical centers."""


class SingularProjection(MinrectError):
    """A*R is not invertible within the conditioning bound."""


class BadDimensions(MinrectError):
    """Image dimensions below the 2x2 minimum."""


class PoleAtY(MinrectError):
    """y-intercept at a pole of the metric, or where a perspective row has third component 0."""


class DegenerateCenter(MinrectError):
    """Distortion denominator vanishes for the given w vector."""


class DegenerateC(MinrectError):
    """[C]_22 is exactly zero or a quartic coefficient is not finite."""


class AllCoefficientsZero(MinrectError):
    """Every polynomial coefficient is zero."""


class NoAdmissibleRoot(MinrectError):
    """No real stationary point, or every real one is pole-adjacent."""


class DegenerateZ(MinrectError):
    """The horizon ray is parallel to the baseline."""


class CollapsedMidlines(MinrectError):
    """Image edge midlines collapse under the homography; shear undefined."""


class SingularHomography(MinrectError):
    """Homography is not invertible."""


class DegenerateOrientation(MinrectError):
    """Reference camera axis is parallel to the baseline."""


class EmptyDomain(MinrectError):
    """Every scan sample is pole-excluded or overflowing."""


class MalformedHeader(InputError):
    """PNM header does not parse."""


class InvalidCalibration(InputError):
    """An input file (calibration, homographies) or output size fails validation."""


class UnsupportedMaxval(InputError):
    """PNM maxval outside the supported 8-bit range."""


class PipelineError(MinrectError):
    """Failure inside the rectification pipeline, labelled with its stage."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}': {cause}")
