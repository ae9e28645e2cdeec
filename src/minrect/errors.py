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


class PoleAtY(MinrectError):
    """y-intercept at a pole of the metric, or where a perspective row has third component 0."""


class DegenerateCenter(MinrectError):
    """Distortion denominator vanishes for the given w vector."""


class DegenerateC(MinrectError):
    """[C]_22 is exactly zero or a quartic coefficient is not finite."""


class AllCoefficientsZero(MinrectError):
    """Every polynomial coefficient is zero."""


class NoAdmissibleRoot(MinrectError):
    """No real stationary point, or every real one is at a pole or overflows."""


class DegenerateZ(MinrectError):
    """The direction that fixes the rectifying plane is parallel to the baseline."""


class CollapsedMidlines(MinrectError):
    """An edge midpoint (shear) or a corner (fit) maps to infinity under the
    homography, or the midlines collapse; shear or fit undefined."""


class SingularHomography(MinrectError):
    """Homography is not invertible."""


class EmptyDomain(MinrectError):
    """Every scan sample is at a pole or overflows."""


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
